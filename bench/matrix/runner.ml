module Metrics = Compo_obs.Metrics
module J = Compo_obs.Json_min

type config = {
  bench_exe : string;
  smoke : bool;
  suite : string list;
  keep_dirs : bool;
  log : string -> unit;
}

let key_metrics =
  [
    "inheritance.cache.hit";
    "inheritance.cache.miss";
    "index.lookup";
    "ordered_index.lookup";
    "eval.node";
    "faults.fired";
  ]

(* ------------------------------------------------------------------ *)
(* Scratch directories                                                 *)

let temp_dir () =
  let dir = Filename.temp_file "compo-matrix" "" in
  Sys.remove dir;
  Unix.mkdir dir 0o700;
  dir

(* cells write flat files only (reports, snapshots, the log) *)
let remove_dir dir =
  match Sys.readdir dir with
  | entries ->
      Array.iter (fun f -> try Sys.remove (Filename.concat dir f) with Sys_error _ -> ()) entries;
      (try Unix.rmdir dir with Unix.Unix_error _ -> ())
  | exception Sys_error _ -> ()

(* ------------------------------------------------------------------ *)
(* Environment: scrub inherited COMPO_*, then apply the cell's own      *)

let cell_environment cell =
  let inherited =
    Unix.environment () |> Array.to_list
    |> List.filter (fun binding ->
           not (String.length binding >= 6 && String.sub binding 0 6 = "COMPO_"))
  in
  let overrides =
    ("COMPO_BENCH_METRICS", "1") :: Cell.env cell
    |> List.map (fun (k, v) -> k ^ "=" ^ v)
  in
  Array.of_list (inherited @ overrides)

(* ------------------------------------------------------------------ *)
(* Harvesting: key metrics from the cell's obs snapshots + per-
   experiment reports                                                  *)

(* merge by kind: counter traffic sums across experiments, gauges keep
   their high-water mark, histograms contribute their counts *)
let merge_snapshots snapshots =
  let tbl = Hashtbl.create 64 in
  List.iter
    (List.iter (fun (name, metric) ->
         let v = Metrics.metric_scalar metric in
         let merged =
           match (Hashtbl.find_opt tbl name, metric) with
           | None, _ -> v
           | Some prev, Metrics.Gauge _ -> Float.max prev v
           | Some prev, _ -> prev +. v
         in
         Hashtbl.replace tbl name merged))
    snapshots;
  tbl

let harvest_metrics dir suite =
  let snapshots =
    List.filter_map
      (fun exp ->
        let path = Filename.concat dir (Printf.sprintf "BENCH_%s.metrics.json" exp) in
        if Sys.file_exists path then
          match Metrics.read_snapshot_file path with
          | Ok snap -> Some snap
          | Error _ -> None
        else None)
      suite
  in
  let merged = merge_snapshots snapshots in
  let keys =
    List.filter_map
      (fun name ->
        Option.map (fun v -> (name, v)) (Hashtbl.find_opt merged name))
      key_metrics
  in
  (* E15's report carries the cached/uncached speedup — a ratio, so it
     diffs meaningfully across machines of different speeds *)
  let e15 =
    let path = Filename.concat dir "BENCH_resolve_cache.json" in
    if Sys.file_exists path then
      match J.parse_file path with
      | Ok root -> (
          match Option.bind (J.member "min_speedup" root) J.to_float with
          | Some sp -> [ ("e15.min_speedup", sp) ]
          | None -> [])
      | Error _ -> []
    else []
  in
  List.sort (fun (a, _) (b, _) -> String.compare a b) (keys @ e15)

(* last non-empty line of the cell log: the diagnostic that travels in
   a Failed outcome *)
let last_log_line path =
  match In_channel.with_open_text path In_channel.input_all with
  | contents ->
      String.split_on_char '\n' contents
      |> List.filter (fun l -> String.trim l <> "")
      |> List.fold_left (fun _ l -> Some (String.trim l)) None
  | exception Sys_error _ -> None

(* ------------------------------------------------------------------ *)
(* One cell                                                            *)

let run_cell config cell =
  let finish outcome wall metrics =
    {
      Report.r_id = Cell.id cell;
      r_axes = Cell.axes cell;
      r_outcome = outcome;
      r_wall_s = wall;
      r_metrics = metrics;
    }
  in
  let dir = temp_dir () in
  let log_path = Filename.concat dir "cell.log" in
  let bench =
    if Filename.is_relative config.bench_exe then
      Filename.concat (Sys.getcwd ()) config.bench_exe
    else config.bench_exe
  in
  let argv =
    Array.of_list
      ((bench :: (if config.smoke then [ "--smoke" ] else []))
      @ ("--no-bechamel" :: config.suite))
  in
  let outcome, wall =
    let log_fd =
      Unix.openfile log_path [ Unix.O_WRONLY; O_CREAT; O_TRUNC ] 0o600
    in
    let t0 = Unix.gettimeofday () in
    match
      let pid =
        let cwd = Sys.getcwd () in
        Sys.chdir dir;
        Fun.protect
          ~finally:(fun () -> Sys.chdir cwd)
          (fun () ->
            Unix.create_process_env bench argv (cell_environment cell)
              Unix.stdin log_fd log_fd)
      in
      Unix.close log_fd;
      Unix.waitpid [] pid
    with
    | _, Unix.WEXITED 0 -> (Report.Ok_run, Unix.gettimeofday () -. t0)
    | _, status ->
        let wall = Unix.gettimeofday () -. t0 in
        let status_str =
          match status with
          | Unix.WEXITED n -> Printf.sprintf "exit %d" n
          | Unix.WSIGNALED n -> Printf.sprintf "signal %d" n
          | Unix.WSTOPPED n -> Printf.sprintf "stopped %d" n
        in
        let detail =
          match last_log_line log_path with
          | Some line -> status_str ^ ": " ^ line
          | None -> status_str
        in
        (Report.Failed detail, wall)
    | exception Unix.Unix_error (err, _, _) ->
        (try Unix.close log_fd with Unix.Unix_error _ -> ());
        ( Report.Failed
            (Printf.sprintf "could not spawn %s: %s" bench
               (Unix.error_message err)),
          0.0 )
  in
  let metrics =
    match outcome with
    | Report.Ok_run -> harvest_metrics dir config.suite
    | _ -> []
  in
  if config.keep_dirs then
    config.log (Printf.sprintf "  kept scratch dir %s" dir)
  else remove_dir dir;
  finish outcome wall metrics

let run config cells =
  let rows =
    List.map
      (fun cell ->
        let row = run_cell config cell in
        config.log
          (Printf.sprintf "%-52s %-8s %s" (Cell.id cell)
             (Report.outcome_to_string row.Report.r_outcome)
             (match row.Report.r_outcome with
             | Report.Ok_run -> Printf.sprintf "%6.2fs" row.Report.r_wall_s
             | Report.Failed r | Report.Skipped r -> r));
        row)
      cells
  in
  {
    Report.m_smoke = config.smoke;
    m_cores = Domain.recommended_domain_count ();
    m_suite = config.suite;
    m_rows = rows;
  }
