(* Ablation-matrix driver: enumerate configuration cells over the
   kernel's COMPO_* switches, run the curated bench suite once per cell
   in a fresh subprocess, and write every cell's outcome — ok / failed
   / skipped-with-reason, wall time, key metrics — as first-class rows
   in BENCH_matrix.json (experiment E20).

   Usage: matrix_main [--bench PATH] [--out FILE] [--suite E2,E9,...]
                      [--smoke] [--only SUBSTR] [--list] [--keep-dirs]

   `make matrix-check` runs this in smoke mode and then gates the fresh
   matrix against the committed baseline with `compo benchdiff`. *)

module M = Compo_benchmatrix

let say fmt = Format.printf (fmt ^^ "@.")

let usage () =
  say "usage: matrix_main [--bench PATH] [--out FILE] [--suite E2,E9,...]";
  say "                   [--smoke] [--only SUBSTR] [--list] [--keep-dirs]";
  exit 2

let contains_substring hay needle =
  let nh = String.length hay and nn = String.length needle in
  let rec go i = i + nn <= nh && (String.sub hay i nn = needle || go (i + 1)) in
  nn = 0 || go 0

let () =
  let bench = ref "_build/default/bench/main.exe" in
  let out = ref "BENCH_matrix.json" in
  let suite = ref [ "E2"; "E9"; "E10" ] in
  let smoke = ref false in
  let only = ref None in
  let list_only = ref false in
  let keep_dirs = ref false in
  let rec parse = function
    | [] -> ()
    | "--bench" :: path :: rest ->
        bench := path;
        parse rest
    | "--out" :: path :: rest ->
        out := path;
        parse rest
    | "--suite" :: csv :: rest ->
        suite :=
          String.split_on_char ',' csv
          |> List.map String.trim
          |> List.filter (fun s -> s <> "");
        parse rest
    | "--smoke" :: rest ->
        smoke := true;
        parse rest
    | "--only" :: substr :: rest ->
        only := Some substr;
        parse rest
    | "--list" :: rest ->
        list_only := true;
        parse rest
    | "--keep-dirs" :: rest ->
        keep_dirs := true;
        parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let cells =
    let all = M.Cell.default_cells () in
    match !only with
    | None -> all
    | Some substr ->
        List.filter (fun c -> contains_substring (M.Cell.id c) substr) all
  in
  if cells = [] then begin
    say "matrix: no cells match the --only filter";
    exit 2
  end;
  if !list_only then begin
    List.iter
      (fun c ->
        say "%-52s %s" (M.Cell.id c)
          (String.concat " "
             (List.map (fun (k, v) -> k ^ "=" ^ v) (M.Cell.env c))))
      cells;
    exit 0
  end;
  say "ablation matrix: %d cell(s), suite %s, %d core(s) available"
    (List.length cells)
    (String.concat " " !suite)
    (Domain.recommended_domain_count ());
  let config =
    {
      M.Runner.bench_exe = !bench;
      smoke = !smoke;
      suite = !suite;
      keep_dirs = !keep_dirs;
      log = (fun line -> say "%s" line);
    }
  in
  let report = M.Runner.run config cells in
  M.Report.write_file !out report;
  let count p = List.length (List.filter p report.M.Report.m_rows) in
  let ok = count (fun r -> r.M.Report.r_outcome = M.Report.Ok_run) in
  let failed =
    count (fun r ->
        match r.M.Report.r_outcome with M.Report.Failed _ -> true | _ -> false)
  in
  let skipped =
    count (fun r ->
        match r.M.Report.r_outcome with M.Report.Skipped _ -> true | _ -> false)
  in
  say "";
  say "wrote %s (%d rows: %d ok, %d failed, %d skipped)" !out
    (List.length report.M.Report.m_rows)
    ok failed skipped;
  (* failed cells are recorded data and benchdiff gates on them; only a
     matrix with no successful cell at all is a harness failure here *)
  if ok = 0 then begin
    say "matrix: every runnable cell failed — check --bench %s" !bench;
    exit 1
  end
