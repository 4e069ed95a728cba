(* The benchmark's own tests.

     selftest.exe --main MAIN_EXE --server COMPO_SERVER [--benchmark FILE]

   1. The order statistics and counter arithmetic against hand-computed
      vectors.
   2. A tiny run of every workload, untraced and traced: the last line
      must be the result object, correct, with every metric named (and,
      given --benchmark, exactly the metrics BENCHMARK.json names). *)

open Perfbench
module Json = Compo_obs.Json_min

let failures = ref 0

let expect name ok =
  if not ok then begin
    incr failures;
    Printf.printf "FAIL %s\n%!" name
  end
  else Printf.printf "ok   %s\n%!" name

let stats_of xs =
  let t = Stats.create () in
  List.iter (Stats.add t) xs;
  t

let unit_tests () =
  let s = Stats.summarize (stats_of (List.init 100 (fun i -> i + 1))) in
  expect "1..100: p50 is the 50th sample" (s.p50 = 50.);
  expect "1..100: p99 is the 99th sample" (s.p99 = 99.);
  expect "1..100: mean" (s.mean = 50.5);
  let s = Stats.summarize (stats_of (List.init 1000 (fun i -> 1000 - i))) in
  expect "1000..1 unsorted: p50 = 500" (s.p50 = 500.);
  expect "1000..1 unsorted: p99 = 990" (s.p99 = 990.);
  let s = Stats.summarize (stats_of [ 30; 10; 20 ]) in
  expect "3 samples: p50 is the 2nd" (s.p50 = 20.);
  expect "3 samples: p99 is the max" (s.p99 = 30.);
  let s = Stats.summarize (stats_of [ 10; 20; 30; 40; 50; 60; 70; 80; 90; 100 ]) in
  expect "10 samples: p50 = 50 (rank 5)" (s.p50 = 50.);
  expect "10 samples: p99 = 100 (rank 10)" (s.p99 = 100.);
  let s = Stats.summarize (stats_of [ 7 ]) in
  expect "1 sample: p50 = p99 = it" (s.p50 = 7. && s.p99 = 7. && s.n = 1);
  let s = Stats.summarize (Stats.create ()) in
  expect "no samples: nan" (Float.is_nan s.p50 && s.n = 0);
  let big = stats_of (List.init 5000 (fun i -> i)) in
  expect "growth past the initial buffer keeps every sample"
    (Stats.count big = 5000 && Stats.sum big = 4999 * 5000 / 2);
  let m = Stats.merge [ stats_of [ 1; 2 ]; stats_of [ 3 ] ] in
  expect "merge pools samples" (Stats.count m = 3 && Stats.sum m = 6);
  expect "median of 3" (Stats.median [ 3.; 1.; 2. ] = 2.);
  expect "median of 4" (Stats.median [ 4.; 1.; 3.; 2. ] = 2.5);
  let win ops probes reads selects =
    {
      Common.w_ops = ops;
      w_busy_ns = 1_000_000_000;
      w_read = stats_of reads;
      w_write = Stats.create ();
      w_select = stats_of selects;
      w_txn = Stats.create ();
      w_probe = stats_of probes;
    }
  in
  let wins =
    [ win 100 [ 35; 35; 90 ] [ 10; 10; 90 ] [ 1 ]; win 400 [ 60 ] [ 40; 40; 1 ] [ 2 ];
      win 200 [ 40; 41; 42 ] [ 20; 20; 20 ] [ 3 ]; win 300 [ 50; 50 ] [ 30; 30 ] [ 4 ];
      win 900 [] [ 1 ] [ 5 ] ]
  in
  let calm = Common.calm_windows wins in
  expect "5 windows, none near the fastest probe: the fastest sixth, 1 window"
    (Stats.count calm.w_read = 3 && Stats.sum calm.w_select = 1);
  let wins =
    [ win 100 [ 35; 35; 90 ] [ 10; 10; 90 ] [ 1 ]; win 400 [ 60 ] [ 40; 40; 1 ] [ 2 ];
      win 200 [ 38; 39; 40 ] [ 20; 20; 20 ] [ 3 ]; win 300 [ 50; 50 ] [ 30; 30 ] [ 4 ];
      win 900 [] [ 1 ] [ 5 ] ]
  in
  let calm = Common.calm_windows wins in
  expect "every window within 15% of the fastest probe median (35 and 39)"
    (Stats.count calm.w_read = 6 && Stats.sum calm.w_select = 1 + 3);
  expect "calm windows pool ops and busy time"
    (calm.w_ops = 300 && calm.w_busy_ns = 2_000_000_000);
  expect "the choice does not depend on window order"
    (Stats.sum (Common.calm_windows (List.rev wins)).w_select = 1 + 3);
  expect "the choice does not look at the program's own latencies"
    (Stats.sum (Common.calm_windows [ win 1 [ 10 ] [ 500 ] [ 9 ]; win 2 [ 20 ] [ 5 ] [ 8 ] ]).w_select
    = 9);
  expect "a window without probes ranks last"
    (Stats.sum (Common.calm_windows [ win 1 [] [ 5 ] [ 9 ]; win 2 [ 50 ] [ 50 ] [ 8 ] ]).w_select = 8);
  expect "no probes at all: every window"
    (Stats.count (Common.calm_windows [ win 1 [] [ 5 ] [ 9 ]; win 2 [] [ 50 ] [ 8 ] ]).w_read = 2);
  expect "at least a sixth of the windows"
    (Stats.count
       (Common.calm_windows (List.init 12 (fun i -> win 1 [ 10 + (10 * i) ] [ i ] [ i ]))).w_read
    = 2);
  expect "calm pairs: within 15% of the fastest probe, in probe order"
    (Common.calm_by_probe [ (30., "c"); (10., "a"); (11.5, "b"); (11.6, "x") ] = [ "a"; "b" ]);
  expect "calm pairs: at least a sixth"
    (Common.calm_by_probe (List.init 7 (fun i -> (float_of_int (10 * (i + 1)), i))) = [ 0; 1 ]);
  let e2e = Common.end_to_end ~setup_s:0.5 wins in
  let value name = (List.find (fun (m : Common.metric) -> m.name = name) e2e).value in
  expect "end to end: ops/s over the calm windows" (value "ops_per_s" = Some 150.);
  expect "end to end: read p50 of the pooled calm samples (6 samples, rank 3)"
    (value "read_p50_us" = Some 0.02);
  expect "end to end: read p99 of the pooled calm samples is their max"
    (value "read_p99_us" = Some 0.09);
  expect "ratio over zero is 0" (Stats.ratio 5. 0. = 0.);
  let before =
    Result.get_ok
      (Kernel_counters.of_json
         {|{"metrics": [
            { "name": "inheritance.cache.hit", "kind": "counter", "value": 10 },
            { "name": "inheritance.cache.lookup", "kind": "counter", "value": 20 },
            { "name": "net.request.seconds", "kind": "histogram", "count": 4, "sum": 0.002, "min": null, "max": null, "overflow": 0, "buckets": [] } ]}|})
  in
  let after =
    Result.get_ok
      (Kernel_counters.of_json
         {|{"metrics": [
            { "name": "inheritance.cache.hit", "kind": "counter", "value": 40 },
            { "name": "inheritance.cache.lookup", "kind": "counter", "value": 60 },
            { "name": "net.request.seconds", "kind": "histogram", "count": 14, "sum": 0.012, "min": null, "max": null, "overflow": 0, "buckets": [] } ]}|})
  in
  expect "hit ratio over the window: 30/40"
    (Kernel_counters.cache_hit_ratio ~before ~after = Some 0.75);
  expect "histogram mean over the window: 1000 us"
    (match Kernel_counters.mean_us ~before ~after "net.request.seconds" with
    | Some v -> Float.abs (v -. 1000.) < 1e-6
    | None -> false);
  expect "a counter that no longer exists reads None"
    (Kernel_counters.delta ~before ~after "server.gate.wait_seconds" = None)

(* ------------------------------------------------------------------ *)

let run_main main args =
  let main = if Filename.is_implicit main then Filename.concat Filename.current_dir_name main else main in
  let ic = Unix.open_process_args_in main (Array.of_list (main :: args)) in
  let lines = In_channel.input_all ic |> String.split_on_char '\n' |> List.filter (( <> ) "") in
  let status = Unix.close_process_in ic in
  (status, lines)

let e2e_names =
  List.map (fun (m : Common.metric) -> m.name) (Common.end_to_end ~setup_s:1. [])

let layer_names = List.map fst Common.layer_catalogue

let benchmark_names file =
  match Json.parse_file file with
  | Error msg -> failwith msg
  | Ok doc ->
      let names key =
        List.filter_map
          (fun m -> Option.bind (Json.member "name" m) Json.to_string)
          (Json.to_list (Option.value ~default:Json.Null (Json.member key doc)))
      in
      (names "workloads", names "end_to_end", names "per_layer")

let smoke main server ~names workload trace =
  let status, lines =
    run_main main
      [ "--workload"; workload; "--seed"; "7"; "--seconds"; "1"; "--trace"; trace; "--server";
        server; "--size"; "tiny" ]
  in
  let label = Printf.sprintf "%s --trace %s" workload trace in
  expect (label ^ ": exits 0") (status = Unix.WEXITED 0);
  match List.rev lines with
  | [] -> expect (label ^ ": prints a result") false
  | last :: _ -> (
      match Json.parse last with
      | Error msg -> expect (label ^ ": last line is JSON (" ^ msg ^ ")") false
      | Ok r ->
          let num k = Option.bind (Json.member k r) Json.to_float in
          expect (label ^ ": correct") (Json.member "correct" r = Some (Json.Bool true));
          expect (label ^ ": nothing failed") (num "failed" = Some 0.);
          expect (label ^ ": attempted >= 1")
            (match num "attempted" with Some a -> a >= 1. | None -> false);
          let metrics = Option.value ~default:Json.Null (Json.member "metrics" r) in
          let printed = List.map fst (Json.obj_fields metrics) in
          expect (label ^ ": exactly the named metrics")
            (List.sort compare printed = List.sort compare names);
          expect (label ^ ": every metric has a number and a unit")
            (List.for_all
               (fun (_, m) ->
                 Option.is_some (Option.bind (Json.member "value" m) Json.to_float)
                 && Option.is_some (Option.bind (Json.member "unit" m) Json.to_string))
               (Json.obj_fields metrics)))

let () =
  let main = ref "" and server = ref "" and benchmark = ref None in
  let rec parse = function
    | [] -> ()
    | "--main" :: v :: rest -> main := v; parse rest
    | "--server" :: v :: rest -> server := v; parse rest
    | "--benchmark" :: v :: rest -> benchmark := Some v; parse rest
    | _ ->
        prerr_endline "usage: selftest.exe --main MAIN_EXE --server COMPO_SERVER [--benchmark FILE]";
        exit 2
  in
  parse (List.tl (Array.to_list Sys.argv));
  unit_tests ();
  let workloads = [ "designer"; "design-txn"; "catalog" ] in
  (match !benchmark with
  | None -> ()
  | Some file ->
      let w, e, l = benchmark_names file in
      expect "BENCHMARK.json names the three workloads" (w = workloads);
      expect "BENCHMARK.json end_to_end matches the printed metrics" (e = e2e_names);
      expect "BENCHMARK.json per_layer matches the printed metrics" (l = layer_names));
  if !main <> "" then
    List.iter
      (fun w ->
        smoke !main !server ~names:e2e_names w "0";
        smoke !main !server ~names:layer_names w "1")
      workloads;
  if !failures > 0 then begin
    Printf.printf "%d check(s) failed\n" !failures;
    exit 1
  end
  else print_endline "all checks passed"
