(* The ablation-matrix lab: cell enumeration and env rendering, the
   BENCH_matrix.json report round-trip, and the benchdiff verdict
   logic that gates CI. *)

open Helpers
module Cell = Compo_benchmatrix.Cell
module Report = Compo_benchmatrix.Report
module Diff = Compo_benchmatrix.Diff
module J = Compo_obs.Json_min

(* ------------------------------------------------------------------ *)
(* Cells                                                               *)

let test_default_cells () =
  let cells = Cell.default_cells () in
  check_bool "at least 18 cells" true (List.length cells >= 18);
  let ids = List.map Cell.id cells in
  let uniq = List.sort_uniq String.compare ids in
  check_int "ids are unique" (List.length cells) (List.length uniq);
  (* every cell binds every canonical axis, in canonical order *)
  List.iter
    (fun c ->
      check_int "six axes" 6 (List.length (Cell.axes c));
      check_string "canonical axis order"
        "cache index compile delta prov fp"
        (String.concat " " (List.map fst (Cell.axes c))))
    cells;
  (* the curated blocks are all present *)
  let mem id = List.mem id ids in
  check_bool "baseline cell" true
    (mem "cache=on index=on compile=on delta=on prov=off fp=off");
  check_bool "full-ablation corner" true
    (mem "cache=off index=off compile=off delta=on prov=on fp=off");
  check_bool "armed-failpoint flip" true
    (mem "cache=on index=on compile=on delta=on prov=off fp=armed");
  check_bool "delta-off flip" true
    (mem "cache=on index=on compile=on delta=off prov=off fp=off")

let test_env_rendering () =
  let env pairs = Cell.env (Cell.make pairs) in
  let baseline =
    [ ("cache", "on"); ("index", "on"); ("compile", "on"); ("delta", "on");
      ("prov", "off"); ("fp", "off") ]
  in
  check_bool "baseline renders nothing" true (env baseline = []);
  let flipped =
    [ ("cache", "off"); ("index", "off"); ("compile", "off");
      ("delta", "off"); ("prov", "on"); ("fp", "armed") ]
  in
  check_bool "every non-default value emits its switch" true
    (env flipped
    = [
        ("COMPO_NO_RESOLVE_CACHE", "1");
        ("COMPO_NO_INDEX", "1");
        ("COMPO_NO_COMPILE", "1");
        ("COMPO_NO_DELTA", "1");
        ("COMPO_PROVENANCE", "1");
        ("COMPO_FAILPOINTS", Cell.failpoint_spec);
      ]);
  (* id canonicalisation: insertion order does not matter *)
  check_string "id is order-independent"
    (Cell.id (Cell.make baseline))
    (Cell.id (Cell.make (List.rev baseline)))

let test_product_and_dedup () =
  let axes =
    [
      { Cell.ax_name = "cache"; ax_values = [ "on"; "off" ] };
      { Cell.ax_name = "prov"; ax_values = [ "off"; "on" ] };
    ]
  in
  let cells = Cell.product axes in
  check_int "2x2 product" 4 (List.length cells);
  check_string "axis-major order" "cache=on prov=off"
    (Cell.id (List.hd cells));
  let doubled = Cell.dedup (cells @ cells) in
  check_int "dedup drops repeated ids" 4 (List.length doubled)

(* ------------------------------------------------------------------ *)
(* Report round-trip                                                   *)

let row ?(outcome = Report.Ok_run) ?(wall = 1.0) ?(metrics = []) pairs =
  let cell = Cell.make pairs in
  {
    Report.r_id = Cell.id cell;
    r_axes = Cell.axes cell;
    r_outcome = outcome;
    r_wall_s = wall;
    r_metrics = metrics;
  }

let matrix rows =
  { Report.m_smoke = true; m_cores = 1; m_suite = [ "E2"; "E15" ]; m_rows = rows }

let baseline_pairs =
  [ ("cache", "on"); ("index", "on"); ("compile", "on"); ("prov", "off");
    ("fp", "off") ]

let with_axis axis v =
  List.map (fun (a, w) -> if a = axis then (a, v) else (a, w)) baseline_pairs

let test_report_roundtrip () =
  let m =
    matrix
      [
        row baseline_pairs ~wall:0.75
          ~metrics:[ ("e15.min_speedup", 2.5); ("eval.node", 123456.0) ];
        row (with_axis "compile" "off")
          ~outcome:(Report.Skipped "cell needs 4 cores, runner has 1")
          ~wall:Float.nan;
        row (with_axis "prov" "on")
          ~outcome:(Report.Failed "exit 2: boom \"quoted\"")
          ~wall:0.1;
      ]
  in
  let path = Filename.temp_file "compo-matrix-test" ".json" in
  Fun.protect
    ~finally:(fun () -> Sys.remove path)
    (fun () ->
      Report.write_file path m;
      match Report.read_file path with
      | Error e -> Alcotest.failf "read_file: %s" e
      | Ok m' ->
          check_bool "smoke survives" true m'.Report.m_smoke;
          check_int "cores survive" 1 m'.Report.m_cores;
          check_bool "suite survives" true (m'.Report.m_suite = m.Report.m_suite);
          check_int "all rows survive" 3 (List.length m'.Report.m_rows);
          let get id =
            match Report.find_row m' id with
            | Some r -> r
            | None -> Alcotest.failf "row %S lost in round-trip" id
          in
          let ok_row = get "cache=on index=on compile=on prov=off fp=off" in
          check_bool "metrics survive" true
            (ok_row.Report.r_metrics
            = [ ("e15.min_speedup", 2.5); ("eval.node", 123456.0) ]);
          check_bool "wall survives" true (ok_row.Report.r_wall_s = 0.75);
          let skip_row = get "cache=on index=on compile=off prov=off fp=off" in
          (match skip_row.Report.r_outcome with
          | Report.Skipped reason ->
              check_string "skip reason survives"
                "cell needs 4 cores, runner has 1" reason
          | _ -> Alcotest.fail "skip outcome lost");
          check_bool "skipped wall reads back as nan" true
            (Float.is_nan skip_row.Report.r_wall_s);
          match (get "cache=on index=on compile=on prov=on fp=off").Report.r_outcome with
          | Report.Failed reason ->
              check_string "failure detail survives escaping"
                "exit 2: boom \"quoted\"" reason
          | _ -> Alcotest.fail "failed outcome lost")

(* ------------------------------------------------------------------ *)
(* Diff verdicts                                                       *)

let verdict_of result id =
  match List.find_opt (fun e -> e.Diff.e_id = id) result.Diff.entries with
  | Some e -> e.Diff.e_verdict
  | None -> Alcotest.failf "no diff entry for %S" id

let test_diff_clean () =
  let m = matrix [ row baseline_pairs ~wall:1.0 ] in
  let result = Diff.compare_matrices ~baseline:m ~fresh:m () in
  check_int "no regressions" 0 result.Diff.regressions;
  check_int "no new skips" 0 result.Diff.new_skips;
  check_int "clean exits 0" 0 (Diff.exit_code result);
  check_bool "verdict is Same" true
    (verdict_of result (Cell.id (Cell.make baseline_pairs)) = Diff.Same)

let test_diff_regression () =
  let id = Cell.id (Cell.make baseline_pairs) in
  let baseline = matrix [ row baseline_pairs ~wall:1.0 ] in
  let fresh =
    matrix [ row baseline_pairs ~outcome:(Report.Failed "exit 2") ~wall:0.2 ]
  in
  let result = Diff.compare_matrices ~baseline ~fresh () in
  check_int "one regression" 1 result.Diff.regressions;
  check_int "regression exits 1" 1 (Diff.exit_code result);
  match verdict_of result id with
  | Diff.Regression reason ->
      check_bool "reason carries the failure" true (contains reason "exit 2")
  | _ -> Alcotest.fail "expected Regression"

let test_diff_time_thresholds () =
  let baseline = matrix [ row baseline_pairs ~wall:2.0 ] in
  let diff wall =
    Diff.compare_matrices ~baseline ~fresh:(matrix [ row baseline_pairs ~wall ]) ()
  in
  let id = Cell.id (Cell.make baseline_pairs) in
  (* default ratio 3.0: 2.0s -> 5.0s is noise, 2.0s -> 7.0s gates *)
  check_bool "below ratio is Same" true (verdict_of (diff 5.0) id = Diff.Same);
  let slow = diff 7.0 in
  check_bool "beyond ratio is a time regression" true
    (verdict_of slow id = Diff.Time_regression);
  check_int "time regression gates" 1 (Diff.exit_code slow);
  check_bool "3x faster is an improvement" true
    (verdict_of (diff 0.5) id = Diff.Improvement);
  (* the floor: sub-second cells never gate on time, whatever the ratio *)
  let tiny_base = matrix [ row baseline_pairs ~wall:0.01 ] in
  let tiny =
    Diff.compare_matrices ~baseline:tiny_base
      ~fresh:(matrix [ row baseline_pairs ~wall:0.4 ])
      ()
  in
  check_bool "below the floor is Same" true (verdict_of tiny id = Diff.Same)

let test_diff_new_skip_and_missing () =
  let skip_reason = "cell needs 4 cores, runner has 1" in
  let extra = with_axis "prov" "on" in
  let baseline = matrix [ row baseline_pairs ~wall:1.0; row extra ~wall:1.0 ] in
  let fresh =
    matrix [ row baseline_pairs ~outcome:(Report.Skipped skip_reason) ~wall:Float.nan ]
  in
  let result = Diff.compare_matrices ~baseline ~fresh () in
  check_int "one new skip" 1 result.Diff.new_skips;
  check_bool "new skip carries its reason" true
    (verdict_of result (Cell.id (Cell.make baseline_pairs))
    = Diff.New_skip skip_reason);
  check_bool "dropped cell is Missing_cell" true
    (verdict_of result (Cell.id (Cell.make extra)) = Diff.Missing_cell);
  (* the missing cell alone makes this a regression; new skips only
     gate when asked *)
  check_int "missing cell counts as regression" 1 result.Diff.regressions;
  check_int "exit 1 on the missing cell" 1 (Diff.exit_code result);
  (* fresh skips are collected for the loud section, new or not *)
  check_bool "fresh skip is listed" true
    (result.Diff.fresh_skips
    = [ (Cell.id (Cell.make baseline_pairs), skip_reason) ])

let test_diff_new_skip_gating () =
  let baseline = matrix [ row baseline_pairs ~wall:1.0 ] in
  let fresh =
    matrix [ row baseline_pairs ~outcome:(Report.Skipped "small runner") ~wall:Float.nan ]
  in
  let result = Diff.compare_matrices ~baseline ~fresh () in
  check_int "new skip alone is not a regression" 0 result.Diff.regressions;
  check_int "default: new skip does not gate" 0 (Diff.exit_code result);
  check_int "opt-in: new skip gates" 1
    (Diff.exit_code ~fail_on_new_skip:true result)

let test_diff_unskipped_and_new_cell () =
  let extra = with_axis "fp" "armed" in
  let baseline =
    matrix [ row baseline_pairs ~outcome:(Report.Skipped "was small") ~wall:Float.nan ]
  in
  let fresh = matrix [ row baseline_pairs ~wall:1.0; row extra ~wall:1.0 ] in
  let result = Diff.compare_matrices ~baseline ~fresh () in
  check_bool "skip that now runs is Unskipped" true
    (verdict_of result (Cell.id (Cell.make baseline_pairs)) = Diff.Unskipped);
  check_bool "fresh-only cell is New_cell" true
    (verdict_of result (Cell.id (Cell.make extra)) = Diff.New_cell);
  check_int "neither gates" 0 (Diff.exit_code result);
  check_int "unskip counts as improvement" 1 result.Diff.improvements

let test_diff_renderings () =
  let baseline = matrix [ row baseline_pairs ~wall:1.0 ] in
  let fresh =
    matrix
      [ row baseline_pairs ~outcome:(Report.Skipped "needs 4 cores") ~wall:Float.nan ]
  in
  let result = Diff.compare_matrices ~baseline ~fresh () in
  let table = Diff.render_table result in
  check_bool "table names the skipped cell loudly" true
    (contains table "skipped cells (1)");
  check_bool "table carries the reason" true (contains table "needs 4 cores");
  let md =
    Diff.render_markdown ~baseline_name:"BENCH_matrix.json"
      ~fresh_name:"fresh.json" result
  in
  check_bool "markdown has a SKIPPED section" true (contains md "SKIPPED");
  check_bool "markdown names the baseline file" true
    (contains md "BENCH_matrix.json")

(* ------------------------------------------------------------------ *)
(* Json_min and the snapshot read-back it enables                      *)

let test_json_min_roundtrip () =
  let src =
    {|{"a": [1, 2.5, -3e2], "s": "q\"\\\u0041\n", "t": true, "n": null, "o": {}}|}
  in
  match J.parse src with
  | Error e -> Alcotest.failf "parse: %s" e
  | Ok v -> (
      check_bool "nested lookup" true
        (Option.map J.to_list (J.member "a" v) |> Option.map List.length
        = Some 3);
      check_bool "escapes decode" true
        (Option.bind (J.member "s" v) J.to_string = Some "q\"\\A\n");
      (* render and re-parse: the reading is stable *)
      match J.parse (J.to_string_json v) with
      | Ok v' -> check_bool "print/parse fixpoint" true (v = v')
      | Error e -> Alcotest.failf "reparse: %s" e)

let test_json_min_errors () =
  (match J.parse "{\"a\": }" with
  | Ok _ -> Alcotest.fail "accepted malformed JSON"
  | Error e -> check_bool "error carries a byte offset" true (contains e "byte"));
  match J.parse "[1, 2" with
  | Ok _ -> Alcotest.fail "accepted truncated JSON"
  | Error _ -> ()

let test_metrics_read_snapshot () =
  let module M = Compo_obs.Metrics in
  M.reset ();
  M.enable ();
  Fun.protect ~finally:M.disable (fun () ->
      M.add (M.counter "bm.counter") 42;
      M.set_gauge (M.gauge "bm.gauge") 2.5;
      List.iter (M.observe (M.histogram "bm.histo")) [ 0.1; 0.2; 0.3 ];
      let path = Filename.temp_file "compo-snap-test" ".json" in
      Fun.protect
        ~finally:(fun () -> Sys.remove path)
        (fun () ->
          M.snapshot_to_file path;
          match M.read_snapshot_file path with
          | Error e -> Alcotest.failf "read_snapshot_file: %s" e
          | Ok snap ->
              let scalar name =
                Option.map M.metric_scalar (List.assoc_opt name snap)
              in
              check_bool "counter reads back" true
                (scalar "bm.counter" = Some 42.0);
              check_bool "gauge reads back" true (scalar "bm.gauge" = Some 2.5);
              check_bool "histogram count reads back" true
                (scalar "bm.histo" = Some 3.0)))

let suite =
  ( "benchmatrix",
    [
      case "curated enumeration: 12+ unique, fully-bound cells"
        test_default_cells;
      case "env rendering realises exactly the non-default axes"
        test_env_rendering;
      case "axis product and id dedup" test_product_and_dedup;
      case "BENCH_matrix.json round-trips outcomes, reasons and nan"
        test_report_roundtrip;
      case "identical matrices diff clean" test_diff_clean;
      case "ok -> failed gates as a regression" test_diff_regression;
      case "coarse wall-time ratio and floor" test_diff_time_thresholds;
      case "new skips are loud, missing cells gate"
        test_diff_new_skip_and_missing;
      case "--fail-on-new-skip opt-in gating" test_diff_new_skip_gating;
      case "unskipped and new cells never gate"
        test_diff_unskipped_and_new_cell;
      case "table and markdown renderings stay loud about skips"
        test_diff_renderings;
      case "json_min parses what it prints" test_json_min_roundtrip;
      case "json_min rejects malformed input with offsets"
        test_json_min_errors;
      case "metrics snapshots read back for harvesting"
        test_metrics_read_snapshot;
    ] )
