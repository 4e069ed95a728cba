(* The compo benchmark: one workload per invocation.

     main.exe --workload designer|design-txn|catalog --seed N --seconds S
              --trace 0|1 --server PATH [--work DIR] [--out DIR]
              [--size full|tiny]

   Prints a human-readable report, then, as its last line, one JSON
   object: {"correct", "attempted", "failed", "metrics"}.  Untraced
   (--trace 0) the metrics are the end-to-end ones; traced (--trace 1)
   they are the per-layer ones, and the spans go to --out. *)

open Perfbench

let usage () =
  prerr_endline
    "usage: main.exe --workload designer|design-txn|catalog --seed N --seconds S \
     --trace 0|1 --server PATH [--work DIR] [--out DIR] [--size full|tiny]";
  exit 2

let json_number v = if Float.is_finite v then Printf.sprintf "%.17g" v else "null"

let print_result (o : Common.outcome) =
  let metrics =
    List.map
      (fun (m : Common.metric) ->
        Printf.sprintf "%S: {\"value\": %s, \"unit\": %S}" m.name
          (match m.value with None -> "null" | Some v -> json_number v)
          m.unit_)
      o.metrics
  in
  Printf.printf "{\"correct\": %b, \"attempted\": %d, \"failed\": %d, \"metrics\": {%s}}\n"
    (o.failed = 0) o.attempted o.failed (String.concat ", " metrics)

(* The benchmark process runs with an 8 MB minor heap (1 M words; the
   runtime's default is 256 k).  With the default, a minor collection
   lands in about 1% of catalog's design steps, so their p99 flipped
   between a collection and an ordinary step from run to run; with 8 MB
   it lands in a few per mille.  compo-server keeps the runtime's
   defaults. *)
let minor_heap_words = 1 lsl 20

let () =
  Gc.set { (Gc.get ()) with Gc.minor_heap_size = minor_heap_words };
  let workload = ref "" and seed = ref None and seconds = ref None and trace = ref None in
  let server = ref "" and work = ref ".perfbench-work" and out = ref ".perfbench-out" in
  let size = ref Common.Full in
  let rec parse = function
    | [] -> ()
    | "--workload" :: v :: rest -> workload := v; parse rest
    | "--seed" :: v :: rest -> seed := int_of_string_opt v; parse rest
    | "--seconds" :: v :: rest -> seconds := float_of_string_opt v; parse rest
    | "--trace" :: ("0" | "1" as v) :: rest -> trace := Some (v = "1"); parse rest
    | "--server" :: v :: rest -> server := v; parse rest
    | "--work" :: v :: rest -> work := v; parse rest
    | "--out" :: v :: rest -> out := v; parse rest
    | "--size" :: "full" :: rest -> size := Common.Full; parse rest
    | "--size" :: "tiny" :: rest -> size := Common.Tiny; parse rest
    | _ -> usage ()
  in
  parse (List.tl (Array.to_list Sys.argv));
  let seed, seconds, trace =
    match (!seed, !seconds, !trace) with
    | Some s, Some t, Some tr when t > 0. -> (s, t, tr)
    | _ -> usage ()
  in
  let run =
    match !workload with
    | "designer" -> Designer.run
    | "design-txn" -> Design_txn.run
    | "catalog" -> Catalog.run
    | _ -> usage ()
  in
  let cfg =
    {
      Common.workload = !workload;
      seed;
      seconds;
      trace;
      size = !size;
      work_dir = Filename.concat !work !workload;
      out_dir = !out;
      server = !server;
      cores = Domain.recommended_domain_count ();
    }
  in
  Common.fresh_dir cfg.work_dir;
  Common.mkdir_p cfg.out_dir;
  let o = Fun.protect ~finally:(fun () -> Common.rm_rf cfg.work_dir) (fun () -> run cfg) in
  Printf.printf "workload=%s seed=%d seconds=%g trace=%b cores=%d\n" cfg.workload seed seconds
    trace cfg.cores;
  List.iter print_endline o.lines;
  Printf.printf "fail_ratio=%.6f (%d failed of %d attempted)\n"
    (Stats.ratio (float_of_int o.failed) (float_of_int o.attempted))
    o.failed o.attempted;
  List.iter
    (fun (m : Common.metric) ->
      Printf.printf "%-30s %s %s\n" m.name
        (match m.value with None -> "null" | Some v -> Printf.sprintf "%.4f" v)
        m.unit_)
    o.metrics;
  print_result o
