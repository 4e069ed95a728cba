(* compo: command-line front end for journaled design databases.

   compo check <file.ddl>          parse and elaborate a schema file
   compo format <file.ddl>         pretty-print a schema file (normal form)
   compo init <dir> [-s file.ddl]  create a database directory
   compo info <dir>                database statistics
   compo dump-schema <dir>         print a database's schema as DDL
   compo validate <dir>            check all integrity constraints
   compo fsck <dir>                recover and audit a database directory
   compo show <dir> <id>           display one object
   compo checkpoint <dir>          collapse the WAL into a snapshot
   compo demo <gates|steel> <dir>  build a paper scenario into a database
   compo stats [file.ddl...]       run an instrumented workload, dump metrics
                                   (--format=table|json|openmetrics|line-protocol)
   compo explain read <dir> <id> <attr>   provenance of one inherited read
   compo explain query <dir> <class>      query plan with cardinalities

   Every data command also accepts --metrics, which turns the kernel's
   metrics registry on for the duration of the command and dumps it to
   stderr afterwards. *)

open Compo_core

let or_die = function
  | Ok v -> v
  | Error e ->
      prerr_endline ("compo: " ^ Errors.to_string e);
      exit 1

(* COMPO_TRACE_SAMPLE: a garbage sampling rate dies with one line
   instead of silently tracing nothing *)
let env_trace_sample () =
  match Compo_net.Client.trace_sample_from_env () with
  | Ok v -> v
  | Error msg ->
      prerr_endline ("compo: " ^ msg);
      exit 1

(* COMPO_FLIGHTREC_CAPACITY: validated (and applied) strictly at startup *)
let configure_flightrec_env () =
  match Compo_obs.Flightrec.configure_from_env () with
  | Ok () -> ()
  | Error msg ->
      prerr_endline ("compo: " ^ msg);
      exit 1

(* COMPO_NO_COMPILE / COMPO_NO_DELTA: same convention — a malformed
   toggle dies with one line instead of silently picking an engine *)
let configure_plan_env () =
  match Plan.configure_from_env () with
  | Ok () -> ()
  | Error msg ->
      prerr_endline ("compo: " ^ msg);
      exit 1

let read_file path =
  match In_channel.with_open_text path In_channel.input_all with
  | contents -> contents
  | exception Sys_error msg ->
      prerr_endline ("compo: " ^ msg);
      exit 1

(* ------------------------------------------------------------------ *)
(* Commands                                                            *)

let cmd_check files =
  (* files load cumulatively, so later ones may use earlier definitions
     (steel.ddl uses the Point domain from gates.ddl) *)
  let db = Database.create () in
  let seen = ref 0 in
  List.iter
    (fun path ->
      or_die (Compo_ddl.Elaborate.load_string db (read_file path));
      let total = List.length (Schema.entries (Database.schema db)) in
      Printf.printf "%s: ok (%d new types)\n" path (total - !seen);
      seen := total)
    files

let cmd_format path =
  let db = Database.create () in
  or_die (Compo_ddl.Elaborate.load_string db (read_file path));
  print_string (Compo_ddl.Pretty.schema_to_string (Database.schema db))

let cmd_init dir schemas =
  let j = or_die (Compo_storage.Journal.open_dir dir) in
  List.iter
    (fun path ->
      or_die (Compo_ddl.Elaborate.load_string (Compo_storage.Journal.db j) (read_file path)))
    schemas;
  or_die (Compo_storage.Journal.checkpoint j);
  Compo_storage.Journal.close j;
  Printf.printf "initialized %s (%d types)\n" dir
    (List.length (Schema.entries (Database.schema (Compo_storage.Journal.db j))))

let with_journal dir f =
  let j = or_die (Compo_storage.Journal.open_dir dir) in
  let result = f j in
  Compo_storage.Journal.close j;
  result

let cmd_info dir =
  with_journal dir (fun j ->
      let db = Compo_storage.Journal.db j in
      let store = Database.store db in
      if not (Compo_storage.Journal.recovered_clean j) then
        print_endline "warning: torn WAL tail was skipped during recovery";
      Printf.printf "types:        %d\n"
        (List.length (Schema.entries (Database.schema db)));
      Printf.printf "domains:      %d\n"
        (List.length (Schema.domains (Database.schema db)));
      let objects = ref 0 and rels = ref 0 and links = ref 0 in
      Store.iter store (fun e ->
          match e.Store.kind with
          | Store.Object_entity -> incr objects
          | Store.Relationship_entity -> incr rels
          | Store.Inheritance_link -> incr links);
      Printf.printf "objects:      %d\n" !objects;
      Printf.printf "relationships:%d\n" !rels;
      Printf.printf "inh. links:   %d\n" !links;
      Printf.printf "classes:      %s\n"
        (String.concat ", "
           (List.map
              (fun c ->
                Printf.sprintf "%s(%d)" c
                  (List.length (Result.get_ok (Store.class_members store c))))
              (Store.class_names store)));
      Printf.printf "wal:          %d bytes, %d records replayed\n"
        (Compo_storage.Journal.wal_size_bytes j)
        (Compo_storage.Journal.wal_records_replayed j))

let cmd_fsck dir =
  let report = or_die (Compo_storage.Fsck.check_dir dir) in
  Format.printf "%a@?" Compo_storage.Fsck.pp_report report;
  if report.Compo_storage.Fsck.fr_violations <> [] then exit 1

let cmd_dump_schema dir =
  with_journal dir (fun j ->
      print_string
        (Compo_ddl.Pretty.schema_to_string (Database.schema (Compo_storage.Journal.db j))))

let cmd_validate dir =
  with_journal dir (fun j ->
      let violations = Database.validate_all (Compo_storage.Journal.db j) in
      if violations = [] then print_endline "all constraints hold"
      else begin
        List.iter
          (fun v -> Format.printf "%a@." Constraints.pp_violation v)
          violations;
        exit 1
      end)

let parse_id raw =
  let raw = if String.length raw > 0 && raw.[0] = '@' then String.sub raw 1 (String.length raw - 1) else raw in
  match int_of_string_opt raw with
  | Some i -> Surrogate.of_int i
  | None ->
      prerr_endline ("compo: invalid object id " ^ raw);
      exit 1

let cmd_show dir raw_id =
  with_journal dir (fun j ->
      let db = Compo_storage.Journal.db j in
      let store = Database.store db in
      let s = parse_id raw_id in
      let e = or_die (Store.get store s) in
      Printf.printf "%s : %s (%s)\n"
        (Surrogate.to_string s)
        e.Store.type_name
        (match e.Store.kind with
        | Store.Object_entity -> "object"
        | Store.Relationship_entity -> "relationship"
        | Store.Inheritance_link -> "inheritance link");
      (match e.Store.owner with
      | Some o -> Printf.printf "owner: %s\n" (Surrogate.to_string o)
      | None -> ());
      (match e.Store.bound with
      | Some b ->
          Printf.printf "inherits from %s via %s\n"
            (Surrogate.to_string b.Store.b_transmitter)
            b.Store.b_via
      | None -> ());
      (* effective attributes, marking inherited ones *)
      (match Schema.effective_attrs (Database.schema db) e.Store.type_name with
      | Ok attrs ->
          List.iter
            (fun ((a : Schema.attr_def), src) ->
              let v =
                match Database.get_attr db s a.attr_name with
                | Ok v -> Value.to_string v
                | Error _ -> "?"
              in
              let marker =
                match src with
                | Schema.Own -> ""
                | Schema.Via rel -> "  (inherited via " ^ rel ^ ")"
              in
              Printf.printf "  %s = %s%s\n" a.attr_name v marker)
            attrs
      | Error _ -> ());
      Store.Smap.iter
        (fun name v ->
          Printf.printf "  participant %s = %s\n" name (Value.to_string v))
        e.Store.participants;
      (match Schema.effective_subclasses (Database.schema db) e.Store.type_name with
      | Ok subs ->
          List.iter
            (fun ((sc : Schema.subclass_def), _) ->
              match Database.subclass_members db s sc.sc_name with
              | Ok ms ->
                  Printf.printf "  %s: {%s}\n" sc.sc_name
                    (String.concat ", " (List.map Surrogate.to_string ms))
              | Error _ -> ())
            subs
      | Error _ -> ());
      Store.Smap.iter
        (fun name ms ->
          Printf.printf "  %s (subrels): {%s}\n" name
            (String.concat ", " (List.map Surrogate.to_string ms)))
        e.Store.subrels)

let cmd_query dir cls where_src =
  with_journal dir (fun j ->
      let db = Compo_storage.Journal.db j in
      let where =
        Option.map (fun src -> or_die (Compo_ddl.Parser.parse_expr src)) where_src
      in
      let found = or_die (Database.select db ~cls ?where ()) in
      List.iter
        (fun s ->
          let ty = or_die (Database.type_of db s) in
          (* a compact one-line rendering: the first few effective attrs *)
          let attrs =
            match Schema.effective_attrs (Database.schema db) ty with
            | Error _ -> ""
            | Ok defs ->
                String.concat " "
                  (List.filteri
                     (fun i _ -> i < 4)
                     (List.map
                        (fun ((a : Schema.attr_def), _) ->
                          let v =
                            match Database.get_attr db s a.attr_name with
                            | Ok v -> Value.to_string v
                            | Error _ -> "?"
                          in
                          a.attr_name ^ "=" ^ v)
                        defs))
          in
          Printf.printf "%s %s %s\n" (Surrogate.to_string s) ty attrs)
        found;
      Printf.printf "%d object(s)\n" (List.length found))

let cmd_simulate dir raw_id bits =
  with_journal dir (fun j ->
      let db = Compo_storage.Journal.db j in
      let gate = parse_id raw_id in
      (* external IN pins in subclass order get the bits in order *)
      let pins = or_die (Database.subclass_members db gate "Pins") in
      let in_pins =
        List.filter
          (fun p ->
            match Database.get_attr db p "InOut" with
            | Ok (Value.Enum_case "IN") -> true
            | _ -> false)
          pins
      in
      let bit_list =
        List.filter_map
          (fun c ->
            match c with '0' -> Some false | '1' -> Some true | _ -> None)
          (List.init (String.length bits) (String.get bits))
      in
      if List.length bit_list <> List.length in_pins then begin
        Printf.eprintf "compo: gate has %d input pins, got %d bits\n"
          (List.length in_pins) (List.length bit_list);
        exit 1
      end;
      let inputs = List.combine in_pins bit_list in
      match Compo_scenarios.Simulate.simulate db ~gate ~inputs with
      | Ok outs ->
          List.iter
            (fun (pin, v) ->
              Printf.printf "%s = %b\n" (Surrogate.to_string pin) v)
            outs
      | Error e ->
          prerr_endline ("compo: " ^ Errors.to_string e);
          exit 1)

let cmd_optimize dir raw_id =
  let j = or_die (Compo_storage.Journal.open_dir dir) in
  let db = Compo_storage.Journal.db j in
  let gate = parse_id raw_id in
  let stats = or_die (Compo_scenarios.Optimize.optimize db ~gate) in
  (* the rewrites bypassed the WAL; checkpoint for durability *)
  or_die (Compo_storage.Journal.checkpoint j);
  Compo_storage.Journal.close j;
  Printf.printf "removed %d dead gate(s), merged %d duplicate(s), dropped %d wire(s) in %d pass(es)\n"
    stats.Compo_scenarios.Optimize.removed_gates
    stats.Compo_scenarios.Optimize.merged_gates
    stats.Compo_scenarios.Optimize.removed_wires
    stats.Compo_scenarios.Optimize.passes

let cmd_checkpoint dir =
  with_journal dir (fun j ->
      or_die (Compo_storage.Journal.checkpoint j);
      print_endline "checkpoint written")

let cmd_demo scenario dir =
  let j = or_die (Compo_storage.Journal.open_dir dir) in
  let db = Compo_storage.Journal.db j in
  (match scenario with
  | "gates" ->
      or_die (Compo_scenarios.Gates.define_schema db);
      let ff = or_die (Compo_scenarios.Gates.flip_flop db) in
      let iface = or_die (Compo_scenarios.Gates.nor_interface db) in
      let _ = or_die (Compo_scenarios.Gates.nor_implementation db ~interface:iface) in
      Printf.printf "built the flip-flop %s and a NOR interface %s\n"
        (Surrogate.to_string ff) (Surrogate.to_string iface)
  | "steel" ->
      or_die (Compo_scenarios.Steel.define_schema db);
      let s =
        or_die (Compo_scenarios.Workload.screwed_structure db ~girders:3 ~bores_per_joint:2)
      in
      Printf.printf "built weight-carrying structure %s\n" (Surrogate.to_string s)
  | other ->
      prerr_endline ("compo: unknown demo " ^ other ^ " (use gates or steel)");
      exit 1);
  or_die (Compo_storage.Journal.checkpoint j);
  Compo_storage.Journal.close j;
  Printf.printf "saved to %s\n" dir

(* ------------------------------------------------------------------ *)
(* Observability: the stats command and the --metrics flag              *)

let with_metrics ~no_resolve_cache metrics f =
  if no_resolve_cache then Resolve_cache.set_default_enabled false;
  if not metrics then f ()
  else begin
    Compo_obs.Metrics.enable ();
    Fun.protect
      ~finally:(fun () ->
        Compo_obs.Metrics.disable ();
        prerr_string (Compo_obs.Metrics.dump ()))
      f
  end

let rec remove_tree path =
  match Sys.is_directory path with
  | true ->
      Array.iter
        (fun f -> remove_tree (Filename.concat path f))
        (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

(* Provenance of one inheritance-aware read: value, cache outcome,
   source, and the full transmitter chain as an indented tree. *)
let cmd_explain_read dir raw_id attr =
  with_journal dir (fun j ->
      let db = Compo_storage.Journal.db j in
      let s = parse_id raw_id in
      let _v, r = or_die (Database.explain_attr db s attr) in
      Format.printf "%a@." Compo_obs.Provenance.pp_read r)

(* Query plan: access choice, predicate split, estimated vs. actual
   cardinality.  Metrics are forced on for the duration so the eval-node
   count is populated (and deterministic for a given database). *)
let cmd_explain_query dir cls where_src timings =
  with_journal dir (fun j ->
      let db = Compo_storage.Journal.db j in
      let where =
        Option.map (fun src -> or_die (Compo_ddl.Parser.parse_expr src)) where_src
      in
      let was_on = Compo_obs.Metrics.enabled () in
      Compo_obs.Metrics.enable ();
      let result = Database.explain_select db ~cls ?where () in
      if not was_on then Compo_obs.Metrics.disable ();
      let rows, ex = or_die result in
      Format.printf "%a@." (Query.pp_explain ~timings) ex;
      Printf.printf "%d object(s)\n" (List.length rows))

(* benchdiff: gate a fresh ablation matrix against the committed
   baseline.  Regressions (ok -> failed, missing cells, wall time past
   the per-cell relative threshold) exit 1; skips render loudly in both
   the table and the markdown summary but only gate with
   --fail-on-new-skip, because a smaller runner legitimately skips
   multicore cells the baseline machine ran. *)
let cmd_benchdiff baseline fresh time_ratio time_floor fail_on_new_skip summary
    =
  let module M = Compo_benchmatrix in
  let load path =
    match M.Report.read_file path with
    | Ok m -> m
    | Error msg ->
        prerr_endline ("compo: benchdiff: " ^ msg);
        exit 2
  in
  let base = load baseline and fr = load fresh in
  let thresholds =
    {
      M.Diff.default_thresholds with
      time_ratio;
      time_floor_s = time_floor;
    }
  in
  let result = M.Diff.compare_matrices ~thresholds ~baseline:base ~fresh:fr () in
  print_string (M.Diff.render_table result);
  (* the markdown twin goes to --summary FILE, or is appended to
     $GITHUB_STEP_SUMMARY when CI provides one *)
  (match
     match summary with
     | Some _ as s -> s
     | None -> Sys.getenv_opt "GITHUB_STEP_SUMMARY"
   with
  | None -> ()
  | Some path ->
      let oc = open_out_gen [ Open_append; Open_creat ] 0o644 path in
      Fun.protect
        ~finally:(fun () -> close_out oc)
        (fun () ->
          output_string oc
            (M.Diff.render_markdown
               ~baseline_name:(Filename.basename baseline)
               ~fresh_name:(Filename.basename fresh) result)));
  exit (M.Diff.exit_code ~fail_on_new_skip result)

(* --connect: fetch a live server's registry instead of running the
   local workload, so `compo stats` works unchanged against compo-server *)
let cmd_stats_connect sock format =
  let module Client = Compo_net.Client in
  let module P = Compo_net.Protocol in
  let fmt =
    match format with
    | `Table -> P.Fmt_table
    | `Json -> P.Fmt_json
    | `Openmetrics -> P.Fmt_openmetrics
    | `Line_protocol -> P.Fmt_line
  in
  match
    Client.connect ~user:"compo-stats" ~trace_sample:(env_trace_sample ()) sock
  with
  | Error e -> or_die (Error (Errors.Io_error (Client.error_to_string e)))
  | Ok c ->
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          match Client.stats c fmt with
          | Ok text -> print_string text
          | Error e ->
              or_die (Error (Errors.Io_error (Client.error_to_string e))))

(* slowlog --connect: fetch a live server's slow-query capture ring,
   rendered server-side with the captured explain plans *)
let cmd_slowlog sock =
  let module Client = Compo_net.Client in
  match
    Client.connect ~user:"compo-slowlog" ~trace_sample:(env_trace_sample ())
      sock
  with
  | Error e -> or_die (Error (Errors.Io_error (Client.error_to_string e)))
  | Ok c ->
      Fun.protect
        ~finally:(fun () -> Client.close c)
        (fun () ->
          match Client.slowlog c with
          | Ok text -> print_string text
          | Error e ->
              or_die (Error (Errors.Io_error (Client.error_to_string e))))

(* flightrec FILE: pretty-print a compo-server flight-recorder dump *)
let cmd_flightrec file =
  let module F = Compo_obs.Flightrec in
  let module J = Compo_obs.Json_min in
  match J.parse_file file with
  | Error msg -> or_die (Error (Errors.Io_error (file ^ ": " ^ msg)))
  | Ok j -> (
      match F.of_json j with
      | Error msg -> or_die (Error (Errors.Io_error (file ^ ": " ^ msg)))
      | Ok events ->
          let recorded =
            match Option.bind (J.member "recorded" j) J.to_float with
            | Some r -> int_of_float r
            | None -> List.length events
          in
          Printf.printf "flight recorder: %d event(s)%s\n"
            (List.length events)
            (if recorded > List.length events then
               Printf.sprintf " (of %d recorded; oldest overwritten)" recorded
             else "");
          Format.printf "%a@?" F.pp_events events)

let cmd_stats files format line_protocol slow_ms no_resolve_cache connect =
  let module Obs = Compo_obs.Metrics in
  let module Trace = Compo_obs.Trace in
  let format = if line_protocol then `Line_protocol else format in
  match connect with
  | Some sock -> cmd_stats_connect sock format
  | None ->
  if no_resolve_cache then Resolve_cache.set_default_enabled false;
  Obs.enable ();
  Trace.set_slow_threshold (slow_ms /. 1000.);
  (* schema files on the command line are elaborated first, so their
     definitions feed the same registry as the workload below *)
  let db = Database.create () in
  List.iter
    (fun path -> or_die (Compo_ddl.Elaborate.load_string db (read_file path)))
    files;
  (* A fixed workload in a throwaway journal touches every instrumented
     layer: the gates scenario build (store, inheritance.bind), journaled
     updates (wal.append), inherited reads (inheritance.resolve), a
     predicate query (query.select, eval.node), simulated designer
     contention (lock.wait), and a checkpoint (snapshot.write). *)
  let dir = Filename.temp_file "compo-stats" ".db" in
  Sys.remove dir;
  let j = or_die (Compo_storage.Journal.open_dir dir) in
  let jdb = Compo_storage.Journal.db j in
  or_die (Compo_scenarios.Gates.define_schema jdb);
  let ff = or_die (Compo_scenarios.Gates.flip_flop jdb) in
  let iface = or_die (Compo_scenarios.Gates.nor_interface jdb) in
  let impl =
    or_die (Compo_scenarios.Gates.nor_implementation jdb ~interface:iface)
  in
  or_die (Compo_storage.Journal.set_attr j ff "Length" (Value.Int 12));
  or_die (Compo_storage.Journal.set_attr j iface "Width" (Value.Int 3));
  (* the implementation inherits Length/Width from its interface, so these
     reads resolve across transmitter hops; the repetition exercises the
     resolve cache (first pass fills, later passes hit) *)
  for _ = 1 to 3 do
    List.iter
      (fun name ->
        let (_ : Value.t) = or_die (Database.get_attr jdb impl name) in
        ())
      [ "Length"; "Width"; "Function" ]
  done;
  let where = or_die (Compo_ddl.Parser.parse_expr "Length >= 0") in
  let (_ : Surrogate.t list) = or_die (Database.select jdb ~cls:"Gates" ~where ()) in
  (* a wider population drives the inherited read path: 64
     implementations bound to one interface, selected on an attribute
     they all inherit *)
  let (_ : Surrogate.t * Surrogate.t list) =
    or_die (Compo_scenarios.Workload.interface_with_inheritors jdb ~n:64)
  in
  let (_ : Surrogate.t list) =
    or_die (Database.select jdb ~cls:"Implementations" ~where ())
  in
  let (_ : Constraints.violation list) = Database.validate_all jdb in
  (* two designers colliding on the flip-flop: X held, S blocked *)
  let mg = Compo_txn.Transaction.create_manager (Database.store jdb) in
  let t1 = Compo_txn.Transaction.begin_txn mg ~user:"designer-a" in
  let t2 = Compo_txn.Transaction.begin_txn mg ~user:"designer-b" in
  let lm = Compo_txn.Transaction.lock_manager mg in
  ignore
    (Compo_txn.Lock_manager.acquire lm
       ~txn:(Compo_txn.Transaction.id t1)
       ff Compo_txn.Lock.X);
  ignore
    (Compo_txn.Lock_manager.acquire lm
       ~txn:(Compo_txn.Transaction.id t2)
       ff Compo_txn.Lock.S);
  or_die (Compo_txn.Transaction.commit mg t1);
  or_die (Compo_txn.Transaction.abort mg t2);
  or_die (Compo_storage.Journal.checkpoint j);
  Compo_storage.Journal.close j;
  remove_tree dir;
  Obs.disable ();
  match format with
  | `Line_protocol -> print_string (Obs.to_line_protocol ())
  | `Openmetrics -> print_string (Obs.to_openmetrics ())
  | `Json -> print_string (Obs.to_json ())
  | `Table ->
      print_string (Obs.dump ());
      let hits = Resolve_cache.hits () and misses = Resolve_cache.misses () in
      Printf.printf
        "\nresolve cache: %d hit(s), %d miss(es), %d invalidation(s) (%d \
         scoped, %d global), hit rate %s\n"
        hits misses
        (Resolve_cache.invalidations ())
        (Resolve_cache.invalidations_scoped ())
        (Resolve_cache.invalidations_global ())
        (Obs.ratio_string ~num:hits ~den:(hits + misses) ());
      Printf.printf "spans recorded: %d\n" (Trace.recorded ());
      (match Trace.slow_ops () with
      | [] -> ()
      | slow ->
          Printf.printf "slow ops (>= %gms):\n" slow_ms;
          Format.printf "%a@." Compo_obs.Trace.pp_spans slow)

(* ------------------------------------------------------------------ *)
(* Cmdliner wiring                                                     *)

open Cmdliner

let metrics_arg =
  Arg.(
    value & flag
    & info [ "metrics" ]
        ~doc:
          "Collect kernel metrics while the command runs and dump the \
           registry to stderr afterwards.")

let no_resolve_cache_arg =
  Arg.(
    value & flag
    & info [ "no-resolve-cache" ]
        ~doc:
          "Disable the generation-stamped inheritance-resolution cache: \
           every inherited read walks the full transmitter chain.  \
           Equivalent to COMPO_NO_RESOLVE_CACHE=1.")

let dir_arg = Arg.(required & pos 0 (some string) None & info [] ~docv:"DIR")

(* [--metrics] must wrap the command body, so each term builds a thunk the
   wrapper runs with the registry enabled; [--no-resolve-cache] must be
   applied before any store is created *)
let instrumented f =
  Term.(
    const (fun no_resolve_cache metrics f ->
        with_metrics ~no_resolve_cache metrics f)
    $ no_resolve_cache_arg $ metrics_arg $ f)

let check_cmd =
  let files = Arg.(non_empty & pos_all file [] & info [] ~docv:"FILE.ddl") in
  Cmd.v (Cmd.info "check" ~doc:"Parse and elaborate schema files")
    (instrumented Term.(const (fun files () -> cmd_check files) $ files))

let format_cmd =
  let file = Arg.(required & pos 0 (some file) None & info [] ~docv:"FILE.ddl") in
  Cmd.v (Cmd.info "format" ~doc:"Pretty-print a schema file in normal form")
    (instrumented Term.(const (fun file () -> cmd_format file) $ file))

let init_cmd =
  let schemas =
    Arg.(value & opt_all file [] & info [ "s"; "schema" ] ~docv:"FILE.ddl"
           ~doc:"Schema file(s) to load into the new database.")
  in
  Cmd.v (Cmd.info "init" ~doc:"Create a journaled database directory")
    (instrumented
       Term.(const (fun dir schemas () -> cmd_init dir schemas) $ dir_arg $ schemas))

let info_cmd =
  Cmd.v (Cmd.info "info" ~doc:"Show database statistics")
    (instrumented Term.(const (fun dir () -> cmd_info dir) $ dir_arg))

let dump_schema_cmd =
  Cmd.v (Cmd.info "dump-schema" ~doc:"Print the database schema as DDL")
    (instrumented Term.(const (fun dir () -> cmd_dump_schema dir) $ dir_arg))

let validate_cmd =
  Cmd.v (Cmd.info "validate" ~doc:"Check all integrity constraints")
    (instrumented Term.(const (fun dir () -> cmd_validate dir) $ dir_arg))

let fsck_cmd =
  Cmd.v
    (Cmd.info "fsck"
       ~doc:
         "Recover a database directory and audit the result: store \
          invariants, surrogate continuity, schema resolution, and index \
          consistency.  Exits non-zero on violations.")
    (instrumented Term.(const (fun dir () -> cmd_fsck dir) $ dir_arg))

let show_cmd =
  let id = Arg.(required & pos 1 (some string) None & info [] ~docv:"ID") in
  Cmd.v (Cmd.info "show" ~doc:"Display one object with its inherited data")
    (instrumented Term.(const (fun dir id () -> cmd_show dir id) $ dir_arg $ id))

let query_cmd =
  let cls = Arg.(required & pos 1 (some string) None & info [] ~docv:"CLASS") in
  let where =
    Arg.(value & opt (some string) None & info [ "w"; "where" ] ~docv:"EXPR"
           ~doc:"Selection predicate in the constraint-expression syntax, \
                 e.g. 'Length <= 5'.")
  in
  Cmd.v (Cmd.info "query" ~doc:"Select class members by predicate")
    (instrumented
       Term.(
         const (fun dir cls where () -> cmd_query dir cls where)
         $ dir_arg $ cls $ where))

let simulate_cmd =
  let id = Arg.(required & pos 1 (some string) None & info [] ~docv:"GATE-ID") in
  let bits =
    Arg.(required & pos 2 (some string) None & info [] ~docv:"BITS"
           ~doc:"Input values for the gate's IN pins in order, e.g. 10.")
  in
  Cmd.v (Cmd.info "simulate" ~doc:"Evaluate a gate netlist")
    (instrumented
       Term.(
         const (fun dir id bits () -> cmd_simulate dir id bits)
         $ dir_arg $ id $ bits))

let optimize_cmd =
  let id = Arg.(required & pos 1 (some string) None & info [] ~docv:"GATE-ID") in
  Cmd.v (Cmd.info "optimize" ~doc:"Dead-gate elimination and duplicate merging on a netlist")
    (instrumented Term.(const (fun dir id () -> cmd_optimize dir id) $ dir_arg $ id))

let checkpoint_cmd =
  Cmd.v (Cmd.info "checkpoint" ~doc:"Collapse the WAL into a snapshot")
    (instrumented Term.(const (fun dir () -> cmd_checkpoint dir) $ dir_arg))

let demo_cmd =
  let scenario =
    Arg.(required & pos 0 (some string) None & info [] ~docv:"SCENARIO"
           ~doc:"gates or steel")
  in
  let dir = Arg.(required & pos 1 (some string) None & info [] ~docv:"DIR") in
  Cmd.v (Cmd.info "demo" ~doc:"Build one of the paper's scenarios into a database")
    (instrumented
       Term.(
         const (fun scenario dir () -> cmd_demo scenario dir) $ scenario $ dir))

let stats_cmd =
  let files = Arg.(value & pos_all file [] & info [] ~docv:"FILE.ddl") in
  let format =
    let formats =
      [
        ("table", `Table);
        ("json", `Json);
        ("openmetrics", `Openmetrics);
        ("line-protocol", `Line_protocol);
      ]
    in
    Arg.(value & opt (enum formats) `Table
           & info [ "format" ] ~docv:"FORMAT"
               ~doc:
                 "Output format: $(b,table) (human-readable dump plus \
                  derived ratios), $(b,json) (stable registry snapshot), \
                  $(b,openmetrics) (text exposition format), or \
                  $(b,line-protocol) (influx style).")
  in
  let line_protocol =
    Arg.(value & flag
           & info [ "line-protocol" ]
               ~doc:"Deprecated alias for --format=line-protocol.")
  in
  let slow =
    Arg.(value & opt float 5.0
           & info [ "slow" ] ~docv:"MS"
               ~doc:"Slow-op threshold in milliseconds.")
  in
  let connect =
    Arg.(value & opt (some string) None
           & info [ "connect" ] ~docv:"SOCKET"
               ~doc:
                 "Fetch the metrics registry of a live compo-server over \
                  its Unix socket (rendered server-side in the requested \
                  --format) instead of running the local workload.")
  in
  Cmd.v
    (Cmd.info "stats"
       ~doc:"Run an instrumented workload and dump the metrics registry")
    Term.(
      const cmd_stats $ files $ format $ line_protocol $ slow
      $ no_resolve_cache_arg $ connect)

let slowlog_cmd =
  let connect =
    Arg.(
      required
      & opt (some string) None
      & info [ "connect" ] ~docv:"SOCKET"
          ~doc:"Unix socket of the compo-server to query (required).")
  in
  Cmd.v
    (Cmd.info "slowlog"
       ~doc:
         "Fetch a live server's slow-query capture ring: requests slower \
          than COMPO_SLOW_MS (on the server) with their captured explain \
          plans, newest first.")
    Term.(const cmd_slowlog $ connect)

let flightrec_cmd =
  let file =
    Arg.(
      required
      & pos 0 (some file) None
      & info [] ~docv:"FILE"
          ~doc:
            "Flight-recorder dump written by compo-server (SIGUSR1 or \
             abnormal exit).")
  in
  Cmd.v
    (Cmd.info "flightrec"
       ~doc:
         "Pretty-print a compo-server flight-recorder dump: one event per \
          line with timestamps relative to the oldest buffered event.")
    Term.(const cmd_flightrec $ file)

let benchdiff_cmd =
  let baseline =
    Arg.(required & pos 0 (some file) None & info [] ~docv:"BASELINE"
           ~doc:"Committed BENCH_matrix.json to gate against.")
  in
  let fresh =
    Arg.(required & pos 1 (some file) None & info [] ~docv:"FRESH"
           ~doc:"Freshly produced matrix (bench/matrix_main.exe output).")
  in
  let time_ratio =
    Arg.(value & opt float Compo_benchmatrix.Diff.default_thresholds.time_ratio
           & info [ "time-ratio" ] ~docv:"R"
               ~doc:
                 "Per-cell wall-time ratio that flags a regression (or, \
                  inverted, an improvement).  Deliberately coarse: the \
                  baseline and the runner are usually different machines.")
  in
  let time_floor =
    Arg.(value
           & opt float Compo_benchmatrix.Diff.default_thresholds.time_floor_s
           & info [ "time-floor" ] ~docv:"SECONDS"
               ~doc:"Ignore wall-time changes on cells faster than this.")
  in
  let fail_on_new_skip =
    Arg.(value & flag
           & info [ "fail-on-new-skip" ]
               ~doc:
                 "Also exit non-zero when a cell that ran in the baseline \
                  is skipped now (default: new skips render loudly but do \
                  not gate, so small runners can still pass).")
  in
  let summary =
    Arg.(value & opt (some string) None
           & info [ "summary" ] ~docv:"FILE"
               ~doc:
                 "Append the markdown rendering to this file (default: \
                  \\$GITHUB_STEP_SUMMARY when set).")
  in
  Cmd.v
    (Cmd.info "benchdiff"
       ~doc:
         "Diff a fresh ablation matrix against the committed baseline: \
          per-cell verdicts (regression / improvement / new-skip / \
          missing-cell), loud skip reporting, non-zero exit on regression")
    Term.(
      const cmd_benchdiff $ baseline $ fresh $ time_ratio $ time_floor
      $ fail_on_new_skip $ summary)

let explain_group =
  let timings =
    Arg.(value & flag
           & info [ "timings" ]
               ~doc:
                 "Append per-stage wall times to the plan (off by default \
                  so the output is deterministic).")
  in
  let attr_arg =
    Arg.(required & pos 2 (some string) None & info [] ~docv:"ATTR")
  in
  let id_arg = Arg.(required & pos 1 (some string) None & info [] ~docv:"ID") in
  let cls_arg =
    Arg.(required & pos 1 (some string) None & info [] ~docv:"CLASS")
  in
  let where =
    Arg.(value & opt (some string) None & info [ "w"; "where" ] ~docv:"EXPR"
           ~doc:"Selection predicate, e.g. 'Length <= 5'.")
  in
  Cmd.group
    (Cmd.info "explain"
       ~doc:
         "Explain why a read returned what it did, or how a query will run")
    [
      Cmd.v
        (Cmd.info "read"
           ~doc:
             "Provenance of one inheritance-aware attribute read: the \
              transmitter chain walked, the relationship object and \
              permeability decision at each hop, the cache outcome, and \
              the final source object")
        Term.(
          const (fun dir id attr -> cmd_explain_read dir id attr)
          $ dir_arg $ id_arg $ attr_arg);
      Cmd.v
        (Cmd.info "query"
           ~doc:
             "Query plan: index vs. scan access choice, indexed conjunct \
              vs. residual filter, estimated vs. actual cardinality, and \
              evaluator work")
        Term.(
          const (fun dir cls where timings ->
              cmd_explain_query dir cls where timings)
          $ dir_arg $ cls_arg $ where $ timings);
    ]

(* ------------------------------------------------------------------ *)
(* Version management: a versions.bin sidecar next to the journal       *)

let versions_path dir = Filename.concat dir "versions.bin"

let load_versions dir =
  if Sys.file_exists (versions_path dir) then
    or_die (Compo_versions.Versioned.load_file (versions_path dir))
  else Compo_versions.Versioned.create ()

let save_versions dir reg =
  or_die (Compo_versions.Versioned.save_file reg (versions_path dir))

let parse_state = function
  | "released" -> Compo_versions.Version_graph.Released
  | "frozen" -> Compo_versions.Version_graph.Frozen
  | other ->
      prerr_endline ("compo: unknown state " ^ other ^ " (released|frozen)");
      exit 1

let cmd_version_list dir =
  let reg = load_versions dir in
  let module VG = Compo_versions.Version_graph in
  List.iter
    (fun name ->
      let g = or_die (Compo_versions.Versioned.graph reg name) in
      Printf.printf "%s%s\n" name
        (match VG.default_version g with
        | Some d -> Printf.sprintf " (default v%d)" d
        | None -> "");
      List.iter
        (fun v ->
          let state =
            match VG.state_of g v.VG.ver_id with
            | Ok st -> VG.state_to_string st
            | Error _ -> "?"
          in
          Printf.printf "  v%d %s %s%s%s\n" v.VG.ver_id
            (Surrogate.to_string v.VG.ver_object)
            state
            (match v.VG.ver_predecessors with
            | [] -> ""
            | ps -> " <- " ^ String.concat "," (List.map (Printf.sprintf "v%d") ps))
            (if v.VG.ver_note = "" then "" else " (" ^ v.VG.ver_note ^ ")"))
        (VG.versions g))
    (Compo_versions.Versioned.graphs reg)

let cmd_version_new_graph dir name =
  let reg = load_versions dir in
  let _ = or_die (Compo_versions.Versioned.new_graph reg ~name) in
  save_versions dir reg;
  Printf.printf "graph %s created\n" name

let cmd_version_root dir graph raw_id =
  let reg = load_versions dir in
  with_journal dir (fun j ->
      let obj = parse_id raw_id in
      let _ = or_die (Store.get (Database.store (Compo_storage.Journal.db j)) obj) in
      let v = or_die (Compo_versions.Versioned.register_root reg ~graph ~obj) in
      save_versions dir reg;
      Printf.printf "v%d registered as root of %s\n" v graph)

let cmd_version_derive dir graph from_id =
  let reg = load_versions dir in
  with_journal dir (fun j ->
      let db = Compo_storage.Journal.db j in
      let v, copy =
        or_die
          (Compo_versions.Versioned.derive_version reg (Database.store db) ~graph
             ~from:from_id)
      in
      (* the deep copy bypassed the WAL; a checkpoint makes it durable *)
      or_die (Compo_storage.Journal.checkpoint j);
      save_versions dir reg;
      Printf.printf "v%d derived from v%d (object %s)\n" v from_id
        (Surrogate.to_string copy))

let cmd_version_promote dir graph id state =
  let reg = load_versions dir in
  or_die (Compo_versions.Versioned.promote reg ~graph ~version:id (parse_state state));
  save_versions dir reg;
  Printf.printf "v%d promoted to %s\n" id state

let cmd_version_default dir graph id =
  let reg = load_versions dir in
  or_die (Compo_versions.Versioned.set_default reg ~graph ~version:id);
  save_versions dir reg;
  Printf.printf "v%d is now the default of %s\n" id graph

let cmd_version_audit dir raw_id =
  let reg = load_versions dir in
  with_journal dir (fun j ->
      let db = Compo_storage.Journal.db j in
      let root = parse_id raw_id in
      let entries =
        or_die (Compo_versions.Config_report.configuration reg (Database.store db) root)
      in
      List.iter
        (fun e ->
          Format.printf "%a@." Compo_versions.Config_report.pp_entry e)
        entries;
      let outdated = Compo_versions.Config_report.outdated entries in
      Printf.printf "%d use(s), %d outdated, %d unmanaged\n" (List.length entries)
        (List.length outdated)
        (List.length (Compo_versions.Config_report.unmanaged entries)))

(* COMPO_LOG=debug|info|warning enables logging on stderr. *)
let setup_logs () =
  match Sys.getenv_opt "COMPO_LOG" with
  | None -> ()
  | Some level ->
      let level =
        match String.lowercase_ascii level with
        | "debug" -> Some Logs.Debug
        | "info" -> Some Logs.Info
        | _ -> Some Logs.Warning
      in
      Logs.set_level level;
      Logs.set_reporter (Logs_fmt.reporter ())

let version_group =
  let open Cmdliner in
  let graph_arg = Arg.(required & pos 1 (some string) None & info [] ~docv:"GRAPH") in
  let id_at n = Arg.(required & pos n (some string) None & info [] ~docv:"ID") in
  let int_at n docv = Arg.(required & pos n (some int) None & info [] ~docv) in
  Cmd.group
    (Cmd.info "version" ~doc:"Version-graph management (versions.bin sidecar)")
    [
      Cmd.v (Cmd.info "list" ~doc:"List graphs and versions")
        Term.(const cmd_version_list $ dir_arg);
      Cmd.v (Cmd.info "new-graph" ~doc:"Create a version graph")
        Term.(const cmd_version_new_graph $ dir_arg $ graph_arg);
      Cmd.v (Cmd.info "root" ~doc:"Register an object as the root version")
        Term.(const cmd_version_root $ dir_arg $ graph_arg $ id_at 2);
      Cmd.v (Cmd.info "derive" ~doc:"Derive a new in-work version (deep copy)")
        Term.(const cmd_version_derive $ dir_arg $ graph_arg $ int_at 2 "FROM");
      Cmd.v (Cmd.info "promote" ~doc:"Promote a version (released|frozen)")
        Term.(
          const cmd_version_promote $ dir_arg $ graph_arg $ int_at 2 "VERSION"
          $ Arg.(required & pos 3 (some string) None & info [] ~docv:"STATE"));
      Cmd.v (Cmd.info "default" ~doc:"Set the default version")
        Term.(const cmd_version_default $ dir_arg $ graph_arg $ int_at 2 "VERSION");
      Cmd.v (Cmd.info "audit" ~doc:"Configuration audit of a composite")
        Term.(const cmd_version_audit $ dir_arg $ id_at 1);
    ]

let () =
  setup_logs ();
  (* COMPO_SLOW_MS / COMPO_TRACE_CAPACITY *)
  Compo_obs.Trace.configure_from_env ();
  (* strict telemetry knobs: die before any command logic runs *)
  ignore (env_trace_sample ());
  configure_flightrec_env ();
  configure_plan_env ();
  (* COMPO_FAILPOINTS: crash/fault injection for recovery testing *)
  Compo_faults.Failpoint.configure_from_env ();
  let doc = "complex and composite objects for CAD/CAM databases" in
  let envs =
    [
      Cmd.Env.info "COMPO_FAILPOINTS"
        ~doc:
          "Arm fault-injection sites for crash-recovery testing, as a \
           comma-separated list of site=action[@N] specs (actions: error, \
           crash, torn, bitflip, short:N; @N fires on the Nth hit).  Site \
           names are listed in docs/DURABILITY.md.  Example: \
           COMPO_FAILPOINTS='wal.append.frame=torn' compo demo gates d";
      Cmd.Env.info "COMPO_SLOW_MS"
        ~doc:"Log operations slower than this many milliseconds.";
      Cmd.Env.info "COMPO_NO_RESOLVE_CACHE"
        ~doc:"Disable the inheritance-resolution cache.";
      Cmd.Env.info "COMPO_NO_COMPILE"
        ~doc:
          "Disable the compiled query engine (closure compilation and \
           materialized resolved-value columns); selects run the \
           interpreted evaluator.  Results are identical either way.";
      Cmd.Env.info "COMPO_NO_DELTA"
        ~doc:
          "Disable delta maintenance of compiled-plan state: any \
           mutation then rebuilds adjacency registries and materialized \
           columns from scratch on the next select instead of patching \
           them in place from the store's change log.  Results are \
           identical either way.";
      Cmd.Env.info "COMPO_TRACE_SAMPLE"
        ~doc:
          "Probability in [0,1] that a request sent over --connect \
           carries a wire trace context (default 0).  Sampled ids are \
           threaded through the server's kernel spans and provenance.";
      Cmd.Env.info "COMPO_FLIGHTREC_CAPACITY"
        ~doc:
          "Flight-recorder ring capacity in events (default 4096).  Must \
           be a positive integer.";
    ]
  in
  let info = Cmd.info "compo" ~version:"1.0.0" ~doc ~envs in
  exit
    (Cmd.eval
       (Cmd.group info
          [
            check_cmd;
            format_cmd;
            init_cmd;
            info_cmd;
            dump_schema_cmd;
            validate_cmd;
            fsck_cmd;
            query_cmd;
            show_cmd;
            simulate_cmd;
            optimize_cmd;
            checkpoint_cmd;
            demo_cmd;
            stats_cmd;
            slowlog_cmd;
            flightrec_cmd;
            benchdiff_cmd;
            explain_group;
            version_group;
          ]))
