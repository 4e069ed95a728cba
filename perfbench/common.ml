(* What every workload shares: the run configuration, the raw
   observations of one measured phase, the metric catalogue, and the
   select wrapper that samples query plans in a traced run. *)

open Compo_core

type size = Full | Tiny

type config = {
  workload : string;
  seed : int;
  seconds : float;  (** measured time of the whole run *)
  trace : bool;
  size : size;  (** [Tiny] only for the benchmark's own smoke test *)
  work_dir : string;  (** databases and sockets; relative to the checkout *)
  out_dir : string;  (** where a traced run writes its spans *)
  server : string;  (** the compo-server executable ([designer]) *)
  cores : int;
}

let rng cfg salt = Random.State.make [| cfg.seed; salt |]
let seconds_ns s = int_of_float (s *. 1e9)

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let rec mkdir_p path =
  if not (Sys.file_exists path) then begin
    mkdir_p (Filename.dirname path);
    Sys.mkdir path 0o755
  end

let fresh_dir path =
  rm_rf path;
  mkdir_p path

(* A traced phase's spans go to [out_dir], one file per workload that the
   next traced run of it overwrites; the report line says how many. *)
let write_spans cfg ~traced bufs =
  if not traced then []
  else
    [ Spans.write (Filename.concat cfg.out_dir (Printf.sprintf "spans-%s.jsonl" cfg.workload)) bufs ]

(* ------------------------------------------------------------------ *)
(* Host-speed probe                                                    *)

(* A fixed run of register-only integer work that touches none of the
   program's data, timed: how fast the host runs at that moment, and
   nothing else.  Eight independent xorshift streams keep the core's
   integer units busy, so the probe slows down when another tenant's
   thread shares the core; that is what makes this host's slow phases
   (the benchmark's reads run up to twice as long in them, the probe
   about half again as long; a single dependent chain barely notices).
   About 20 us here. *)
let probe_iters = 4_000

let probe () =
  let t0 = Spans.now () in
  let a = ref 1 and b = ref 2 and c = ref 3 and d = ref 4 in
  let e = ref 5 and f = ref 6 and g = ref 7 and h = ref 8 in
  for _ = 1 to probe_iters do
    a := !a lxor (!a lsl 13); b := !b lxor (!b lsl 13);
    c := !c lxor (!c lsl 13); d := !d lxor (!d lsl 13);
    e := !e lxor (!e lsl 13); f := !f lxor (!f lsl 13);
    g := !g lxor (!g lsl 13); h := !h lxor (!h lsl 13);
    a := !a lxor (!a lsr 7); b := !b lxor (!b lsr 7);
    c := !c lxor (!c lsr 7); d := !d lxor (!d lsr 7);
    e := !e lxor (!e lsr 7); f := !f lxor (!f lsr 7);
    g := !g lxor (!g lsr 7); h := !h lxor (!h lsr 7)
  done;
  ignore (Sys.opaque_identity (!a + !b + !c + !d + !e + !f + !g + !h));
  Spans.now () - t0

(* A measured phase runs the probe every [probe_every_ns], between two
   operations, outside the measured time: 20 probes per window. *)
let probe_every_ns = 25_000_000

(* ------------------------------------------------------------------ *)
(* One measured phase                                                  *)

(* Where the phase stood at a window boundary. *)
type cut = {
  at_ns : int;
  c_ops : int;
  c_excluded : int;
  c_read : int;
  c_write : int;
  c_select : int;
  c_txn : int;
  c_probe : int;
}

(* Latencies per operation type, as raw nanosecond samples in the order
   taken.  [excluded_ns] is time the benchmark spent checking results
   against its model or probing the host; it does not count as work.
   The phase is cut into equal windows of time, and the end-to-end
   figures are read off the calm ones (see {!calm_windows}): a slow
   phase of the host then drops windows, not the run. *)
type phase = {
  read : Stats.t;  (** inherited get_attr *)
  write : Stats.t;  (** set_attr *)
  select : Stats.t;  (** call to rows *)
  txn : Stats.t;  (** one design step, begin to commit or abort *)
  probe : Stats.t;  (** host-speed probe times *)
  probing : bool;
  mutable ops : int;  (** calls or requests completed *)
  mutable failed : int;
  mutable excluded_ns : int;
  mutable errors : string list;  (** the first few failure messages *)
  mutable window_ns : int;
  mutable next_cut : int;
  mutable next_probe : int;
  mutable cuts : cut list;  (** newest first *)
}

(* [~probe:false] for a workload whose work runs on cores the probe
   cannot see; its figures then come from every window. *)
let new_phase ?(probe = true) () =
  {
    read = Stats.create ();
    write = Stats.create ();
    select = Stats.create ();
    txn = Stats.create ();
    probe = Stats.create ();
    probing = probe;
    ops = 0;
    failed = 0;
    excluded_ns = 0;
    errors = [];
    window_ns = max_int;
    next_cut = max_int;
    next_probe = max_int;
    cuts = [];
  }

let cut_at ph now =
  {
    at_ns = now;
    c_ops = ph.ops;
    c_excluded = ph.excluded_ns;
    c_read = Stats.count ph.read;
    c_write = Stats.count ph.write;
    c_select = Stats.count ph.select;
    c_txn = Stats.count ph.txn;
    c_probe = Stats.count ph.probe;
  }

(* Windows per phase: one per 0.5 s of measuring.  Slow phases of the
   host last a second or more, so most windows fall wholly inside a
   phase. *)
let windows_for seconds = max 1 (int_of_float (seconds /. 0.5))

(* Start measuring; returns the deadline.  The loop calls {!tick} once
   per iteration and {!finish} after it. *)
let start ph ~seconds =
  let now = Spans.now () in
  ph.window_ns <- seconds_ns seconds / windows_for seconds;
  ph.next_cut <- now + ph.window_ns;
  ph.next_probe <- now;
  ph.cuts <- [ cut_at ph now ];
  now + seconds_ns seconds

let tick ph =
  let now = Spans.now () in
  if now >= ph.next_cut then begin
    ph.cuts <- cut_at ph now :: ph.cuts;
    ph.next_cut <- ph.next_cut + ph.window_ns
  end;
  if ph.probing && now >= ph.next_probe then begin
    let p = probe () in
    Stats.add ph.probe p;
    ph.next_probe <- ph.next_probe + probe_every_ns;
    let after = Spans.now () in
    ph.excluded_ns <- ph.excluded_ns + (after - now);
    after
  end
  else now

let finish ph =
  let now = Spans.now () in
  match ph.cuts with
  | last :: _ when last.c_ops = ph.ops -> ()
  | _ -> ph.cuts <- cut_at ph now :: ph.cuts

type window = {
  w_ops : int;
  w_busy_ns : int;
  w_read : Stats.t;
  w_write : Stats.t;
  w_select : Stats.t;
  w_txn : Stats.t;
  w_probe : Stats.t;
}

let windows ph =
  let rec go = function
    | a :: (b :: _ as rest) ->
        let sl st f = Stats.slice st ~lo:(f a) ~hi:(f b) in
        {
          w_ops = b.c_ops - a.c_ops;
          w_busy_ns = b.at_ns - a.at_ns - (b.c_excluded - a.c_excluded);
          w_read = sl ph.read (fun c -> c.c_read);
          w_write = sl ph.write (fun c -> c.c_write);
          w_select = sl ph.select (fun c -> c.c_select);
          w_txn = sl ph.txn (fun c -> c.c_txn);
          w_probe = sl ph.probe (fun c -> c.c_probe);
        }
        :: go rest
    | _ -> []
  in
  go (List.rev ph.cuts)

(* Concurrent sessions' windows, pooled window by window. *)
let merge_windows per_session =
  let rec go lists =
    if lists = [] || List.exists (( = ) []) lists then []
    else
      let ws = List.map List.hd lists in
      let pool f = Stats.merge (List.map f ws) in
      {
        w_ops = List.fold_left (fun acc w -> acc + w.w_ops) 0 ws;
        w_busy_ns = List.fold_left (fun acc w -> max acc w.w_busy_ns) 0 ws;
        w_read = pool (fun w -> w.w_read);
        w_write = pool (fun w -> w.w_write);
        w_select = pool (fun w -> w.w_select);
        w_txn = pool (fun w -> w.w_txn);
        w_probe = pool (fun w -> w.w_probe);
      }
      :: go (List.map List.tl lists)
  in
  go per_session

let fail ph msg =
  ph.failed <- ph.failed + 1;
  if List.length ph.errors < 5 then ph.errors <- msg :: ph.errors

let check ph ok msg = if not ok then fail ph msg

(* Run [f] outside the measured time. *)
let excluded ph f =
  let t0 = Spans.now () in
  let r = f () in
  ph.excluded_ns <- ph.excluded_ns + (Spans.now () - t0);
  r

(* Concurrent sessions of one phase, their samples and counts pooled. *)
let merge_phases phs =
  let m = new_phase () in
  List.iter
    (fun p ->
      Stats.append ~into:m.read p.read;
      Stats.append ~into:m.write p.write;
      Stats.append ~into:m.select p.select;
      Stats.append ~into:m.txn p.txn;
      m.ops <- m.ops + p.ops;
      m.failed <- m.failed + p.failed;
      m.errors <- m.errors @ p.errors)
    phs;
  m

(* ------------------------------------------------------------------ *)
(* Metrics                                                             *)

type metric = { name : string; value : float option; unit_ : string }

(* Every per-layer metric, in report order.  A workload reports the ones
   whose layer it calls; the rest read 0 there (no work in that layer). *)
let layer_catalogue =
  [
    ("net.client.send_us", "us");
    ("net.client.wait_p50_us", "us");
    ("net.client.wait_p99_us", "us");
    ("server.request_us", "us");
    ("net.transport_us", "us");
    ("server.gate.wait_us", "us");
    ("server.gate.wait_share", "ratio");
    ("server.gate.hold_us", "us");
    ("txn.begin_us", "us");
    ("txn.commit_us", "us");
    ("txn.abort_us", "us");
    ("txn.locks_per_step", "count");
    ("inheritance.hops_per_read", "count");
    ("inheritance.cache.hit_ratio", "ratio");
    ("query.access_us", "us");
    ("query.filter_p50_us", "us");
    ("query.filter_p99_us", "us");
    ("plan.compiled_frac", "ratio");
    ("plan.column_built_frac", "ratio");
    ("plan.delta.rebuild_per_kop", "count");
    ("plan.delta.cells_per_write", "count");
    ("journal.wal_bytes_per_write", "B");
    ("journal.recover_s", "s");
    ("journal.replayed_records", "count");
    ("trace.overhead_frac", "ratio");
  ]

let layer_metrics measured =
  List.map
    (fun (name, unit_) ->
      let value =
        match List.assoc_opt name measured with Some v -> v | None -> Some 0.
      in
      { name; value; unit_ })
    layer_catalogue

let us ns = Stats.us_of_ns ns

let window_ops_per_s w = Stats.ratio (float_of_int w.w_ops) (float_of_int w.w_busy_ns /. 1e9)

let window_read_p50 w =
  if Stats.count w.w_read = 0 then infinity
  else Stats.percentile_sorted (Stats.sorted w.w_read) ~num:50 ~den:100

let window_probe_p50 w =
  if Stats.count w.w_probe = 0 then infinity
  else Stats.percentile_sorted (Stats.sorted w.w_probe) ~num:50 ~den:100

(* The calm ones of [(probe, x)] pairs.  The host's speed changes in
   phases of seconds: in a slow phase the probe runs about twice as long
   and so does the benchmark's work, and a slow phase only ever slows
   the work down.  The calm pairs are those whose probe figure is within
   [calm_tolerance] of the fastest one's, that is those in the host's
   fastest state, however many there are; and at least the fastest
   [1 / calm_min_share] of all.  Only the probes, which do no work of
   the program's, decide: a slowdown the program causes itself (a
   collection, a plan rebuild, a slow phase of its own) stays in
   whichever pairs it falls, and the figures are the program's.  When
   no pair has a probe figure ([infinity]), all are kept. *)
let calm_tolerance = 0.15
let calm_min_share = 6

let calm_by_probe pairs =
  let ranked = List.stable_sort (fun (a, _) (b, _) -> Float.compare a b) pairs in
  let fastest = match ranked with (p, _) :: _ -> p | [] -> infinity in
  let floor = (List.length pairs + calm_min_share - 1) / calm_min_share in
  if fastest = infinity then List.map snd pairs
  else
    List.filteri (fun i (p, _) -> i < floor || p <= fastest *. (1. +. calm_tolerance)) ranked
    |> List.map snd

(* The calm windows, pooled into one; ranked by their probe medians.  A
   sixth of a run holds 1 000 or more samples of the rarest operation. *)
let calm_windows wins =
  let kept = calm_by_probe (List.map (fun w -> (window_probe_p50 w, w)) wins) in
  let pool f = Stats.merge (List.map f kept) in
  {
    w_ops = List.fold_left (fun acc w -> acc + w.w_ops) 0 kept;
    w_busy_ns = List.fold_left (fun acc w -> acc + w.w_busy_ns) 0 kept;
    w_read = pool (fun w -> w.w_read);
    w_write = pool (fun w -> w.w_write);
    w_select = pool (fun w -> w.w_select);
    w_txn = pool (fun w -> w.w_txn);
    w_probe = pool (fun w -> w.w_probe);
  }

let setup_metric setup_s = { name = "setup_s"; value = Some setup_s; unit_ = "s" }

(* Every other end-to-end figure is read off the calm windows of the
   run: ops/s over their busy time, and exact percentiles (nearest rank)
   of their pooled samples. *)
let run_metrics wins =
  let w = calm_windows wins in
  let pcts name st =
    let s = Stats.summarize st in
    [
      { name = name ^ "_p50_us"; value = Some (us s.p50); unit_ = "us" };
      { name = name ^ "_p99_us"; value = Some (us s.p99); unit_ = "us" };
    ]
  in
  { name = "ops_per_s"; value = Some (window_ops_per_s w); unit_ = "1/s" }
  :: List.concat
       [ pcts "read" w.w_read; pcts "select" w.w_select; pcts "write" w.w_write; pcts "txn" w.w_txn ]

let end_to_end ~setup_s wins = setup_metric setup_s :: run_metrics wins

(* Human-readable lines: every window's ops/s, read median and probe
   median, then each percentile with the sample count it rests on, for
   the calm windows and for the whole run.  A p99 wants at least 1 000
   samples. *)
let sample_lines ph wins =
  let calm = calm_windows wins in
  let line scope name st =
    let s = Stats.summarize st in
    Printf.sprintf "%-6s %-5s n=%-8d p50=%.2fus p99=%.2fus mean=%.2fus%s" name scope s.n
      (us s.p50) (us s.p99) (us s.mean)
      (if s.n < 1000 then "  (fewer than 1000 samples: p99 is coarse)" else "")
  in
  Printf.sprintf
    "windows=%d, figures from %.1f busy s of calm ones by probe; per window ops/s @ read p50 us / probe p50 us: %s"
    (List.length wins) (float_of_int calm.w_busy_ns /. 1e9)
    (String.concat " "
       (List.map
          (fun w ->
            Printf.sprintf "%.0f@%.2f/%.1f" (window_ops_per_s w) (us (window_read_p50 w))
              (us (window_probe_p50 w)))
          wins))
  :: List.concat_map
       (fun (name, calm_st, all_st) -> [ line "calm" name calm_st; line "all" name all_st ])
       [
         ("read", calm.w_read, ph.read);
         ("select", calm.w_select, ph.select);
         ("write", calm.w_write, ph.write);
         ("txn", calm.w_txn, ph.txn);
       ]

(* ------------------------------------------------------------------ *)
(* Selects, with plan sampling in a traced run                         *)

(* Every [explain_every]-th select of a traced phase runs through
   [Database.explain_select], which returns the same rows plus the
   kernel's own access/filter stage times and the compiled-plan report. *)
let explain_every = 4

type query_probe = {
  access : Stats.t;
  filter : Stats.t;
  mutable explained : int;
  mutable compiled : int;
  mutable columns : int;
  mutable built : int;
}

let new_query_probe () =
  {
    access = Stats.create ();
    filter = Stats.create ();
    explained = 0;
    compiled = 0;
    columns = 0;
    built = 0;
  }

let select db qp ~explain ~cls ~where =
  if not explain then Database.select db ~cls ~jobs:1 ~where ()
  else
    match Database.explain_select db ~cls ~where () with
    | Error e -> Error e
    | Ok (rows, ex) ->
        Stats.add qp.access (int_of_float (ex.Query.ex_access_seconds *. 1e9));
        Stats.add qp.filter (int_of_float (ex.Query.ex_filter_seconds *. 1e9));
        qp.explained <- qp.explained + 1;
        (match ex.Query.ex_plan with
        | None -> ()
        | Some rp ->
            qp.compiled <- qp.compiled + 1;
            List.iter
              (fun (_, _, built) ->
                qp.columns <- qp.columns + 1;
                if built then qp.built <- qp.built + 1)
              rp.Plan.rp_columns);
        Ok rows

let query_layers qp =
  let f = Stats.summarize qp.filter and a = Stats.summarize qp.access in
  let fl x = float_of_int x in
  [
    ("query.access_us", Some (if a.n = 0 then 0. else us a.mean));
    ("query.filter_p50_us", Some (if f.n = 0 then 0. else us f.p50));
    ("query.filter_p99_us", Some (if f.n = 0 then 0. else us f.p99));
    ("plan.compiled_frac", Some (Stats.ratio (fl qp.compiled) (fl qp.explained)));
    ("plan.column_built_frac", Some (Stats.ratio (fl qp.built) (fl qp.columns)));
  ]

(* In-process kernel counters a traced phase reads from the registry. *)
let kernel_counter_names =
  [
    "inheritance.cache.hit"; "inheritance.cache.lookup"; "plan.delta.rebuild";
    "plan.delta.cells";
  ]

let plan_delta_layers ~before ~after ~ops ~writes =
  let per d f = Option.map f (Kernel_counters.value_delta ~before ~after d) in
  [
    ( "plan.delta.rebuild_per_kop",
      per "plan.delta.rebuild" (fun r -> Stats.ratio r (float_of_int ops /. 1000.)) );
    ( "plan.delta.cells_per_write",
      per "plan.delta.cells" (fun c -> Stats.ratio c (float_of_int writes)) );
    ("inheritance.cache.hit_ratio", Kernel_counters.cache_hit_ratio ~before ~after);
  ]

(* ------------------------------------------------------------------ *)
(* A workload's result                                                 *)

type outcome = {
  attempted : int;
  failed : int;
  metrics : metric list;  (** end-to-end, or per-layer in a traced run *)
  lines : string list;  (** human-readable report *)
}

let expr_ge attr c = Expr.(path [ attr ] >= int c)

(* Set-up is timed in two batches: one before the run, whose last
   environment is the one measured, and one after it (untraced runs
   only).  A batch repeats the set-up until its repeats, releases
   included, have taken [setup_batch_s] of wall time: at least
   [setup_min_repeats] times and at most [setup_max_repeats].  A host
   probe runs just before and just after each timed set-up, and
   [setup_s] is the median of the calm set-ups among all of them, chosen
   by their probes as the windows of a run are ({!calm_by_probe}).  The
   host's slow phases last seconds; two batches half a minute apart
   rarely both fall wholly inside one. *)
let setup_batch_s = 3.
let setup_min_repeats = 3
let setup_max_repeats = 500

(* The first batch; returns the environment to measure, and the function
   that runs the second batch (the measured environment disposed of
   first) and returns [setup_s] with a report line.  [build k] makes the
   [k]-th environment; [release] disposes of each but the measured one. *)
let timed_setup cfg ~build ~release =
  let reps = ref [] and k = ref 0 in
  let batch () =
    let wall0 = Spans.now () in
    let rec go n prev =
      Option.iter release prev;
      Gc.compact ();
      incr k;
      let p0 = probe () in
      let t0 = Spans.now () in
      let e = build !k in
      let t1 = Spans.now () in
      let p1 = probe () in
      reps := (p0 + p1, float_of_int (t1 - t0) /. 1e9) :: !reps;
      if (n >= setup_min_repeats && t1 - wall0 >= seconds_ns setup_batch_s) || n = setup_max_repeats
      then e
      else go (n + 1) (Some e)
    in
    go 1 None
  in
  let env = batch () in
  let before = List.length !reps in
  let finish () =
    if not cfg.trace then release (batch ());
    let reps = List.rev !reps in
    let calm = calm_by_probe (List.map (fun (p, t) -> (float_of_int p, t)) reps) in
    let setup_s = Stats.median calm in
    let times = List.map snd reps in
    ( setup_s,
      Printf.sprintf
        "setup: median %.4f s of the %d calm of %d (%d before the run, %d after; all: median \
         %.4f, min %.4f, max %.4f)"
        setup_s (List.length calm) (List.length reps) before
        (List.length reps - before)
        (Stats.median times)
        (List.fold_left Float.min infinity times)
        (List.fold_left Float.max 0. times) )
  in
  (env, finish)

(* What one measured phase hands back: its raw observations, their
   windows, its layer metrics, and report lines. *)
type measured = {
  ph : phase;
  wins : window list;
  layers : (string * float option) list;
  notes : string list;
}

(* The two ways one workload run can go: measure end to end, or (traced)
   measure once untraced and once traced for half the time each, so the
   gap prices the tracing itself.  [setup] disposes of the measured
   environment and finishes timing the set-up (see {!timed_setup}). *)
let drive cfg ~setup ~(measure : traced:bool -> seconds:float -> measured) ~verify =
  if not cfg.trace then begin
    let m = measure ~traced:false ~seconds:cfg.seconds in
    let vfail, vlines = verify () in
    let attempted = m.ph.ops + vfail and failed = m.ph.failed + vfail in
    let metrics = run_metrics m.wins in
    let lines = m.notes @ sample_lines m.ph m.wins @ vlines @ List.rev m.ph.errors in
    (* the run's samples are garbage from here on *)
    let setup_s, setup_note = setup () in
    { attempted; failed; metrics = setup_metric setup_s :: metrics; lines = setup_note :: lines }
  end
  else begin
    let half = cfg.seconds /. 2. in
    let plain = measure ~traced:false ~seconds:half in
    let traced = measure ~traced:true ~seconds:half in
    let vfail, vlines = verify () in
    let _, setup_note = setup () in
    let calm_ops m = window_ops_per_s (calm_windows m.wins) in
    let overhead = 1. -. Stats.ratio (calm_ops traced) (calm_ops plain) in
    {
      attempted = plain.ph.ops + traced.ph.ops + vfail;
      failed = plain.ph.failed + traced.ph.failed + vfail;
      metrics = layer_metrics (("trace.overhead_frac", Some overhead) :: traced.layers);
      lines =
        Printf.sprintf "untraced %.1f ops/s, traced %.1f ops/s (calm windows of each)"
          (calm_ops plain) (calm_ops traced)
        :: setup_note
        :: (traced.notes @ vlines @ List.rev plain.ph.errors @ List.rev traced.ph.errors);
    }
  end
