(* catalog: a durable design database under a mixed load, in process.

   Depth-4 chains ([CNode0] roots carrying four integer attributes, each
   permeable to [CNode1 .. CNode4]) are bulk-loaded through the journal,
   closed and reopened, so set-up pays WAL appends plus recovery.  One
   thread then runs a random mix: about 69% inherited point reads on
   random inheritors at every level, 10% selects with an inherited
   predicate over the class of chain leaves, 15% durable attribute writes
   on random roots, 6% read-only design steps (begin, 4 leaf reads under
   lock inheritance, commit; 6% so that the calm windows of a run, at
   least a sixth of it, hold several thousand for their p99), and 1 op
   in 500 re-points an inheritor to another chain (unbind + bind).  The inherited (entity,
   attribute) working set, 4 x 4 x [chains], is larger than one
   resolve-cache shard (65 536 entries).

   Every select filters on the same attribute, [P0].  The store's change
   log starts over every 512 records, and a plan column stamped before
   that cannot catch up: it is rebuilt from scratch (~15-40 ms against
   ~0.35 ms for a select that catches up).  One such rebuild per column
   per ~3 300 ops is under 0.5% of the selects with one column, so the
   select p99 is a catch-up in every run; with a column per attribute
   it was ~1.2%, and the p99 flipped between the two from run to run.

   After the run the journal is crashed and reopened, and every
   acknowledged write is checked against the benchmark's model. *)

open Compo_core
module Journal = Compo_storage.Journal
module Txn = Compo_txn.Transaction
module Metrics = Compo_obs.Metrics
open Common

let depth = 4
let attrs = [| "P0"; "P1"; "P2"; "P3" |]
let select_attr = attrs.(0)
let node_ty k = "CNode" ^ string_of_int k
let rel k = "AllOf_CNode" ^ string_of_int k
let chains cfg = match cfg.size with Full -> 6_000 | Tiny -> 60

(* Node [c * (depth+1) + k] is chain [c]'s level-[k] object. *)
let per_chain = depth + 1

type env = {
  mutable j : Journal.t;
  dir : string;
  ids : Surrogate.t array;
  parent : int array;  (** model: current transmitter node, [-1] for roots *)
  vals : int array;  (** model: [vals.(c * 4 + a)], chain [c]'s root values *)
  recover_s : float;
  replayed : int;
}

let ok = function
  | Ok v -> v
  | Error e -> failwith ("catalog: " ^ Errors.to_string e)

let define_schema j =
  let attr name = { Schema.attr_name = name; attr_domain = Domain.Integer } in
  ok
    (Journal.define_obj_type j
       {
         Schema.ot_name = node_ty 0;
         ot_inheritor_in = None;
         ot_attrs = Array.to_list (Array.map attr attrs);
         ot_subclasses = [];
         ot_subrels = [];
         ot_constraints = [];
       });
  for k = 0 to depth - 1 do
    ok
      (Journal.define_inher_rel_type j
         {
           Schema.it_name = rel k;
           it_transmitter = node_ty k;
           it_inheritor = Some (node_ty (k + 1));
           it_inheriting = Array.to_list attrs;
           it_attrs = [];
           it_subclasses = [];
           it_constraints = [];
         });
    ok
      (Journal.define_obj_type j
         {
           Schema.ot_name = node_ty (k + 1);
           ot_inheritor_in = Some (rel k);
           ot_attrs = [];
           ot_subclasses = [];
           ot_subrels = [];
           ot_constraints = [];
         })
  done;
  ok (Journal.create_class j ~name:"Leaves" ~member_type:(node_ty depth))

(* Bulk load through the journal, close, and reopen: the set-up a user
   pays to bring a catalog up from its log. *)
let build cfg dir =
  fresh_dir dir;
  let rs = rng cfg 21 in
  let n = chains cfg in
  let ids = Array.make (n * per_chain) (Surrogate.of_int 0) in
  let parent = Array.init (n * per_chain) (fun i -> if i mod per_chain = 0 then -1 else i - 1) in
  let vals = Array.init (n * Array.length attrs) (fun _ -> Random.State.int rs 1000) in
  let j = ok (Journal.open_dir dir) in
  define_schema j;
  for c = 0 to n - 1 do
    let base = c * per_chain in
    ids.(base) <-
      ok
        (Journal.new_object j ~ty:(node_ty 0)
           ~attrs:(Array.to_list (Array.mapi (fun a name -> (name, Value.Int vals.((c * 4) + a))) attrs))
           ());
    for k = 1 to depth do
      let cls = if k = depth then Some "Leaves" else None in
      ids.(base + k) <- ok (Journal.new_object j ?cls ~ty:(node_ty k) ());
      ignore
        (ok
           (Journal.bind j ~via:(rel (k - 1)) ~transmitter:ids.(base + k - 1)
              ~inheritor:ids.(base + k) ()))
    done
  done;
  Journal.close j;
  let t0 = Spans.now () in
  let j = ok (Journal.open_dir dir) in
  let recover_s = float_of_int (Spans.now () - t0) /. 1e9 in
  { j; dir; ids; parent; vals; recover_s; replayed = Journal.wal_records_replayed j }

let rec root_of env n = if env.parent.(n) < 0 then n else root_of env env.parent.(n)
let model_value env n a = env.vals.((root_of env n / per_chain * 4) + a)

let expected_rows env a c =
  let acc = ref [] in
  for ch = 0 to (Array.length env.ids / per_chain) - 1 do
    let leaf = (ch * per_chain) + depth in
    if model_value env leaf a >= c then acc := env.ids.(leaf) :: !acc
  done;
  List.sort Surrogate.compare !acc

let check_read ph env n a = function
  | Ok (Value.Int v) -> check ph (v = model_value env n a) "catalog: read differs from model"
  | Ok _ -> fail ph "catalog: read returned a non-integer"
  | Error e -> fail ph ("catalog get_attr: " ^ Errors.to_string e)

let measure env cfg ~traced ~seconds =
  let ph = new_phase () in
  let rs = rng cfg (if traced then 23 else 22) in
  let sp = Spans.create ~on:traced ~base:0 () in
  let qp = new_query_probe () in
  let db = Journal.db env.j in
  let mg = Txn.create_manager (Database.store db) in
  let begin_s = Stats.create () and commit_s = Stats.create () in
  let nodes = Array.length env.ids in
  let nchains = nodes / per_chain in
  let writes = ref 0 and repoints = ref 0 and selects = ref 0 in
  if traced then Metrics.enable ();
  let before = Kernel_counters.of_registry kernel_counter_names in
  let wal0 = Journal.wal_size_bytes env.j in
  let timed ~step stats name f =
    let t0 = Spans.now () in
    let r = f () in
    let t1 = Spans.now () in
    Stats.add stats (t1 - t0);
    Spans.record sp ~id:step ~step ~parent:(-1) name t0 t1;
    ph.ops <- ph.ops + 1;
    r
  in
  let deadline = start ph ~seconds in
  let i = ref 0 in
  while tick ph < deadline do
    incr i;
    (* each pass is one step: an operation, or one read-only design step *)
    let step = Spans.step sp !i in
    let r = Random.State.int rs 1000 in
    if r < 2 then begin
      (* re-point a random inheritor to the same level of another chain *)
      let k = 1 + Random.State.int rs depth in
      let n = (Random.State.int rs nchains * per_chain) + k in
      let p = (Random.State.int rs nchains * per_chain) + k - 1 in
      if p <> env.parent.(n) then begin
        let t0 = Spans.now () in
        let res =
          Result.bind (Journal.unbind env.j env.ids.(n)) (fun () ->
              Journal.bind env.j ~via:(rel (k - 1)) ~transmitter:env.ids.(p)
                ~inheritor:env.ids.(n) ())
        in
        Spans.record sp ~id:step ~step ~parent:(-1) "journal.repoint" t0 (Spans.now ());
        ph.ops <- ph.ops + 1;
        incr repoints;
        match res with
        | Ok _ -> env.parent.(n) <- p
        | Error e -> fail ph ("catalog re-point: " ^ Errors.to_string e)
      end
    end
    else if r < 152 then begin
      let c = Random.State.int rs nchains and a = Random.State.int rs 4 in
      let v = Random.State.int rs 1000 in
      incr writes;
      match
        timed ~step ph.write "journal.set_attr" (fun () ->
            Journal.set_attr env.j env.ids.(c * per_chain) attrs.(a) (Value.Int v))
      with
      | Ok () -> env.vals.((c * 4) + a) <- v
      | Error e -> fail ph ("catalog set_attr: " ^ Errors.to_string e)
    end
    else if r < 252 then begin
      incr selects;
      let c = Random.State.int rs 1000 in
      let explain = traced && !selects mod explain_every = 0 in
      match
        timed ~step ph.select "db.select" (fun () ->
            select db qp ~explain ~cls:"Leaves" ~where:(expr_ge select_attr c))
      with
      | Ok rows ->
          excluded ph (fun () ->
              check ph
                (List.sort Surrogate.compare rows = expected_rows env 0 c)
                "catalog: select rows differ from model")
      | Error e -> fail ph ("catalog select: " ^ Errors.to_string e)
    end
    else if r < 312 then begin
      (* a read-only design step: lock inheritance over 4 leaf chains *)
      let t0 = Spans.now () in
      let txn = Txn.begin_txn mg ~user:"reviewer" in
      let t1 = Spans.now () in
      Stats.add begin_s (t1 - t0);
      ph.ops <- ph.ops + 1;
      for _ = 1 to 4 do
        let n = (Random.State.int rs nchains * per_chain) + depth
        and a = Random.State.int rs 4 in
        let r0 = Spans.now () in
        let res = Txn.get_attr mg txn env.ids.(n) attrs.(a) in
        let r1 = Spans.now () in
        Stats.add ph.read (r1 - r0);
        Spans.child sp ~step ~parent:step "txn.get_attr" r0 r1;
        ph.ops <- ph.ops + 1;
        check_read ph env n a res
      done;
      let c0 = Spans.now () in
      let res = Txn.commit mg txn in
      let c1 = Spans.now () in
      Stats.add commit_s (c1 - c0);
      Stats.add ph.txn (c1 - t0);
      ph.ops <- ph.ops + 1;
      Spans.child sp ~step ~parent:step "txn.begin" t0 t1;
      Spans.child sp ~step ~parent:step "txn.commit" c0 c1;
      Spans.record sp ~id:step ~step ~parent:(-1) "design_step" t0 c1;
      match res with Ok () -> () | Error e -> fail ph ("catalog commit: " ^ Errors.to_string e)
    end
    else begin
      let n = (Random.State.int rs nchains * per_chain) + 1 + Random.State.int rs depth in
      let a = Random.State.int rs 4 in
      check_read ph env n a
        (timed ~step ph.read "db.get_attr" (fun () -> Database.get_attr db env.ids.(n) attrs.(a)))
    end
  done;
  finish ph;
  let after = Kernel_counters.of_registry kernel_counter_names in
  Metrics.disable ();
  let logged = !writes + (2 * !repoints) in
  let wal_bytes = Journal.wal_size_bytes env.j - wal0 in
  let mean st = let s = Stats.summarize st in if s.n = 0 then 0. else us s.mean in
  let layers =
    [
      ("txn.begin_us", Some (mean begin_s));
      ("txn.commit_us", Some (mean commit_s));
      ("inheritance.hops_per_read", Some (float_of_int depth));
      ( "journal.wal_bytes_per_write",
        Some (Stats.ratio (float_of_int wal_bytes) (float_of_int logged)) );
      ("journal.recover_s", Some env.recover_s);
      ("journal.replayed_records", Some (float_of_int env.replayed));
    ]
    @ query_layers qp
    @ plan_delta_layers ~before ~after ~ops:ph.ops ~writes:logged
  in
  {
    ph;
    wins = windows ph;
    layers;
    notes =
      Printf.sprintf "chains=%d depth=%d entities=%d writes=%d repoints=%d selects=%d" nchains depth
        (Store.entity_count (Database.store db)) !writes !repoints !selects
      :: write_spans cfg ~traced [ sp ];
  }

(* Crash, recover, and hold the recovered catalog to the model. *)
let verify env cfg () =
  let problems = ref [] in
  let note fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let store = Database.store (Journal.db env.j) in
  List.iter (note "live: %s") (Store.check_invariants store @ Plan.self_check store);
  Journal.crash env.j;
  let j = ok (Journal.open_dir env.dir) in
  env.j <- j;
  let db = Journal.db j in
  let store = Database.store db in
  let nodes = Array.length env.ids in
  for n = 0 to nodes - 1 do
    if env.parent.(n) < 0 then
      Array.iteri
        (fun a name ->
          match Store.local_attr store env.ids.(n) name with
          | Ok (Value.Int v) when v = env.vals.((n / per_chain * 4) + a) -> ()
          | _ -> note "recovered %s.%s differs from the last acknowledged write" (Surrogate.to_string env.ids.(n)) name)
        attrs
    else
      match Database.transmitter_of db env.ids.(n) with
      | Ok (Some t) when Surrogate.equal t env.ids.(env.parent.(n)) -> ()
      | _ -> note "recovered binding of %s differs from the model" (Surrogate.to_string env.ids.(n))
  done;
  let rs = rng cfg 24 in
  for _ = 1 to 500 do
    let n = Random.State.int rs nodes and a = Random.State.int rs 4 in
    match Database.get_attr db env.ids.(n) attrs.(a) with
    | Ok (Value.Int v) when v = model_value env n a -> ()
    | _ -> note "recovered read of %s differs from the model" (Surrogate.to_string env.ids.(n))
  done;
  (match Database.select db ~cls:"Leaves" ~jobs:1 ~where:(expr_ge "P0" 500) () with
  | Error e -> note "recovered select: %s" (Errors.to_string e)
  | Ok rows ->
      if List.sort Surrogate.compare rows <> expected_rows env 0 500 then
        note "recovered select rows differ from the model";
      List.iteri
        (fun i row ->
          if i < 64 then
            match Database.get_attr db row "P0" with
            | Ok (Value.Int v) when v >= 500 -> ()
            | _ -> note "select row %s fails its predicate on a point read" (Surrogate.to_string row))
        rows);
  List.iter (note "recovered: %s") (Store.check_invariants store @ Plan.self_check store);
  Journal.close j;
  let problems = List.rev !problems in
  ( List.length problems,
    Printf.sprintf "verify: crash + recovery, %d node(s) checked, %d problem(s)" nodes
      (List.length problems)
    :: List.filteri (fun i _ -> i < 5) problems )

let run cfg =
  let env, setup =
    timed_setup cfg
      ~build:(fun k -> build cfg (Filename.concat cfg.work_dir (Printf.sprintf "catalog-%d" k)))
      ~release:(fun e ->
        Journal.close e.j;
        rm_rf e.dir)
  in
  (* [verify] leaves the measured catalog closed *)
  drive cfg
    ~setup:(fun () ->
      rm_rf env.dir;
      setup ())
    ~measure:(measure env cfg) ~verify:(verify env cfg)
