(* design-txn: the paper's section 6 usage mode, in process.

   One thread runs design steps on the Transaction API over depth-8
   [Node] chains: begin, 8 inherited reads of random chain leaves, one
   write to a random chain root, commit (every 16th step aborts
   instead).  Every read walks the chain with read hooks installed, so
   each hop is S-locked: lock inheritance.  Every 64th step is followed
   by a select over the leaves (outside the transaction), so the plan
   layer catches up on the steps' writes. *)

open Compo_core
module Txn = Compo_txn.Transaction
module Lock_manager = Compo_txn.Lock_manager
module Metrics = Compo_obs.Metrics
open Common

let depth = 8

type env = {
  db : Database.t;
  mg : Txn.manager;
  roots : Surrogate.t array;
  leaves : Surrogate.t array;
  payload : int array;  (** committed Payload per chain: the model *)
}

let chains cfg = match cfg.size with Full -> 250 | Tiny -> 40

(* An abort bumps the resolve-cache generation without a change-log
   record, so the next select rebuilds the plan's registry and columns
   from scratch (~0.55 us per entity here).  Selects are kept rare and
   the population small so that the design steps, not the rebuilds, do
   most of the work; one in 64 steps still gives the calm windows of a
   run, at least a sixth of it, over 1 000 selects. *)
let select_every = 64

let ok = function
  | Ok v -> v
  | Error e -> failwith ("design-txn setup: " ^ Errors.to_string e)

let build cfg =
  let rs = rng cfg 11 in
  let db = Database.create () in
  ok (Compo_scenarios.Workload.chain_schema db ~depth);
  let leaf_ty = "Node" ^ string_of_int depth in
  ok (Database.create_class db ~name:"Leaves" ~member_type:leaf_ty);
  let n = chains cfg in
  let payload = Array.init n (fun _ -> Random.State.int rs 1000) in
  let roots = Array.make n (Surrogate.of_int 0) and leaves = Array.make n (Surrogate.of_int 0) in
  for c = 0 to n - 1 do
    let root =
      ok (Database.new_object db ~ty:"Node0" ~attrs:[ ("Payload", Value.Int payload.(c)) ] ())
    in
    let prev = ref root in
    for k = 1 to depth do
      let cls = if k = depth then Some "Leaves" else None in
      let node = ok (Database.new_object db ?cls ~ty:("Node" ^ string_of_int k) ()) in
      ignore
        (ok
           (Database.bind db ~via:("AllOf_Node" ^ string_of_int (k - 1))
              ~transmitter:!prev ~inheritor:node ()));
      prev := node
    done;
    roots.(c) <- root;
    leaves.(c) <- !prev
  done;
  { db; mg = Txn.create_manager (Database.store db); roots; leaves; payload }

(* Rows a select [Payload >= c] over the leaves must return, per the model. *)
let expected_rows env c =
  let acc = ref [] in
  Array.iteri (fun i v -> if v >= c then acc := env.leaves.(i) :: !acc) env.payload;
  List.sort Surrogate.compare !acc

let same_rows rows expected = List.sort Surrogate.compare rows = expected

let measure env cfg ~traced ~seconds =
  let ph = new_phase () in
  let rs = rng cfg (if traced then 13 else 12) in
  let sp = Spans.create ~on:traced ~base:0 () in
  let qp = new_query_probe () in
  let begin_s = Stats.create () and commit_s = Stats.create () and abort_s = Stats.create () in
  let locks = ref 0 and hops = ref 0 and hop_reads = ref 0 in
  let n = Array.length env.roots in
  let lm = Txn.lock_manager env.mg in
  let store = Database.store env.db in
  if traced then Metrics.enable ();
  let before = Kernel_counters.of_registry kernel_counter_names in
  let selects = ref 0 in
  let deadline = start ph ~seconds in
  let step = ref 0 in
  while tick ph < deadline do
    incr step;
    let i = !step in
    let step_id = Spans.step sp i in
    let t0 = Spans.now () in
    let txn = Txn.begin_txn env.mg ~user:"designer" in
    let t1 = Spans.now () in
    Stats.add begin_s (t1 - t0);
    Spans.child sp ~step:step_id ~parent:step_id "txn.begin" t0 t1;
    ph.ops <- ph.ops + 1;
    let good = ref true in
    for _ = 1 to 8 do
      let c = Random.State.int rs n in
      let r0 = Spans.now () in
      let r = Txn.get_attr env.mg txn env.leaves.(c) "Payload" in
      let r1 = Spans.now () in
      Stats.add ph.read (r1 - r0);
      Spans.child sp ~step:step_id ~parent:step_id "txn.get_attr" r0 r1;
      ph.ops <- ph.ops + 1;
      (match r with
      | Ok (Value.Int v) -> check ph (v = env.payload.(c)) "design-txn: read differs from model"
      | Ok _ -> fail ph "design-txn: read returned a non-integer"
      | Error e ->
          good := false;
          fail ph ("design-txn get_attr: " ^ Errors.to_string e));
      if traced then
        excluded ph (fun () ->
            hops := !hops + List.length (Inheritance.transmitter_closure store env.leaves.(c));
            incr hop_reads)
    done;
    let c = Random.State.int rs n and v = Random.State.int rs 1000 in
    let w0 = Spans.now () in
    let w = Txn.set_attr env.mg txn env.roots.(c) "Payload" (Value.Int v) in
    let w1 = Spans.now () in
    Stats.add ph.write (w1 - w0);
    Spans.child sp ~step:step_id ~parent:step_id "txn.set_attr" w0 w1;
    ph.ops <- ph.ops + 1;
    (match w with
    | Ok () -> ()
    | Error e ->
        good := false;
        fail ph ("design-txn set_attr: " ^ Errors.to_string e));
    if traced then
      excluded ph (fun () ->
          locks := !locks + List.length (Lock_manager.locks_of lm ~txn:(Txn.id txn)));
    let aborting = i mod 16 = 0 || not !good in
    let e0 = Spans.now () in
    let e = if aborting then Txn.abort env.mg txn else Txn.commit env.mg txn in
    let e1 = Spans.now () in
    Stats.add (if aborting then abort_s else commit_s) (e1 - e0);
    Spans.child sp ~step:step_id ~parent:step_id
      (if aborting then "txn.abort" else "txn.commit")
      e0 e1;
    ph.ops <- ph.ops + 1;
    (match e with
    | Ok () -> if (not aborting) && !good then env.payload.(c) <- v
    | Error err -> fail ph ("design-txn end: " ^ Errors.to_string err));
    Stats.add ph.txn (e1 - t0);
    Spans.record sp ~id:step_id ~step:step_id ~parent:(-1) "design_step" t0 e1;
    if i mod select_every = select_every / 2 then begin
      incr selects;
      let c = Random.State.int rs 1000 in
      let explain = traced && !selects mod explain_every = 0 in
      let s0 = Spans.now () in
      let rows = select env.db qp ~explain ~cls:"Leaves" ~where:(expr_ge "Payload" c) in
      let s1 = Spans.now () in
      Stats.add ph.select (s1 - s0);
      Spans.record sp ~id:(Spans.fresh_id sp) ~step:step_id ~parent:(-1) "db.select" s0 s1;
      ph.ops <- ph.ops + 1;
      match rows with
      | Ok rows ->
          excluded ph (fun () ->
              check ph (same_rows rows (expected_rows env c)) "design-txn: select rows differ from model")
      | Error e -> fail ph ("design-txn select: " ^ Errors.to_string e)
    end
  done;
  finish ph;
  let after = Kernel_counters.of_registry kernel_counter_names in
  Metrics.disable ();
  let mean st = let s = Stats.summarize st in if s.n = 0 then 0. else us s.mean in
  let fl = float_of_int in
  let steps = Stats.count begin_s in
  let layers =
    [
      ("txn.begin_us", Some (mean begin_s));
      ("txn.commit_us", Some (mean commit_s));
      ("txn.abort_us", Some (mean abort_s));
      ("txn.locks_per_step", Some (Stats.ratio (fl !locks) (fl steps)));
      ("inheritance.hops_per_read", Some (Stats.ratio (fl !hops) (fl !hop_reads)));
    ]
    @ query_layers qp
    @ plan_delta_layers ~before ~after ~ops:ph.ops ~writes:(Stats.count ph.write)
  in
  {
    ph;
    wins = windows ph;
    layers;
    notes =
      Printf.sprintf "chains=%d depth=%d steps=%d selects=%d" n depth steps !selects
      :: write_spans cfg ~traced [ sp ];
  }

(* The committed state must match the model: every root's Payload, and
   every leaf read outside any transaction. *)
let verify env () =
  let bad = ref 0 in
  Array.iteri
    (fun c root ->
      (match Database.get_attr env.db root "Payload" with
      | Ok (Value.Int v) when v = env.payload.(c) -> ()
      | _ -> incr bad);
      match Database.get_attr env.db env.leaves.(c) "Payload" with
      | Ok (Value.Int v) when v = env.payload.(c) -> ()
      | _ -> incr bad)
    env.roots;
  let store = Database.store env.db in
  let problems = Store.check_invariants store @ Compo_core.Plan.self_check store in
  (!bad + List.length problems,
   Printf.sprintf "verify: %d chain(s) checked, %d mismatch(es), %d invariant problem(s)"
     (Array.length env.roots) !bad (List.length problems)
   :: List.filteri (fun i _ -> i < 5) problems)

let run cfg =
  let env, setup = timed_setup cfg ~build:(fun _ -> build cfg) ~release:ignore in
  drive cfg ~setup ~measure:(measure env cfg) ~verify:(verify env)
