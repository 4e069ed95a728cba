(* Reader/writer stress driver: make stress-check.

   Four reader domains hammer selects while the main domain
   commits and aborts interleaved write batches.  The writer keeps one
   invariant at all times: inside every exclusive section it sets [A]
   and [B] of each root to the same value, so ANY consistent snapshot
   satisfies A = B on every object — a root reads its own attributes,
   a bound inheritor resolves both across the same transmitter chain.
   A reader therefore proves snapshot isolation by selecting with
   [A <> B] and requiring zero rows: a torn read (A from
   write N, B from write N-1, or a half-applied abort) is exactly a
   row in that select.

   Between writes the readers' selects catch the shared compiled-plan
   state up by delta, concurrently, under one read latch; the run fails
   unless that catch-up actually happened (plan.delta.apply > 0), since
   a torn registry or column there is exactly what the oracle exists to
   catch.  Value writes only refresh cells in place, so the writer also
   re-points a mid-chain inheritor to another root and back now and
   then (unbind + bind in one exclusive section: A = B still holds on
   either side), and the run fails unless both catch-up paths ran
   (plan.delta.refresh > 0 and plan.delta.cells > 0).

   On top of the isolation oracle the run checks the concurrent
   bookkeeping stays exact: the resolve cache must account every
   lookup as a hit or a miss even while writer invalidations race
   reader fills, and the store invariants must hold afterwards.
   Exits non-zero on any violation. *)

open Compo_core
module Metrics = Compo_obs.Metrics

let failures = ref 0

let failf fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      print_endline ("FAIL " ^ s))
    fmt

let ok what = function
  | Ok v -> v
  | Error e ->
      Printf.printf "FATAL: %s: %s\n" what (Errors.to_string e);
      exit 2

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* A population where A = B resolves through inheritance: [roots] own
   both attributes, and each root transmits them down a chain of
   [depth] bound inheritors.  Everything lives in class "Pop".  [build]
   returns each root with its first inheritor. *)

let schema db ~depth =
  let ty k = "N" ^ string_of_int k in
  let rel k = "AllOf_N" ^ string_of_int k in
  let* () =
    Database.define_obj_type db
      {
        Schema.ot_name = ty 0;
        ot_inheritor_in = None;
        ot_attrs =
          [
            { Schema.attr_name = "A"; attr_domain = Domain.Integer };
            { Schema.attr_name = "B"; attr_domain = Domain.Integer };
          ];
        ot_subclasses = [];
        ot_subrels = [];
        ot_constraints = [];
      }
  in
  let rec go k =
    if k >= depth then Ok ()
    else
      let* () =
        Database.define_inher_rel_type db
          {
            Schema.it_name = rel k;
            it_transmitter = ty k;
            it_inheritor = Some (ty (k + 1));
            it_inheriting = [ "A"; "B" ];
            it_attrs = [];
            it_subclasses = [];
            it_constraints = [];
          }
      in
      let* () =
        Database.define_obj_type db
          {
            Schema.ot_name = ty (k + 1);
            ot_inheritor_in = Some (rel k);
            ot_attrs = [];
            ot_subclasses = [];
            ot_subrels = [];
            ot_constraints = [];
          }
      in
      go (k + 1)
  in
  let* () = go 0 in
  Database.create_class db ~name:"Pop" ~member_type:(ty 0)

let build db ~roots ~depth =
  let ty k = "N" ^ string_of_int k in
  let rel k = "AllOf_N" ^ string_of_int k in
  let* () = schema db ~depth in
  let rec chain parent k =
    if k > depth then Ok parent
    else
      let* s = Database.new_object db ~cls:"Pop" ~ty:(ty k) () in
      let* (_ : Surrogate.t) =
        Database.bind db ~via:(rel (k - 1)) ~transmitter:parent ~inheritor:s ()
      in
      let* (_ : Surrogate.t) = chain s (k + 1) in
      Ok s
  in
  let rec mk i acc =
    if i >= roots then Ok (List.rev acc)
    else
      let* root =
        Database.new_object db ~cls:"Pop" ~ty:(ty 0)
          ~attrs:[ ("A", Value.Int 0); ("B", Value.Int 0) ]
          ()
      in
      let* first = chain root 1 in
      mk (i + 1) ((root, first) :: acc)
  in
  mk 0 []

(* ------------------------------------------------------------------ *)

let () =
  Metrics.enable ();
  let db = Database.create () in
  let chains = Array.of_list (ok "build" (build db ~roots:12 ~depth:3)) in
  let roots = Array.to_list (Array.map fst chains) in
  let store = Database.store db in
  let mg = Compo_txn.Transaction.create_manager store in
  let torn = ok "parse" (Compo_ddl.Parser.parse_expr "A <> B") in
  let stop = Atomic.make false in
  let selects = Atomic.make 0 in

  let reader d =
    let bad = ref 0 in
    while not (Atomic.get stop) do
      match Database.select db ~cls:"Pop" ~where:torn () with
      | Ok [] -> Atomic.incr selects
      | Ok rows ->
          incr bad;
          Printf.printf "torn read: %d row(s) with A <> B (reader %d)\n"
            (List.length rows) d
      | Error e ->
          incr bad;
          Printf.printf "select failed: %s (reader %d)\n" (Errors.to_string e) d
    done;
    !bad
  in
  let readers = List.init 4 (fun d -> Stdlib.Domain.spawn (fun () -> reader d)) in

  (* ~2s of interleaved committed writes and aborted transactions; every
     batch keeps A = B inside one exclusive section, so no consistent
     snapshot ever shows the halfway state *)
  let deadline = Unix.gettimeofday () +. 2.0 in
  let rounds = ref 0 in
  let repoint inheritor transmitter =
    Store.exclusively store (fun () ->
        ok "unbind" (Database.unbind db inheritor);
        ignore
          (ok "bind"
             (Database.bind db ~via:"AllOf_N0" ~transmitter ~inheritor ())))
  in
  while Unix.gettimeofday () < deadline do
    incr rounds;
    let v = Value.Int !rounds in
    (* every 4th round one chain's first inheritor moves over to the
       next root, and 4 rounds later back home: re-walks race the
       readers too *)
    (if !rounds mod 4 = 0 then
       let n = Array.length chains in
       let k = (!rounds - 1) / 8 mod n in
       let home, first = chains.(k) and away, _ = chains.((k + 1) mod n) in
       repoint first (if !rounds mod 8 = 4 then away else home));
    List.iteri
      (fun i root ->
        if (!rounds + i) mod 3 = 0 then begin
          (* an aborted transaction: both writes undo, the exclusive
             section makes install-undo atomic against the readers *)
          Store.exclusively store (fun () ->
              let txn = Compo_txn.Transaction.begin_txn mg ~user:"stress" in
              ok "txn set A"
                (Compo_txn.Transaction.set_attr mg txn root "A" (Value.Int (-1)));
              ok "txn set B"
                (Compo_txn.Transaction.set_attr mg txn root "B" (Value.Int (-1)));
              ok "abort" (Compo_txn.Transaction.abort mg txn))
        end
        else
          Store.exclusively store (fun () ->
              ok "set A" (Database.set_attr db root "A" v);
              ok "set B" (Database.set_attr db root "B" v)))
      roots
  done;
  Atomic.set stop true;
  let bad = List.fold_left (fun acc h -> acc + Stdlib.Domain.join h) 0 readers in

  if bad > 0 then failf "%d inconsistent read(s)" bad;
  let lookups = Resolve_cache.lookups ()
  and hits = Resolve_cache.hits ()
  and misses = Resolve_cache.misses () in
  if lookups <> hits + misses then
    failf "cache accounting drifted: %d lookups <> %d hits + %d misses" lookups
      hits misses;
  (match Store.check_invariants store with
  | [] -> ()
  | vs ->
      List.iter (fun v -> failf "invariant: %s" v) vs);
  (* the run exercised what it claims to exercise *)
  if Atomic.get selects = 0 then failf "readers never completed a select";
  if !rounds < 10 then failf "writer only completed %d round(s)" !rounds;
  let applies = Metrics.counter_value "plan.delta.apply" in
  if applies = 0 then failf "readers never caught plan state up by delta";
  let refreshed = Metrics.counter_value "plan.delta.refresh"
  and rewalked = Metrics.counter_value "plan.delta.cells" in
  if refreshed = 0 then failf "no catch-up refreshed a written value";
  if rewalked = 0 then failf "no catch-up re-walked a re-pointed chain";
  Printf.printf
    "stress: %d writer round(s), %d clean select(s), %d delta \
     catch-up(s) (%d cell(s) refreshed, %d re-walked), %d lookups = %d hits \
     + %d misses, %d failure(s)\n"
    !rounds (Atomic.get selects) applies refreshed rewalked lookups hits misses
    !failures;
  Metrics.disable ();
  exit (if !failures > 0 then 1 else 0)
