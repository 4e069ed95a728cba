(* The generation-stamped inheritance-resolution cache: invalidation
   semantics on every write path, transactional isolation, and on/off
   result equivalence over the paper scenarios. *)

open Compo_core
open Helpers
module G = Compo_scenarios.Gates
module W = Compo_scenarios.Workload
module Txn = Compo_txn.Transaction
module Metrics = Compo_obs.Metrics

(* Counter assertions need the global metrics switch on; restore the
   default (off) state whatever the test body does. *)
let with_metrics f =
  Metrics.enable ();
  Fun.protect ~finally:Metrics.disable f

let test_repeat_read_hits () =
  with_metrics @@ fun () ->
  let db = Database.create () in
  ok (W.chain_schema db ~depth:4);
  let nodes = ok (W.chain_instance db ~depth:4 ~payload:7) in
  let leaf = List.nth nodes 4 in
  check_value "first read walks the chain" (Value.Int 7)
    (ok (Database.get_attr db leaf "Payload"));
  let h0 = Resolve_cache.hits () in
  check_value "second read" (Value.Int 7) (ok (Database.get_attr db leaf "Payload"));
  check_int "second read is served from the cache" 1 (Resolve_cache.hits () - h0);
  check_int "cache holds the resolved leaf" 1
    (Resolve_cache.size (Store.resolve_cache (Database.store db)))

let test_update_visible_transitively () =
  let db = Database.create () in
  ok (W.chain_schema db ~depth:6);
  let nodes = ok (W.chain_instance db ~depth:6 ~payload:7) in
  let root = List.hd nodes in
  (* warm the cache on every node of the chain *)
  List.iter
    (fun n -> check_value "warm" (Value.Int 7) (ok (Database.get_attr db n "Payload")))
    nodes;
  ok (Database.set_attr db root "Payload" (Value.Int 99));
  List.iteri
    (fun i n ->
      check_value
        (Printf.sprintf "node %d sees the update on the next read" i)
        (Value.Int 99)
        (ok (Database.get_attr db n "Payload")))
    nodes

let test_scoped_invalidation_is_selective () =
  with_metrics @@ fun () ->
  let db = gates_db () in
  let iface1 = ok (G.nor_interface db) in
  let impl1 = ok (G.new_implementation db ~interface:iface1 ()) in
  let iface2 = ok (G.nor_interface db) in
  let impl2 = ok (G.new_implementation db ~interface:iface2 ()) in
  (* warm both bindings *)
  check_value "impl1 warm" (Value.Int 4) (ok (Database.get_attr db impl1 "Length"));
  check_value "impl2 warm" (Value.Int 4) (ok (Database.get_attr db impl2 "Length"));
  ok (Database.set_attr db iface1 "Length" (Value.Int 9));
  let h0 = Resolve_cache.hits () in
  check_value "the unrelated binding still answers from the cache" (Value.Int 4)
    (ok (Database.get_attr db impl2 "Length"));
  check_int "unrelated entry survived the scoped bump" 1
    (Resolve_cache.hits () - h0);
  let m0 = Resolve_cache.misses () in
  check_value "the entry sourced by the write re-resolves to the new value" (Value.Int 9)
    (ok (Database.get_attr db impl1 "Length"));
  check_int "entry sourced by the write was invalidated" 1 (Resolve_cache.misses () - m0)

let test_unbind_reads_null () =
  let db = gates_db () in
  let iface = ok (G.nor_interface db) in
  let impl = ok (G.new_implementation db ~interface:iface ()) in
  check_value "bound read" (Value.Int 4) (ok (Database.get_attr db impl "Length"));
  ok (Database.unbind db impl);
  check_value "read right after unbind is Null, not the cached value"
    Value.Null
    (ok (Database.get_attr db impl "Length"));
  let _ =
    ok (Database.bind db ~via:"AllOf_GateInterface" ~transmitter:iface ~inheritor:impl ())
  in
  check_value "rebinding restores the inherited value" (Value.Int 4)
    (ok (Database.get_attr db impl "Length"))

let test_unbind_in_txn_reads_null () =
  let db = gates_db () in
  let store = Database.store db in
  let iface = ok (G.nor_interface db) in
  let impl = ok (G.new_implementation db ~interface:iface ()) in
  check_value "plain warm read" (Value.Int 4) (ok (Database.get_attr db impl "Length"));
  let mg = Txn.create_manager store in
  let t = Txn.begin_txn mg ~user:"alice" in
  ok (Txn.unbind mg t impl);
  check_value "transactional read after unbind" Value.Null
    (ok (Txn.get_attr mg t impl "Length"));
  check_value "plain read after unbind" Value.Null
    (ok (Database.get_attr db impl "Length"));
  ok (Txn.commit mg t);
  check_value "read after commit stays Null" Value.Null
    (ok (Database.get_attr db impl "Length"))

let test_abort_never_serves_aborted_values () =
  let db = gates_db () in
  let store = Database.store db in
  let iface = ok (G.nor_interface db) in
  let impl = ok (G.new_implementation db ~interface:iface ()) in
  check_value "committed value" (Value.Int 4) (ok (Database.get_attr db impl "Length"));
  let mg = Txn.create_manager store in
  let t = Txn.begin_txn mg ~user:"alice" in
  ok (Txn.set_attr mg t iface "Length" (Value.Int 9));
  (* a plain read between the write and the abort memoises the
     uncommitted value -- the abort must kill that entry *)
  check_value "plain read sees the in-flight value" (Value.Int 9)
    (ok (Database.get_attr db impl "Length"));
  ok (Txn.abort mg t);
  check_value "read after abort serves the pre-transaction value"
    (Value.Int 4)
    (ok (Database.get_attr db impl "Length"));
  (* two hops down: the undo is an ordinary attribute write, and its
     scoped invalidation kills every entry the root sourced -- no global
     bump is needed to take the memoised in-flight value back *)
  with_metrics @@ fun () ->
  let db = Database.create () in
  ok (W.chain_schema db ~depth:2);
  let nodes = ok (W.chain_instance db ~depth:2 ~payload:7) in
  let root = List.hd nodes and leaf = List.nth nodes 2 in
  check_value "committed leaf value" (Value.Int 7)
    (ok (Database.get_attr db leaf "Payload"));
  let mg = Txn.create_manager (Database.store db) in
  let t = Txn.begin_txn mg ~user:"alice" in
  ok (Txn.set_attr mg t root "Payload" (Value.Int 99));
  check_value "plain read two hops down sees the in-flight value"
    (Value.Int 99)
    (ok (Database.get_attr db leaf "Payload"));
  let h0 = Resolve_cache.hits () in
  check_value "and memoises it" (Value.Int 99)
    (ok (Database.get_attr db leaf "Payload"));
  check_int "in-flight value served from the cache" 1
    (Resolve_cache.hits () - h0);
  let g0 = Resolve_cache.invalidations_global () in
  ok (Txn.abort mg t);
  check_int "the abort bumps nothing globally" g0
    (Resolve_cache.invalidations_global ());
  check_value "leaf read after abort serves the pre-transaction value"
    (Value.Int 7)
    (ok (Database.get_attr db leaf "Payload"))

(* Selections plus a full attribute sweep, with the cache on, must equal
   the same run with the cache off -- over both paper scenarios. *)
let sweep_gates db =
  let impls =
    ok (Database.select db ~cls:"Implementations"
          ~where:Expr.(path [ "Length" ] <= int 5)
          ())
  in
  List.concat_map
    (fun s ->
      List.map
        (fun a -> ok (Database.get_attr db s a))
        [ "Length"; "Width"; "Function"; "TimeBehavior" ])
    impls

let test_no_cache_equivalence_gates () =
  let db = gates_db () in
  for i = 1 to 8 do
    let pi = ok (G.new_pin_interface db ~pins:[ G.In; G.In; G.Out ]) in
    let iface =
      ok (G.new_interface db ~pin_interface:pi ~length:(4 + (i mod 4)) ~width:2)
    in
    ignore (ok (G.new_implementation db ~interface:iface ~time_behavior:i ()))
  done;
  let store = Database.store db in
  let cached = sweep_gates db in
  Store.set_resolve_cache_enabled store false;
  let uncached = sweep_gates db in
  Store.set_resolve_cache_enabled store true;
  let rewarmed = sweep_gates db in
  Alcotest.(check (list value)) "cache off matches cache on" cached uncached;
  Alcotest.(check (list value)) "re-enabling matches too" cached rewarmed

let sweep_steel db structure =
  let girders =
    ok
      (Database.select_subobjects db ~parent:structure ~subclass:"Girders"
         ~where:Expr.(path [ "Length" ] = int 200)
         ())
  in
  List.concat_map
    (fun s ->
      List.map (fun a -> ok (Database.get_attr db s a)) [ "Length"; "Height"; "Width" ])
    girders

let test_no_cache_equivalence_steel () =
  let db = steel_db () in
  let structure = ok (W.screwed_structure db ~girders:4 ~bores_per_joint:2) in
  let store = Database.store db in
  let cached = sweep_steel db structure in
  Store.set_resolve_cache_enabled store false;
  let uncached = sweep_steel db structure in
  Alcotest.(check (list value)) "cache off matches cache on" cached uncached;
  check_bool "the sweep was not vacuous" true (cached <> [])

let test_stale_fill_dies () =
  let c = Resolve_cache.create () in
  let s = Surrogate.of_int 1 in
  (* a fill whose generation predates an invalidation must be refused *)
  let gen = Resolve_cache.generation c in
  Resolve_cache.invalidate_global c;
  Resolve_cache.fill c ~gen ~src:s s "A" (Value.Int 1);
  check_bool "stale fill was dropped" true (Resolve_cache.find c s "A" = None);
  let gen = Resolve_cache.generation c in
  Resolve_cache.fill c ~gen ~src:s s "A" (Value.Int 2);
  check_value "current fill lands" (Value.Int 2)
    (Option.get (Resolve_cache.find c s "A"))

(* Entries are keyed by the value's source, the chain end it was read
   from: a write raises that one floor, and it must kill every reader's
   entry resolved from it while a write to a reader leaves them alone. *)
let test_source_floor_is_exact () =
  let c = Resolve_cache.create () in
  let src = Surrogate.of_int 1 and reader = Surrogate.of_int 2 in
  let gen = Resolve_cache.generation c in
  Resolve_cache.fill c ~gen ~src reader "A" (Value.Int 1);
  Resolve_cache.fill c ~gen ~src src "A" (Value.Int 1);
  Resolve_cache.invalidate_scoped c reader;
  check_value "a write to the reader keeps the entry it did not source" (Value.Int 1)
    (Option.get (Resolve_cache.find c reader "A"));
  Resolve_cache.invalidate_scoped c src;
  check_bool "a write to the source kills the reader's entry" true
    (Resolve_cache.find c reader "A" = None);
  check_bool "and the source's own" true (Resolve_cache.find c src "A" = None);
  (* end to end: the leaf's value comes from the root four hops up *)
  let db = Database.create () in
  ok (W.chain_schema db ~depth:4);
  let nodes = ok (W.chain_instance db ~depth:4 ~payload:7) in
  let root = List.hd nodes and leaf = List.nth nodes 4 in
  check_value "warm" (Value.Int 7) (ok (Database.get_attr db leaf "Payload"));
  ok (Database.set_attr db root "Payload" (Value.Int 8));
  check_value "the leaf re-resolves after its source is written" (Value.Int 8)
    (ok (Database.get_attr db leaf "Payload"))

let test_capacity_bounds_table () =
  let c = Resolve_cache.create ~capacity:4 () in
  let gen = Resolve_cache.generation c in
  for i = 1 to 10 do
    let s = Surrogate.of_int i in
    Resolve_cache.fill c ~gen ~src:s s "A" (Value.Int i)
  done;
  check_bool "table stays within capacity" true (Resolve_cache.size c <= 4)

let test_escape_hatch_disables () =
  let db = gates_db () in
  let store = Database.store db in
  Store.set_resolve_cache_enabled store false;
  let iface = ok (G.nor_interface db) in
  let impl = ok (G.new_implementation db ~interface:iface ()) in
  check_value "reads still resolve" (Value.Int 4)
    (ok (Database.get_attr db impl "Length"));
  check_value "again" (Value.Int 4) (ok (Database.get_attr db impl "Length"));
  check_int "nothing was memoised" 0 (Resolve_cache.size (Store.resolve_cache store))

let suite =
  ( "resolve_cache",
    [
      case "repeated read is served from the cache" test_repeat_read_hits;
      case "transmitter update visible in all transitive inheritors"
        test_update_visible_transitively;
      case "scoped invalidation leaves unrelated bindings cached"
        test_scoped_invalidation_is_selective;
      case "unbind reads Null immediately" test_unbind_reads_null;
      case "unbind inside a transaction reads Null" test_unbind_in_txn_reads_null;
      case "abort never serves aborted values" test_abort_never_serves_aborted_values;
      case "cache off: identical results on the gates scenario"
        test_no_cache_equivalence_gates;
      case "cache off: identical results on the steel scenario"
        test_no_cache_equivalence_steel;
      case "a fill raced by an invalidation dies" test_stale_fill_dies;
      case "capacity bounds the table" test_capacity_bounds_table;
      case "per-store escape hatch disables memoisation" test_escape_hatch_disables;
      case "a write kills exactly the entries it sourced" test_source_floor_is_exact;
    ] )
