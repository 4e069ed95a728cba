open Compo_core
open Compo_txn
open Helpers
module G = Compo_scenarios.Gates
module T = Transaction

let setup () =
  let db = gates_db () in
  let mg = T.create_manager (Database.store db) in
  (db, mg)

let test_lock_compatibility_matrix () =
  let open Lock in
  let expect = [
    (IS, IS, true); (IS, IX, true); (IS, S, true); (IS, SIX, true); (IS, X, false);
    (IX, IX, true); (IX, S, false); (IX, SIX, false); (IX, X, false);
    (S, S, true); (S, SIX, false); (S, X, false);
    (SIX, SIX, false); (SIX, X, false); (X, X, false);
  ]
  in
  List.iter
    (fun (a, b, want) ->
      check_bool
        (Printf.sprintf "%s/%s" (to_string a) (to_string b))
        want (compatible a b);
      check_bool "symmetric" want (compatible b a))
    expect

let test_lock_supremum () =
  let open Lock in
  check_string "S+IX=SIX" "SIX" (to_string (supremum S IX));
  check_string "IS+S=S" "S" (to_string (supremum IS S));
  check_string "IS+IX=IX" "IX" (to_string (supremum IS IX));
  check_string "S+X=X" "X" (to_string (supremum S X));
  check_bool "X covers all" true
    (List.for_all (fun m -> stronger_or_equal X m) [ IS; IX; S; SIX; X ])

let test_basic_locking () =
  let db, mg = setup () in
  let g = ok (G.new_simple_gate db ~func:"AND" ~length:4 ~width:2) in
  let t1 = T.begin_txn mg ~user:"alice" in
  let t2 = T.begin_txn mg ~user:"bob" in
  (* shared readers coexist *)
  check_value "t1 reads" (Value.Int 4) (ok (T.get_attr mg t1 g "Length"));
  check_value "t2 reads" (Value.Int 4) (ok (T.get_attr mg t2 g "Length"));
  (* a writer conflicts with a reader *)
  expect_error
    (function Errors.Lock_error _ -> true | _ -> false)
    (T.set_attr mg t2 g "Length" (Value.Int 9));
  ok (T.commit mg t1);
  (* after the reader commits, the writer proceeds *)
  ok (T.set_attr mg t2 g "Length" (Value.Int 9));
  ok (T.commit mg t2);
  check_value "write survived commit" (Value.Int 9) (ok (Database.get_attr db g "Length"))

let test_upgrade_same_txn () =
  let db, mg = setup () in
  let g = ok (G.new_simple_gate db ~func:"AND" ~length:4 ~width:2) in
  let t1 = T.begin_txn mg ~user:"alice" in
  check_value "read first" (Value.Int 4) (ok (T.get_attr mg t1 g "Length"));
  (* the same transaction upgrades S -> X without conflict *)
  ok (T.set_attr mg t1 g "Length" (Value.Int 5));
  ok (T.commit mg t1)

let test_abort_restores () =
  let db, mg = setup () in
  let g = ok (G.new_simple_gate db ~func:"AND" ~length:4 ~width:2) in
  let t1 = T.begin_txn mg ~user:"alice" in
  ok (T.set_attr mg t1 g "Length" (Value.Int 5));
  ok (T.set_attr mg t1 g "Width" (Value.Int 6));
  let created = ok (T.new_object mg t1 ~ty:"SimpleGate" ()) in
  ok (T.abort mg t1);
  check_value "Length restored" (Value.Int 4) (ok (Database.get_attr db g "Length"));
  check_value "Width restored" (Value.Int 2) (ok (Database.get_attr db g "Width"));
  check_bool "created object gone" false (Store.mem (Database.store db) created);
  check_int "all locks released" 0 (Lock_manager.lock_count (T.lock_manager mg));
  expect_error ~msg:"aborted txn unusable" any_error
    (T.set_attr mg t1 g "Length" (Value.Int 7))

let test_abort_undoes_bind () =
  let db, mg = setup () in
  let iface = ok (G.nor_interface db) in
  let t1 = T.begin_txn mg ~user:"alice" in
  let impl = ok (T.new_object mg t1 ~ty:"GateImplementation" ()) in
  let _ = ok (T.bind mg t1 ~via:"AllOf_GateInterface" ~transmitter:iface ~inheritor:impl ()) in
  ok (T.abort mg t1);
  check_int "binding undone with creation" 0
    (List.length (ok (Database.inheritors_of db iface)))

(* C10: reading inherited data locks the transmitter (reverse direction) *)
let test_lock_inheritance () =
  let db, mg = setup () in
  let iface = ok (G.nor_interface db) in
  let impl = ok (G.new_implementation db ~interface:iface ()) in
  let t1 = T.begin_txn mg ~user:"alice" in
  check_value "t1 reads inherited attr" (Value.Int 4) (ok (T.get_attr mg t1 impl "Length"));
  (* the interface itself is now S-locked by t1 *)
  (match Lock_manager.holds (T.lock_manager mg) ~txn:(T.id t1) iface with
  | Some Lock.S -> ()
  | other ->
      Alcotest.failf "expected S on the interface, got %s"
        (match other with Some m -> Lock.to_string m | None -> "nothing"));
  (* so a second transaction cannot update the interface under t1 *)
  let t2 = T.begin_txn mg ~user:"bob" in
  expect_error
    (function Errors.Lock_error _ -> true | _ -> false)
    (T.set_attr mg t2 iface "Length" (Value.Int 9));
  ok (T.commit mg t1);
  ok (T.set_attr mg t2 iface "Length" (Value.Int 9));
  ok (T.commit mg t2)

let test_lock_inheritance_multi_hop () =
  let db, mg = setup () in
  let iface = ok (G.nor_interface db) in
  let impl = ok (G.new_implementation db ~interface:iface ()) in
  let store = Database.store db in
  (* the pin interface sits two hops above the implementation *)
  let pin_iface = Option.get (ok (Inheritance.transmitter_of store iface)) in
  let t1 = T.begin_txn mg ~user:"alice" in
  let _ = ok (T.subclass_members mg t1 impl "Pins") in
  (match Lock_manager.holds (T.lock_manager mg) ~txn:(T.id t1) pin_iface with
  | Some Lock.S -> ()
  | _ -> Alcotest.fail "expected S two hops up the chain");
  ok (T.commit mg t1)

let test_attr_lock_set_matches_permeability () =
  let db, _ = setup () in
  let store = Database.store db in
  let iface = ok (G.nor_interface db) in
  let impl = ok (G.new_implementation db ~interface:iface ~time_behavior:1 ()) in
  (* inherited attr: chain of length 2; own attr: singleton *)
  check_int "inherited attr locks two objects" 2
    (List.length (Lock_inheritance.attr_lock_set store impl "Length"));
  check_int "own attr locks one object" 1
    (List.length (Lock_inheritance.attr_lock_set store impl "TimeBehavior"));
  (* Pins lives three levels up (impl -> iface -> pin interface) *)
  check_int "subclass chain locks three objects" 3
    (List.length (Lock_inheritance.attr_lock_set store impl "Pins"))

let test_deadlock_detected () =
  let db, mg = setup () in
  let a = ok (G.new_simple_gate db ~func:"AND" ~length:4 ~width:2) in
  let b = ok (G.new_simple_gate db ~func:"OR" ~length:4 ~width:2) in
  let t1 = T.begin_txn mg ~user:"alice" in
  let t2 = T.begin_txn mg ~user:"bob" in
  ok (T.set_attr mg t1 a "Length" (Value.Int 5));
  ok (T.set_attr mg t2 b "Length" (Value.Int 5));
  (* t1 blocks on b ... *)
  expect_error
    (function Errors.Lock_error _ -> true | _ -> false)
    (T.set_attr mg t1 b "Width" (Value.Int 7));
  (* ... and t2's attempt on a closes the cycle: deadlock *)
  (match T.set_attr mg t2 a "Width" (Value.Int 7) with
  | Error (Errors.Lock_error msg) ->
      check_bool "deadlock named" true (Helpers.contains msg "deadlock")
  | Error e -> Alcotest.failf "wrong error: %s" (Errors.to_string e)
  | Ok () -> Alcotest.fail "expected deadlock");
  ok (T.abort mg t2);
  (* with t2 gone, t1 proceeds *)
  ok (T.set_attr mg t1 b "Width" (Value.Int 7));
  ok (T.commit mg t1)

(* C11: expansion locking consults the access-control manager *)
let test_expansion_respects_access_control () =
  let db = gates_db () in
  let store = Database.store db in
  let ac = Access_control.create () in
  let mg = T.create_manager ~access:ac store in
  (* a composite using a protected standard cell *)
  let std_iface = ok (G.nor_interface db) in
  let top_iface = ok (G.nor_interface db) in
  let top = ok (G.new_implementation db ~interface:top_iface ()) in
  let comp = ok (G.use_component db ~composite:top ~component_interface:std_iface ~x:0 ~y:0) in
  Access_control.protect ac std_iface;
  let t1 = T.begin_txn mg ~user:"alice" in
  let granted = ok (T.lock_expansion mg t1 top ~mode:Lock.X) in
  (* the standard cell was capped to S; the user's own objects got X *)
  check_bool "standard part read-locked" true
    (List.assoc_opt std_iface granted = Some Lock.S);
  check_bool "own composite write-locked" true
    (List.assoc_opt top granted = Some Lock.X);
  check_bool "component subobject write-locked" true
    (List.assoc_opt comp granted = Some Lock.X);
  (* pins of the protected interface are protected objects' children: they
     are separate objects and stay writable unless protected themselves *)
  ok (T.commit mg t1)

let test_access_rights () =
  let db = gates_db () in
  let store = Database.store db in
  let ac = Access_control.create () in
  let mg = T.create_manager ~access:ac store in
  let g = ok (G.new_simple_gate db ~func:"AND" ~length:4 ~width:2) in
  Access_control.grant ac ~user:"bob" g Access_control.Read_only;
  let t_bob = T.begin_txn mg ~user:"bob" in
  check_value "read allowed" (Value.Int 4) (ok (T.get_attr mg t_bob g "Length"));
  expect_error
    (function Errors.Access_denied _ -> true | _ -> false)
    (T.set_attr mg t_bob g "Length" (Value.Int 9));
  Access_control.grant ac ~user:"eve" g Access_control.No_access;
  let t_eve = T.begin_txn mg ~user:"eve" in
  expect_error
    (function Errors.Access_denied _ -> true | _ -> false)
    (T.get_attr mg t_eve g "Length")

let test_conflict_detection () =
  let db, mg = setup () in
  let store = Database.store db in
  let iface = ok (G.nor_interface db) in
  let impl = ok (G.new_implementation db ~interface:iface ()) in
  let t1 = T.begin_txn mg ~user:"alice" in
  let t2 = T.begin_txn mg ~user:"bob" in
  (* t1 updates the implementation's own data; t2 updates the interface *)
  ok (T.set_attr mg t1 impl "TimeBehavior" (Value.Int 3));
  ok (T.set_attr mg t2 iface "Width" (Value.Int 8));
  let conflicts = Conflict.potential_conflicts store (T.lock_manager mg) ~txn1:(T.id t1) ~txn2:(T.id t2) in
  check_bool "related updates flagged" true
    (List.exists (fun (a, b) -> Surrogate.equal a impl && Surrogate.equal b iface) conflicts);
  (* unrelated updates are not flagged *)
  let lonely = ok (G.new_simple_gate db ~func:"OR" ~length:4 ~width:2) in
  let t3 = T.begin_txn mg ~user:"carol" in
  ok (T.set_attr mg t3 lonely "Length" (Value.Int 5));
  check_int "no conflict with unrelated txn" 0
    (List.length
       (Conflict.potential_conflicts store (T.lock_manager mg) ~txn1:(T.id t1) ~txn2:(T.id t3)));
  List.iter (fun t -> ok (T.commit mg t)) [ t1; t2; t3 ]

let test_neighbors () =
  let db, _ = setup () in
  let store = Database.store db in
  let ff = ok (G.flip_flop db) in
  let pin = List.hd (ok (Database.subclass_members db ff "Pins")) in
  let ns = Conflict.neighbors store pin in
  (* a pin's neighbors include its owner and the wires it participates in *)
  check_bool "owner is a neighbor" true (List.exists (Surrogate.equal ff) ns);
  check_bool "has relationship neighbors" true (List.length ns > 1)



(* Hierarchical intention locking: composite-granularity conflicts. *)
let test_intention_locking () =
  let db, mg = setup () in
  let ff = ok (G.flip_flop db) in
  let sub = List.hd (ok (Database.subclass_members db ff "SubGates")) in
  let t1 = T.begin_txn mg ~user:"alice" in
  (* writing a subobject takes IX on the enclosing composite *)
  ok (T.set_attr mg t1 sub "Length" (Value.Int 5));
  (match Lock_manager.holds (T.lock_manager mg) ~txn:(T.id t1) ff with
  | Some Lock.IX -> ()
  | other ->
      Alcotest.failf "expected IX on the composite, got %s"
        (match other with Some m -> Lock.to_string m | None -> "nothing"));
  (* a whole-composite reader now conflicts at the composite *)
  let t2 = T.begin_txn mg ~user:"bob" in
  expect_error
    (function Errors.Lock_error _ -> true | _ -> false)
    (T.get_attr mg t2 ff "Length");
  ok (T.commit mg t1);
  check_value "after commit the reader proceeds" (Value.Int 10)
    (ok (T.get_attr mg t2 ff "Length"));
  ok (T.commit mg t2)

let test_intention_compatibility () =
  (* two writers of different subobjects of the same composite coexist
     (IX is compatible with IX) *)
  let db, mg = setup () in
  let ff = ok (G.flip_flop db) in
  match ok (Database.subclass_members db ff "SubGates") with
  | [ s1; s2 ] ->
      let t1 = T.begin_txn mg ~user:"alice" in
      let t2 = T.begin_txn mg ~user:"bob" in
      ok (T.set_attr mg t1 s1 "Length" (Value.Int 5));
      ok (T.set_attr mg t2 s2 "Length" (Value.Int 6));
      ok (T.commit mg t1);
      ok (T.commit mg t2)
  | _ -> Alcotest.fail "expected two subgates"

let test_reader_of_subobject_coexists_with_sibling_writer () =
  (* IS on the composite from a subobject reader is compatible with the
     IX of a sibling writer *)
  let db, mg = setup () in
  let ff = ok (G.flip_flop db) in
  match ok (Database.subclass_members db ff "SubGates") with
  | [ s1; s2 ] ->
      let t1 = T.begin_txn mg ~user:"alice" in
      let t2 = T.begin_txn mg ~user:"bob" in
      ok (T.set_attr mg t1 s1 "Length" (Value.Int 5));
      check_value "sibling read allowed" (Value.Int 4)
        (ok (T.get_attr mg t2 s2 "Length"));
      (* but reading the locked sibling itself blocks *)
      expect_error
        (function Errors.Lock_error _ -> true | _ -> false)
        (T.get_attr mg t2 s1 "Length");
      ok (T.commit mg t1);
      ok (T.commit mg t2)
  | _ -> Alcotest.fail "expected two subgates"



(* Staleness stamping is transactional: visible at commit, absent after
   abort. *)
let test_stamping_follows_commit () =
  let db, mg = setup () in
  let iface = ok (G.nor_interface db) in
  let _impl = ok (G.new_implementation db ~interface:iface ()) in
  let link = List.hd (ok (Database.links_of db iface)) in
  let t1 = T.begin_txn mg ~user:"alice" in
  ok (T.set_attr mg t1 iface "Length" (Value.Int 9));
  check_bool "not stamped before commit" false (ok (Database.is_stale db link));
  ok (T.commit mg t1);
  check_bool "stamped at commit" true (ok (Database.is_stale db link));
  ok (Database.acknowledge db link);
  let t2 = T.begin_txn mg ~user:"bob" in
  ok (T.set_attr mg t2 iface "Length" (Value.Int 10));
  ok (T.abort mg t2);
  check_bool "aborted update never stamps" false (ok (Database.is_stale db link));
  check_value "aborted value restored" (Value.Int 9) (ok (Database.get_attr db iface "Length"))



(* section 6: "some or all of its components materialized" -- expansion
   locking honours a depth bound *)
let test_partial_expansion_locking () =
  let db = gates_db () in
  let store = Database.store db in
  let mg = T.create_manager store in
  let cell = ok (G.nor_interface db) in
  let top_iface = ok (G.nor_interface db) in
  let top = ok (G.new_implementation db ~interface:top_iface ()) in
  let _ = ok (G.use_component db ~composite:top ~component_interface:cell ~x:0 ~y:0) in
  let t1 = T.begin_txn mg ~user:"alice" in
  (* depth 0: own structure only -- the component interface stays free *)
  let shallow = ok (T.lock_expansion mg t1 ~max_depth:0 top ~mode:Lock.S) in
  check_bool "component not locked at depth 0" false (List.mem_assoc cell shallow);
  ok (T.commit mg t1);
  let t2 = T.begin_txn mg ~user:"bob" in
  let deep = ok (T.lock_expansion mg t2 top ~mode:Lock.S) in
  check_bool "component locked unbounded" true (List.mem_assoc cell deep);
  check_bool "deep covers more" true (List.length deep > List.length shallow);
  ok (T.commit mg t2)

(* A hook that raises something other than Compo_error must not leave the
   transaction's lock hooks installed: later plain reads would lock on
   behalf of a finished transaction and nothing would release them. *)
let test_lock_hooks_removed_on_foreign_exception () =
  let db, mg = setup () in
  let store = Database.store db in
  let iface = ok (G.nor_interface db) in
  let impl = ok (G.new_implementation db ~interface:iface ()) in
  let t1 = T.begin_txn mg ~user:"alice" in
  let boom = Store.add_read_hook store (fun _ -> failwith "boom") in
  (match T.get_attr mg t1 impl "Length" with
  | exception Failure _ -> ()
  | _ -> Alcotest.fail "expected the hook's Failure to propagate");
  Store.remove_hook store boom;
  check_bool "no read hooks left" false (Store.read_hooks_installed store);
  ok (T.commit mg t1);
  check_value "plain read" (Value.Int 4) (ok (Database.get_attr db impl "Length"));
  check_int "plain read takes no locks" 0 (Lock_manager.lock_count (T.lock_manager mg))

(* Access control is consulted on every acquire, also when the lock is
   already held: a right withdrawn mid-transaction takes effect on the
   next access. *)
let test_rights_rechecked_on_held_locks () =
  let db = gates_db () in
  let ac = Access_control.create () in
  let mg = T.create_manager ~access:ac (Database.store db) in
  let g = ok (G.new_simple_gate db ~func:"AND" ~length:4 ~width:2) in
  let h = ok (G.new_simple_gate db ~func:"OR" ~length:4 ~width:2) in
  let t1 = T.begin_txn mg ~user:"alice" in
  check_value "first read" (Value.Int 4) (ok (T.get_attr mg t1 g "Length"));
  check_bool "S held" true (Lock_manager.holds (T.lock_manager mg) ~txn:(T.id t1) g = Some Lock.S);
  Access_control.grant ac ~user:"alice" g Access_control.No_access;
  expect_error
    (function Errors.Access_denied _ -> true | _ -> false)
    (T.get_attr mg t1 g "Length");
  (* protect caps a held object to reads: re-reading is fine, writing and
     X expansion locks are not *)
  check_value "read before protect" (Value.Int 4) (ok (T.get_attr mg t1 h "Length"));
  Access_control.protect ac h;
  check_value "re-read after protect" (Value.Int 4) (ok (T.get_attr mg t1 h "Length"));
  expect_error
    (function Errors.Access_denied _ -> true | _ -> false)
    (T.set_attr mg t1 h "Length" (Value.Int 9));
  check_bool "expansion capped to S" true
    (List.assoc_opt h (ok (T.lock_expansion mg t1 h ~mode:Lock.X)) = Some Lock.S);
  check_bool "still only S on the protected object" true
    (Lock_manager.holds (T.lock_manager mg) ~txn:(T.id t1) h = Some Lock.S);
  ok (T.commit mg t1)

(* The locks an inherited read takes are exactly the attribute's lock set,
   every one in mode S. *)
let test_read_locks_equal_attr_lock_set () =
  List.iter
    (fun depth ->
      let db = Database.create () in
      ok (Compo_scenarios.Workload.chain_schema db ~depth);
      let nodes = ok (Compo_scenarios.Workload.chain_instance db ~depth ~payload:7) in
      let leaf = List.nth nodes depth in
      let store = Database.store db in
      let mg = T.create_manager store in
      let t1 = T.begin_txn mg ~user:"alice" in
      check_value "payload" (Value.Int 7) (ok (T.get_attr mg t1 leaf "Payload"));
      let want =
        List.sort Surrogate.compare (Lock_inheritance.attr_lock_set store leaf "Payload")
        |> List.map (fun s -> (Surrogate.to_int s, "S"))
      in
      let got =
        Lock_manager.locks_of (T.lock_manager mg) ~txn:(T.id t1)
        |> List.map (fun (s, m) -> (Surrogate.to_int s, Lock.to_string m))
        |> List.sort compare
      in
      check_int (Printf.sprintf "depth %d lock count" depth) (depth + 1) (List.length got);
      check_bool (Printf.sprintf "depth %d locks = attr_lock_set, all S" depth) true (got = want);
      ok (T.commit mg t1))
    [ 0; 2; 8; 16 ]

let suite =
  ( "txn",
    [
      case "lock compatibility matrix" test_lock_compatibility_matrix;
      case "lock supremum lattice" test_lock_supremum;
      case "readers share, writers exclude" test_basic_locking;
      case "same-transaction upgrade" test_upgrade_same_txn;
      case "abort restores values and creations" test_abort_restores;
      case "abort undoes bindings" test_abort_undoes_bind;
      case "lock inheritance (C10)" test_lock_inheritance;
      case "lock inheritance across hops (C10)" test_lock_inheritance_multi_hop;
      case "attr lock sets match permeability" test_attr_lock_set_matches_permeability;
      case "deadlock detection" test_deadlock_detected;
      case "expansion locking capped by access control (C11)" test_expansion_respects_access_control;
      case "access rights enforced" test_access_rights;
      case "potential-conflict identification" test_conflict_detection;
      case "relationship neighborhood" test_neighbors;
      case "intention locks on the owner chain" test_intention_locking;
      case "sibling writers coexist (IX/IX)" test_intention_compatibility;
      case "sibling reader coexists with writer (IS/IX)" test_reader_of_subobject_coexists_with_sibling_writer;
      case "staleness stamping is transactional" test_stamping_follows_commit;
      case "partial expansion locking (depth bound)" test_partial_expansion_locking;
      case "lock hooks removed on a foreign exception" test_lock_hooks_removed_on_foreign_exception;
      case "rights re-checked on held locks" test_rights_rechecked_on_held_locks;
      case "read locks equal attr_lock_set (depth 0-16)" test_read_locks_equal_attr_lock_set;
    ] )
