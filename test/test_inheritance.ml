open Compo_core
open Helpers
module G = Compo_scenarios.Gates
module W = Compo_scenarios.Workload

(* C2: updates of the transmitter are instantly visible in inheritors. *)
let test_view_semantics () =
  let db = gates_db () in
  let iface = ok (G.nor_interface db) in
  let impl = ok (G.new_implementation db ~interface:iface ()) in
  check_value "inherited Length" (Value.Int 4) (ok (Database.get_attr db impl "Length"));
  ok (Database.set_attr db iface "Length" (Value.Int 6));
  check_value "update instantly visible" (Value.Int 6)
    (ok (Database.get_attr db impl "Length"))

(* C1: inherited data must not be updated in the inheritor. *)
let test_write_protection () =
  let db = gates_db () in
  let iface = ok (G.nor_interface db) in
  let impl = ok (G.new_implementation db ~interface:iface ()) in
  expect_error
    (function Errors.Inherited_readonly _ -> true | _ -> false)
    (Database.set_attr db impl "Length" (Value.Int 9));
  (* own attributes of the inheritor remain writable *)
  ok (Database.set_attr db impl "TimeBehavior" (Value.Int 42));
  check_value "own attr" (Value.Int 42) (ok (Database.get_attr db impl "TimeBehavior"))

(* C1 for subclasses: inherited subclasses cannot be extended from the
   inheritor side. *)
let test_inherited_subclass_readonly () =
  let db = gates_db () in
  let iface = ok (G.nor_interface db) in
  let impl = ok (G.new_implementation db ~interface:iface ()) in
  expect_error
    (function Errors.Inherited_readonly _ -> true | _ -> false)
    (Database.new_subobject db ~parent:impl ~subclass:"Pins" ())

(* C3: selectivity — only the inheriting clause flows. *)
let test_permeability () =
  let db = gates_db () in
  let iface = ok (G.nor_interface db) in
  let impl = ok (G.new_implementation db ~interface:iface ~time_behavior:7 ()) in
  (* TimingProbe inherits TimeBehavior via SomeOf_Gate... *)
  let probe = ok (G.new_timing_probe db ~implementation:impl ~note:"t1") in
  check_value "TimeBehavior flows through SomeOf_Gate" (Value.Int 7)
    (ok (Database.get_attr db probe "TimeBehavior"));
  (* ...but Function is not in the inheriting clause: not even a feature *)
  expect_error
    (function Errors.Unknown_attribute _ -> true | _ -> false)
    (Database.get_attr db probe "Function")

(* C5: interface hierarchies — multi-hop resolution. *)
let test_multi_hop_resolution () =
  let db = gates_db () in
  let iface = ok (G.nor_interface db) in
  let impl = ok (G.new_implementation db ~interface:iface ()) in
  (* Pins live on the GateInterface_I, two hops above the implementation *)
  let pins = ok (Database.subclass_members db impl "Pins") in
  check_int "pins resolve through two hops" 3 (List.length pins);
  (* deep chains: payload resolves through 8 hops *)
  let db2 = Database.create () in
  ok (W.chain_schema db2 ~depth:8);
  let nodes = ok (W.chain_instance db2 ~depth:8 ~payload:99) in
  let last = List.nth nodes 8 in
  check_value "deep chain read" (Value.Int 99) (ok (Database.get_attr db2 last "Payload"))

(* C2 over a chain: a root update is visible on the next read of every
   node below it, however recently each node was read. *)
let test_update_visible_transitively () =
  let db = Database.create () in
  ok (W.chain_schema db ~depth:6);
  let nodes = ok (W.chain_instance db ~depth:6 ~payload:7) in
  List.iter
    (fun n -> check_value "before" (Value.Int 7) (ok (Database.get_attr db n "Payload")))
    nodes;
  ok (Database.set_attr db (List.hd nodes) "Payload" (Value.Int 99));
  List.iteri
    (fun i n ->
      check_value
        (Printf.sprintf "node %d sees the update on the next read" i)
        (Value.Int 99)
        (ok (Database.get_attr db n "Payload")))
    nodes

(* C4: unbound inheritor = plain generalization (structure, no values). *)
let test_unbound_inheritor () =
  let db = gates_db () in
  let impl = ok (Database.new_object db ~ty:"GateImplementation" ()) in
  check_value "no transmitter: Null" Value.Null (ok (Database.get_attr db impl "Length"));
  check_int "no transmitter: empty subclass" 0
    (List.length (ok (Database.subclass_members db impl "Pins")));
  (* still write-protected: the attribute belongs to the transmitter side *)
  expect_error
    (function Errors.Inherited_readonly _ -> true | _ -> false)
    (Database.set_attr db impl "Length" (Value.Int 1))

let test_bind_validation () =
  let db = gates_db () in
  let iface = ok (G.nor_interface db) in
  let other_iface = ok (G.nor_interface db) in
  let impl = ok (G.new_implementation db ~interface:iface ()) in
  (* double binding rejected *)
  expect_error
    (function Errors.Invalid_binding _ -> true | _ -> false)
    (Database.bind db ~via:"AllOf_GateInterface" ~transmitter:other_iface
       ~inheritor:impl ());
  (* non-inheritor type rejected *)
  let pin_iface = ok (G.new_pin_interface db ~pins:[ G.In ]) in
  expect_error
    (function Errors.Invalid_binding _ -> true | _ -> false)
    (Database.bind db ~via:"AllOf_GateInterface" ~transmitter:iface
       ~inheritor:pin_iface ());
  (* transmitter of the wrong type rejected *)
  let impl2 = ok (Database.new_object db ~ty:"GateImplementation" ()) in
  expect_error
    (function Errors.Invalid_binding _ -> true | _ -> false)
    (Database.bind db ~via:"AllOf_GateInterface" ~transmitter:pin_iface
       ~inheritor:impl2 ())

(* C13: no cycles. *)
let test_cycle_rejected () =
  let db = Database.create () in
  ok (W.chain_schema db ~depth:2);
  (* Node1 value inherits from Node0; try to make a Node1 the transmitter
     of the Node0 it inherits from -- impossible by typing; instead build
     the cycle attempt within one relationship by self-binding *)
  let n0 = ok (Database.new_object db ~ty:"Node0" ~attrs:[ ("Payload", Value.Int 1) ] ()) in
  let n1 = ok (Database.new_object db ~ty:"Node1" ()) in
  let _ = ok (Database.bind db ~via:"AllOf_Node0" ~transmitter:n0 ~inheritor:n1 ()) in
  (* self-cycle via an inheritor-typed transmitter: Node1 is also a valid
     transmitter for AllOf_Node1 (exact type), so bind n2 <- n1 then try
     to close a loop n1 <- n2 (Node2 is not a Node1: rejected as typing);
     the structural cycle check is exercised through self-binding *)
  let n1b = ok (Database.new_object db ~ty:"Node1" ()) in
  expect_error
    (function Errors.Binding_cycle _ | Errors.Invalid_binding _ -> true | _ -> false)
    (Database.bind db ~via:"AllOf_Node0" ~transmitter:n1b ~inheritor:n1b ());
  ignore n1

(* C13 structural: an object can never appear in its own transmitter
   closure, whatever sequence of valid binds is performed. *)
let test_cycle_property () =
  let db = Database.create () in
  ok (W.chain_schema db ~depth:5);
  let nodes = ok (W.chain_instance db ~depth:5 ~payload:3) in
  List.iter
    (fun n ->
      let closure = Inheritance.transmitter_closure (Database.store db) n in
      check_bool "not in own closure" false (List.exists (Surrogate.equal n) closure))
    nodes

(* C7: transmitter updates stamp dependent links stale. *)
let test_staleness_stamping () =
  let db = gates_db () in
  let iface = ok (G.nor_interface db) in
  let impl = ok (G.new_implementation db ~interface:iface ()) in
  let link = List.hd (ok (Database.links_of db iface)) in
  check_bool "initially fresh" false (ok (Database.is_stale db link));
  ok (Database.set_attr db iface "Width" (Value.Int 3));
  check_bool "stale after transmitter update" true (ok (Database.is_stale db link));
  check_bool "note mentions the attribute" true
    (let note = ok (Database.stale_note db link) in
     Helpers.contains note "Width");
  ok (Database.acknowledge db link);
  check_bool "acknowledged" false (ok (Database.is_stale db link));
  (* the update propagated nonetheless (view semantics) *)
  check_value "value visible" (Value.Int 3) (ok (Database.get_attr db impl "Width"));
  (* updating an attribute that is NOT permeable does not stamp *)
  ok (Database.set_attr db impl "TimeBehavior" (Value.Int 5));
  check_bool "probe-free update leaves link fresh" false (ok (Database.is_stale db link))

(* staleness propagates transitively through permeable links only *)
let test_staleness_transitive () =
  let db = Database.create () in
  ok (Compo_scenarios.Workload.chain_schema db ~depth:3);
  let nodes = ok (Compo_scenarios.Workload.chain_instance db ~depth:3 ~payload:1) in
  let root = List.hd nodes in
  let store = Database.store db in
  let reached = Inheritance.reached_links store root ~attr:"Payload" in
  check_int "the write reaches all three links" 3 (List.length reached);
  List.iter
    (fun link -> check_bool "fresh before the write" false (ok (Store.is_stale store link)))
    reached;
  ok (Inheritance.set_attr store root "Payload" (Value.Int 2));
  List.iter
    (fun link -> check_bool "reached link reports stale" true (ok (Store.is_stale store link)))
    reached;
  check_int "non-permeable attr reaches nothing" 0
    (List.length (Inheritance.reached_links store root ~attr:"Nonexistent"))

let test_unbind_loses_values () =
  let db = gates_db () in
  let iface = ok (G.nor_interface db) in
  let impl = ok (G.new_implementation db ~interface:iface ()) in
  ok (Database.unbind db impl);
  check_value "values gone" Value.Null (ok (Database.get_attr db impl "Length"));
  (* can rebind afterwards *)
  let _ = ok (Database.bind db ~via:"AllOf_GateInterface" ~transmitter:iface ~inheritor:impl ()) in
  check_value "values back" (Value.Int 4) (ok (Database.get_attr db impl "Length"))

(* A read just before the unbind must not leak into the read just after. *)
let test_unbind_reads_null () =
  let db = gates_db () in
  let iface = ok (G.nor_interface db) in
  let impl = ok (G.new_implementation db ~interface:iface ()) in
  check_value "bound read" (Value.Int 4) (ok (Database.get_attr db impl "Length"));
  ok (Database.unbind db impl);
  check_value "read right after unbind is Null, not the earlier value" Value.Null
    (ok (Database.get_attr db impl "Length"));
  let _ =
    ok (Database.bind db ~via:"AllOf_GateInterface" ~transmitter:iface ~inheritor:impl ())
  in
  check_value "rebinding restores the inherited value" (Value.Int 4)
    (ok (Database.get_attr db impl "Length"))

let test_delete_transmitter_restricted () =
  let db = gates_db () in
  let iface = ok (G.nor_interface db) in
  let impl = ok (G.new_implementation db ~interface:iface ()) in
  expect_error
    (function Errors.Delete_restricted _ -> true | _ -> false)
    (Database.delete db iface);
  (* forcing unbinds the inheritors *)
  ok (Database.delete db ~force:true iface);
  check_bool "impl survives" true (Store.mem (Database.store db) impl);
  check_value "impl lost the values" Value.Null (ok (Database.get_attr db impl "Length"))

let test_inheritors_and_closures () =
  let db = gates_db () in
  let iface = ok (G.nor_interface db) in
  let i1 = ok (G.new_implementation db ~interface:iface ()) in
  let i2 = ok (G.new_implementation db ~interface:iface ()) in
  let inheritors = ok (Database.inheritors_of db iface) in
  check_int "two implementations" 2 (List.length inheritors);
  check_bool "closure contains both" true
    (let closure = Inheritance.inheritor_closure (Database.store db) iface in
     List.exists (Surrogate.equal i1) closure && List.exists (Surrogate.equal i2) closure)

(* the copy-in baseline captures values but goes stale (section 2 problem 1) *)
let test_materialize_baseline () =
  let db = gates_db () in
  let iface = ok (G.nor_interface db) in
  let impl = ok (G.new_implementation db ~interface:iface ()) in
  let snap = ok (Inheritance.materialize (Database.store db) impl) in
  check_value "snapshot has Length" (Value.Int 4)
    (List.assoc "Length" snap.Inheritance.snap_attrs);
  ok (Database.set_attr db iface "Length" (Value.Int 8));
  (* the snapshot is now stale while the view is fresh *)
  check_value "snapshot stale" (Value.Int 4)
    (List.assoc "Length" snap.Inheritance.snap_attrs);
  check_value "view fresh" (Value.Int 8) (ok (Database.get_attr db impl "Length"))

(* Property: for random permeability subsets, an attribute resolves from
   the transmitter iff it is in the inheriting clause. *)
let prop_selective_permeability =
  QCheck.Test.make ~name:"selective permeability (C3)" ~count:50
    QCheck.(pair bool bool)
    (fun (pass_a, pass_b) ->
      QCheck.assume (pass_a || pass_b);
      let db = Database.create () in
      let attr name = { Schema.attr_name = name; attr_domain = Domain.Integer } in
      let open Schema in
      Result.get_ok
        (Database.define_obj_type db
           {
             ot_name = "T";
             ot_inheritor_in = None;
             ot_attrs = [ attr "A"; attr "B" ];
             ot_subclasses = [];
             ot_subrels = [];
             ot_constraints = [];
           });
      let inheriting =
        (if pass_a then [ "A" ] else []) @ if pass_b then [ "B" ] else []
      in
      Result.get_ok
        (Database.define_inher_rel_type db
           {
             it_name = "R";
             it_transmitter = "T";
             it_inheritor = None;
             it_inheriting = inheriting;
             it_attrs = [];
         it_subclasses = [];
             it_constraints = [];
           });
      Result.get_ok
        (Database.define_obj_type db
           {
             ot_name = "I";
             ot_inheritor_in = Some "R";
             ot_attrs = [];
             ot_subclasses = [];
             ot_subrels = [];
             ot_constraints = [];
           });
      let t =
        Result.get_ok
          (Database.new_object db ~ty:"T"
             ~attrs:[ ("A", Value.Int 1); ("B", Value.Int 2) ]
             ())
      in
      let i = Result.get_ok (Database.new_object db ~ty:"I" ()) in
      let _ = Result.get_ok (Database.bind db ~via:"R" ~transmitter:t ~inheritor:i ()) in
      let visible name = Result.is_ok (Database.get_attr db i name) in
      Bool.equal (visible "A") pass_a && Bool.equal (visible "B") pass_b)

(* Property: view semantics — after arbitrary transmitter updates the
   inheritor always reads the transmitter's current value (C2). *)
let prop_view_always_fresh =
  QCheck.Test.make ~name:"view semantics always fresh (C2)" ~count:50
    QCheck.(small_list small_int)
    (fun updates ->
      let db = Database.create () in
      Result.get_ok (W.chain_schema db ~depth:3);
      let nodes = Result.get_ok (W.chain_instance db ~depth:3 ~payload:0) in
      let root = List.hd nodes in
      let leaf = List.nth nodes 3 in
      List.for_all
        (fun v ->
          Result.get_ok (Database.set_attr db root "Payload" (Value.Int v));
          Value.equal (Result.get_ok (Database.get_attr db leaf "Payload")) (Value.Int v))
        updates)



(* Section 4.1: "the inheritance relationship may possess attributes,
   subobjects and constraints" -- a link carrying adaptation-note
   subobjects. *)
let test_link_subobjects () =
  let db = Database.create () in
  let attr name d = { Schema.attr_name = name; attr_domain = d } in
  ok
    (Database.define_obj_type db
       {
         Schema.ot_name = "Iface";
         ot_inheritor_in = None;
         ot_attrs = [ attr "L" Domain.Integer ];
         ot_subclasses = [];
         ot_subrels = [];
         ot_constraints = [];
       });
  ok
    (Database.define_inher_rel_type db
       {
         Schema.it_name = "R";
         it_transmitter = "Iface";
         it_inheritor = None;
         it_inheriting = [ "L" ];
         it_attrs = [ attr "ReviewedBy" Domain.String ];
         it_subclasses =
           [
             {
               Schema.sc_name = "Notes";
               sc_member =
                 Schema.Inline
                   {
                     Schema.ot_name = "";
                     ot_inheritor_in = None;
                     ot_attrs = [ attr "Text" Domain.String ];
                     ot_subclasses = [];
                     ot_subrels = [];
                     ot_constraints = [];
                   };
             };
           ];
         it_constraints = [];
       });
  ok
    (Database.define_obj_type db
       {
         Schema.ot_name = "Impl";
         ot_inheritor_in = Some "R";
         ot_attrs = [];
         ot_subclasses = [];
         ot_subrels = [];
         ot_constraints = [];
       });
  let iface = ok (Database.new_object db ~ty:"Iface" ~attrs:[ ("L", Value.Int 1) ] ()) in
  let impl = ok (Database.new_object db ~ty:"Impl" ()) in
  let link =
    ok
      (Database.bind db ~via:"R" ~transmitter:iface ~inheritor:impl
         ~attrs:[ ("ReviewedBy", Value.Str "alice") ]
         ())
  in
  (* the link is an object: attributes and subobjects of its own *)
  check_value "link attribute" (Value.Str "alice")
    (ok (Database.get_attr db link "ReviewedBy"));
  let note =
    ok
      (Database.new_subobject db ~parent:link ~subclass:"Notes"
         ~attrs:[ ("Text", Value.Str "re-check clearances") ]
         ())
  in
  check_int "note attached to the link" 1
    (List.length (ok (Database.subclass_members db link "Notes")));
  check_value "note text" (Value.Str "re-check clearances")
    (ok (Database.get_attr db note "Text"));
  (* unbinding deletes the link and cascades to its notes *)
  ok (Database.unbind db impl);
  check_bool "link gone" false (Store.mem (Database.store db) link);
  check_bool "note gone with the link" false (Store.mem (Database.store db) note);
  Alcotest.(check (list string)) "store healthy" []
    (Store.check_invariants (Database.store db))

let suite =
  ( "inheritance",
    [
      case "view semantics: transmitter updates visible (C2)" test_view_semantics;
      case "write protection of inherited attrs (C1)" test_write_protection;
      case "inherited subclasses read-only (C1)" test_inherited_subclass_readonly;
      case "selective permeability (C3)" test_permeability;
      case "multi-hop resolution (C5)" test_multi_hop_resolution;
      case "unbound inheritor = generalization (C4)" test_unbound_inheritor;
      case "bind validation" test_bind_validation;
      case "binding cycles rejected (C13)" test_cycle_rejected;
      case "no object in its own closure (C13)" test_cycle_property;
      case "staleness stamping (C7)" test_staleness_stamping;
      case "staleness transitive through permeable links" test_staleness_transitive;
      case "unbind loses values, rebind restores" test_unbind_loses_values;
      case "unbind reads Null immediately" test_unbind_reads_null;
      case "deleting a transmitter is restricted" test_delete_transmitter_restricted;
      case "inheritors and closures" test_inheritors_and_closures;
      case "materialized copy goes stale (E1 baseline)" test_materialize_baseline;
      QCheck_alcotest.to_alcotest prop_selective_permeability;
      QCheck_alcotest.to_alcotest prop_view_always_fresh;
      case "links carry attributes and subobjects (section 4.1)" test_link_subobjects;
      case "transmitter update visible in all transitive inheritors"
        test_update_visible_transitively;
    ] )
