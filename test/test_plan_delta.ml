(* Property suite for delta-maintained plan state (the incremental
   twin of test_par_diff's black-box oracle):

   - column equivalence: after any random mutation sequence, every
     delta-maintained structure claiming currency must equal a
     from-scratch derivation ([Plan.self_check] refills every cell);
   - tombstone compaction preserves live row order;
   - the dirty-fraction fallback actually fires (plan.delta.rebuild);
   - a value write refreshes the cells that resolve from the written
     owner without re-walking them (plan.delta.refresh), alone or
     mixed with rebinds and deletes in one window, and a stray value
     on an entity that does not own the attribute never leaks in;
   - a lost change-log window (overflow) falls back to a full rebuild,
     while a consumer that catches up within the sliding window never
     does, and neither does an aborted transaction (its undo logs
     precise change records);
   - COMPO_NO_DELTA is a strict boolean and disables the delta path;

   plus the widened-compiler ports: the quantifier and multi-segment
   shapes from test_eval / test_query_composite re-asserted through the
   compiled engine, with engagement checks so a silent stand-down fails
   the suite. *)

open Compo_core
open Helpers
module Obs = Compo_obs.Metrics
module G = Compo_scenarios.Gates
module D = Test_par_diff
module W = Compo_scenarios.Workload
module Txn = Compo_txn.Transaction

(* Every test toggles process-global plan knobs; reset them on exit. *)
let with_plan f () =
  Fun.protect
    ~finally:(fun () ->
      Plan.set_enabled true;
      Plan.set_delta_enabled true;
      Plan.set_dirty_threshold 0.5;
      Plan.set_compact_min 64)
    f

let with_metrics f =
  Obs.reset ();
  Obs.enable ();
  Fun.protect ~finally:(fun () -> Obs.disable ()) f

(* a compiled select that must actually engage the compiled engine *)
let compiled_select db ~cls where =
  let scans0 = Plan.compiled_scans () in
  let rows = ok (Database.select db ~cls ~where ()) in
  Alcotest.(check bool) "compiled engine engaged" true
    (Plan.compiled_scans () > scans0);
  rows

let interp_select db ~cls where =
  Plan.set_enabled false;
  Fun.protect ~finally:(fun () -> Plan.set_enabled true) @@ fun () ->
  ok (Database.select db ~cls ~where ())

let check_rows = Alcotest.(check (list surrogate))

(* ------------------------------------------------------------------ *)
(* A tiny single-type population for the targeted structure tests. *)

let flat_db n =
  let db = Database.create () in
  ok
    (Database.define_obj_type db
       {
         Schema.ot_name = "T";
         ot_inheritor_in = None;
         ot_attrs =
           [
             { Schema.attr_name = "A"; attr_domain = Domain.Integer };
             { Schema.attr_name = "P"; attr_domain = Domain.Ref None };
             { Schema.attr_name = "W"; attr_domain = Domain.Ref None };
           ];
         ot_subclasses = [];
         ot_subrels = [];
         ot_constraints = [];
       });
  ok (Database.create_class db ~name:"All" ~member_type:"T");
  let objs =
    List.init n (fun i ->
        ok
          (Database.new_object db ~cls:"All" ~ty:"T"
             ~attrs:[ ("A", Value.Int i) ]
             ()))
  in
  (db, objs)

(* [n] chains Node0 -> Node1 -> Node2, every node in class "Chains" *)
let chains_db n =
  let db = Database.create () in
  ok (W.chain_schema db ~depth:2);
  ok (Database.create_class db ~name:"Chains" ~member_type:"Node0");
  let chain i =
    let root =
      ok
        (Database.new_object db ~cls:"Chains" ~ty:"Node0"
           ~attrs:[ ("Payload", Value.Int i) ]
           ())
    in
    let link k prev =
      let s =
        ok (Database.new_object db ~cls:"Chains" ~ty:("Node" ^ string_of_int k) ())
      in
      let (_ : Surrogate.t) =
        ok
          (Database.bind db
             ~via:("AllOf_Node" ^ string_of_int (k - 1))
             ~transmitter:prev ~inheritor:s ())
      in
      s
    in
    let n1 = link 1 root in
    (root, n1, link 2 n1)
  in
  (db, Array.init n chain)

(* move inheritor [s] (bound through [via]) over to [transmitter] *)
let repoint db s ~via ~transmitter =
  ok (Database.unbind db s);
  let (_ : Surrogate.t) = ok (Database.bind db ~via ~transmitter ~inheritor:s ()) in
  ()

(* ------------------------------------------------------------------ *)
(* Column equivalence: random mutation batches against Test_par_diff's
   chain schema, then the exhaustive self-check after every compiled
   select.  The selects draw from the widened pool so single-attribute,
   multi-segment and quantifier columns all get delta-maintained. *)

let test_column_equivalence () =
  for seed = 3000 to 3009 do
    let r = D.make_rng seed in
    let db = Database.create () in
    let depth = ok (D.random_schema r db) in
    let _n, levels = ok (D.random_population ~cap:120 r db ~depth) in
    let all = List.concat (Array.to_list levels) in
    List.iter
      (fun s ->
        if D.rand r 2 = 0 then
          ok
            (Database.set_attr db s "P"
               (Value.Ref (D.pick r (Array.of_list all)))))
      levels.(0);
    let script = Buffer.create 256 in
    for round = 0 to 7 do
      for _ = 0 to D.rand r 5 do
        D.random_mutation r db levels script
      done;
      let src = D.random_pred_wide r 2 in
      let where = ok (Compo_ddl.Parser.parse_expr src) in
      let (_ : Surrogate.t list) =
        ok (Database.select db ~cls:"Pop" ~where ())
      in
      match Plan.self_check (Database.store db) with
      | [] -> ()
      | problems ->
          Alcotest.failf
            "seed %d round %d (%s): delta state diverged from rebuild:\n\
             %s\n\
             mutation script:\n\
             %s"
            seed round src
            (String.concat "\n" problems)
            (Buffer.contents script)
    done
  done

(* ------------------------------------------------------------------ *)
(* Compaction: force the threshold down, delete a third of the extent,
   and require (a) the tombstones actually got squeezed out and (b) the
   surviving live slots kept their relative order. *)

let test_compaction_preserves_order () =
  Plan.set_compact_min 1;
  let db, objs = flat_db 42 in
  let where = Expr.(path [ "A" ] >= int 0) in
  let (_ : Surrogate.t list) = compiled_select db ~cls:"All" where in
  let before, dead0 =
    match Plan.registry_live (Database.store db) with
    | Some s -> s
    | None -> Alcotest.fail "no registry after a compiled select"
  in
  check_int "fresh registry has no tombstones" 0 dead0;
  let victims =
    List.filteri (fun i _ -> i mod 3 = 0) objs
  in
  List.iter (fun s -> ok (Database.delete db ~force:true s)) victims;
  let rows = compiled_select db ~cls:"All" where in
  check_int "survivors" (42 - List.length victims) (List.length rows);
  let after, dead1 =
    match Plan.registry_live (Database.store db) with
    | Some s -> s
    | None -> Alcotest.fail "registry vanished"
  in
  check_int "compaction ran: no tombstones left" 0 dead1;
  let expected =
    List.filter
      (fun s -> not (List.exists (Surrogate.equal s) victims))
      before
  in
  check_rows "live slot order preserved across compaction" expected after;
  match Plan.self_check (Database.store db) with
  | [] -> ()
  | ps -> Alcotest.failf "post-compaction self-check: %s" (String.concat "; " ps)

(* ------------------------------------------------------------------ *)
(* Dirty-fraction fallback: at threshold 0 any dirty row rebuilds the
   column from scratch; at threshold 1 the same change is absorbed by
   re-walking cells in place.  A value write dirties nothing (it
   refreshes), so the rows are dirtied by re-pointing a chain. *)

let test_dirty_fraction_fallback () =
  with_metrics @@ fun () ->
  let db, chains = chains_db 20 in
  let where = Expr.(path [ "Payload" ] > int 5) in
  let root0, n1, n2 = chains.(0) and root9, _, _ = chains.(9) in
  let (_ : Surrogate.t list) = compiled_select db ~cls:"Chains" where in
  Plan.set_dirty_threshold 0.;
  repoint db n1 ~via:"AllOf_Node0" ~transmitter:root9;
  let rebuilds0 = Obs.counter_value "plan.delta.rebuild" in
  let rows = compiled_select db ~cls:"Chains" where in
  Alcotest.(check bool) "re-pointed chain now matches" true
    (List.exists (Surrogate.equal n2) rows);
  Alcotest.(check bool) "threshold 0: fallback rebuild fired" true
    (Obs.counter_value "plan.delta.rebuild" > rebuilds0);
  Plan.set_dirty_threshold 1.;
  repoint db n1 ~via:"AllOf_Node0" ~transmitter:root0;
  let rebuilds1 = Obs.counter_value "plan.delta.rebuild" in
  let cells1 = Obs.counter_value "plan.delta.cells" in
  let rows = compiled_select db ~cls:"Chains" where in
  Alcotest.(check bool) "chain pointed back drops again" true
    (not (List.exists (Surrogate.equal n2) rows));
  check_int "threshold 1: no fallback rebuild" rebuilds1
    (Obs.counter_value "plan.delta.rebuild");
  Alcotest.(check bool) "threshold 1: cells refilled in place" true
    (Obs.counter_value "plan.delta.cells" > cells1)

(* ------------------------------------------------------------------ *)
(* Value writes refresh, they do not re-walk: a write moves no chain,
   so a row whose recorded chain ends at the written owner takes the new
   local value and every other row is left alone.  Each case ends in
   parity with the interpreter and a clean self-check. *)

let check_select db what where =
  let rows = compiled_select db ~cls:"Chains" where in
  check_rows what (interp_select db ~cls:"Chains" where) rows;
  match Plan.self_check (Database.store db) with
  | [] -> ()
  | ps -> Alcotest.failf "%s: self-check: %s" what (String.concat "; " ps)

let test_root_write_refreshes () =
  with_metrics @@ fun () ->
  let db, chains = chains_db 10 in
  let where = Expr.(path [ "Payload" ] >= int 5) in
  check_select db "before" where;
  let refresh0 = Obs.counter_value "plan.delta.refresh" in
  let cells0 = Obs.counter_value "plan.delta.cells" in
  let rebuilds0 = Obs.counter_value "plan.delta.rebuild" in
  let root0, n1, n2 = chains.(0) and root1, _, _ = chains.(1) in
  ok (Database.set_attr db root0 "Payload" (Value.Int 7));
  ok (Database.set_attr db root1 "Payload" (Value.Int 8));
  check_select db "after two root writes" where;
  check_rows "the written chain now matches, root to leaf" [ root0; n1; n2 ]
    (List.filter
       (fun s -> List.exists (Surrogate.equal s) [ root0; n1; n2 ])
       (compiled_select db ~cls:"Chains" where));
  check_int "each root and its two inheritors refreshed" (refresh0 + 6)
    (Obs.counter_value "plan.delta.refresh");
  check_int "no cell re-walked" cells0 (Obs.counter_value "plan.delta.cells");
  check_int "no rebuild" rebuilds0 (Obs.counter_value "plan.delta.rebuild")

let test_write_and_rebind_in_one_window () =
  let db, chains = chains_db 10 in
  let where = Expr.(path [ "Payload" ] >= int 5) in
  check_select db "before" where;
  let root0, _, _ = chains.(0) and root2, _, _ = chains.(2) in
  let _, n1, _ = chains.(1) in
  (* write, then move an inheritor onto the written root *)
  ok (Database.set_attr db root2 "Payload" (Value.Int 0));
  repoint db n1 ~via:"AllOf_Node0" ~transmitter:root2;
  check_select db "write then rebind" where;
  (* move it again, then write the root it now inherits from *)
  repoint db n1 ~via:"AllOf_Node0" ~transmitter:root0;
  ok (Database.set_attr db root0 "Payload" (Value.Int 9));
  check_select db "rebind then write" where

let test_write_then_delete_owner () =
  let db, chains = chains_db 10 in
  let where = Expr.(path [ "Payload" ] < int 5) in
  check_select db "before" where;
  let root3, _, _ = chains.(3) in
  ok (Database.set_attr db root3 "Payload" (Value.Int 1));
  ok (Database.delete db ~force:true root3);
  check_select db "write then delete the owner" where

(* A value lands in an entity's local attributes without [Store.set_attr]
   (which refuses inherited attributes) and is announced as a write. *)
let stray_write db s attr v =
  let store = Database.store db in
  let e = ok (Store.get store s) in
  e.Store.attrs <- Store.Smap.add attr v e.Store.attrs;
  Store.notify_write ~change:(Store.Ch_attr (s, attr)) store s

let test_stray_value_on_via_hop () =
  with_metrics @@ fun () ->
  let db, chains = chains_db 10 in
  let where = Expr.(path [ "Payload" ] = int 99) in
  check_select db "before" where;
  let refresh0 = Obs.counter_value "plan.delta.refresh" in
  let _, n1, _ = chains.(4) in
  stray_write db n1 "Payload" (Value.Int 99);
  check_select db "a Via hop's local value is never read" where;
  check_rows "no row picks the stray value up" []
    (compiled_select db ~cls:"Chains" where);
  check_int "nothing refreshed" refresh0 (Obs.counter_value "plan.delta.refresh")

let test_write_on_unbound_chain_end () =
  let db, chains = chains_db 10 in
  let where = Expr.(path [ "Payload" ] = int 42) in
  let _, n1, n2 = chains.(5) in
  ok (Database.unbind db n2);
  check_select db "before" where;
  (* n2 ends its own chain: unbound, it resolves Null whatever it holds *)
  stray_write db n2 "Payload" (Value.Int 42);
  check_select db "write on the unbound chain end" where;
  check_rows "still Null" [] (compiled_select db ~cls:"Chains" where);
  let (_ : Surrogate.t) =
    ok (Database.bind db ~via:"AllOf_Node1" ~transmitter:n1 ~inheritor:n2 ())
  in
  check_select db "bound again" where

(* ------------------------------------------------------------------ *)
(* Change-log overflow: more mutations than Store.change_log_cap lose
   the window, so the next select must take the wholesale rebuild (and
   still be right). *)

let test_overflow_falls_back () =
  with_metrics @@ fun () ->
  let db, objs = flat_db 8 in
  let where = Expr.(path [ "A" ] >= int 4) in
  let (_ : Surrogate.t list) = compiled_select db ~cls:"All" where in
  let victim = List.hd objs in
  for i = 1 to Store.change_log_cap + 50 do
    ok (Database.set_attr db victim "A" (Value.Int (i mod 9)))
  done;
  let rebuilds0 = Obs.counter_value "plan.delta.rebuild" in
  let builds0 = Obs.counter_value "plan.registry.build" in
  let rows = compiled_select db ~cls:"All" where in
  check_rows "overflow still selects correctly"
    (interp_select db ~cls:"All" where)
    rows;
  Alcotest.(check bool) "lost window counted as delta rebuild" true
    (Obs.counter_value "plan.delta.rebuild" > rebuilds0);
  Alcotest.(check bool) "registry rebuilt from scratch" true
    (Obs.counter_value "plan.registry.build" > builds0)

(* The window slides: it always holds the last [change_log_cap] records,
   whatever epoch the consumer stopped at. *)
let test_changes_since_edges () =
  let db, objs = flat_db 1 in
  let store = Database.store db in
  for i = 1 to Store.change_log_cap + 10 do
    ok (Database.set_attr db (List.hd objs) "A" (Value.Int i))
  done;
  let e = Store.plan_epoch store and cap = Store.change_log_cap in
  (match Store.changes_since store (e - cap) with
  | Some chs -> check_int "a full window is kept" cap (List.length chs)
  | None -> Alcotest.fail "since = epoch - cap must still be answered");
  Alcotest.(check bool) "one record further back is lost" true
    (Store.changes_since store (e - cap - 1) = None);
  Alcotest.(check bool) "a future epoch is refused" true
    (Store.changes_since store (e + 1) = None);
  match Store.changes_since store (e - 1) with
  | Some [ Store.Ch_attr (s, "A") ] ->
      Alcotest.(check surrogate) "newest record names the write" (List.hd objs) s
  | Some _ | None -> Alcotest.fail "the newest record is the last write"

(* A consumer that selects every 100 mutations never falls out of the
   window, however many records stream past it in total. *)
let test_sliding_window_never_rebuilds () =
  with_metrics @@ fun () ->
  let db, objs = flat_db 400 in
  let objs = Array.of_list objs in
  let where = Expr.(path [ "A" ] < int 200) in
  let (_ : Surrogate.t list) = compiled_select db ~cls:"All" where in
  let rebuilds0 = Obs.counter_value "plan.delta.rebuild" in
  let builds0 = Obs.counter_value "plan.registry.build" in
  for i = 1 to 5 * Store.change_log_cap do
    ok (Database.set_attr db objs.(i mod 400) "A" (Value.Int (i mod 401)));
    if i mod 100 = 0 then
      check_rows
        (Printf.sprintf "rows after %d mutations" i)
        (interp_select db ~cls:"All" where)
        (compiled_select db ~cls:"All" where)
  done;
  check_int "no delta rebuild" rebuilds0
    (Obs.counter_value "plan.delta.rebuild");
  check_int "no registry build" builds0
    (Obs.counter_value "plan.registry.build");
  match Plan.self_check (Database.store db) with
  | [] -> ()
  | ps -> Alcotest.failf "sliding-window self-check: %s" (String.concat "; " ps)

(* ------------------------------------------------------------------ *)
(* Abort: the undo closures go back through the store's mutators, which
   log precise change records, so the next select catches up by delta
   exactly as it would after a committed write. *)

let test_abort_stays_on_delta () =
  with_metrics @@ fun () ->
  let db, chains = chains_db 20 in
  let store = Database.store db in
  let where = Expr.(path [ "Payload" ] < int 10) in
  let select what = check_select db what where in
  select "before the transaction";
  let rebuilds0 = Obs.counter_value "plan.delta.rebuild" in
  let builds0 = Obs.counter_value "plan.registry.build" in
  let applies0 = Obs.counter_value "plan.delta.apply" in
  let mg = Txn.create_manager store in
  let t = Txn.begin_txn mg ~user:"designer" in
  let root0, _, _ = chains.(0) in
  let root2, _, _ = chains.(2) in
  let _, n1, _ = chains.(1) in
  ok (Txn.set_attr mg t root0 "Payload" (Value.Int 50));
  ok (Txn.unbind mg t n1);
  let (_ : Surrogate.t) =
    ok (Txn.bind mg t ~via:"AllOf_Node0" ~transmitter:root2 ~inheritor:n1 ())
  in
  select "inside the transaction";
  ok (Txn.abort mg t);
  select "after the abort";
  check_int "no delta rebuild" rebuilds0
    (Obs.counter_value "plan.delta.rebuild");
  check_int "no registry build" builds0
    (Obs.counter_value "plan.registry.build");
  Alcotest.(check bool) "the abort was applied as a delta" true
    (Obs.counter_value "plan.delta.apply" > applies0)

(* ------------------------------------------------------------------ *)
(* COMPO_NO_DELTA: strict boolean, and off really disables the delta
   path (rows stay correct either way — the escape hatch is about
   maintenance strategy, not semantics). *)

let ok_result = function
  | Ok () -> ()
  | Error msg -> Alcotest.failf "unexpected config error: %s" msg

let test_no_delta_env () =
  let getenv v = function x when x = "COMPO_NO_DELTA" -> v | _ -> None in
  (match Plan.configure_from_env ~getenv:(getenv (Some "maybe")) () with
  | Ok () -> Alcotest.fail "COMPO_NO_DELTA=maybe must be rejected"
  | Error msg ->
      Alcotest.(check bool) "error names the variable" true
        (contains msg "COMPO_NO_DELTA"));
  ok_result (Plan.configure_from_env ~getenv:(getenv (Some "1")) ());
  Alcotest.(check bool) "1 disables" false (Plan.delta_enabled ());
  ok_result (Plan.configure_from_env ~getenv:(getenv (Some "0")) ());
  Alcotest.(check bool) "0 enables" true (Plan.delta_enabled ());
  ok_result (Plan.configure_from_env ~getenv:(getenv None) ());
  Alcotest.(check bool) "unset is a no-op" true (Plan.delta_enabled ());
  (* behaviour with the hatch pulled: stale stamps rebuild, same rows *)
  Plan.set_delta_enabled false;
  let db, objs = flat_db 12 in
  let where = Expr.(path [ "A" ] < int 6) in
  let r0 = compiled_select db ~cls:"All" where in
  check_int "before the write" 6 (List.length r0);
  ok (Database.set_attr db (List.nth objs 8) "A" (Value.Int 0));
  let r1 = compiled_select db ~cls:"All" where in
  check_rows "no-delta rows match interpreted"
    (interp_select db ~cls:"All" where)
    r1;
  check_int "after the write" 7 (List.length r1)

(* ------------------------------------------------------------------ *)
(* Widened-compiler ports (test_eval / test_query_composite shapes,
   re-asserted through the compiled scan with engagement checks). *)

(* count over an inherited collection: top-down component selection *)
let test_compiled_count () =
  let db = gates_db () in
  let iface = ok (G.nor_interface db) in
  let impl = ok (G.new_implementation db ~interface:iface ()) in
  let unbound =
    ok (Database.new_object db ~cls:"Implementations" ~ty:"GateImplementation" ())
  in
  ignore unbound;
  let where = Expr.(count [ "Pins" ] = int 3) in
  let rows = compiled_select db ~cls:"Implementations" where in
  check_rows "count(Pins) = 3 finds the bound implementation" [ impl ] rows;
  check_rows "parity with interpreted"
    (interp_select db ~cls:"Implementations" where)
    rows

(* count with an inline filter over subobject collections *)
let test_compiled_count_filtered () =
  let db = gates_db () in
  let _eg1 = ok (G.new_elementary_gate db ~func:"NOR" ~x:0 ~y:0 ()) in
  ok (Database.create_class db ~name:"EGates" ~member_type:"ElementaryGate");
  let eg2 = ok (Database.new_object db ~cls:"EGates" ~ty:"ElementaryGate" ()) in
  ignore eg2;
  let where =
    Expr.(count ~where:(path [ "Pins"; "InOut" ] = enum "OUT") [ "Pins" ] = int 1)
  in
  let rows = compiled_select db ~cls:"EGates" where in
  check_rows "parity with interpreted"
    (interp_select db ~cls:"EGates" where)
    rows

(* sum along a 2-segment path (Bores.Length, the paper's steel demo) *)
let test_compiled_sum () =
  let db = steel_db () in
  let with_bores =
    ok
      (Compo_scenarios.Steel.new_girder_interface db ~length:100 ~height:10
         ~width:10
         ~bores:[ (10, 2, (0, 0)); (10, 3, (5, 0)); (12, 5, (9, 0)) ])
  in
  let without =
    ok
      (Compo_scenarios.Steel.new_girder_interface db ~length:50 ~height:5
         ~width:5 ~bores:[])
  in
  ignore without;
  let where = Expr.(sum [ "Bores"; "Length" ] = int 10) in
  let rows = compiled_select db ~cls:"GirderInterfaces" where in
  check_rows "sum over bores selects the bored interface" [ with_bores ] rows;
  check_rows "parity with interpreted"
    (interp_select db ~cls:"GirderInterfaces" where)
    rows

(* forall / exists with binders over inherited collections *)
let test_compiled_forall_exists () =
  let db = gates_db () in
  let iface = ok (G.nor_interface db) in
  let impl = ok (G.new_implementation db ~interface:iface ()) in
  let unbound =
    ok (Database.new_object db ~cls:"Implementations" ~ty:"GateImplementation" ())
  in
  (* exists an OUT pin: true through the binding, false (empty range)
     for the unbound implementation *)
  let ex = Expr.(exists [ ("p", [ "Pins" ]) ] (path [ "p"; "InOut" ] = enum "OUT")) in
  let rows = compiled_select db ~cls:"Implementations" ex in
  check_rows "exists finds only the bound implementation" [ impl ] rows;
  check_rows "exists parity"
    (interp_select db ~cls:"Implementations" ex)
    rows;
  (* forall over the empty range is true: the unbound one qualifies *)
  let fa = Expr.(forall [ ("p", [ "Pins" ]) ] (int 1 = int 2)) in
  let rows = compiled_select db ~cls:"Implementations" fa in
  check_rows "forall-empty = true keeps exactly the unbound one" [ unbound ]
    rows;
  check_rows "forall parity"
    (interp_select db ~cls:"Implementations" fa)
    rows

(* strict 3-segment reference chain: flat multi-segment fill *)
let test_compiled_multi_segment () =
  let db, objs = flat_db 6 in
  let a = List.nth objs 0 and p = List.nth objs 1 and w = List.nth objs 2 in
  ok (Database.set_attr db p "P" (Value.Ref a));
  ok (Database.set_attr db w "W" (Value.Ref p));
  let where = Expr.(path [ "W"; "P"; "A" ] = int 0) in
  let rows = compiled_select db ~cls:"All" where in
  check_rows "W.P.A resolves across two references" [ w ] rows;
  check_rows "parity with interpreted"
    (interp_select db ~cls:"All" where)
    rows;
  (* the maintained version: re-point the middle reference and the
     delta pass must dirty exactly the dependent chain *)
  let a2 = List.nth objs 3 in
  ok (Database.set_attr db a2 "A" (Value.Int 0));
  ok (Database.set_attr db p "P" (Value.Ref a2));
  let rows = compiled_select db ~cls:"All" where in
  check_rows "still matches through the new chain" [ w ] rows;
  ok (Database.set_attr db a2 "A" (Value.Int 99));
  let rows = compiled_select db ~cls:"All" where in
  check_rows "second-segment write breaks the match" [] rows;
  match Plan.self_check (Database.store db) with
  | [] -> ()
  | ps -> Alcotest.failf "multi-segment self-check: %s" (String.concat "; " ps)

let suite =
  ( "plan-delta",
    [
      case "column equivalence under random mutation sequences"
        (with_plan test_column_equivalence);
      case "tombstone compaction preserves live row order"
        (with_plan test_compaction_preserves_order);
      case "dirty-fraction fallback fires (plan.delta.rebuild)"
        (with_plan test_dirty_fraction_fallback);
      case "change-log overflow falls back to a full rebuild"
        (with_plan test_overflow_falls_back);
      case "COMPO_NO_DELTA: strict boolean, correct either way"
        (with_plan test_no_delta_env);
      case "compiled count over inherited pins"
        (with_plan test_compiled_count);
      case "compiled filtered count over subobjects"
        (with_plan test_compiled_count_filtered);
      case "compiled sum along Bores.Length"
        (with_plan test_compiled_sum);
      case "compiled forall / exists with binders"
        (with_plan test_compiled_forall_exists);
      case "compiled 3-segment reference chain, delta-maintained"
        (with_plan test_compiled_multi_segment);
      case "changes_since: the window slides over the last cap records"
        (with_plan test_changes_since_edges);
      case "a consumer inside the window never rebuilds"
        (with_plan test_sliding_window_never_rebuilds);
      case "an aborted transaction is caught up by delta"
        (with_plan test_abort_stays_on_delta);
      case "a root write refreshes its dependents without a re-walk"
        (with_plan test_root_write_refreshes);
      case "write and rebind in one window, both orders"
        (with_plan test_write_and_rebind_in_one_window);
      case "write then delete the owner in one window"
        (with_plan test_write_then_delete_owner);
      case "a stray value on a Via hop does not leak into the column"
        (with_plan test_stray_value_on_via_hop);
      case "a write on an unbound chain end leaves it Null"
        (with_plan test_write_on_unbound_chain_end);
    ] )
