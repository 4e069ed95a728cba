(* Provenance of inherited reads (the chain/permeability/source record
   behind [compo explain read]) and the query plan report behind
   [compo explain query]. *)

open Compo_core
open Helpers
module G = Compo_scenarios.Gates
module Prov = Compo_obs.Provenance
module Metrics = Compo_obs.Metrics

(* The collector is process-global; leave it disabled and empty whatever
   the test body does. *)
let with_prov f () =
  Prov.clear ();
  Fun.protect
    ~finally:(fun () ->
      Prov.disable ();
      Prov.clear ())
    f

(* One bound gate: NOR interface (Length 4) + implementation inheriting
   through AllOf_GateInterface. *)
let bound_gate db =
  let iface = ok (G.nor_interface db) in
  let impl = ok (G.new_implementation db ~interface:iface ()) in
  (iface, impl)

let test_chain_and_permeability () =
  let db = gates_db () in
  let iface, impl = bound_gate db in
  let v, r = ok (Database.explain_attr db impl "Length") in
  check_value "resolved value" (Value.Int 4) v;
  check_string "origin" (Surrogate.to_string impl) r.Prov.r_object;
  check_string "attr" "Length" r.Prov.r_attr;
  check_int "two hops: inheritor then transmitter" 2 (List.length r.Prov.r_hops);
  (match r.Prov.r_hops with
  | [ h0; h1 ] ->
      check_string "hop 0 is the origin" (Surrogate.to_string impl)
        h0.Prov.hop_object;
      (match h0.Prov.hop_kind with
      | Prov.Follow { via; transmitter; permeable; link = _ } ->
          check_string "via the paper's relationship" "AllOf_GateInterface" via;
          check_string "to the interface" (Surrogate.to_string iface)
            transmitter;
          check_bool "Length is in the inheriting clause" true permeable
      | _ -> Alcotest.fail "hop 0 should follow the binding");
      check_string "hop 1 is the interface" (Surrogate.to_string iface)
        h1.Prov.hop_object;
      check_bool "hop 1 owns the attribute" true (h1.Prov.hop_kind = Prov.Local)
  | _ -> Alcotest.fail "unexpected chain shape");
  check_bool "source is the interface" true
    (Prov.source_of r = Some (Surrogate.to_string iface))

let test_unbound_reads_null () =
  let db = gates_db () in
  let _iface, impl = bound_gate db in
  ok (Database.unbind db impl);
  let v, r = ok (Database.explain_attr db impl "Length") in
  check_value "unbound read yields Null" Value.Null v;
  (match r.Prov.r_hops with
  | [ h ] -> check_bool "single unbound hop" true (h.Prov.hop_kind = Prov.Unbound)
  | _ -> Alcotest.fail "expected exactly one hop");
  check_bool "no source" true (Prov.source_of r = None)

let test_collector_mechanics () =
  Prov.enable ();
  (* recording without a flight is a no-op *)
  Prov.add_hop { Prov.hop_object = "@0"; hop_type = "T"; hop_kind = Prov.Local };
  Prov.finish_read ~value:"x";
  check_bool "nothing recorded without begin_read" true (Prov.last () = None);
  (* abort drops the flight *)
  Prov.begin_read ~origin:"@1" ~attr:"A";
  Prov.abort_read ();
  check_bool "aborted read leaves no record" true (Prov.last () = None);
  (* the recent ring clips to 64, newest first *)
  for i = 1 to 70 do
    Prov.begin_read ~origin:(Printf.sprintf "@%d" i) ~attr:"A";
    Prov.finish_read ~value:"v"
  done;
  let recent = Prov.recent () in
  check_int "recent clips to 64" 64 (List.length recent);
  check_string "newest first" "@70" (List.hd recent).Prov.r_object;
  (* disable clears *)
  Prov.disable ();
  check_bool "disable clears the ring" true (Prov.recent () = [])

let test_disabled_records_nothing () =
  let db = gates_db () in
  let _iface, impl = bound_gate db in
  check_bool "collector starts disabled" false (Prov.enabled ());
  check_value "plain read" (Value.Int 4) (ok (Database.get_attr db impl "Length"));
  check_bool "nothing recorded while disabled" true (Prov.last () = None)

let test_pp_read () =
  let db = gates_db () in
  let iface, impl = bound_gate db in
  let _, r = ok (Database.explain_attr db impl "Length") in
  let rendered = Format.asprintf "%a" Prov.pp_read r in
  List.iter
    (fun needle ->
      check_bool (Printf.sprintf "report mentions %S" needle) true
        (contains rendered needle))
    [
      "read " ^ Surrogate.to_string impl ^ ".Length = 4";
      "source: " ^ Surrogate.to_string iface;
      "via AllOf_GateInterface";
      "permeability: inherits";
      "-> transmitter";
      "source: attribute is owned here";
    ]

(* ------------------------------------------------------------------ *)
(* Query EXPLAIN                                                       *)

let catalog_db () =
  let db = Database.create () in
  ok
    (Database.define_obj_type db
       {
         Schema.ot_name = "Part";
         ot_inheritor_in = None;
         ot_attrs =
           [
             { Schema.attr_name = "Kind"; attr_domain = Domain.String };
             { Schema.attr_name = "Weight"; attr_domain = Domain.Integer };
           ];
         ot_subclasses = [];
         ot_subrels = [];
         ot_constraints = [];
       });
  ok (Database.create_class db ~name:"Parts" ~member_type:"Part");
  List.iter
    (fun (kind, weight) ->
      ignore
        (ok
           (Database.new_object db ~cls:"Parts" ~ty:"Part"
              ~attrs:[ ("Kind", Value.Str kind); ("Weight", Value.Int weight) ]
              ())))
    [ ("bolt", 5); ("nut", 2); ("bolt", 7); ("washer", 1) ];
  db

let test_explain_scan () =
  let db = catalog_db () in
  let where = Expr.(path [ "Weight" ] > int 2) in
  let rows, ex = ok (Database.explain_select db ~cls:"Parts" ~where ()) in
  check_int "rows" 2 (List.length rows);
  (match ex.Query.ex_access with
  | Query.Seq_scan { extent } -> check_string "scans the extent" "Parts" extent
  | other ->
      Alcotest.failf "expected a scan, got %s" (Query.access_to_string other));
  check_int "estimated = extent size" 4 ex.Query.ex_candidates;
  check_int "actual = surviving rows" 2 ex.Query.ex_rows;
  check_bool "the whole predicate is residual" true
    (ex.Query.ex_residual = ex.Query.ex_where && ex.Query.ex_where <> None)

let test_explain_hash () =
  let db = catalog_db () in
  ok (Database.create_index db ~cls:"Parts" ~attr:"Kind");
  let rows, ex =
    ok
      (Database.explain_select db ~cls:"Parts"
         ~where:Expr.(path [ "Kind" ] = str "bolt")
         ())
  in
  check_int "rows" 2 (List.length rows);
  (match ex.Query.ex_access with
  | Query.Hash_eq { attr; value } ->
      check_string "indexed attr" "Kind" attr;
      check_string "indexed value" "\"bolt\"" value
  | other ->
      Alcotest.failf "expected the hash index, got %s"
        (Query.access_to_string other));
  check_bool "no residual after the indexed conjunct" true
    (ex.Query.ex_residual = None);
  check_int "index served exactly the matches" 2 ex.Query.ex_candidates

let test_explain_range_and_residual () =
  let db = catalog_db () in
  ok (Database.create_ordered_index db ~cls:"Parts" ~attr:"Weight");
  let _, ex =
    ok
      (Database.explain_select db ~cls:"Parts"
         ~where:Expr.(path [ "Weight" ] <= int 5)
         ())
  in
  (match ex.Query.ex_access with
  | Query.Ordered_range { attr; interval } ->
      check_string "indexed attr" "Weight" attr;
      check_string "interval rendering" "(-inf, 5]" interval
  | other ->
      Alcotest.failf "expected a range, got %s" (Query.access_to_string other));
  (* a conjunction peels the indexable conjunct and keeps the rest *)
  let rows, ex =
    ok
      (Database.explain_select db ~cls:"Parts"
         ~where:
           Expr.(path [ "Weight" ] <= int 5 && path [ "Kind" ] = str "bolt")
         ())
  in
  check_int "conjunction rows" 1 (List.length rows);
  check_bool "residual keeps the unindexed conjunct" true
    (match ex.Query.ex_residual with
    | Some r -> contains r "Kind"
    | None -> false);
  check_bool "candidates >= rows" true
    (ex.Query.ex_candidates >= ex.Query.ex_rows)

let test_explain_counts_eval_nodes () =
  let db = catalog_db () in
  Metrics.enable ();
  let plan0 = Plan.enabled () in
  Fun.protect ~finally:(fun () ->
      Metrics.disable ();
      Plan.set_enabled plan0)
  @@ fun () ->
  let where = Expr.(path [ "Weight" ] > int 2) in
  (* interpreted engine: the filter stage spends evaluator nodes *)
  Plan.set_enabled false;
  let _, ex = ok (Database.explain_select db ~cls:"Parts" ~where ()) in
  check_bool "interpreted filtering spends evaluator nodes" true
    (ex.Query.ex_eval_nodes > 0);
  check_bool "interpreted plan reported" true (ex.Query.ex_plan = None);
  (* compiled engine: closures over materialized columns, no evaluator *)
  Plan.set_enabled true;
  let rows, ex = ok (Database.explain_select db ~cls:"Parts" ~where ()) in
  check_int "compiled rows" 2 (List.length rows);
  check_int "compiled filtering spends no evaluator nodes" 0
    ex.Query.ex_eval_nodes;
  match ex.Query.ex_plan with
  | None -> Alcotest.fail "expected a compiled plan report"
  | Some r ->
      check_bool "closures compiled" true (r.Plan.rp_closures > 0);
      check_bool "column materialized" true
        (List.exists (fun (a, _, _) -> a = "Weight") r.Plan.rp_columns)

let test_pp_explain_deterministic () =
  let db = catalog_db () in
  ok (Database.create_index db ~cls:"Parts" ~attr:"Kind");
  let _, ex =
    ok
      (Database.explain_select db ~cls:"Parts"
         ~where:Expr.(path [ "Kind" ] = str "nut")
         ())
  in
  let rendered = Format.asprintf "%a" (Query.pp_explain ~timings:false) ex in
  List.iter
    (fun needle ->
      check_bool (Printf.sprintf "plan mentions %S" needle) true
        (contains rendered needle))
    [
      "select Parts";
      "hash index on Kind = \"nut\"";
      "1 candidate(s)";
      "1 row(s)";
    ];
  check_bool "no wall times without ~timings" false (contains rendered "ms")

let suite =
  ( "provenance",
    [
      case "chain and permeability over the gates binding"
        (with_prov test_chain_and_permeability);
      case "unbound chain ends in Null with no source"
        (with_prov test_unbound_reads_null);
      case "collector mechanics: abort, clipping, disable clears"
        (with_prov test_collector_mechanics);
      case "disabled collector records nothing"
        (with_prov test_disabled_records_nothing);
      case "pp_read renders the full report" (with_prov test_pp_read);
      case "explain: scan access and residual" test_explain_scan;
      case "explain: hash index access" test_explain_hash;
      case "explain: range access and conjunction residual"
        test_explain_range_and_residual;
      case "explain: evaluator node accounting" test_explain_counts_eval_nodes;
      case "explain: deterministic rendering" test_pp_explain_deterministic;
    ] )
