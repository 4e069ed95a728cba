type t = {
  db_schema : Schema.t;
  db_store : Store.t;
  mutable eager_checks : bool;
  mutable db_indexes : Index.t list;
  mutable db_ordered : Ordered_index.t list;
}

let ( let* ) = Result.bind

module Trace = Compo_obs.Trace

let of_parts ?(eager_checks = false) schema store =
  {
    db_schema = schema;
    db_store = store;
    eager_checks;
    db_indexes = [];
    db_ordered = [];
  }

let create ?eager_checks () =
  let schema = Schema.create () in
  of_parts ?eager_checks schema (Store.create schema)

let schema t = t.db_schema
let store t = t.db_store
let set_eager_checks t b = t.eager_checks <- b

let define_domain t = Schema.define_domain t.db_schema
let define_rel_type t = Schema.define_rel_type t.db_schema

(* Schema evolution can change which attributes are permeable through
   which relationship, so memoised resolutions must not outlive it. *)
let bumping_cache t r =
  if Result.is_ok r then Store.invalidate_resolve_cache t.db_store;
  r

let define_obj_type t ot = bumping_cache t (Schema.define_obj_type t.db_schema ot)

let define_inher_rel_type t it =
  bumping_cache t (Schema.define_inher_rel_type t.db_schema it)
let create_class t ~name ~member_type = Store.create_class t.db_store ~name ~member_type

let first_violation = function
  | [] -> Ok ()
  | v :: _ ->
      Error
        (Errors.Constraint_violation
           (Format.asprintf "%a" Constraints.pp_violation v))

let check_if_eager t s =
  if not t.eager_checks then Ok ()
  else
    let* vs = Constraints.check_entity t.db_store s in
    first_violation vs

let new_object t ?cls ~ty ?(attrs = []) () =
  let* s = Store.create_object t.db_store ?cls ~ty attrs in
  let* () = check_if_eager t s in
  Ok s

let new_subobject t ~parent ~subclass ?(attrs = []) () =
  let* s = Store.create_subobject t.db_store ~parent ~subclass attrs in
  let* () = check_if_eager t s in
  Ok s

let new_relationship t ~ty ~participants ?(attrs = []) () =
  let* s = Store.create_relationship t.db_store ~ty ~participants ~attrs () in
  let* () = check_if_eager t s in
  Ok s

let new_subrel t ~parent ~subrel ~participants ?(attrs = []) () =
  let* s = Store.create_subrel t.db_store ~parent ~subrel ~participants ~attrs () in
  (* The where clause is the subrelationship's admission condition, so it
     is checked immediately regardless of the eager-checks setting. *)
  let* vs = Constraints.check_subrel_where t.db_store ~parent ~rel:s in
  match vs with
  | [] ->
      let* () = check_if_eager t s in
      Ok s
  | v :: _ ->
      let* () = Store.delete t.db_store ~force:true s in
      Error
        (Errors.Constraint_violation
           (Format.asprintf "%a" Constraints.pp_violation v))

let delete t ?force s = Store.delete t.db_store ?force s
let bind t ~via ~transmitter ~inheritor ?attrs () =
  Inheritance.bind t.db_store ~via ~transmitter ~inheritor ?attrs ()

let unbind t s = Inheritance.unbind t.db_store s
let transmitter_of t s = Inheritance.transmitter_of t.db_store s
let inheritors_of t s = Inheritance.inheritors_of t.db_store s
let links_of t s = Inheritance.links_of t.db_store s
let is_stale t s = Store.is_stale t.db_store s
let stale_note t s = Store.stale_note t.db_store s
let acknowledge t s = Store.acknowledge t.db_store s
let get_attr t s name = Inheritance.attr t.db_store s name

let set_attr t s name value =
  if not t.eager_checks then Inheritance.set_attr t.db_store s name value
  else
    (* write first WITHOUT committing it, validate, then record it only
       when the write survives -- a rolled-back update must not flag
       inheritors *)
    let* old = Store.local_attr t.db_store s name in
    let* () = Store.set_attr t.db_store s name value in
    let* vs = Constraints.check_entity t.db_store s in
    match vs with
    | [] ->
        Store.record_write t.db_store s name;
        Ok ()
    | v :: _ ->
        (* roll the write back before reporting *)
        let* () = Store.set_attr t.db_store s name old in
        Error
          (Errors.Constraint_violation
             (Format.asprintf "%a" Constraints.pp_violation v))

let subclass_members t s name = Inheritance.subclass_members t.db_store s name
let subrel_members t s name = Store.subrel_members t.db_store s name
let participant t s name = Store.participant t.db_store s name
let type_of t s = Store.type_of t.db_store s
let validate t s = Constraints.check_entity t.db_store s
let validate_all t = Constraints.check_all t.db_store
let find_index t ~cls ~attr =
  List.find_opt
    (fun ix -> String.equal (Index.cls ix) cls && String.equal (Index.attr ix) attr)
    t.db_indexes

let create_index t ~cls ~attr =
  match find_index t ~cls ~attr with
  | Some _ -> Error (Errors.Duplicate_definition (Printf.sprintf "index on %s.%s" cls attr))
  | None ->
      let* ix = Index.create t.db_store ~cls ~attr in
      t.db_indexes <- ix :: t.db_indexes;
      Ok ()

let drop_index t ~cls ~attr =
  match find_index t ~cls ~attr with
  | None -> Error (Errors.Unknown_class (Printf.sprintf "index on %s.%s" cls attr))
  | Some ix ->
      Index.drop ix;
      t.db_indexes <-
        List.filter (fun other -> not (other == ix)) t.db_indexes;
      Ok ()

let indexes t = List.map (fun ix -> (Index.cls ix, Index.attr ix)) t.db_indexes

let find_ordered t ~cls ~attr =
  List.find_opt
    (fun ox ->
      String.equal (Ordered_index.cls ox) cls
      && String.equal (Ordered_index.attr ox) attr)
    t.db_ordered

let create_ordered_index t ~cls ~attr =
  match find_ordered t ~cls ~attr with
  | Some _ ->
      Error
        (Errors.Duplicate_definition
           (Printf.sprintf "ordered index on %s.%s" cls attr))
  | None ->
      let* ox = Ordered_index.create t.db_store ~cls ~attr in
      t.db_ordered <- ox :: t.db_ordered;
      Ok ()

let drop_ordered_index t ~cls ~attr =
  match find_ordered t ~cls ~attr with
  | None ->
      Error
        (Errors.Unknown_class (Printf.sprintf "ordered index on %s.%s" cls attr))
  | Some ox ->
      Ordered_index.drop ox;
      t.db_ordered <- List.filter (fun other -> not (other == ox)) t.db_ordered;
      Ok ()

let ordered_indexes t =
  List.map (fun ox -> (Ordered_index.cls ox, Ordered_index.attr ox)) t.db_ordered

let verify_indexes t =
  List.concat_map Index.verify t.db_indexes
  @ List.concat_map Ordered_index.verify t.db_ordered

(* The optimizer uses an ordered index only when Value.compare coincides
   with the scan's coercing comparison: integer attributes with integer
   constants, string attributes with string constants. *)
let orderable_pair t ~cls ~attr v =
  match Store.class_member_type t.db_store cls with
  | Error _ -> false
  | Ok member_type -> (
      match Schema.find_effective_attr t.db_schema member_type attr with
      | Some (def, _) -> (
          match (Schema.expand_domain t.db_schema def.Schema.attr_domain, v) with
          | Ok Domain.Integer, Value.Int _ -> true
          | Ok Domain.String, Value.Str _ -> true
          | _ -> false)
      | None -> false)

(* Ablation switch: with planning off every select runs the sequential
   scan + filter path even when a matching index exists.  Indexes are
   still maintained (fsck and verify stay meaningful); only access-path
   selection is disabled.  COMPO_NO_INDEX=1 sets the initial state so
   the bench matrix can toggle the axis per subprocess. *)
let index_planning =
  ref
    (match Sys.getenv_opt "COMPO_NO_INDEX" with
    | Some ("1" | "true" | "yes") -> false
    | Some _ | None -> true)

let index_planning_enabled () = !index_planning
let set_index_planning_enabled b = index_planning := b

(* [attr <cmp> const] (either side) against the registered indexes *)
let index_plan t ~cls where =
  if not !index_planning then None
  else
  let atom = function
    | Expr.Binop (op, Expr.Path [ attr ], Expr.Const v) -> Some (op, attr, v)
    | Expr.Binop (op, Expr.Const v, Expr.Path [ attr ]) -> Some (Expr.flip op, attr, v)
    | _ -> None
  in
  let normalized =
    match where with Some e -> atom e | None -> None
  in
  match normalized with
  | Some (Expr.Eq, attr, v) -> (
      match find_index t ~cls ~attr with
      | Some ix -> Some (`Hash (ix, v))
      | None -> (
          match find_ordered t ~cls ~attr with
          | Some ox when orderable_pair t ~cls ~attr v -> Some (`Eq (ox, v))
          | Some _ | None -> None))
  | Some (((Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge) as op), attr, v) -> (
      match find_ordered t ~cls ~attr with
      | Some ox when orderable_pair t ~cls ~attr v ->
          let open Ordered_index in
          let lo, hi =
            match op with
            | Expr.Lt -> (Unbounded, Exclusive v)
            | Expr.Le -> (Unbounded, Inclusive v)
            | Expr.Gt -> (Exclusive v, Unbounded)
            | Expr.Ge -> (Inclusive v, Unbounded)
            | _ -> assert false
          in
          Some (`Range (ox, lo, hi))
      | Some _ | None -> None)
  | Some _ | None -> None

let run_plan t ~cls plan =
  (* validate the class still exists, then answer from the index *)
  let* _ = Store.class_member_type t.db_store cls in
  match plan with
  | `Hash (ix, v) -> Ok (Index.lookup ix v)
  | `Eq (ox, v) -> Ok (Ordered_index.lookup ox v)
  | `Range (ox, lo, hi) -> Ok (Ordered_index.range ox ~lo ~hi)

(* For a conjunction, serve one indexable conjunct from an index and
   filter the survivors with the residual predicate. *)
let rec conjunction_plan t ~cls expr =
  match index_plan t ~cls (Some expr) with
  | Some plan -> Some (plan, None)
  | None -> (
      match expr with
      | Expr.Binop (Expr.And, a, b) -> (
          match conjunction_plan t ~cls a with
          | Some (plan, residual) ->
              let rest =
                match residual with
                | None -> b
                | Some r -> Expr.Binop (Expr.And, r, b)
              in
              Some (plan, Some rest)
          | None -> (
              match conjunction_plan t ~cls b with
              | Some (plan, residual) ->
                  let rest =
                    match residual with
                    | None -> a
                    | Some r -> Expr.Binop (Expr.And, a, r)
                  in
                  Some (plan, Some rest)
              | None -> None))
      | _ -> None)

let select t ~cls ?jobs:_ ?where () =
  (* one latch section covers planning (the schema and index registry),
     the access stage and the filter, so the rows come from one frozen
     snapshot even with a writer on another domain *)
  Store.with_read_latch t.db_store @@ fun () ->
  match Option.bind where (conjunction_plan t ~cls) with
  | Some (plan, residual) ->
      let* candidates = run_plan t ~cls plan in
      Ok (Query.filter_candidates t.db_store residual candidates)
  | None ->
      Trace.with_span "query.select" ~attrs:[ ("cls", cls) ] @@ fun () ->
      Query.scan t.db_store ~cls where

let select_subobjects t ~parent ~subclass ?where () =
  Query.select_subobjects t.db_store ~parent ~subclass ?where ()

(* ------------------------------------------------------------------ *)
(* EXPLAIN                                                             *)

let describe_plan = function
  | `Hash (ix, v) ->
      Query.Hash_eq { attr = Index.attr ix; value = Value.to_string v }
  | `Eq (ox, v) ->
      Query.Ordered_eq
        { attr = Ordered_index.attr ox; value = Value.to_string v }
  | `Range (ox, lo, hi) ->
      let open Ordered_index in
      let lo_s =
        match lo with
        | Unbounded -> "(-inf"
        | Inclusive v -> "[" ^ Value.to_string v
        | Exclusive v -> "(" ^ Value.to_string v
      in
      let hi_s =
        match hi with
        | Unbounded -> "+inf)"
        | Inclusive v -> Value.to_string v ^ "]"
        | Exclusive v -> Value.to_string v ^ ")"
      in
      Query.Ordered_range
        { attr = Ordered_index.attr ox; interval = lo_s ^ ", " ^ hi_s }

(* Mirrors [select] exactly (same planner, same filters), adding stage
   timing and the eval.node delta.  Kept separate so the plain read path
   never pays the clock calls. *)
let explain_select t ~cls ?where () =
  Store.with_read_latch t.db_store @@ fun () ->
  let where_str = Option.map Expr.to_string where in
  let nodes0 = Eval.node_count () in
  match Option.bind where (conjunction_plan t ~cls) with
  | Some (plan, residual) ->
      let t0 = Unix.gettimeofday () in
      let* candidates = run_plan t ~cls plan in
      let t1 = Unix.gettimeofday () in
      let rows =
        match residual with
        | None -> candidates
        | Some pred ->
            List.filter
              (fun s -> Query.matching t.db_store ~self:s pred)
              candidates
      in
      let t2 = Unix.gettimeofday () in
      Ok
        ( rows,
          {
            Query.ex_cls = cls;
            ex_access = describe_plan plan;
            ex_where = where_str;
            ex_residual = Option.map Expr.to_string residual;
            ex_candidates = List.length candidates;
            ex_rows = List.length rows;
            ex_eval_nodes = Eval.node_count () - nodes0;
            ex_access_seconds = t1 -. t0;
            ex_filter_seconds = t2 -. t1;
            ex_plan = None;
          } )
  | None -> (
      let finish rows ~candidates ~access ~filter plan =
        Ok
          ( rows,
            {
              Query.ex_cls = cls;
              ex_access = Query.Seq_scan { extent = cls };
              ex_where = where_str;
              ex_residual = where_str;
              ex_candidates = candidates;
              ex_rows = List.length rows;
              ex_eval_nodes = Eval.node_count () - nodes0;
              ex_access_seconds = access;
              ex_filter_seconds = filter;
              ex_plan = plan;
            } )
      in
      let t0 = Unix.gettimeofday () in
      let compiled =
        match where with
        | Some pred -> Plan.try_scan t.db_store ~cls pred
        | None -> None
      in
      match compiled with
      | Some res ->
          (* the column is the access path: there is no extent copy to
             time, the whole scan is the filter stage *)
          let* rows, report = res in
          finish rows ~candidates:report.Plan.rp_extent ~access:0.
            ~filter:(Unix.gettimeofday () -. t0)
            (Some report)
      | None ->
          let* members = Store.class_members t.db_store cls in
          let t1 = Unix.gettimeofday () in
          let rows =
            match where with
            | None -> members
            | Some pred ->
                List.filter
                  (fun s -> Query.matching t.db_store ~self:s pred)
                  members
          in
          finish rows ~candidates:(List.length members) ~access:(t1 -. t0)
            ~filter:(Unix.gettimeofday () -. t1)
            None)

let explain_attr t s name = Inheritance.explain t.db_store s name

let expand t ?max_depth s = Composite.expand t.db_store ?max_depth s
let bill_of_materials t s = Composite.bill_of_materials t.db_store s
let where_used t s = Composite.where_used t.db_store s
let implementations_of t s = Composite.implementations_of t.db_store s
