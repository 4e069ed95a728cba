let ( let* ) = Result.bind

module Obs = Compo_obs.Metrics
module Trace = Compo_obs.Trace

(* the one registration of the extent histogram (select counts live in
   the "query.select" span histogram); a compiled scan reports the size
   it scanned, an interpreted one pays a [List.length] only while
   metrics are on *)
let h_extent = Obs.histogram ~buckets:Obs.size_buckets "query.select.extent"

let observe_extent members =
  if Obs.enabled () then
    Obs.observe h_extent (float_of_int (List.length members))

let matching store ~self expr =
  match Eval.eval_bool (Eval.env ~self store) expr with
  | Ok b -> b
  | Error _ -> false

let filter_candidates store where candidates =
  match where with
  | None -> candidates
  | Some pred -> List.filter (fun s -> matching store ~self:s pred) candidates

(* compiled engine first; [None] means it stands down (disabled, hooks,
   unknown class — the delta-maintained plan state makes this cheap to
   take even on write-heavy interleavings) *)
let scan store ~cls where =
  let compiled =
    match where with
    | Some pred -> Plan.try_scan store ~cls pred
    | None -> None
  in
  match compiled with
  | Some r ->
      let* rows, report = r in
      Obs.observe h_extent (float_of_int report.Plan.rp_extent);
      Ok rows
  | None ->
      let* members = Store.class_members store cls in
      observe_extent members;
      Ok (filter_candidates store where members)

let select store ~cls ?where () =
  Trace.with_span "query.select" ~attrs:[ ("cls", cls) ] @@ fun () ->
  Store.with_read_latch store @@ fun () -> scan store ~cls where

let select_subobjects store ~parent ~subclass ?where () =
  Trace.with_span "query.select" ~attrs:[ ("subclass", subclass) ] @@ fun () ->
  Store.with_read_latch store @@ fun () ->
  let* members = Inheritance.subclass_members store parent subclass in
  observe_extent members;
  Ok (filter_candidates store where members)

let project store objects name =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | s :: rest ->
        let* v = Inheritance.attr store s name in
        go (v :: acc) rest
  in
  go [] objects

let navigate store ~from path = Eval.eval_items (Eval.env ~self:from store) path

let order_by store ?(descending = false) ~attr objects =
  let* keyed =
    List.fold_left
      (fun acc s ->
        let* acc = acc in
        let* v = Inheritance.attr store s attr in
        Ok ((s, v) :: acc))
      (Ok []) objects
  in
  let keyed = List.rev keyed in
  let cmp (_, a) (_, b) =
    let c = Value.compare a b in
    if descending then -c else c
  in
  Ok (List.map fst (List.stable_sort cmp keyed))

(* ------------------------------------------------------------------ *)
(* EXPLAIN                                                             *)

type access =
  | Seq_scan of { extent : string }
  | Hash_eq of { attr : string; value : string }
  | Ordered_eq of { attr : string; value : string }
  | Ordered_range of { attr : string; interval : string }

type explain = {
  ex_cls : string;
  ex_access : access;
  ex_where : string option;
  ex_residual : string option;
  ex_candidates : int;
  ex_rows : int;
  ex_eval_nodes : int;
  ex_access_seconds : float;
  ex_filter_seconds : float;
  ex_plan : Plan.report option;
}

let access_to_string = function
  | Seq_scan { extent } -> Printf.sprintf "seq scan over class %s" extent
  | Hash_eq { attr; value } ->
      Printf.sprintf "hash index on %s = %s" attr value
  | Ordered_eq { attr; value } ->
      Printf.sprintf "ordered index on %s = %s" attr value
  | Ordered_range { attr; interval } ->
      Printf.sprintf "ordered index range on %s in %s" attr interval

let pp_explain ?(timings = false) ppf ex =
  (* timings are optional so the rendering stays byte-stable for tests *)
  let time ppf t = if timings then Format.fprintf ppf "  (%.3f ms)" (1000. *. t) in
  Format.fprintf ppf "@[<v>select %s@," ex.ex_cls;
  Format.fprintf ppf "  where: %s@,"
    (Option.value ~default:"(none)" ex.ex_where);
  Format.fprintf ppf "  access: %s -> %d candidate(s)%a@,"
    (access_to_string ex.ex_access)
    ex.ex_candidates time ex.ex_access_seconds;
  (match ex.ex_residual with
  | Some r ->
      Format.fprintf ppf "  filter: %s -> %d row(s), %d eval node(s)%a" r
        ex.ex_rows ex.ex_eval_nodes time ex.ex_filter_seconds
  | None -> Format.fprintf ppf "  filter: (none) -> %d row(s)" ex.ex_rows);
  (match ex.ex_plan with
  | None -> Format.fprintf ppf "@,  plan: interpreted"
  | Some r ->
      if r.Plan.rp_kernel > 0 then
        Format.fprintf ppf "@,  plan: compiled, numeric kernel, %d comparison(s)"
          r.Plan.rp_kernel
      else
        Format.fprintf ppf "@,  plan: compiled, %d closure(s)" r.Plan.rp_closures;
      Format.fprintf ppf ", adjacency %d node(s) / %d edge(s)" r.Plan.rp_nodes
        r.Plan.rp_edges;
      if r.Plan.rp_columns <> [] then
        Format.fprintf ppf "@,  columns: %s"
          (String.concat ", "
             (List.map
                (fun (attr, epoch, built) ->
                  Printf.sprintf "%s@e%d (%s)" attr epoch
                    (if built then "built" else "cached"))
                r.Plan.rp_columns)));
  Format.fprintf ppf "@]"

type aggregate = Count_values | Count_distinct | Sum | Min | Max

(* numbers compare by magnitude across Int/Real, everything else by the
   structural order -- the same rule the expression evaluator applies *)
let numeric_compare a b =
  match (Value.as_float a, Value.as_float b) with
  | Some x, Some y -> Float.compare x y
  | _ -> Value.compare a b

let aggregate store agg ~attr objects =
  let* values =
    List.fold_left
      (fun acc s ->
        let* acc = acc in
        let* v = Inheritance.attr store s attr in
        Ok (v :: acc))
      (Ok []) objects
  in
  let non_null = List.filter (fun v -> not (Value.equal v Value.Null)) values in
  match agg with
  | Count_values -> Ok (Value.Int (List.length non_null))
  | Count_distinct ->
      Ok (Value.Int (List.length (List.sort_uniq Value.compare values)))
  | Sum ->
      List.fold_left
        (fun acc v ->
          let* acc = acc in
          match (acc, v) with
          | Value.Int a, Value.Int b -> Ok (Value.Int (a + b))
          | acc, v -> (
              match (Value.as_float acc, Value.as_float v) with
              | Some a, Some b -> Ok (Value.Real (a +. b))
              | _ ->
                  Error
                    (Errors.Eval_error
                       ("sum over non-numeric value " ^ Value.to_string v))))
        (Ok (Value.Int 0)) non_null
  | Min ->
      Ok
        (List.fold_left
           (fun acc v ->
             if Value.equal acc Value.Null || numeric_compare v acc < 0 then v else acc)
           Value.Null non_null)
  | Max ->
      Ok
        (List.fold_left
           (fun acc v ->
             if Value.equal acc Value.Null || numeric_compare v acc > 0 then v else acc)
           Value.Null non_null)
