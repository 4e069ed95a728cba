let log_src = Logs.Src.create "compo.triggers" ~doc:"compo trigger rules"

module Log = (val Logs.src_log log_src : Logs.LOG)

type event =
  | Updated of { target : Surrogate.t; attr : string }
  | Stamped of {
      link : Surrogate.t;
      inheritor : Surrogate.t;
      transmitter : Surrogate.t;
      attr : string;
    }
  | Bound of { inheritor : Surrogate.t; transmitter : Surrogate.t; via : string }
  | Unbound of { inheritor : Surrogate.t }

let event_target = function
  | Updated { target; _ } -> target
  | Stamped { inheritor; _ } -> inheritor
  | Bound { inheritor; _ } -> inheritor
  | Unbound { inheritor } -> inheritor

type pattern =
  | On_update of { ty : string option; attr : string option }
  | On_stale of { via : string option; attr : string option }
  | On_bind of { via : string option }
  | On_unbind

type action = Database.t -> event -> (unit, Errors.t) result

type rule = {
  r_name : string;
  r_pattern : pattern;
  r_condition : Expr.t option;
  r_action : action;
}

type t = {
  trg_db : Database.t;
  max_depth : int;
  mutable trg_rules : rule list;  (* in addition order *)
  mutable trg_fired : (string * event) list;  (* reversed *)
  mutable depth : int;
}

let ( let* ) = Result.bind

let create ?(max_depth = 16) db =
  { trg_db = db; max_depth; trg_rules = []; trg_fired = []; depth = 0 }

let db t = t.trg_db

let add_rule t rule =
  if List.exists (fun r -> String.equal r.r_name rule.r_name) t.trg_rules then
    Error (Errors.Duplicate_definition ("rule " ^ rule.r_name))
  else begin
    t.trg_rules <- t.trg_rules @ [ rule ];
    Ok ()
  end

let remove_rule t name =
  if List.exists (fun r -> String.equal r.r_name name) t.trg_rules then begin
    t.trg_rules <- List.filter (fun r -> not (String.equal r.r_name name)) t.trg_rules;
    Ok ()
  end
  else Error (Errors.Unknown_class ("rule " ^ name))

let rules t = List.map (fun r -> r.r_name) t.trg_rules
let fired t = List.rev t.trg_fired
let clear_fired t = t.trg_fired <- []

let opt_matches pred = function None -> true | Some x -> pred x

let pattern_matches t pattern event =
  match (pattern, event) with
  | On_update { ty; attr }, Updated u ->
      opt_matches (String.equal u.attr) attr
      && opt_matches
           (fun want ->
             match Store.type_of (Database.store t.trg_db) u.target with
             | Ok ty -> String.equal ty want
             | Error _ -> false)
           ty
  | On_stale { via; attr }, Stamped s ->
      opt_matches (String.equal s.attr) attr
      && opt_matches
           (fun want ->
             match Store.type_of (Database.store t.trg_db) s.link with
             | Ok ty -> String.equal ty want
             | Error _ -> false)
           via
  | On_bind { via }, Bound b -> opt_matches (String.equal b.via) via
  | On_unbind, Unbound _ -> true
  | (On_update _ | On_stale _ | On_bind _ | On_unbind), _ -> false

let condition_holds t rule event =
  match rule.r_condition with
  | None -> true
  | Some expr -> (
      let env = Eval.env ~self:(event_target event) (Database.store t.trg_db) in
      match Eval.eval_bool env expr with Ok b -> b | Error _ -> false)

let rec dispatch t events =
  if t.depth >= t.max_depth then
    Error
      (Errors.Eval_error
         (Printf.sprintf "trigger cascade exceeded depth %d" t.max_depth))
  else begin
    t.depth <- t.depth + 1;
    let result =
      List.fold_left
        (fun acc event ->
          let* () = acc in
          List.fold_left
            (fun acc rule ->
              let* () = acc in
              if pattern_matches t rule.r_pattern event && condition_holds t rule event
              then begin
                t.trg_fired <- (rule.r_name, event) :: t.trg_fired;
                Log.debug (fun m ->
                    m "rule %s fired on %a" rule.r_name Surrogate.pp
                      (event_target event));
                rule.r_action t.trg_db event
              end
              else Ok ())
            (Ok ()) t.trg_rules)
        (Ok ()) events
    in
    t.depth <- t.depth - 1;
    result
  end

(* ------------------------------------------------------------------ *)
(* Instrumented operations                                             *)

and set_attr t s name value =
  let store = Database.store t.trg_db in
  let* () = Inheritance.set_attr store s name value in
  (* the write itself is O(1); the links it reached are only enumerated
     while some rule listens for staleness *)
  let reached =
    if List.exists (fun r -> match r.r_pattern with On_stale _ -> true | _ -> false) t.trg_rules
    then Inheritance.reached_links store s ~attr:name
    else []
  in
  let stale_events =
    List.filter_map
      (fun link ->
        match Store.get store link with
        | Error _ -> None
        | Ok le -> (
            match
              ( Store.Smap.find_opt "inheritor" le.Store.participants,
                Store.Smap.find_opt "transmitter" le.Store.participants )
            with
            | Some (Value.Ref i), Some (Value.Ref tr) ->
                Some (Stamped { link; inheritor = i; transmitter = tr; attr = name })
            | _ -> None))
      reached
  in
  dispatch t (Updated { target = s; attr = name } :: stale_events)

let bind t ~via ~transmitter ~inheritor () =
  let* link = Database.bind t.trg_db ~via ~transmitter ~inheritor () in
  let* () = dispatch t [ Bound { inheritor; transmitter; via } ] in
  Ok link

let unbind t inheritor =
  let* () = Database.unbind t.trg_db inheritor in
  dispatch t [ Unbound { inheritor } ]

(* ------------------------------------------------------------------ *)
(* Prefabricated actions                                               *)

let recompute ~attr expr db event =
  let target = event_target event in
  let env = Eval.env ~self:target (Database.store db) in
  let* v = Eval.eval env expr in
  Store.set_attr (Database.store db) target attr v

let acknowledge_link db event =
  match event with
  | Stamped { link; _ } -> Database.acknowledge db link
  | Updated _ | Bound _ | Unbound _ -> Ok ()

let log_note ~note db event =
  match event with
  | Stamped { link; _ } -> Store.set_stale_note (Database.store db) link note
  | Updated _ | Bound _ | Unbound _ -> Ok ()
