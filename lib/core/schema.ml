type attr_def = { attr_name : string; attr_domain : Domain.t }
type named_constraint = { c_name : string; c_expr : Expr.t }
type card = One | Many

type participant = {
  p_name : string;
  p_card : card;
  p_type : string option;
}

type member_type = Named_type of string | Inline of obj_type

and subclass_def = { sc_name : string; sc_member : member_type }

and subrel_def = {
  sr_name : string;
  sr_rel_type : string;
  sr_binder : string option;
  sr_where : Expr.t option;
}

and obj_type = {
  ot_name : string;
  ot_inheritor_in : string option;
  ot_attrs : attr_def list;
  ot_subclasses : subclass_def list;
  ot_subrels : subrel_def list;
  ot_constraints : named_constraint list;
}

type rel_type = {
  rt_name : string;
  rt_relates : participant list;
  rt_attrs : attr_def list;
  rt_subclasses : subclass_def list;
  rt_constraints : named_constraint list;
}

type inher_rel_type = {
  it_name : string;
  it_transmitter : string;
  it_inheritor : string option;
  it_inheriting : string list;
  it_attrs : attr_def list;
  it_subclasses : subclass_def list;
  it_constraints : named_constraint list;
}

type entry =
  | Obj_type of obj_type
  | Rel_type of rel_type
  | Inher_type of inher_rel_type

type source = Own | Via of string

type t = {
  types : (string, entry) Hashtbl.t;
  named_domains : (string, Domain.t) Hashtbl.t;
  mutable order : string list;  (* definition order, reversed *)
  mutable domain_order : string list;
  (* Effective feature sets are static once a type is defined (the
     inheritor-in chain is fixed at definition time), so they are memoized;
     without the cache an inherited read costs O(depth^2) because every
     resolution hop would recompute its suffix of the chain. *)
  effective_attr_memo : (string, (attr_def * source) list) Hashtbl.t;
  effective_subclass_memo : (string, (subclass_def * source) list) Hashtbl.t;
}

let create () =
  {
    types = Hashtbl.create 64;
    named_domains = Hashtbl.create 16;
    order = [];
    domain_order = [];
    effective_attr_memo = Hashtbl.create 64;
    effective_subclass_memo = Hashtbl.create 64;
  }

let ( let* ) = Result.bind

let entry_name = function
  | Obj_type o -> o.ot_name
  | Rel_type r -> r.rt_name
  | Inher_type i -> i.it_name

let find t name = Hashtbl.find_opt t.types name

let find_obj_type t name =
  match find t name with
  | Some (Obj_type o) -> Ok o
  | Some _ -> Error (Errors.Schema_error (name ^ " is not an object type"))
  | None -> Error (Errors.Unknown_type name)

let find_rel_type t name =
  match find t name with
  | Some (Rel_type r) -> Ok r
  | Some _ ->
      Error (Errors.Schema_error (name ^ " is not a relationship type"))
  | None -> Error (Errors.Unknown_type name)

let find_inher_rel_type t name =
  match find t name with
  | Some (Inher_type i) -> Ok i
  | Some _ ->
      Error
        (Errors.Schema_error (name ^ " is not an inheritance relationship type"))
  | None -> Error (Errors.Unknown_type name)

let find_domain t name = Hashtbl.find_opt t.named_domains name

let expand_domain t d =
  Domain.expand ~lookup:(fun n -> Hashtbl.find_opt t.named_domains n) d

let entries t = List.rev_map (fun n -> Hashtbl.find t.types n) t.order

let domains t =
  List.rev_map
    (fun n -> (n, Hashtbl.find t.named_domains n))
    t.domain_order

let subclass_member_type _t sc =
  match sc.sc_member with
  | Named_type n -> n
  | Inline o -> o.ot_name

(* ------------------------------------------------------------------ *)
(* Effective features: own + permeable transmitter features, following
   the inheritor-in chain at the type level (plain generalization).    *)

let rec effective_attrs_guarded t visited name =
  if List.mem name visited then
    Error (Errors.Binding_cycle ("type-level inheritance cycle at " ^ name))
  else
    match find t name with
    | None -> Error (Errors.Unknown_type name)
    | Some (Rel_type r) ->
        Ok (List.map (fun a -> (a, Own)) r.rt_attrs)
    | Some (Inher_type i) ->
        Ok (List.map (fun a -> (a, Own)) i.it_attrs)
    | Some (Obj_type o) -> (
        let own = List.map (fun a -> (a, Own)) o.ot_attrs in
        match o.ot_inheritor_in with
        | None -> Ok own
        | Some rel_name ->
            let* irel = find_inher_rel_type t rel_name in
            let* trans =
              effective_attrs_guarded t (name :: visited) irel.it_transmitter
            in
            let inherited =
              List.filter_map
                (fun (a, _) ->
                  if List.mem a.attr_name irel.it_inheriting then
                    Some (a, Via rel_name)
                  else None)
                trans
            in
            Ok (own @ inherited))

let effective_attrs t name =
  match Hashtbl.find_opt t.effective_attr_memo name with
  | Some cached -> Ok cached
  | None -> (
      match effective_attrs_guarded t [] name with
      | Ok attrs ->
          Hashtbl.replace t.effective_attr_memo name attrs;
          Ok attrs
      | Error _ as e -> e)

let rec effective_subclasses_guarded t visited name =
  if List.mem name visited then
    Error (Errors.Binding_cycle ("type-level inheritance cycle at " ^ name))
  else
    match find t name with
    | None -> Error (Errors.Unknown_type name)
    | Some (Rel_type r) -> Ok (List.map (fun s -> (s, Own)) r.rt_subclasses)
    | Some (Inher_type i) -> Ok (List.map (fun s -> (s, Own)) i.it_subclasses)
    | Some (Obj_type o) -> (
        let own = List.map (fun s -> (s, Own)) o.ot_subclasses in
        match o.ot_inheritor_in with
        | None -> Ok own
        | Some rel_name ->
            let* irel = find_inher_rel_type t rel_name in
            let* trans =
              effective_subclasses_guarded t (name :: visited)
                irel.it_transmitter
            in
            let inherited =
              List.filter_map
                (fun (s, _) ->
                  if List.mem s.sc_name irel.it_inheriting then
                    Some (s, Via rel_name)
                  else None)
                trans
            in
            Ok (own @ inherited))

let effective_subclasses t name =
  match Hashtbl.find_opt t.effective_subclass_memo name with
  | Some cached -> Ok cached
  | None -> (
      match effective_subclasses_guarded t [] name with
      | Ok subs ->
          Hashtbl.replace t.effective_subclass_memo name subs;
          Ok subs
      | Error _ as e -> e)

let find_effective_attr t ty name =
  match effective_attrs t ty with
  | Error _ -> None
  | Ok attrs ->
      List.find_opt (fun (a, _) -> String.equal a.attr_name name) attrs

let find_effective_subclass t ty name =
  match effective_subclasses t ty with
  | Error _ -> None
  | Ok subs -> List.find_opt (fun (s, _) -> String.equal s.sc_name name) subs

let attr_source t ty name =
  let attr =
    match effective_attrs t ty with
    | Error _ -> None
    | Ok attrs ->
        List.find_map
          (fun (a, src) ->
            if String.equal a.attr_name name then Some src else None)
          attrs
  in
  match attr with
  | Some _ as s -> s
  | None -> (
      match effective_subclasses t ty with
      | Error _ -> None
      | Ok subs ->
          List.find_map
            (fun (s, src) ->
              if String.equal s.sc_name name then Some src else None)
            subs)

let transmitter_chain t name =
  let rec go acc name =
    match find t name with
    | Some (Obj_type { ot_inheritor_in = Some rel; _ }) -> (
        match find t rel with
        | Some (Inher_type i) ->
            if List.mem i.it_transmitter acc then List.rev acc
            else go (i.it_transmitter :: acc) i.it_transmitter
        | Some _ | None -> List.rev acc)
    | Some _ | None -> List.rev acc
  in
  go [] name

(* ------------------------------------------------------------------ *)
(* Definition-time validation                                          *)

let check_fresh t name =
  if Hashtbl.mem t.types name then
    Error (Errors.Duplicate_definition ("type " ^ name))
  else Ok ()

let check_distinct what names =
  let sorted = List.sort_uniq String.compare names in
  if List.length sorted <> List.length names then
    Error (Errors.Schema_error ("duplicate " ^ what ^ " name"))
  else Ok ()

let check_attr_domains t attrs =
  List.fold_left
    (fun acc a ->
      let* () = acc in
      let* expanded = expand_domain t a.attr_domain in
      Domain.well_formed expanded)
    (Ok ()) attrs

let register t entry =
  Hashtbl.replace t.types (entry_name entry) entry;
  t.order <- entry_name entry :: t.order

let define_domain t name d =
  if Hashtbl.mem t.named_domains name then
    Error (Errors.Duplicate_definition ("domain " ^ name))
  else
    let* () = Domain.well_formed d in
    Hashtbl.replace t.named_domains name d;
    (* Expansion both detects recursion through pre-existing names and
       validates that every referenced domain exists. *)
    match expand_domain t d with
    | Ok _ ->
        t.domain_order <- name :: t.domain_order;
        Ok ()
    | Error e ->
        Hashtbl.remove t.named_domains name;
        Error e

let check_subrels t subrels =
  List.fold_left
    (fun acc sr ->
      let* () = acc in
      let* _ = find_rel_type t sr.sr_rel_type in
      Ok ())
    (Ok ()) subrels

(* Accepting an [inheritor-in: R] declaration on type [ty]: R must exist,
   and R's declared inheritor must be [object] or [ty] itself.  Inline
   subclass member types carry generated names, so schemas that want a
   typed inheritor clause must use named member types. *)
let check_inheritor_in t ty_name = function
  | None -> Ok ()
  | Some rel_name -> (
      let* irel = find_inher_rel_type t rel_name in
      match irel.it_inheritor with
      | None -> Ok ()
      | Some expected when String.equal expected ty_name -> Ok ()
      | Some expected ->
          Error
            (Errors.Schema_error
               (Printf.sprintf
                  "%s declares inheritor-in %s, but %s admits only %s as \
                   inheritor"
                  ty_name rel_name rel_name expected)))

(* No own feature may shadow a permeable inherited one: a local value under
   an inherited name would amount to updating inherited data. *)
let check_no_shadowing t ty_name inheritor_in own_names =
  match inheritor_in with
  | None -> Ok ()
  | Some rel_name ->
      let* irel = find_inher_rel_type t rel_name in
      let clash = List.filter (fun n -> List.mem n irel.it_inheriting) own_names in
      (match clash with
      | [] -> Ok ()
      | n :: _ ->
          Error
            (Errors.Schema_error
               (Printf.sprintf
                  "%s: local name %s shadows an attribute inherited through %s"
                  ty_name n rel_name)))

let rec define_obj_type t (o : obj_type) =
  let* () = check_fresh t o.ot_name in
  let* () = check_attr_domains t o.ot_attrs in
  let own_names =
    List.map (fun a -> a.attr_name) o.ot_attrs
    @ List.map (fun s -> s.sc_name) o.ot_subclasses
    @ List.map (fun r -> r.sr_name) o.ot_subrels
  in
  let* () = check_distinct "feature" own_names in
  let* () = check_inheritor_in t o.ot_name o.ot_inheritor_in in
  let* () = check_no_shadowing t o.ot_name o.ot_inheritor_in own_names in
  let* () = check_subrels t o.ot_subrels in
  (* Register inline subclass member types under generated names, depth
     first, so the stored type refers to them by name only. *)
  let* subclasses = register_subclasses t o.ot_name o.ot_subclasses in
  let resolved = { o with ot_subclasses = subclasses } in
  register t (Obj_type resolved);
  (* Effective-feature computation must succeed now that everything this
     type references is in place; it also detects type-level cycles. *)
  (match effective_attrs t o.ot_name with
  | Ok _ -> Ok ()
  | Error e ->
      Hashtbl.remove t.types o.ot_name;
      t.order <- List.filter (fun n -> not (String.equal n o.ot_name)) t.order;
      Error e)

and register_subclasses t owner subclasses =
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | sc :: rest -> (
        match sc.sc_member with
        | Named_type n -> (
            match find t n with
            | Some (Obj_type _) -> go ({ sc with sc_member = Named_type n } :: acc) rest
            | Some _ ->
                Error
                  (Errors.Schema_error
                     (Printf.sprintf "subclass %s: %s is not an object type"
                        sc.sc_name n))
            | None -> Error (Errors.Unknown_type n))
        | Inline inline ->
            let gen_name = owner ^ "." ^ sc.sc_name in
            let* () = define_obj_type t { inline with ot_name = gen_name } in
            go ({ sc with sc_member = Named_type gen_name } :: acc) rest)
  in
  go [] subclasses

let define_rel_type t (r : rel_type) =
  let* () = check_fresh t r.rt_name in
  let* () = check_attr_domains t r.rt_attrs in
  let own_names =
    List.map (fun p -> p.p_name) r.rt_relates
    @ List.map (fun a -> a.attr_name) r.rt_attrs
    @ List.map (fun s -> s.sc_name) r.rt_subclasses
  in
  let* () = check_distinct "feature" own_names in
  let* () =
    if r.rt_relates = [] then
      Error (Errors.Schema_error (r.rt_name ^ ": relates clause is empty"))
    else Ok ()
  in
  (* Participant types may be defined later only if missing entirely is an
     error we can afford to defer; the paper defines participant types
     first, so we check strictly. *)
  let* () =
    List.fold_left
      (fun acc p ->
        let* () = acc in
        match p.p_type with
        | None -> Ok ()
        | Some ty -> (
            match find t ty with
            | Some (Obj_type _) -> Ok ()
            | Some _ ->
                Error
                  (Errors.Schema_error
                     (Printf.sprintf "participant %s: %s is not an object type"
                        p.p_name ty))
            | None -> Error (Errors.Unknown_type ty)))
      (Ok ()) r.rt_relates
  in
  let* subclasses = register_subclasses t r.rt_name r.rt_subclasses in
  register t (Rel_type { r with rt_subclasses = subclasses });
  Ok ()

let define_inher_rel_type t (i : inher_rel_type) =
  let* () = check_fresh t i.it_name in
  let* () = check_attr_domains t i.it_attrs in
  let* () =
    check_distinct "feature"
      (List.map (fun a -> a.attr_name) i.it_attrs
      @ List.map (fun s -> s.sc_name) i.it_subclasses)
  in
  let* () = check_distinct "inheriting clause" i.it_inheriting in
  let* () =
    if i.it_inheriting = [] then
      Error (Errors.Schema_error (i.it_name ^ ": empty inheriting clause"))
    else Ok ()
  in
  (* The transmitter type must exist; every inheriting name must be one of
     its effective attributes or subclasses (the transmitter may itself
     inherit them, as GateInterface inherits Pins from GateInterface_I). *)
  let* _ = find_obj_type t i.it_transmitter in
  let* trans_attrs = effective_attrs t i.it_transmitter in
  let* trans_subs = effective_subclasses t i.it_transmitter in
  let available =
    List.map (fun (a, _) -> a.attr_name) trans_attrs
    @ List.map (fun (s, _) -> s.sc_name) trans_subs
  in
  let* () =
    List.fold_left
      (fun acc n ->
        let* () = acc in
        if List.mem n available then Ok ()
        else
          Error
            (Errors.Schema_error
               (Printf.sprintf
                  "%s: inheriting clause names %s, which is not a feature of %s"
                  i.it_name n i.it_transmitter)))
      (Ok ()) i.it_inheriting
  in
  let* subclasses = register_subclasses t i.it_name i.it_subclasses in
  register t (Inher_type { i with it_subclasses = subclasses });
  Ok ()
