module Smap = Map.Make (String)

type kind = Object_entity | Relationship_entity | Inheritance_link

type binding = {
  b_link : Surrogate.t;
  b_via : string;
  b_transmitter : Surrogate.t;
}

type entity = {
  id : Surrogate.t;
  type_name : string;
  kind : kind;
  mutable attrs : Value.t Smap.t;
  mutable participants : Value.t Smap.t;
  mutable subobjs : Surrogate.t list Smap.t;
  mutable subrels : Surrogate.t list Smap.t;
  mutable owner : Surrogate.t option;
  mutable bound : binding option;
  mutable inheritor_links : Surrogate.t list;
  mutable classes_of : string list;
}

type class_info = {
  cls_member_type : string;
  mutable cls_members : Surrogate.t list;  (* reversed insertion order *)
}

(* Opaque slot for the query-compilation layer (Plan), which sits above
   this module: Plan injects its own constructor and parks its per-store
   compiled state here, stamped against [plan_epoch]. *)
type plan_slot = ..

(* One typed record per epoch bump, so the plan layer can maintain its
   registry and columns by delta instead of rebuilding from scratch.
   Precision is best-effort: a site that cannot name what changed emits
   [Ch_global], which consumers treat as "rebuild everything". *)
type change =
  | Ch_created of Surrogate.t
  | Ch_deleted of Surrogate.t
  | Ch_attr of Surrogate.t * string
  | Ch_rebound of Surrogate.t
  | Ch_class_add of string * Surrogate.t
  | Ch_class_remove of string * Surrogate.t
  | Ch_touched of Surrogate.t
  | Ch_global

(* A committed write, as consistency control records it: a tick of the
   store's staleness clock (ticks are unique and totally ordered), and
   the surrogate generator's position then.  Surrogates are minted in
   order, so a link existed when the write committed iff its surrogate is
   below [w_gen]: no link needs to store when it was bound. *)
type write_mark = { w_at : int; w_gen : int }

(* Consistency-control state of one inheritance link, held only once an
   acknowledge, a cut or a note gave it one.  Staleness itself is not
   stored: [reach] derives it from the write marks on the link's
   transmitter chain. *)
type link_state = {
  mutable ls_ack : int;  (* tick of the last acknowledge, 0 when none *)
  mutable ls_pin : int;
      (* newest stamp carried over a cut in the link's ancestry (unbind,
         force-delete) or loaded from a snapshot; 0 when none *)
  mutable ls_pin_note : string;
  mutable ls_note_at : int;  (* a trigger's [set_stale_note], 0 when none *)
  mutable ls_note : string;
}

type t = {
  schema : Schema.t;
  gen : Surrogate.Gen.t;
  entities : entity Surrogate.Tbl.t;
  classes : (string, class_info) Hashtbl.t;
  mutable class_order : string list;
  (* reverse index: entity -> relationship entities referencing it as a
     participant, for referential integrity on delete *)
  referrer_index : Surrogate.t list Surrogate.Tbl.t;
  mutable read_hooks : (int * (Surrogate.t -> unit)) list;
  mutable write_hooks : (int * (Surrogate.t -> unit)) list;
  mutable next_hook : int;
  (* mutation stamp for compiled plans: bumped by every data or
     structural mutation (including class-extent changes) *)
  mutable plan_epoch : int;
  mutable plan_slot : plan_slot option;
  (* change log: a ring holding the record of the bump to epoch [e] in
     slot [e mod change_log_cap], so it always covers the sliding window
     (plan_epoch - change_log_cap, plan_epoch] *)
  change_log : change array;
  (* staleness as derived state: a committed write records a
     [write_mark] per (entity, attribute) and touches nothing else *)
  mutable stale_clock : int;
  written : write_mark Smap.t Surrogate.Tbl.t;  (* entity -> attribute -> newest *)
  link_states : link_state Surrogate.Tbl.t;
}

type hook_id = int

let ( let* ) = Result.bind

(* observability: entity traffic through the storage layer *)
module Obs = Compo_obs.Metrics

let m_lookup = Obs.counter "store.lookup"
let m_lookup_miss = Obs.counter "store.lookup.miss"
let m_create = Obs.counter "store.entity.create"
let m_delete = Obs.counter "store.entity.delete"
let m_attr_read = Obs.counter "store.attr.read"
let m_attr_write = Obs.counter "store.attr.write"

let change_log_cap = 512

let create schema =
  {
    schema;
    gen = Surrogate.Gen.create ();
    entities = Surrogate.Tbl.create 1024;
    classes = Hashtbl.create 16;
    class_order = [];
    referrer_index = Surrogate.Tbl.create 256;
    read_hooks = [];
    write_hooks = [];
    next_hook = 1;
    plan_epoch = 0;
    plan_slot = None;
    change_log = Array.make change_log_cap Ch_global;
    stale_clock = 0;
    written = Surrogate.Tbl.create 1024;
    link_states = Surrogate.Tbl.create 256;
  }

let schema t = t.schema
let plan_epoch t = t.plan_epoch
let plan_slot t = t.plan_slot
let set_plan_slot t slot = t.plan_slot <- Some slot

(* the only place the plan epoch advances: one change record per bump *)
let record_change t ch =
  t.plan_epoch <- t.plan_epoch + 1;
  t.change_log.(t.plan_epoch mod change_log_cap) <- ch

let changes_since t since =
  if since < 0 || since > t.plan_epoch || t.plan_epoch - since > change_log_cap
  then None
  else
    Some
      (List.init (t.plan_epoch - since) (fun i ->
           t.change_log.((since + 1 + i) mod change_log_cap)))

let record_global_change t = record_change t Ch_global

let fresh_hook t =
  let id = t.next_hook in
  t.next_hook <- id + 1;
  id

let add_read_hook t f =
  let id = fresh_hook t in
  t.read_hooks <- (id, f) :: t.read_hooks;
  id

let add_write_hook t f =
  let id = fresh_hook t in
  t.write_hooks <- (id, f) :: t.write_hooks;
  id

let remove_hook t id =
  t.read_hooks <- List.filter (fun (i, _) -> i <> id) t.read_hooks;
  t.write_hooks <- List.filter (fun (i, _) -> i <> id) t.write_hooks

let read_hooks_installed t = t.read_hooks <> []
let notify_read t s = List.iter (fun (_, f) -> f s) t.read_hooks
let notify_write ?change t s =
  (* every mutation site broadcasts here, so this is also where the
     compiled-plan stamp advances; callers that know what changed pass a
     precise record, anyone else gets the conservative [Ch_global] *)
  record_change t (Option.value ~default:Ch_global change);
  List.iter (fun (_, f) -> f s) t.write_hooks

(* ------------------------------------------------------------------ *)
(* Entity access                                                       *)

let get t s =
  Obs.incr m_lookup;
  match Surrogate.Tbl.find_opt t.entities s with
  | Some e -> Ok e
  | None ->
      Obs.incr m_lookup_miss;
      Error (Errors.Unknown_object (Surrogate.to_string s))

let mem t s = Surrogate.Tbl.mem t.entities s
let type_of t s = Result.map (fun e -> e.type_name) (get t s)

let is_instance_of t s ty =
  match get t s with
  | Error _ -> false
  | Ok e ->
      String.equal e.type_name ty
      || List.mem ty (Schema.transmitter_chain t.schema e.type_name)

let iter t f = Surrogate.Tbl.iter (fun _ e -> f e) t.entities
let fold t f init = Surrogate.Tbl.fold (fun _ e acc -> f acc e) t.entities init
let entity_count t = Surrogate.Tbl.length t.entities

(* ------------------------------------------------------------------ *)
(* Classes                                                             *)

let create_class t ~name ~member_type =
  if Hashtbl.mem t.classes name then
    Error (Errors.Duplicate_definition ("class " ^ name))
  else
    let* _ = Schema.find_obj_type t.schema member_type in
    Hashtbl.replace t.classes name { cls_member_type = member_type; cls_members = [] };
    t.class_order <- name :: t.class_order;
    record_change t Ch_global;
    Ok ()

let class_names t = List.rev t.class_order

let find_class t name =
  match Hashtbl.find_opt t.classes name with
  | Some c -> Ok c
  | None -> Error (Errors.Unknown_class name)

let class_member_type t name =
  Result.map (fun c -> c.cls_member_type) (find_class t name)

let class_members t name =
  Result.map (fun c -> List.rev c.cls_members) (find_class t name)

let insert_into_class t ~cls s =
  let* c = find_class t cls in
  let* e = get t s in
  if not (is_instance_of t s c.cls_member_type) then
    Error
      (Errors.Type_error
         (Printf.sprintf "class %s holds objects of type %s, not %s" cls
            c.cls_member_type e.type_name))
  else if List.mem cls e.classes_of then Ok ()
  else begin
    c.cls_members <- s :: c.cls_members;
    e.classes_of <- cls :: e.classes_of;
    notify_write ~change:(Ch_class_add (cls, s)) t s;
    Ok ()
  end

let remove_from_class t ~cls s =
  let* c = find_class t cls in
  let* e = get t s in
  c.cls_members <- List.filter (fun m -> not (Surrogate.equal m s)) c.cls_members;
  e.classes_of <- List.filter (fun n -> not (String.equal n cls)) e.classes_of;
  notify_write ~change:(Ch_class_remove (cls, s)) t s;
  Ok ()

(* ------------------------------------------------------------------ *)
(* Attribute validation helpers                                        *)

(* Only locally-owned attributes may be written; a name that reaches the
   type through an inheritance relationship is read-only on this side. *)
let own_attr_def t ty name =
  let* attrs = Schema.effective_attrs t.schema ty in
  match
    List.find_opt (fun (a, _) -> String.equal a.Schema.attr_name name) attrs
  with
  | Some (a, Schema.Own) -> Ok a
  | Some (_, Schema.Via rel) ->
      Error
        (Errors.Inherited_readonly
           (Printf.sprintf "%s (inherited through %s)" name rel))
  | None -> Error (Errors.Unknown_attribute (ty ^ "." ^ name))

let check_attr_value t ty (name, value) =
  let* def = own_attr_def t ty name in
  let* domain = Schema.expand_domain t.schema def.Schema.attr_domain in
  Value.conforms domain value

let validated_attrs t ty attrs =
  let* () =
    List.fold_left
      (fun acc binding ->
        let* () = acc in
        check_attr_value t ty binding)
      (Ok ()) attrs
  in
  let* () =
    let names = List.map fst attrs in
    if List.length (List.sort_uniq String.compare names) <> List.length names
    then Error (Errors.Duplicate_definition "attribute given twice")
    else Ok ()
  in
  Ok (List.fold_left (fun m (n, v) -> Smap.add n v m) Smap.empty attrs)

(* Fresh entity with empty local subclass/subrel maps initialised from the
   type definition, so membership queries distinguish "empty" from
   "no such subclass". *)
let blank_maps own_subclasses own_subrels =
  let subobjs =
    List.fold_left
      (fun m (sc : Schema.subclass_def) -> Smap.add sc.sc_name [] m)
      Smap.empty own_subclasses
  in
  let subrels =
    List.fold_left
      (fun m (sr : Schema.subrel_def) -> Smap.add sr.sr_name [] m)
      Smap.empty own_subrels
  in
  (subobjs, subrels)

let add_entity t e =
  Obs.incr m_create;
  Surrogate.Tbl.replace t.entities e.id e

let make_object t ~ty attrs =
  let* ot = Schema.find_obj_type t.schema ty in
  let* attr_map = validated_attrs t ty attrs in
  let subobjs, subrels = blank_maps ot.ot_subclasses ot.ot_subrels in
  let e =
    {
      id = Surrogate.Gen.fresh t.gen;
      type_name = ty;
      kind = Object_entity;
      attrs = attr_map;
      participants = Smap.empty;
      subobjs;
      subrels;
      owner = None;
      bound = None;
      inheritor_links = [];
      classes_of = [];
    }
  in
  add_entity t e;
  Ok e

let create_object t ?cls ~ty attrs =
  let* e = make_object t ~ty attrs in
  let* () =
    match cls with
    | None -> Ok ()
    | Some cls -> insert_into_class t ~cls e.id
  in
  notify_write ~change:(Ch_created e.id) t e.id;
  Ok e.id

let own_subclass_def t parent_ty name =
  let* subs = Schema.effective_subclasses t.schema parent_ty in
  match
    List.find_opt (fun (s, _) -> String.equal s.Schema.sc_name name) subs
  with
  | Some (s, Schema.Own) -> Ok s
  | Some (_, Schema.Via rel) ->
      Error
        (Errors.Inherited_readonly
           (Printf.sprintf "subclass %s (inherited through %s)" name rel))
  | None -> Error (Errors.Unknown_class (parent_ty ^ "." ^ name))

let create_subobject t ~parent ~subclass attrs =
  let* pe = get t parent in
  let* sc = own_subclass_def t pe.type_name subclass in
  let member_ty = Schema.subclass_member_type t.schema sc in
  let* e = make_object t ~ty:member_ty attrs in
  e.owner <- Some parent;
  pe.subobjs <-
    Smap.update subclass
      (function Some ms -> Some (ms @ [ e.id ]) | None -> Some [ e.id ])
      pe.subobjs;
  record_change t (Ch_created e.id);
  notify_write ~change:(Ch_touched parent) t parent;
  Ok e.id

(* ------------------------------------------------------------------ *)
(* Relationships                                                       *)

let check_participant t (p : Schema.participant) value =
  let check_ref v =
    match Value.as_ref v with
    | None ->
        Error
          (Errors.Type_error
             (Printf.sprintf "participant %s expects an object reference"
                p.p_name))
    | Some s -> (
        let* _ = get t s in
        match p.p_type with
        | None -> Ok ()
        | Some ty ->
            if is_instance_of t s ty then Ok ()
            else
              Error
                (Errors.Type_error
                   (Printf.sprintf "participant %s expects an object of type %s"
                      p.p_name ty)))
  in
  match (p.p_card, value) with
  | Schema.One, v -> check_ref v
  | Schema.Many, Value.Set vs ->
      List.fold_left
        (fun acc v ->
          let* () = acc in
          check_ref v)
        (Ok ()) vs
  | Schema.Many, _ ->
      Error
        (Errors.Type_error
           (Printf.sprintf "participant %s expects a set of object references"
              p.p_name))

let index_referrer t rel_id value =
  List.iter
    (fun target ->
      let existing =
        Option.value ~default:[] (Surrogate.Tbl.find_opt t.referrer_index target)
      in
      Surrogate.Tbl.replace t.referrer_index target (rel_id :: existing))
    (Value.refs value)

let unindex_referrer t rel_id value =
  List.iter
    (fun target ->
      match Surrogate.Tbl.find_opt t.referrer_index target with
      | None -> ()
      | Some ids ->
          let remaining =
            List.filter (fun i -> not (Surrogate.equal i rel_id)) ids
          in
          if remaining = [] then Surrogate.Tbl.remove t.referrer_index target
          else Surrogate.Tbl.replace t.referrer_index target remaining)
    (Value.refs value)

let referrers t s =
  Option.value ~default:[] (Surrogate.Tbl.find_opt t.referrer_index s)

let make_relationship t ~ty ~participants ~attrs =
  let* rt = Schema.find_rel_type t.schema ty in
  (* every declared participant must be supplied, and nothing else *)
  let declared = List.map (fun p -> p.Schema.p_name) rt.rt_relates in
  let supplied = List.map fst participants in
  let* () =
    List.fold_left
      (fun acc n ->
        let* () = acc in
        if List.mem n supplied then Ok ()
        else
          Error
            (Errors.Schema_error
               (Printf.sprintf "relationship %s: missing participant %s" ty n)))
      (Ok ()) declared
  in
  let* () =
    List.fold_left
      (fun acc n ->
        let* () = acc in
        if List.mem n declared then Ok ()
        else
          Error
            (Errors.Schema_error
               (Printf.sprintf "relationship %s: unknown participant %s" ty n)))
      (Ok ()) supplied
  in
  let* () =
    List.fold_left
      (fun acc (p : Schema.participant) ->
        let* () = acc in
        check_participant t p (List.assoc p.p_name participants))
      (Ok ()) rt.rt_relates
  in
  let* attr_map = validated_attrs t ty attrs in
  let subobjs, subrels = blank_maps rt.rt_subclasses [] in
  let participants_map =
    List.fold_left (fun m (n, v) -> Smap.add n v m) Smap.empty participants
  in
  let e =
    {
      id = Surrogate.Gen.fresh t.gen;
      type_name = ty;
      kind = Relationship_entity;
      attrs = attr_map;
      participants = participants_map;
      subobjs;
      subrels;
      owner = None;
      bound = None;
      inheritor_links = [];
      classes_of = [];
    }
  in
  add_entity t e;
  Smap.iter (fun _ v -> index_referrer t e.id v) participants_map;
  Ok e

let create_relationship t ~ty ~participants ?(attrs = []) () =
  let* e = make_relationship t ~ty ~participants ~attrs in
  notify_write ~change:(Ch_created e.id) t e.id;
  Ok e.id

let own_subrel_def t parent_ty name =
  (* subrels are never permeable in this model: the paper's inheriting
     clauses name attributes and subclasses only *)
  let* entry =
    match Schema.find t.schema parent_ty with
    | Some e -> Ok e
    | None -> Error (Errors.Unknown_type parent_ty)
  in
  let subrels =
    match entry with
    | Schema.Obj_type o -> o.ot_subrels
    | Schema.Rel_type _ | Schema.Inher_type _ -> []
  in
  match
    List.find_opt (fun (sr : Schema.subrel_def) -> String.equal sr.sr_name name) subrels
  with
  | Some sr -> Ok sr
  | None -> Error (Errors.Unknown_class (parent_ty ^ "." ^ name))

let create_subrel t ~parent ~subrel ~participants ?(attrs = []) () =
  let* pe = get t parent in
  let* sr = own_subrel_def t pe.type_name subrel in
  let* e = make_relationship t ~ty:sr.sr_rel_type ~participants ~attrs in
  e.owner <- Some parent;
  pe.subrels <-
    Smap.update subrel
      (function Some ms -> Some (ms @ [ e.id ]) | None -> Some [ e.id ])
      pe.subrels;
  record_change t (Ch_created e.id);
  notify_write ~change:(Ch_touched parent) t parent;
  Ok e.id

(* ------------------------------------------------------------------ *)
(* Attribute access                                                    *)

let local_attr t s name =
  let* e = get t s in
  Obs.incr m_attr_read;
  notify_read t s;
  Ok (Option.value ~default:Value.Null (Smap.find_opt name e.attrs))

let set_attr t s name value =
  let* e = get t s in
  let* () = check_attr_value t e.type_name (name, value) in
  Obs.incr m_attr_write;
  e.attrs <- Smap.add name value e.attrs;
  notify_write ~change:(Ch_attr (s, name)) t s;
  Ok ()

let subclass_members t s name =
  let* e = get t s in
  match Smap.find_opt name e.subobjs with
  | Some ms ->
      notify_read t s;
      Ok ms
  | None -> Error (Errors.Unknown_class (e.type_name ^ "." ^ name))

let subrel_members t s name =
  let* e = get t s in
  match Smap.find_opt name e.subrels with
  | Some ms ->
      notify_read t s;
      Ok ms
  | None -> Error (Errors.Unknown_class (e.type_name ^ "." ^ name))

let participant t s name =
  let* e = get t s in
  match Smap.find_opt name e.participants with
  | Some v ->
      notify_read t s;
      Ok v
  | None -> Error (Errors.Unknown_attribute ("participant " ^ name))

let set_participant t s name value =
  let* e = get t s in
  if e.kind <> Relationship_entity then
    Error
      (Errors.Schema_error
         (Surrogate.to_string s ^ " is not a relationship object"))
  else
    let* rt = Schema.find_rel_type t.schema e.type_name in
    match
      List.find_opt (fun (p : Schema.participant) -> String.equal p.p_name name) rt.rt_relates
    with
    | None -> Error (Errors.Unknown_attribute ("participant " ^ name))
    | Some p ->
        let* () = check_participant t p value in
        (match Smap.find_opt name e.participants with
        | Some old -> unindex_referrer t s old
        | None -> ());
        e.participants <- Smap.add name value e.participants;
        index_referrer t s value;
        notify_write ~change:(Ch_touched s) t s;
        Ok ()

let owner_of t s = Result.map (fun e -> e.owner) (get t s)

(* ------------------------------------------------------------------ *)
(* Staleness (consistency control, sections 2 / 4.1)                   *)

(* A transmitter update marks the inheritance relationships that carry
   it for adaptation.  Nothing is marked eagerly: a committed write
   records a [write_mark] per (entity, attribute), and a link's staleness is
   derived by walking {e up} its transmitter chain (see [reach]). *)

let tick t =
  t.stale_clock <- t.stale_clock + 1;
  t.stale_clock

let new_link_state () =
  { ls_ack = 0; ls_pin = 0; ls_pin_note = ""; ls_note_at = 0; ls_note = "" }

let no_link_state = new_link_state ()

(* read-only view: most links never get a state *)
let find_link_state t link =
  Option.value ~default:no_link_state (Surrogate.Tbl.find_opt t.link_states link)

let link_state t link =
  match Surrogate.Tbl.find_opt t.link_states link with
  | Some ls -> ls
  | None ->
      let ls = new_link_state () in
      Surrogate.Tbl.replace t.link_states link ls;
      ls

let write_note name = Printf.sprintf "transmitter attribute %s updated" name

let record_write t s name =
  if Surrogate.Tbl.mem t.entities s then begin
    let mark = { w_at = tick t; w_gen = Surrogate.Gen.current t.gen } in
    let m = Option.value ~default:Smap.empty (Surrogate.Tbl.find_opt t.written s) in
    Surrogate.Tbl.replace t.written s (Smap.add name mark m)
  end

let permeable t via =
  match Schema.find_inher_rel_type t.schema via with
  | Ok irel -> irel.Schema.it_inheriting
  | Error _ -> []

(* The newest stamp that reached link [le], as (tick, note); (0, "")
   when none did.  Candidates are the link's pin and every recorded write
   on its transmitter chain whose attribute is permeable through each hop
   down to [le] and which committed after each of those hops' links
   existed — an older write never travelled that path.  [newest_link] is
   the largest link surrogate on the path so far.  O(depth). *)
let reach t le =
  let ls = find_link_state t le.id in
  let best_at = ref ls.ls_pin and best_note = ref ls.ls_pin_note in
  let rec up attrs newest_link tr =
    (match Surrogate.Tbl.find_opt t.written tr with
    | None -> ()
    | Some m ->
        List.iter
          (fun a ->
            match Smap.find_opt a m with
            | Some w when newest_link < w.w_gen && w.w_at > !best_at ->
                best_at := w.w_at;
                best_note := write_note a
            | Some _ | None -> ())
          attrs);
    match Surrogate.Tbl.find_opt t.entities tr with
    | Some { bound = Some b; _ } -> (
        match List.filter (fun a -> List.mem a (permeable t b.b_via)) attrs with
        | [] -> ()
        | attrs ->
            up attrs (max newest_link (Surrogate.to_int b.b_link)) b.b_transmitter)
    | Some _ | None -> ()
  in
  (match Smap.find_opt "transmitter" le.participants with
  | Some (Value.Ref tr) -> up (permeable t le.type_name) (Surrogate.to_int le.id) tr
  | Some _ | None -> ());
  (!best_at, !best_note)

let find_link t link =
  let* le = get t link in
  if le.kind <> Inheritance_link then
    Error
      (Errors.Invalid_binding
         (Surrogate.to_string link ^ " is not an inheritance link"))
  else Ok le

let is_stale t link =
  let* le = find_link t link in
  Ok (fst (reach t le) > (find_link_state t link).ls_ack)

let stale_note t link =
  let* le = find_link t link in
  let at, note = reach t le in
  let ls = find_link_state t link in
  Ok (if ls.ls_note_at > at then ls.ls_note else note)

let acknowledge t link =
  let* _ = find_link t link in
  (link_state t link).ls_ack <- tick t;
  Ok ()

let set_stale_note t link note =
  let* _ = find_link t link in
  let ls = link_state t link in
  ls.ls_note_at <- tick t;
  ls.ls_note <- note;
  Ok ()

let restore_staleness t link ~stale ~note =
  if stale || note <> "" then begin
    let ls = link_state t link in
    ls.ls_pin <- tick t;
    ls.ls_pin_note <- note;
    if not stale then ls.ls_ack <- tick t
  end

(* Unbinding [inheritor] (or force-deleting its transmitter) cuts the
   ancestry of every link below it.  Pin what reached those links
   through the old chain, so their staleness and notes survive the cut;
   only that subtree is walked, and cuts are rare. *)
let pin_subtree t inheritor =
  let rec go s =
    match Surrogate.Tbl.find_opt t.entities s with
    | None -> ()
    | Some e ->
        List.iter
          (fun link ->
            match Surrogate.Tbl.find_opt t.entities link with
            | None -> ()
            | Some le -> (
                let at, note = reach t le in
                if at > (find_link_state t link).ls_pin then begin
                  let ls = link_state t link in
                  ls.ls_pin <- at;
                  ls.ls_pin_note <- note
                end;
                match Smap.find_opt "inheritor" le.participants with
                | Some (Value.Ref i) -> go i
                | Some _ | None -> ()))
          e.inheritor_links
  in
  go inheritor

(* ------------------------------------------------------------------ *)
(* Inheritance links (structural layer; semantics in Inheritance)      *)

let add_inheritance_link t ~ty ~transmitter ~inheritor ~attrs =
  let* it = Schema.find_inher_rel_type t.schema ty in
  let* te = get t transmitter in
  let* ie = get t inheritor in
  let* attr_map =
    (* link attributes validated against the inher-rel type's own attrs *)
    let declared = List.map (fun (a : Schema.attr_def) -> a.attr_name) it.it_attrs in
    let* () =
      List.fold_left
        (fun acc (n, _) ->
          let* () = acc in
          if List.mem n declared then Ok ()
          else Error (Errors.Unknown_attribute (ty ^ "." ^ n)))
        (Ok ()) attrs
    in
    Ok (List.fold_left (fun m (n, v) -> Smap.add n v m) Smap.empty attrs)
  in
  (* section 4.1: the inheritance relationship may possess subobjects *)
  let subobjs, _ = blank_maps it.it_subclasses [] in
  let e =
    {
      id = Surrogate.Gen.fresh t.gen;
      type_name = ty;
      kind = Inheritance_link;
      attrs = attr_map;
      participants =
        Smap.add "transmitter" (Value.Ref transmitter)
          (Smap.singleton "inheritor" (Value.Ref inheritor));
      subobjs;
      subrels = Smap.empty;
      owner = None;
      bound = None;
      inheritor_links = [];
      classes_of = [];
    }
  in
  add_entity t e;
  ie.bound <- Some { b_link = e.id; b_via = ty; b_transmitter = transmitter };
  te.inheritor_links <- e.id :: te.inheritor_links;
  (* binding changes what every transitive inheritor of [inheritor]
     resolves to; the plan layer gets a precise [Ch_rebound] it can scope
     through its dep tables *)
  record_change t (Ch_created e.id);
  notify_write ~change:(Ch_rebound inheritor) t inheritor;
  Ok e.id

(* ------------------------------------------------------------------ *)
(* Delete with cascade                                                 *)

let rec remove_inheritance_link t link =
  let* le = get t link in
  if le.kind <> Inheritance_link then
    Error (Errors.Invalid_binding (Surrogate.to_string link ^ " is not an inheritance link"))
  else begin
    let inheritor =
      match Smap.find_opt "inheritor" le.participants with
      | Some (Value.Ref i) ->
          pin_subtree t i;
          (match get t i with
          | Ok ie -> ie.bound <- None
          | Error _ -> ());
          Some i
      | Some _ | None -> None
    in
    (match Smap.find_opt "transmitter" le.participants with
    | Some (Value.Ref tr) -> (
        match get t tr with
        | Ok te ->
            te.inheritor_links <-
              List.filter (fun l -> not (Surrogate.equal l link)) te.inheritor_links
        | Error _ -> ())
    | Some _ | None -> ());
    (* the link's own subobjects die with it (section 4.1 links may carry
       subobjects; section 3 subobjects die with their complex object) *)
    Smap.iter
      (fun _ ms -> List.iter (fun m -> ignore (delete t ~force:true m)) ms)
      le.subobjs;
    Obs.incr m_delete;
    Surrogate.Tbl.remove t.entities link;
    Surrogate.Tbl.remove t.link_states link;
    (* unbind: previously resolved inherited values must become
       unobservable immediately — reads yield [Null] from the next call *)
    record_change t (Ch_deleted link);
    record_change t
      (match inheritor with Some i -> Ch_rebound i | None -> Ch_global);
    Ok ()
  end

and delete t ?(force = false) s =
  let* e = get t s in
  let* () =
    if e.inheritor_links <> [] && not force then
      Error
        (Errors.Delete_restricted
           (Printf.sprintf "%s has %d bound inheritor(s)" (Surrogate.to_string s)
              (List.length e.inheritor_links)))
    else Ok ()
  in
  let incoming =
    (* relationships referencing this entity, excluding its own subrels
       (those die with it anyway) and its inheritance links *)
    List.filter
      (fun r ->
        match get t r with
        | Ok re ->
            re.kind = Relationship_entity
            && not (re.owner = Some s)
        | Error _ -> false)
      (referrers t s)
  in
  let* () =
    if incoming <> [] && not force then
      Error
        (Errors.Delete_restricted
           (Printf.sprintf "%s participates in %d relationship(s)"
              (Surrogate.to_string s) (List.length incoming)))
    else Ok ()
  in
  (* From here on the delete cannot fail; perform the cascade. *)
  List.iter
    (fun link -> ignore (remove_inheritance_link t link))
    e.inheritor_links;
  (match e.bound with
  | Some b -> ignore (remove_inheritance_link t b.b_link)
  | None -> ());
  List.iter (fun r -> ignore (delete t ~force:true r)) incoming;
  Smap.iter (fun _ ms -> List.iter (fun m -> ignore (delete t ~force:true m)) ms) e.subobjs;
  Smap.iter (fun _ ms -> List.iter (fun m -> ignore (delete t ~force:true m)) ms) e.subrels;
  (* detach from classes *)
  List.iter
    (fun cls ->
      match Hashtbl.find_opt t.classes cls with
      | Some c ->
          c.cls_members <-
            List.filter (fun m -> not (Surrogate.equal m s)) c.cls_members;
          record_change t (Ch_class_remove (cls, s))
      | None -> ())
    e.classes_of;
  (* detach from owner *)
  (match e.owner with
  | Some o -> (
      match get t o with
      | Ok oe ->
          let drop = List.filter (fun m -> not (Surrogate.equal m s)) in
          oe.subobjs <- Smap.map drop oe.subobjs;
          oe.subrels <- Smap.map drop oe.subrels;
          record_change t (Ch_touched o)
      | Error _ -> ())
  | None -> ());
  (* drop referrer index contributions of this entity *)
  Smap.iter (fun _ v -> unindex_referrer t s v) e.participants;
  Obs.incr m_delete;
  Surrogate.Tbl.remove t.entities s;
  Surrogate.Tbl.remove t.written s;
  notify_write ~change:(Ch_deleted s) t s;
  Ok ()

(* ------------------------------------------------------------------ *)
(* Persistence support                                                 *)

let generator t = t.gen

let restore_entity t e =
  Surrogate.Gen.mark_used t.gen e.id;
  add_entity t e;
  Smap.iter (fun _ v -> index_referrer t e.id v) e.participants;
  record_global_change t

let restore_class t ~name ~member_type ~members =
  Hashtbl.replace t.classes name
    { cls_member_type = member_type; cls_members = List.rev members };
  if not (List.mem name t.class_order) then
    t.class_order <- name :: t.class_order;
  record_change t Ch_global

(* ------------------------------------------------------------------ *)
(* Structural invariants                                               *)

let check_invariants t =
  let problems = ref [] in
  let report fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let exists s = Surrogate.Tbl.mem t.entities s in
  let id_str = Surrogate.to_string in
  iter t (fun e ->
      (* subobjects: exist, are objects-or-relationship-holders, owned by e *)
      Smap.iter
        (fun cls members ->
          List.iter
            (fun m ->
              match Surrogate.Tbl.find_opt t.entities m with
              | None ->
                  report "%s.%s contains dangling member %s" (id_str e.id) cls
                    (id_str m)
              | Some me ->
                  if me.owner <> Some e.id then
                    report "%s in %s.%s has owner %s" (id_str m) (id_str e.id)
                      cls
                      (match me.owner with
                      | Some o -> id_str o
                      | None -> "none"))
            members)
        e.subobjs;
      Smap.iter
        (fun cls members ->
          List.iter
            (fun m ->
              match Surrogate.Tbl.find_opt t.entities m with
              | None ->
                  report "%s.%s contains dangling subrel %s" (id_str e.id) cls
                    (id_str m)
              | Some me ->
                  if me.kind <> Relationship_entity then
                    report "%s in %s.%s is not a relationship" (id_str m)
                      (id_str e.id) cls;
                  if me.owner <> Some e.id then
                    report "subrel %s of %s has wrong owner" (id_str m)
                      (id_str e.id))
            members)
        e.subrels;
      (* owner back-pointer: the owner must list e in some local class *)
      (match e.owner with
      | None -> ()
      | Some o -> (
          match Surrogate.Tbl.find_opt t.entities o with
          | None -> report "%s has dangling owner %s" (id_str e.id) (id_str o)
          | Some oe ->
              let listed =
                Smap.exists (fun _ ms -> List.exists (Surrogate.equal e.id) ms) oe.subobjs
                || Smap.exists (fun _ ms -> List.exists (Surrogate.equal e.id) ms) oe.subrels
              in
              if not listed then
                report "%s has owner %s but is not among its members"
                  (id_str e.id) (id_str o)));
      (* binding: link exists, is a link, names both ends; transmitter
         back-pointer present *)
      (match e.bound with
      | None -> ()
      | Some b -> (
          match Surrogate.Tbl.find_opt t.entities b.b_link with
          | None -> report "%s bound via dangling link %s" (id_str e.id) (id_str b.b_link)
          | Some le ->
              if le.kind <> Inheritance_link then
                report "binding link %s of %s is not an inheritance link"
                  (id_str b.b_link) (id_str e.id);
              (match Smap.find_opt "inheritor" le.participants with
              | Some (Value.Ref i) when Surrogate.equal i e.id -> ()
              | _ ->
                  report "link %s does not name %s as inheritor" (id_str b.b_link)
                    (id_str e.id));
              (match Surrogate.Tbl.find_opt t.entities b.b_transmitter with
              | None ->
                  report "%s inherits from dangling transmitter %s" (id_str e.id)
                    (id_str b.b_transmitter)
              | Some te ->
                  if not (List.exists (Surrogate.equal b.b_link) te.inheritor_links)
                  then
                    report "transmitter %s misses back-pointer to link %s"
                      (id_str b.b_transmitter) (id_str b.b_link))));
      (* inheritor_links point back at self as transmitter *)
      List.iter
        (fun link ->
          match Surrogate.Tbl.find_opt t.entities link with
          | None -> report "%s lists dangling link %s" (id_str e.id) (id_str link)
          | Some le -> (
              match Smap.find_opt "transmitter" le.participants with
              | Some (Value.Ref tr) when Surrogate.equal tr e.id -> ()
              | _ ->
                  report "link %s does not name %s as transmitter" (id_str link)
                    (id_str e.id)))
        e.inheritor_links;
      (* participants reference live entities and are indexed *)
      Smap.iter
        (fun pname v ->
          List.iter
            (fun target ->
              if not (exists target) then
                report "%s participant %s references dangling %s" (id_str e.id)
                  pname (id_str target)
              else if
                e.kind = Relationship_entity
                && not (List.exists (Surrogate.equal e.id) (referrers t target))
              then
                report "referrer index misses %s -> %s" (id_str target)
                  (id_str e.id))
            (Value.refs v))
        e.participants;
      (* class membership coherence *)
      List.iter
        (fun cls ->
          match Hashtbl.find_opt t.classes cls with
          | None -> report "%s claims membership in unknown class %s" (id_str e.id) cls
          | Some c ->
              if not (List.exists (Surrogate.equal e.id) c.cls_members) then
                report "%s not listed in class %s" (id_str e.id) cls)
        e.classes_of;
      (* acyclicity of containment and inheritance from this node *)
      let rec owner_walk seen s =
        match Surrogate.Tbl.find_opt t.entities s with
        | Some { owner = Some o; _ } ->
            if List.exists (Surrogate.equal o) seen then
              report "containment cycle through %s" (id_str o)
            else owner_walk (o :: seen) o
        | Some _ | None -> ()
      in
      owner_walk [ e.id ] e.id;
      let rec trans_walk seen s =
        match Surrogate.Tbl.find_opt t.entities s with
        | Some { bound = Some b; _ } ->
            if List.exists (Surrogate.equal b.b_transmitter) seen then
              report "inheritance cycle through %s" (id_str b.b_transmitter)
            else trans_walk (b.b_transmitter :: seen) b.b_transmitter
        | Some _ | None -> ()
      in
      trans_walk [ e.id ] e.id);
  (* classes: members exist and carry the membership mark *)
  Hashtbl.iter
    (fun cls c ->
      List.iter
        (fun m ->
          match Surrogate.Tbl.find_opt t.entities m with
          | None -> report "class %s lists dangling member %s" cls (id_str m)
          | Some me ->
              if not (List.mem cls me.classes_of) then
                report "class %s member %s misses membership mark" cls (id_str m))
        c.cls_members)
    t.classes;
  List.rev !problems
