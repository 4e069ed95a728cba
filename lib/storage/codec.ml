open Compo_core

let ( let* ) = Result.bind
let truncated () = Error (Errors.Io_error "truncated input")
let bad_tag what tag =
  Error (Errors.Io_error (Printf.sprintf "bad %s tag 0x%02x" what tag))

module Enc = Binary.Enc
module Dec = Binary.Dec

let crc32 = Binary.crc32

(* ------------------------------------------------------------------ *)
(* Values                                                              *)

let rec encode_value b (v : Value.t) =
  match v with
  | Value.Null -> Enc.byte b 0
  | Value.Bool x ->
      Enc.byte b 1;
      Enc.bool b x
  | Value.Int x ->
      Enc.byte b 2;
      Enc.int b x
  | Value.Real x ->
      Enc.byte b 3;
      Enc.float b x
  | Value.Str x ->
      Enc.byte b 4;
      Enc.string b x
  | Value.Enum_case x ->
      Enc.byte b 5;
      Enc.string b x
  | Value.Record fields ->
      Enc.byte b 6;
      Enc.list b
        (fun (n, fv) ->
          Enc.string b n;
          encode_value b fv)
        fields
  | Value.List vs ->
      Enc.byte b 7;
      Enc.list b (encode_value b) vs
  | Value.Set vs ->
      Enc.byte b 8;
      Enc.list b (encode_value b) vs
  | Value.Matrix rows ->
      Enc.byte b 9;
      Enc.int b (Array.length rows);
      Array.iter
        (fun row ->
          Enc.int b (Array.length row);
          Array.iter (encode_value b) row)
        rows
  | Value.Tuple vs ->
      Enc.byte b 10;
      Enc.list b (encode_value b) vs
  | Value.Ref s ->
      Enc.byte b 11;
      Enc.int b (Surrogate.to_int s)

let rec decode_value d =
  let* tag = Dec.byte d in
  match tag with
  | 0 -> Ok Value.Null
  | 1 ->
      let* x = Dec.bool d in
      Ok (Value.Bool x)
  | 2 ->
      let* x = Dec.int d in
      Ok (Value.Int x)
  | 3 ->
      let* x = Dec.float d in
      Ok (Value.Real x)
  | 4 ->
      let* x = Dec.string d in
      Ok (Value.Str x)
  | 5 ->
      let* x = Dec.string d in
      Ok (Value.Enum_case x)
  | 6 ->
      let* fields =
        Dec.list d (fun () ->
            let* n = Dec.string d in
            let* v = decode_value d in
            Ok (n, v))
      in
      Ok (Value.Record fields)
  | 7 ->
      let* vs = Dec.list d (fun () -> decode_value d) in
      Ok (Value.List vs)
  | 8 ->
      let* vs = Dec.list d (fun () -> decode_value d) in
      Ok (Value.Set vs)
  | 9 ->
      let* nrows = Dec.int d in
      if nrows < 0 then truncated ()
      else
        let rec rows acc i =
          if i = 0 then Ok (Value.Matrix (Array.of_list (List.rev acc)))
          else
            let* ncols = Dec.int d in
            if ncols < 0 then truncated ()
            else
              let rec cols acc j =
                if j = 0 then Ok (Array.of_list (List.rev acc))
                else
                  let* v = decode_value d in
                  cols (v :: acc) (j - 1)
              in
              let* row = cols [] ncols in
              rows (row :: acc) (i - 1)
        in
        rows [] nrows
  | 10 ->
      let* vs = Dec.list d (fun () -> decode_value d) in
      Ok (Value.Tuple vs)
  | 11 ->
      let* s = Dec.int d in
      Ok (Value.Ref (Surrogate.of_int s))
  | t -> bad_tag "value" t

(* ------------------------------------------------------------------ *)
(* Domains                                                             *)

let rec encode_domain b (d : Domain.t) =
  match d with
  | Domain.Integer -> Enc.byte b 0
  | Domain.Real -> Enc.byte b 1
  | Domain.Boolean -> Enc.byte b 2
  | Domain.String -> Enc.byte b 3
  | Domain.Enum cases ->
      Enc.byte b 4;
      Enc.list b (Enc.string b) cases
  | Domain.Record fields ->
      Enc.byte b 5;
      Enc.list b
        (fun (n, fd) ->
          Enc.string b n;
          encode_domain b fd)
        fields
  | Domain.List_of d ->
      Enc.byte b 6;
      encode_domain b d
  | Domain.Set_of d ->
      Enc.byte b 7;
      encode_domain b d
  | Domain.Matrix_of d ->
      Enc.byte b 8;
      encode_domain b d
  | Domain.Tuple ds ->
      Enc.byte b 9;
      Enc.list b (encode_domain b) ds
  | Domain.Ref ty ->
      Enc.byte b 10;
      Enc.option b (Enc.string b) ty
  | Domain.Named n ->
      Enc.byte b 11;
      Enc.string b n

let rec decode_domain dd =
  let* tag = Dec.byte dd in
  match tag with
  | 0 -> Ok Domain.Integer
  | 1 -> Ok Domain.Real
  | 2 -> Ok Domain.Boolean
  | 3 -> Ok Domain.String
  | 4 ->
      let* cases = Dec.list dd (fun () -> Dec.string dd) in
      Ok (Domain.Enum cases)
  | 5 ->
      let* fields =
        Dec.list dd (fun () ->
            let* n = Dec.string dd in
            let* fd = decode_domain dd in
            Ok (n, fd))
      in
      Ok (Domain.Record fields)
  | 6 ->
      let* d = decode_domain dd in
      Ok (Domain.List_of d)
  | 7 ->
      let* d = decode_domain dd in
      Ok (Domain.Set_of d)
  | 8 ->
      let* d = decode_domain dd in
      Ok (Domain.Matrix_of d)
  | 9 ->
      let* ds = Dec.list dd (fun () -> decode_domain dd) in
      Ok (Domain.Tuple ds)
  | 10 ->
      let* ty = Dec.option dd (fun () -> Dec.string dd) in
      Ok (Domain.Ref ty)
  | 11 ->
      let* n = Dec.string dd in
      Ok (Domain.Named n)
  | t -> bad_tag "domain" t

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)

let unop_tag = function Expr.Not -> 0 | Expr.Neg -> 1

let binop_tag = function
  | Expr.Add -> 0
  | Expr.Sub -> 1
  | Expr.Mul -> 2
  | Expr.Div -> 3
  | Expr.Eq -> 4
  | Expr.Ne -> 5
  | Expr.Lt -> 6
  | Expr.Le -> 7
  | Expr.Gt -> 8
  | Expr.Ge -> 9
  | Expr.And -> 10
  | Expr.Or -> 11
  | Expr.In -> 12

let binop_of_tag = function
  | 0 -> Ok Expr.Add
  | 1 -> Ok Expr.Sub
  | 2 -> Ok Expr.Mul
  | 3 -> Ok Expr.Div
  | 4 -> Ok Expr.Eq
  | 5 -> Ok Expr.Ne
  | 6 -> Ok Expr.Lt
  | 7 -> Ok Expr.Le
  | 8 -> Ok Expr.Gt
  | 9 -> Ok Expr.Ge
  | 10 -> Ok Expr.And
  | 11 -> Ok Expr.Or
  | 12 -> Ok Expr.In
  | t -> bad_tag "binop" t

let encode_path b p = Enc.list b (Enc.string b) p
let decode_path d = Dec.list d (fun () -> Dec.string d)

let rec encode_expr b (e : Expr.t) =
  match e with
  | Expr.Const v ->
      Enc.byte b 0;
      encode_value b v
  | Expr.Path p ->
      Enc.byte b 1;
      encode_path b p
  | Expr.Count (p, filter) ->
      Enc.byte b 2;
      encode_path b p;
      Enc.option b (encode_expr b) filter
  | Expr.Sum p ->
      Enc.byte b 3;
      encode_path b p
  | Expr.Unop (op, e) ->
      Enc.byte b 4;
      Enc.byte b (unop_tag op);
      encode_expr b e
  | Expr.Binop (op, x, y) ->
      Enc.byte b 5;
      Enc.byte b (binop_tag op);
      encode_expr b x;
      encode_expr b y
  | Expr.Forall (binders, body) ->
      Enc.byte b 6;
      encode_binders b binders;
      encode_expr b body
  | Expr.Exists (binders, body) ->
      Enc.byte b 7;
      encode_binders b binders;
      encode_expr b body

and encode_binders b binders =
  Enc.list b
    (fun (v, p) ->
      Enc.string b v;
      encode_path b p)
    binders

let rec decode_expr d =
  let* tag = Dec.byte d in
  match tag with
  | 0 ->
      let* v = decode_value d in
      Ok (Expr.Const v)
  | 1 ->
      let* p = decode_path d in
      Ok (Expr.Path p)
  | 2 ->
      let* p = decode_path d in
      let* filter = Dec.option d (fun () -> decode_expr d) in
      Ok (Expr.Count (p, filter))
  | 3 ->
      let* p = decode_path d in
      Ok (Expr.Sum p)
  | 4 ->
      let* op = Dec.byte d in
      let* e = decode_expr d in
      let* op =
        match op with 0 -> Ok Expr.Not | 1 -> Ok Expr.Neg | t -> bad_tag "unop" t
      in
      Ok (Expr.Unop (op, e))
  | 5 ->
      let* op_tag = Dec.byte d in
      let* op = binop_of_tag op_tag in
      let* x = decode_expr d in
      let* y = decode_expr d in
      Ok (Expr.Binop (op, x, y))
  | 6 ->
      let* binders = decode_binders d in
      let* body = decode_expr d in
      Ok (Expr.Forall (binders, body))
  | 7 ->
      let* binders = decode_binders d in
      let* body = decode_expr d in
      Ok (Expr.Exists (binders, body))
  | t -> bad_tag "expr" t

and decode_binders d =
  Dec.list d (fun () ->
      let* v = Dec.string d in
      let* p = decode_path d in
      Ok (v, p))

(* ------------------------------------------------------------------ *)
(* Schema                                                              *)

let encode_attr b (a : Schema.attr_def) =
  Enc.string b a.attr_name;
  encode_domain b a.attr_domain

let decode_attr d =
  let* attr_name = Dec.string d in
  let* attr_domain = decode_domain d in
  Ok { Schema.attr_name; attr_domain }

let encode_constraint b (c : Schema.named_constraint) =
  Enc.string b c.c_name;
  encode_expr b c.c_expr

let decode_constraint d =
  let* c_name = Dec.string d in
  let* c_expr = decode_expr d in
  Ok { Schema.c_name; c_expr }

(* Subclasses are stored with resolved (registered) member type names; the
   inline types themselves appear as separate entries in definition order,
   so decoding re-registers them before their owners reference them...
   except that owners are registered before their inline types at define
   time.  We therefore encode subclasses by re-inlining: a member name
   containing '.' is looked up and embedded. *)
let rec encode_subclass schema b (sc : Schema.subclass_def) =
  Enc.string b sc.sc_name;
  let member = Schema.subclass_member_type schema sc in
  if String.contains member '.' then begin
    Enc.byte b 1;
    match Schema.find_obj_type schema member with
    | Ok ot -> encode_obj_type schema b { ot with Schema.ot_name = "" }
    | Error _ -> (* unreachable for a well-formed registry *) Enc.string b ""
  end
  else begin
    Enc.byte b 0;
    Enc.string b member
  end

and encode_subrel b (sr : Schema.subrel_def) =
  Enc.string b sr.sr_name;
  Enc.string b sr.sr_rel_type;
  Enc.option b (Enc.string b) sr.sr_binder;
  Enc.option b (encode_expr b) sr.sr_where

and encode_obj_type schema b (o : Schema.obj_type) =
  Enc.string b o.ot_name;
  Enc.option b (Enc.string b) o.ot_inheritor_in;
  Enc.list b (encode_attr b) o.ot_attrs;
  Enc.list b (encode_subclass schema b) o.ot_subclasses;
  Enc.list b (encode_subrel b) o.ot_subrels;
  Enc.list b (encode_constraint b) o.ot_constraints

let rec decode_subclass d =
  let* sc_name = Dec.string d in
  let* tag = Dec.byte d in
  match tag with
  | 0 ->
      let* member = Dec.string d in
      Ok { Schema.sc_name; sc_member = Schema.Named_type member }
  | 1 ->
      let* inline = decode_obj_type d in
      Ok { Schema.sc_name; sc_member = Schema.Inline inline }
  | t -> bad_tag "subclass" t

and decode_subrel d =
  let* sr_name = Dec.string d in
  let* sr_rel_type = Dec.string d in
  let* sr_binder = Dec.option d (fun () -> Dec.string d) in
  let* sr_where = Dec.option d (fun () -> decode_expr d) in
  Ok { Schema.sr_name; sr_rel_type; sr_binder; sr_where }

and decode_obj_type d =
  let* ot_name = Dec.string d in
  let* ot_inheritor_in = Dec.option d (fun () -> Dec.string d) in
  let* ot_attrs = Dec.list d (fun () -> decode_attr d) in
  let* ot_subclasses = Dec.list d (fun () -> decode_subclass d) in
  let* ot_subrels = Dec.list d (fun () -> decode_subrel d) in
  let* ot_constraints = Dec.list d (fun () -> decode_constraint d) in
  Ok { Schema.ot_name; ot_inheritor_in; ot_attrs; ot_subclasses; ot_subrels; ot_constraints }

let encode_participant b (p : Schema.participant) =
  Enc.string b p.p_name;
  Enc.bool b (p.p_card = Schema.Many);
  Enc.option b (Enc.string b) p.p_type

let decode_participant d =
  let* p_name = Dec.string d in
  let* many = Dec.bool d in
  let* p_type = Dec.option d (fun () -> Dec.string d) in
  Ok { Schema.p_name; p_card = (if many then Schema.Many else Schema.One); p_type }

let encode_entry schema b = function
  | Schema.Obj_type o ->
      Enc.byte b 0;
      encode_obj_type schema b o
  | Schema.Rel_type r ->
      Enc.byte b 1;
      Enc.string b r.rt_name;
      Enc.list b (encode_participant b) r.rt_relates;
      Enc.list b (encode_attr b) r.rt_attrs;
      Enc.list b (encode_subclass schema b) r.rt_subclasses;
      Enc.list b (encode_constraint b) r.rt_constraints
  | Schema.Inher_type i ->
      Enc.byte b 2;
      Enc.string b i.it_name;
      Enc.string b i.it_transmitter;
      Enc.option b (Enc.string b) i.it_inheritor;
      Enc.list b (Enc.string b) i.it_inheriting;
      Enc.list b (encode_attr b) i.it_attrs;
      Enc.list b (encode_subclass schema b) i.it_subclasses;
      Enc.list b (encode_constraint b) i.it_constraints

let decode_entry d =
  let* tag = Dec.byte d in
  match tag with
  | 0 ->
      let* o = decode_obj_type d in
      Ok (Schema.Obj_type o)
  | 1 ->
      let* rt_name = Dec.string d in
      let* rt_relates = Dec.list d (fun () -> decode_participant d) in
      let* rt_attrs = Dec.list d (fun () -> decode_attr d) in
      let* rt_subclasses = Dec.list d (fun () -> decode_subclass d) in
      let* rt_constraints = Dec.list d (fun () -> decode_constraint d) in
      Ok (Schema.Rel_type { rt_name; rt_relates; rt_attrs; rt_subclasses; rt_constraints })
  | 2 ->
      let* it_name = Dec.string d in
      let* it_transmitter = Dec.string d in
      let* it_inheritor = Dec.option d (fun () -> Dec.string d) in
      let* it_inheriting = Dec.list d (fun () -> Dec.string d) in
      let* it_attrs = Dec.list d (fun () -> decode_attr d) in
      let* it_subclasses = Dec.list d (fun () -> decode_subclass d) in
      let* it_constraints = Dec.list d (fun () -> decode_constraint d) in
      Ok
        (Schema.Inher_type
           {
             it_name;
             it_transmitter;
             it_inheritor;
             it_inheriting;
             it_attrs;
             it_subclasses;
             it_constraints;
           })
  | t -> bad_tag "schema entry" t

let encode_entry schema entry =
  let b = Enc.create () in
  encode_entry schema b entry;
  Enc.contents b

let encode_schema schema =
  let b = Enc.create () in
  Enc.list b
    (fun (n, d) ->
      Enc.string b n;
      encode_domain b d)
    (Schema.domains schema);
  let top_level =
    List.filter
      (fun entry ->
        match entry with
        | Schema.Obj_type o -> not (String.contains o.Schema.ot_name '.')
        | Schema.Rel_type _ | Schema.Inher_type _ -> true)
      (Schema.entries schema)
  in
  Enc.list b (fun e -> Enc.string b (encode_entry schema e)) top_level;
  Enc.contents b

let decode_schema blob =
  let d = Dec.of_string blob in
  let schema = Schema.create () in
  let* domains =
    Dec.list d (fun () ->
        let* n = Dec.string d in
        let* dom = decode_domain d in
        Ok (n, dom))
  in
  let* () =
    List.fold_left
      (fun acc (n, dom) ->
        let* () = acc in
        Schema.define_domain schema n dom)
      (Ok ()) domains
  in
  let* entries =
    Dec.list d (fun () ->
        let* blob = Dec.string d in
        decode_entry (Dec.of_string blob))
  in
  let* () =
    List.fold_left
      (fun acc entry ->
        let* () = acc in
        match entry with
        | Schema.Obj_type o -> Schema.define_obj_type schema o
        | Schema.Rel_type r -> Schema.define_rel_type schema r
        | Schema.Inher_type i -> Schema.define_inher_rel_type schema i)
      (Ok ()) entries
  in
  Ok schema

(* ------------------------------------------------------------------ *)
(* Store                                                               *)

let encode_smap b enc_v m =
  Enc.int b (Store.Smap.cardinal m);
  Store.Smap.iter
    (fun k v ->
      Enc.string b k;
      enc_v v)
    m

let decode_smap d dec_v =
  let* n = Dec.int d in
  if n < 0 then truncated ()
  else
    let rec go acc i =
      if i = 0 then Ok acc
      else
        let* k = Dec.string d in
        let* v = dec_v () in
        go (Store.Smap.add k v acc) (i - 1)
    in
    go Store.Smap.empty n

let encode_entity b (e : Store.entity) =
  Enc.int b (Surrogate.to_int e.Store.id);
  Enc.string b e.Store.type_name;
  Enc.byte b
    (match e.Store.kind with
    | Store.Object_entity -> 0
    | Store.Relationship_entity -> 1
    | Store.Inheritance_link -> 2);
  encode_smap b (encode_value b) e.Store.attrs;
  encode_smap b (encode_value b) e.Store.participants;
  let surrogates ids = Enc.list b (fun s -> Enc.int b (Surrogate.to_int s)) ids in
  encode_smap b surrogates e.Store.subobjs;
  encode_smap b surrogates e.Store.subrels;
  Enc.option b (fun s -> Enc.int b (Surrogate.to_int s)) e.Store.owner;
  Enc.option b
    (fun (bnd : Store.binding) ->
      Enc.int b (Surrogate.to_int bnd.Store.b_link);
      Enc.string b bnd.Store.b_via;
      Enc.int b (Surrogate.to_int bnd.Store.b_transmitter))
    e.Store.bound;
  surrogates e.Store.inheritor_links;
  Enc.list b (Enc.string b) e.Store.classes_of

let decode_entity d =
  let* id = Dec.int d in
  let* type_name = Dec.string d in
  let* kind_tag = Dec.byte d in
  let* kind =
    match kind_tag with
    | 0 -> Ok Store.Object_entity
    | 1 -> Ok Store.Relationship_entity
    | 2 -> Ok Store.Inheritance_link
    | t -> bad_tag "entity kind" t
  in
  let* attrs = decode_smap d (fun () -> decode_value d) in
  let* participants = decode_smap d (fun () -> decode_value d) in
  let surrogate_list () =
    Dec.list d (fun () ->
        let* i = Dec.int d in
        Ok (Surrogate.of_int i))
  in
  let* subobjs = decode_smap d surrogate_list in
  let* subrels = decode_smap d surrogate_list in
  let* owner =
    Dec.option d (fun () ->
        let* i = Dec.int d in
        Ok (Surrogate.of_int i))
  in
  let* bound =
    Dec.option d (fun () ->
        let* link = Dec.int d in
        let* via = Dec.string d in
        let* transmitter = Dec.int d in
        Ok
          {
            Store.b_link = Surrogate.of_int link;
            b_via = via;
            b_transmitter = Surrogate.of_int transmitter;
          })
  in
  let* inheritor_links = surrogate_list () in
  let* classes_of = Dec.list d (fun () -> Dec.string d) in
  Ok
    {
      Store.id = Surrogate.of_int id;
      type_name;
      kind;
      attrs;
      participants;
      subobjs;
      subrels;
      owner;
      bound;
      inheritor_links;
      classes_of;
    }

(* A link's staleness is derived state in memory (see {!Store.is_stale});
   on disk a snapshot stores it materialized, in the form snapshots have
   always used: reserved link attributes [_stale] (when stale) and [_note]
   (when a note exists).  Decoding strips them back out into a pinned
   stamp, so snapshots cut before staleness was derived load unchanged. *)
let stale_attr = "_stale"
let note_attr = "_note"

let with_staleness store (e : Store.entity) =
  match e.Store.kind with
  | Store.Object_entity | Store.Relationship_entity -> e
  | Store.Inheritance_link ->
      let stale = Result.value ~default:false (Store.is_stale store e.Store.id) in
      let note = Result.value ~default:"" (Store.stale_note store e.Store.id) in
      let attrs = e.Store.attrs in
      let attrs =
        if stale then Store.Smap.add stale_attr (Value.Bool true) attrs else attrs
      in
      let attrs =
        if note <> "" then Store.Smap.add note_attr (Value.Str note) attrs else attrs
      in
      { e with Store.attrs }

let take_staleness (e : Store.entity) =
  let attrs = e.Store.attrs in
  let stale =
    match Store.Smap.find_opt stale_attr attrs with
    | Some (Value.Bool b) -> b
    | Some _ | None -> false
  in
  let note =
    match Store.Smap.find_opt note_attr attrs with
    | Some (Value.Str n) -> n
    | Some _ | None -> ""
  in
  e.Store.attrs <- Store.Smap.remove stale_attr (Store.Smap.remove note_attr attrs);
  (stale, note)

let encode_store store =
  let b = Enc.create () in
  let entities =
    List.sort
      (fun (a : Store.entity) b -> Surrogate.compare a.Store.id b.Store.id)
      (Store.fold store (fun acc e -> e :: acc) [])
  in
  Enc.list b (fun e -> encode_entity b (with_staleness store e)) entities;
  Enc.list b
    (fun name ->
      Enc.string b name;
      Enc.string b (Result.get_ok (Store.class_member_type store name));
      Enc.list b
        (fun s -> Enc.int b (Surrogate.to_int s))
        (Result.get_ok (Store.class_members store name)))
    (Store.class_names store);
  Enc.int b (Surrogate.Gen.current (Store.generator store));
  Enc.contents b

let decode_store schema blob =
  let d = Dec.of_string blob in
  let store = Store.create schema in
  let* entities = Dec.list d (fun () -> decode_entity d) in
  List.iter
    (fun (e : Store.entity) ->
      match e.Store.kind with
      | Store.Object_entity | Store.Relationship_entity -> Store.restore_entity store e
      | Store.Inheritance_link ->
          let stale, note = take_staleness e in
          Store.restore_entity store e;
          Store.restore_staleness store e.Store.id ~stale ~note)
    entities;
  let* () =
    let* classes =
      Dec.list d (fun () ->
          let* name = Dec.string d in
          let* member_type = Dec.string d in
          let* members =
            Dec.list d (fun () ->
                let* i = Dec.int d in
                Ok (Surrogate.of_int i))
          in
          Ok (name, member_type, members))
    in
    List.iter
      (fun (name, member_type, members) ->
        Store.restore_class store ~name ~member_type ~members)
      classes;
    Ok ()
  in
  let* next = Dec.int d in
  Surrogate.Gen.mark_used (Store.generator store) (Surrogate.of_int (next - 1));
  Ok store
