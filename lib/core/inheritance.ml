type binding = Store.binding = {
  b_link : Surrogate.t;
  b_via : string;
  b_transmitter : Surrogate.t;
}

let ( let* ) = Result.bind

(* observability: inherited-feature resolution is the paper's central
   runtime mechanism, so it carries the richest instrumentation — a
   latency span per resolution plus depth and fan-out histograms *)
module Obs = Compo_obs.Metrics
module Trace = Compo_obs.Trace
module Prov = Compo_obs.Provenance

let h_depth = Obs.histogram ~buckets:Obs.size_buckets "inheritance.resolve.depth"
let h_fanout = Obs.histogram ~buckets:Obs.size_buckets "inheritance.resolve.fanout"
(* bind latency lives in the "inheritance.bind" span histogram *)
let m_unbind = Obs.counter "inheritance.unbind"

(* Point reads memoise nothing, so these two stay at 0.  Their only
   reader is perfbench's [inheritance.cache.hit_ratio] row, which fails
   its selftest on a family that is missing from the registry. *)
let _ = Obs.counter "inheritance.cache.lookup"
let _ = Obs.counter "inheritance.cache.hit"

let binding_of store s = Result.map (fun e -> e.Store.bound) (Store.get store s)

let transmitter_of store s =
  Result.map (Option.map (fun b -> b.b_transmitter)) (binding_of store s)

let links_of store s =
  Result.map (fun e -> e.Store.inheritor_links) (Store.get store s)

let link_inheritor store link =
  match Store.participant store link "inheritor" with
  | Ok (Value.Ref i) -> Some i
  | Ok _ | Error _ -> None

let inheritors_of store s =
  let* links = links_of store s in
  Ok (List.filter_map (link_inheritor store) links)

let transmitter_closure store s =
  let rec go acc s =
    match binding_of store s with
    | Ok (Some b) ->
        if List.exists (Surrogate.equal b.b_transmitter) acc then List.rev acc
        else go (b.b_transmitter :: acc) b.b_transmitter
    | Ok None | Error _ -> List.rev acc
  in
  go [] s

let inheritor_closure store s =
  let rec go acc s =
    match inheritors_of store s with
    | Error _ -> acc
    | Ok direct ->
        List.fold_left
          (fun acc i ->
            if List.exists (Surrogate.equal i) acc then acc
            else go (i :: acc) i)
          acc direct
  in
  List.rev (go [] s)

(* ------------------------------------------------------------------ *)
(* Binding                                                             *)

let bind store ~via ~transmitter ~inheritor ?(attrs = []) () =
  Trace.with_span "inheritance.bind" ~attrs:[ ("via", via) ] @@ fun () ->
  let schema = Store.schema store in
  let* irel = Schema.find_inher_rel_type schema via in
  let* ie = Store.get store inheritor in
  let* _te = Store.get store transmitter in
  let* () =
    match Schema.find schema ie.Store.type_name with
    | Some (Schema.Obj_type { ot_inheritor_in = Some r; _ })
      when String.equal r via ->
        Ok ()
    | Some _ ->
        Error
          (Errors.Invalid_binding
             (Printf.sprintf "type %s is not declared inheritor-in %s"
                ie.Store.type_name via))
    | None -> Error (Errors.Unknown_type ie.Store.type_name)
  in
  let* () =
    if Store.is_instance_of store transmitter irel.it_transmitter then Ok ()
    else
      Error
        (Errors.Invalid_binding
           (Printf.sprintf "transmitter is not an instance of %s"
              irel.it_transmitter))
  in
  let* () =
    match ie.Store.bound with
    | Some b ->
        Error
          (Errors.Invalid_binding
             (Printf.sprintf "inheritor already bound to %s (unbind first)"
                (Surrogate.to_string b.b_transmitter)))
    | None -> Ok ()
  in
  let* () =
    if
      Surrogate.equal transmitter inheritor
      || List.exists (Surrogate.equal inheritor)
           (transmitter_closure store transmitter)
    then
      Error
        (Errors.Binding_cycle
           (Printf.sprintf "%s would transitively inherit from itself"
              (Surrogate.to_string inheritor)))
    else Ok ()
  in
  Store.add_inheritance_link store ~ty:via ~transmitter ~inheritor ~attrs

let unbind store inheritor =
  Obs.incr m_unbind;
  let* b = binding_of store inheritor in
  match b with
  | None ->
      Error
        (Errors.Invalid_binding
           (Surrogate.to_string inheritor ^ " is not bound to a transmitter"))
  | Some b -> Store.remove_inheritance_link store b.b_link

(* ------------------------------------------------------------------ *)
(* Resolution                                                          *)

(* Provenance hop recording.  Each helper is behind the caller's
   [Prov.enabled ()] check, so the disabled hot path pays exactly one
   load-and-branch per hop and allocates nothing. *)
let record_local s e =
  Prov.add_hop
    {
      Prov.hop_object = Surrogate.to_string s;
      hop_type = e.Store.type_name;
      hop_kind = Prov.Local;
    }

let record_unbound s e =
  Prov.add_hop
    {
      Prov.hop_object = Surrogate.to_string s;
      hop_type = e.Store.type_name;
      hop_kind = Prov.Unbound;
    }

let record_follow store s e b name =
  (* the permeability decision at this hop: does the binding's
     relationship type let [name] through its inheriting clause? *)
  let permeable =
    match Schema.find_inher_rel_type (Store.schema store) b.b_via with
    | Ok irel -> List.mem name irel.Schema.it_inheriting
    | Error _ -> false
  in
  Prov.add_hop
    {
      Prov.hop_object = Surrogate.to_string s;
      hop_type = e.Store.type_name;
      hop_kind =
        Prov.Follow
          {
            via = b.b_via;
            link = Surrogate.to_string b.b_link;
            transmitter = Surrogate.to_string b.b_transmitter;
            permeable;
          };
    }

(* A permeable feature resolves on the transmitter, hop by hop; each hop
   fires the read hook so the lock manager can S-lock the transmitter
   ("lock inheritance in the reverse direction of data inheritance").
   The hop count feeds the depth histogram: the paper's cost model for
   view inheritance is exactly "reads pay per transmitter hop". *)
let rec attr_at store s name depth =
  let* e = Store.get store s in
  match Schema.find_effective_attr (Store.schema store) e.Store.type_name name with
  | None -> Error (Errors.Unknown_attribute (e.Store.type_name ^ "." ^ name))
  | Some (_, Schema.Own) ->
      Obs.observe h_depth (float_of_int depth);
      if Prov.enabled () then record_local s e;
      Store.local_attr store s name
  | Some (_, Schema.Via _) -> (
      match e.Store.bound with
      | None ->
          Obs.observe h_depth (float_of_int depth);
          if Prov.enabled () then record_unbound s e;
          Store.notify_read store s;
          Ok Value.Null
      | Some b ->
          if Prov.enabled () then record_follow store s e b name;
          Store.notify_read store s;
          attr_at store b.b_transmitter name (depth + 1))

(* The traced variant is split out so the common path (provenance off)
   pays one extra load-and-branch and no closure allocation. *)
let attr_traced store s name =
  Prov.begin_read ~origin:(Surrogate.to_string s) ~attr:name;
  let result = attr_at store s name 0 in
  (match result with
  | Ok v -> Prov.finish_read ~value:(Value.to_string v)
  | Error _ -> Prov.abort_read ());
  result

let attr store s name =
  Trace.with_span "inheritance.resolve" ~attrs:[ ("attr", name) ] (fun () ->
      if Prov.enabled () then attr_traced store s name
      else attr_at store s name 0)

let explain store s name =
  let was_on = Prov.enabled () in
  if not was_on then Prov.enable ();
  let result = attr store s name in
  let read = Prov.last () in
  if not was_on then Prov.disable ();
  match (result, read) with
  | Error e, _ -> Error e
  | Ok v, Some r when String.equal r.Prov.r_attr name -> Ok (v, r)
  | Ok v, _ ->
      (* defensive: a hook cleared the collector mid-read *)
      Ok
        ( v,
          {
            Prov.r_object = Surrogate.to_string s;
            r_attr = name;
            r_hops = [];
            r_value = Value.to_string v;
            r_trace = None;
          } )

let rec subclass_members_at store s name depth =
  let* e = Store.get store s in
  match
    Schema.find_effective_subclass (Store.schema store) e.Store.type_name name
  with
  | None -> Error (Errors.Unknown_class (e.Store.type_name ^ "." ^ name))
  | Some (_, Schema.Own) ->
      Obs.observe h_depth (float_of_int depth);
      let* ms = Store.subclass_members store s name in
      Obs.observe h_fanout (float_of_int (List.length ms));
      Ok ms
  | Some (_, Schema.Via _) -> (
      match e.Store.bound with
      | None ->
          Obs.observe h_depth (float_of_int depth);
          Store.notify_read store s;
          Ok []
      | Some b ->
          Store.notify_read store s;
          subclass_members_at store b.b_transmitter name (depth + 1))

let subclass_members store s name =
  Trace.with_span "inheritance.members" ~attrs:[ ("subclass", name) ] (fun () ->
      subclass_members_at store s name 0)

(* ------------------------------------------------------------------ *)
(* Consistency control (sections 2 / 4.1)                              *)

(* An autocommit write is committed at once: record it, and every link
   it reaches derives its staleness from that record (see {!Store}). *)
let set_attr store s name value =
  let* () = Store.set_attr store s name value in
  Store.record_write store s name;
  Ok ()

(* The links a write of [attr] on [s] reaches, in propagation order: the
   permeable inheritor closure.  Read-only; only trigger rules that react
   to staleness need it. *)
let reached_links store s ~attr =
  let schema = Store.schema store in
  let rec go acc visited s =
    if Surrogate.Set.mem s visited then (acc, visited)
    else
      let visited = Surrogate.Set.add s visited in
      match Store.get store s with
      | Error _ -> (acc, visited)
      | Ok e ->
          List.fold_left
            (fun (acc, visited) link ->
              match Store.get store link with
              | Error _ -> (acc, visited)
              | Ok le -> (
                  let permeable =
                    match
                      Schema.find_inher_rel_type schema le.Store.type_name
                    with
                    | Ok irel -> List.mem attr irel.it_inheriting
                    | Error _ -> false
                  in
                  if not permeable then (acc, visited)
                  else
                    match link_inheritor store link with
                    | Some i -> go (link :: acc) visited i
                    | None -> (link :: acc, visited)))
            (acc, visited) e.Store.inheritor_links
  in
  List.rev (fst (go [] Surrogate.Set.empty s))

(* ------------------------------------------------------------------ *)
(* Copy-in baseline (section 2, strategy 1)                            *)

type snapshot = {
  snap_of : Surrogate.t;
  snap_attrs : (string * Value.t) list;
  snap_subobjs : (string * Surrogate.t list) list;
}

let effective_attr_names store s =
  let* e = Store.get store s in
  let* attrs = Schema.effective_attrs (Store.schema store) e.Store.type_name in
  Ok (List.map (fun (a, _) -> a.Schema.attr_name) attrs)

let materialize store s =
  let* e = Store.get store s in
  let schema = Store.schema store in
  let* attr_defs = Schema.effective_attrs schema e.Store.type_name in
  let* snap_attrs =
    List.fold_left
      (fun acc (a, _) ->
        let* acc = acc in
        let* v = attr store s a.Schema.attr_name in
        Ok ((a.Schema.attr_name, v) :: acc))
      (Ok []) attr_defs
  in
  let* sub_defs = Schema.effective_subclasses schema e.Store.type_name in
  let* snap_subobjs =
    List.fold_left
      (fun acc (sc, _) ->
        let* acc = acc in
        let* ms = subclass_members store s sc.Schema.sc_name in
        Ok ((sc.Schema.sc_name, ms) :: acc))
      (Ok []) sub_defs
  in
  Ok { snap_of = s; snap_attrs = List.rev snap_attrs; snap_subobjs = List.rev snap_subobjs }
