open Compo_core

let ( let* ) = Result.bind

module Obs = Compo_obs.Metrics

let m_violations = Obs.counter "recovery.fsck.violations"

let sorted_surs ss = List.sort Surrogate.compare ss

let surs_equal a b =
  List.equal Surrogate.equal (sorted_surs a) (sorted_surs b)

let check_db db =
  let store = Database.store db in
  let schema = Database.schema db in
  let problems = ref [] in
  let say fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  List.iter (fun s -> say "%s" s) (Store.check_invariants store);
  (* surrogate continuity: replay hands out surrogates sequentially, so a
     live surrogate above the generator's high-water mark means the next
     create would collide with it *)
  let high_water = Surrogate.Gen.current (Store.generator store) in
  Store.iter store (fun e ->
      if Surrogate.to_int e.Store.id > high_water then
        say "surrogate %s is live above the generator high-water mark %d"
          (Surrogate.to_string e.Store.id)
          high_water;
      if Option.is_none (Schema.find schema e.Store.type_name) then
        say "%s has unknown type %s"
          (Surrogate.to_string e.Store.id)
          e.Store.type_name);
  List.iter (fun s -> say "%s" s) (Database.verify_indexes db);
  let found = List.rev !problems in
  Obs.add m_violations (List.length found);
  found

(* Semantic comparison against an oracle.  Local state is compared
   field-by-field; inherited values are compared as the application sees
   them, by resolving every effective attribute down the binding chain on
   both sides. *)
let diff ~oracle db =
  let ost = Database.store oracle and dst = Database.store db in
  let problems = ref [] in
  let say fmt = Printf.ksprintf (fun s -> problems := s :: !problems) fmt in
  let ids st = Store.fold st (fun acc e -> e.Store.id :: acc) [] in
  let oracle_ids = sorted_surs (ids ost) and db_ids = sorted_surs (ids dst) in
  List.iter
    (fun s ->
      if not (Store.mem dst s) then
        say "missing entity %s" (Surrogate.to_string s))
    oracle_ids;
  List.iter
    (fun s ->
      if not (Store.mem ost s) then
        say "extra entity %s" (Surrogate.to_string s))
    db_ids;
  let o_high = Surrogate.Gen.current (Store.generator ost) in
  let d_high = Surrogate.Gen.current (Store.generator dst) in
  if o_high <> d_high then
    say "surrogate generator at %d, oracle at %d" d_high o_high;
  (* entity-local state *)
  Store.iter ost (fun oe ->
      match Store.get dst oe.Store.id with
      | Error _ -> () (* reported as missing above *)
      | Ok de ->
          let id = Surrogate.to_string oe.Store.id in
          if not (String.equal oe.Store.type_name de.Store.type_name) then
            say "%s: type %s, oracle %s" id de.Store.type_name
              oe.Store.type_name;
          if not (Store.Smap.equal Value.equal oe.Store.attrs de.Store.attrs)
          then say "%s: local attributes diverge from oracle" id;
          if
            not
              (Store.Smap.equal Value.equal oe.Store.participants
                 de.Store.participants)
          then say "%s: participants diverge from oracle" id;
          if not (Store.Smap.equal surs_equal oe.Store.subobjs de.Store.subobjs)
          then say "%s: subobject classes diverge from oracle" id;
          if not (Store.Smap.equal surs_equal oe.Store.subrels de.Store.subrels)
          then say "%s: subrelationship classes diverge from oracle" id;
          if not (Option.equal Surrogate.equal oe.Store.owner de.Store.owner)
          then say "%s: owner diverges from oracle" id;
          (match (oe.Store.bound, de.Store.bound) with
          | None, None -> ()
          | Some ob, Some db_b
            when Surrogate.equal ob.Store.b_link db_b.Store.b_link
                 && String.equal ob.Store.b_via db_b.Store.b_via
                 && Surrogate.equal ob.Store.b_transmitter
                      db_b.Store.b_transmitter -> ()
          | Some _, None -> say "%s: binding lost" id
          | None, Some _ -> say "%s: spurious binding" id
          | Some _, Some _ -> say "%s: binding diverges from oracle" id);
          if not (surs_equal oe.Store.inheritor_links de.Store.inheritor_links)
          then say "%s: inheritor links diverge from oracle" id;
          if
            not
              (List.equal String.equal
                 (List.sort String.compare oe.Store.classes_of)
                 (List.sort String.compare de.Store.classes_of))
          then say "%s: class memberships diverge from oracle" id;
          (* consistency control: staleness is derived, not stored in the
             link, so compare it as the application reads it *)
          (if oe.Store.kind = Store.Inheritance_link then
             let pair f = (f oracle oe.Store.id, f db oe.Store.id) in
             (match pair Database.is_stale with
             | Ok o, Ok d when o <> d ->
                 say "%s: stale %b, oracle %b" id d o
             | _ -> ());
             match pair Database.stale_note with
             | Ok o, Ok d when not (String.equal o d) ->
                 say "%s: stale note %S, oracle %S" id d o
             | _ -> ());
          (* resolved values: what a read actually answers, chasing the
             binding chain through the schema's permeability rules *)
          match Schema.effective_attrs (Database.schema oracle) oe.Store.type_name with
          | Error _ -> ()
          | Ok eff ->
              List.iter
                (fun ({ Schema.attr_name; _ }, _) ->
                  match
                    ( Database.get_attr oracle oe.Store.id attr_name,
                      Database.get_attr db oe.Store.id attr_name )
                  with
                  | Ok ov, Ok dv when Value.equal ov dv -> ()
                  | Ok ov, Ok dv ->
                      say "%s.%s resolves to %s, oracle %s" id attr_name
                        (Value.to_string dv) (Value.to_string ov)
                  | Ok _, Error _ -> say "%s.%s no longer resolves" id attr_name
                  | Error _, Ok _ ->
                      say "%s.%s resolves but the oracle's does not" id
                        attr_name
                  | Error _, Error _ -> ())
                eff);
  (* class extents *)
  let o_classes = List.sort String.compare (Store.class_names ost) in
  let d_classes = List.sort String.compare (Store.class_names dst) in
  List.iter
    (fun c ->
      if not (List.mem c d_classes) then say "missing class %s" c)
    o_classes;
  List.iter
    (fun c ->
      if not (List.mem c o_classes) then say "extra class %s" c)
    d_classes;
  List.iter
    (fun c ->
      match (Store.class_members ost c, Store.class_members dst c) with
      | Ok om, Ok dm when surs_equal om dm -> ()
      | Ok _, Ok _ -> say "class %s extent diverges from oracle" c
      | _ -> ())
    o_classes;
  (* schema: replay re-executes the same definitions, so the stored entries
     must match structurally *)
  let entry_name = function
    | Schema.Obj_type o -> o.Schema.ot_name
    | Schema.Rel_type r -> r.Schema.rt_name
    | Schema.Inher_type i -> i.Schema.it_name
  in
  let by_name s =
    List.sort
      (fun a b -> String.compare (entry_name a) (entry_name b))
      (Schema.entries s)
  in
  let o_entries = by_name (Database.schema oracle) in
  let d_entries = by_name (Database.schema db) in
  if List.length o_entries <> List.length d_entries then
    say "schema has %d entries, oracle %d" (List.length d_entries)
      (List.length o_entries)
  else
    List.iter2
      (fun oe de ->
        if oe <> de then say "schema entry %s diverges from oracle" (entry_name oe))
      o_entries d_entries;
  List.rev !problems

type report = {
  fr_dir : string;
  fr_entities : int;
  fr_epoch : int;
  fr_replayed : int;
  fr_clean : bool;
  fr_stale_wal : bool;
  fr_violations : string list;
}

let check_dir dir =
  let* j = Journal.open_dir dir in
  let report =
    {
      fr_dir = dir;
      fr_entities = Store.entity_count (Database.store (Journal.db j));
      fr_epoch = Journal.wal_epoch j;
      fr_replayed = Journal.wal_records_replayed j;
      fr_clean = Journal.recovered_clean j;
      fr_stale_wal = Journal.recovered_from_stale_wal j;
      fr_violations = check_db (Journal.db j);
    }
  in
  Journal.close j;
  Ok report

let pp_report ppf r =
  Format.fprintf ppf "%s: %d entities, epoch %d, %d WAL records replayed@."
    r.fr_dir r.fr_entities r.fr_epoch r.fr_replayed;
  if r.fr_stale_wal then
    Format.fprintf ppf "note: discarded a stale pre-checkpoint WAL@.";
  if not r.fr_clean then
    Format.fprintf ppf "note: skipped a torn WAL tail@.";
  match r.fr_violations with
  | [] -> Format.fprintf ppf "ok: no violations@."
  | vs ->
      List.iter (fun v -> Format.fprintf ppf "violation: %s@." v) vs;
      Format.fprintf ppf "FAILED: %d violations@." (List.length vs)
