module Obs = Compo_obs.Metrics
module Trace = Compo_obs.Trace
module Domain_slot = Compo_obs.Domain_slot

let m_lookup = Obs.counter "inheritance.cache.lookup"
let m_hit = Obs.counter "inheritance.cache.hit"
let m_miss = Obs.counter "inheritance.cache.miss"

(* churn attribution: scoped bumps (attribute writes) are the cheap,
   common case — one floor per write; global bumps (structural change)
   clear the whole table *)
let m_invalidate_scoped = Obs.counter "inheritance.cache.invalidate.scoped"
let m_invalidate_global = Obs.counter "inheritance.cache.invalidate.global"
let g_size = Obs.gauge "inheritance.cache.size"

let lookups () = Obs.count m_lookup
let hits () = Obs.count m_hit
let misses () = Obs.count m_miss
let invalidations_scoped () = Obs.count m_invalidate_scoped
let invalidations_global () = Obs.count m_invalidate_global
let invalidations () = invalidations_scoped () + invalidations_global ()

let truthy = function "1" | "true" | "yes" -> true | _ -> false

let default =
  ref
    (match Sys.getenv_opt "COMPO_NO_RESOLVE_CACHE" with
    | Some v -> not (truthy v)
    | None -> true)

let default_enabled () = !default
let set_default_enabled b = default := b

module Key = struct
  type t = Surrogate.t * string

  let equal (s1, a1) (s2, a2) = Surrogate.equal s1 s2 && String.equal a1 a2
  let hash (s, a) = (Surrogate.hash s * 31) + Hashtbl.hash a
end

module Ktbl = Hashtbl.Make (Key)

(* [e_src] is the chain end the value came from: the entity whose own
   attribute was read, or the unbound end that yielded [Null].  The value
   depends on nothing else but the structure, which only global bumps
   change, so the entry lives exactly as long as its source's floor. *)
type entry = { e_value : Value.t; e_gen : int; e_src : Surrogate.t }

(* Domain safety: the generation and global floor are atomics — the
   pre-fix code read-modify-wrote plain ints, so concurrent
   invalidations lost bumps and a racing fill could publish under a
   floor it never saw (the "global-generation read/write race").  The
   entry table is sharded per domain: each domain fills and sweeps only
   its own hash table, so fills on reader domains never contend and
   never corrupt a shared table.  Source floors ([rc_floors]) are only
   written by store mutators, which the store serialises against readers
   (its write latch), so a plain table read-only during read sections
   is sound.  [clear] walks every shard and is likewise only
   called from write-side paths. *)
type t = {
  mutable rc_enabled : bool;
  rc_capacity : int;  (* per-shard entry bound *)
  rc_gen : int Atomic.t;  (* bumped by every invalidation *)
  rc_floor : int Atomic.t;  (* entries filled before this are dead *)
  rc_floors : int Surrogate.Tbl.t;  (* per-source floors (scoped bumps) *)
  rc_shards : entry Ktbl.t option Atomic.t array;  (* per-domain tables *)
}

let create ?(capacity = 65536) ?enabled () =
  {
    rc_enabled = Option.value ~default:!default enabled;
    rc_capacity = max 1 capacity;
    rc_gen = Atomic.make 0;
    rc_floor = Atomic.make 0;
    rc_floors = Surrogate.Tbl.create 64;
    rc_shards = Array.init Domain_slot.max_slots (fun _ -> Atomic.make None);
  }

let enabled t = t.rc_enabled

let fold_shards t f acc =
  Array.fold_left
    (fun acc slot ->
      match Atomic.get slot with Some tbl -> f acc tbl | None -> acc)
    acc t.rc_shards

let size t = fold_shards t (fun acc tbl -> acc + Ktbl.length tbl) 0
let capacity t = t.rc_capacity
let generation t = Atomic.get t.rc_gen

(* The caller's own shard; [None] for a domain past the slot space,
   which simply runs uncached. *)
let own_shard t =
  let slot = Domain_slot.get () in
  if not (Domain_slot.in_range slot) then None
  else
    match Atomic.get t.rc_shards.(slot) with
    | Some _ as s -> s
    | None ->
        let tbl = Ktbl.create 256 in
        Atomic.set t.rc_shards.(slot) (Some tbl);
        Some tbl

let sync_gauge t =
  if Obs.enabled () then Obs.set_gauge g_size (float_of_int (size t))

let clear t =
  Array.iter
    (fun slot -> match Atomic.get slot with
      | Some tbl -> Ktbl.reset tbl
      | None -> ())
    t.rc_shards;
  Surrogate.Tbl.reset t.rc_floors;
  Atomic.set t.rc_floor (Atomic.get t.rc_gen);
  sync_gauge t

let set_enabled t b =
  if t.rc_enabled && not b then clear t;
  t.rc_enabled <- b

let floor_of t s =
  match Surrogate.Tbl.find_opt t.rc_floors s with
  | Some f -> max f (Atomic.get t.rc_floor)
  | None -> Atomic.get t.rc_floor

let find t s name =
  if not t.rc_enabled then None
  else begin
    Obs.incr m_lookup;
    match own_shard t with
    | None ->
        Obs.incr m_miss;
        None
    | Some tbl -> (
        match Ktbl.find_opt tbl (s, name) with
        | Some e when e.e_gen >= floor_of t e.e_src ->
            Obs.incr m_hit;
            Some e.e_value
        | Some _ ->
            (* dead entry: sweep it lazily so capacity tracks live data *)
            Ktbl.remove tbl (s, name);
            sync_gauge t;
            Obs.incr m_miss;
            None
        | None ->
            Obs.incr m_miss;
            None)
  end

let fill t ~gen ~src s name v =
  if t.rc_enabled && gen >= floor_of t src then
    match own_shard t with
    | None -> ()
    | Some tbl ->
        if Ktbl.length tbl >= t.rc_capacity then
          (* epoch-evict this shard only: another domain's table is
             never touched from here *)
          Ktbl.reset tbl;
        (* re-check: an invalidation may have raced the walk *)
        if gen >= floor_of t src then begin
          Ktbl.replace tbl (s, name) { e_value = v; e_gen = gen; e_src = src };
          sync_gauge t
        end

(* Invalidation is a no-op while disabled: nothing fills a disabled cache,
   and re-enabling starts from a cleared table (see {!set_enabled}). *)
let invalidate_scoped t s =
  if t.rc_enabled then
    Trace.with_span "inheritance.cache.invalidation"
      ~attrs:[ ("scope", "scoped") ]
    @@ fun () ->
    let gen = Atomic.fetch_and_add t.rc_gen 1 + 1 in
    Surrogate.Tbl.replace t.rc_floors s gen;
    Obs.incr m_invalidate_scoped

let invalidate_global t =
  if t.rc_enabled then
    Trace.with_span "inheritance.cache.invalidation"
      ~attrs:[ ("scope", "global") ]
    @@ fun () ->
    ignore (Atomic.fetch_and_add t.rc_gen 1);
    clear t;
    Obs.incr m_invalidate_global
