module Obs = Compo_obs.Metrics
module Trace = Compo_obs.Trace

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

(* Like its store, the cache has a single owner (see {!Store}): the
   generation, the floors and the table are plain mutable state. *)
type t = {
  mutable rc_enabled : bool;
  rc_capacity : int;  (* entry bound *)
  mutable rc_gen : int;  (* bumped by every invalidation *)
  mutable rc_floor : int;  (* entries filled before this are dead *)
  rc_floors : int Surrogate.Tbl.t;  (* per-source floors (scoped bumps) *)
  rc_table : entry Ktbl.t;
}

let create ?(capacity = 65536) ?enabled () =
  {
    rc_enabled = Option.value ~default:!default enabled;
    rc_capacity = max 1 capacity;
    rc_gen = 0;
    rc_floor = 0;
    rc_floors = Surrogate.Tbl.create 64;
    rc_table = Ktbl.create 256;
  }

let enabled t = t.rc_enabled
let size t = Ktbl.length t.rc_table
let capacity t = t.rc_capacity
let generation t = t.rc_gen

let sync_gauge t =
  if Obs.enabled () then Obs.set_gauge g_size (float_of_int (size t))

let clear t =
  Ktbl.reset t.rc_table;
  Surrogate.Tbl.reset t.rc_floors;
  t.rc_floor <- t.rc_gen;
  sync_gauge t

let set_enabled t b =
  if t.rc_enabled && not b then clear t;
  t.rc_enabled <- b

let floor_of t s =
  match Surrogate.Tbl.find_opt t.rc_floors s with
  | Some f -> max f t.rc_floor
  | None -> t.rc_floor

let find t s name =
  if not t.rc_enabled then None
  else begin
    Obs.incr m_lookup;
    match Ktbl.find_opt t.rc_table (s, name) with
    | Some e when e.e_gen >= floor_of t e.e_src ->
        Obs.incr m_hit;
        Some e.e_value
    | Some _ ->
        (* dead entry: sweep it lazily so capacity tracks live data *)
        Ktbl.remove t.rc_table (s, name);
        sync_gauge t;
        Obs.incr m_miss;
        None
    | None ->
        Obs.incr m_miss;
        None
  end

let fill t ~gen ~src s name v =
  if t.rc_enabled && gen >= floor_of t src then begin
    (* epoch eviction: a full table starts over *)
    if Ktbl.length t.rc_table >= t.rc_capacity then Ktbl.reset t.rc_table;
    Ktbl.replace t.rc_table (s, name) { e_value = v; e_gen = gen; e_src = src };
    sync_gauge t
  end

(* Invalidation is a no-op while disabled: nothing fills a disabled cache,
   and re-enabling starts from a cleared table (see {!set_enabled}). *)
let invalidate_scoped t s =
  if t.rc_enabled then
    Trace.with_span "inheritance.cache.invalidation"
      ~attrs:[ ("scope", "scoped") ]
    @@ fun () ->
    t.rc_gen <- t.rc_gen + 1;
    Surrogate.Tbl.replace t.rc_floors s t.rc_gen;
    Obs.incr m_invalidate_scoped

let invalidate_global t =
  if t.rc_enabled then
    Trace.with_span "inheritance.cache.invalidation"
      ~attrs:[ ("scope", "global") ]
    @@ fun () ->
    t.rc_gen <- t.rc_gen + 1;
    clear t;
    Obs.incr m_invalidate_global
