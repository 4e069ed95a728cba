(* A small dense integer per domain, assigned on first use and stable
   for the domain's lifetime.  The metrics registry's histogram shards
   index fixed-size arrays with it, so each domain alone writes its
   slot and hot-path writes need no synchronisation.  Slots are never
   recycled: a process that spawns more than [max_slots] domains
   overflows, and callers must route overflow traffic through their own
   synchronised fallback. *)

let max_slots = 256
let next = Atomic.make 0
let key = Domain.DLS.new_key (fun () -> Atomic.fetch_and_add next 1)
let get () = Domain.DLS.get key
let in_range slot = slot < max_slots
