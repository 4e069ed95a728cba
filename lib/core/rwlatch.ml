(* A read/write latch with writer reentrancy and writer preference.

   Every select holds the latch in read mode for its whole run
   (planning, access stage, filter), so it sees one point-in-time store
   state even with a writer on another domain; every store mutator
   holds it in write mode.  The writer side is reentrant per domain,
   because store mutators nest (delete cascades through
   remove_inheritance_link and itself, transactions wrap mutators in
   hook installation).  Writer preference keeps a steady stream of
   readers on other domains from starving the writer; the price is that
   read sections must not nest — nothing in the kernel nests them (a
   select takes exactly one).

   Reads of [writer] outside the mutex are only ever compared against
   the caller's own domain id: [Some self] can only have been written
   by the caller itself, so the reentrancy fast path is race-free. *)

(* compo_core has its own [Domain] module (the paper's attribute
   domains), so the stdlib one needs its full path here *)
module Sys_domain = Stdlib.Domain
module Metrics = Compo_obs.Metrics

(* Contention profile of the store latch, sibling to the server's
   [server.gate.*] families one layer down.  Only the slow paths are
   timed (the reentrant fast paths take no lock), and only while
   metrics are enabled — the disabled cost stays one load and branch. *)
let h_write_wait = Metrics.histogram "latch.write.wait_seconds"
let h_write_hold = Metrics.histogram "latch.write.hold_seconds"
let h_read_wait = Metrics.histogram "latch.read.wait_seconds"
let h_read_hold = Metrics.histogram "latch.read.hold_seconds"

type t = {
  m : Mutex.t;
  c : Condition.t;
  mutable readers : int;
  mutable writer : Sys_domain.id option;
  mutable write_depth : int;
  mutable waiting_writers : int;
}

let create () =
  {
    m = Mutex.create ();
    c = Condition.create ();
    readers = 0;
    writer = None;
    write_depth = 0;
    waiting_writers = 0;
  }

let held_by_self t = t.writer = Some (Sys_domain.self ())

let with_write t f =
  if held_by_self t then begin
    t.write_depth <- t.write_depth + 1;
    Fun.protect ~finally:(fun () -> t.write_depth <- t.write_depth - 1) f
  end
  else begin
    let timed = Metrics.enabled () in
    let t0 = if timed then Unix.gettimeofday () else 0. in
    Mutex.lock t.m;
    t.waiting_writers <- t.waiting_writers + 1;
    while t.writer <> None || t.readers > 0 do
      Condition.wait t.c t.m
    done;
    t.waiting_writers <- t.waiting_writers - 1;
    t.writer <- Some (Sys_domain.self ());
    t.write_depth <- 1;
    Mutex.unlock t.m;
    let t1 = if timed then Unix.gettimeofday () else 0. in
    if timed then Metrics.observe h_write_wait (t1 -. t0);
    Fun.protect
      ~finally:(fun () ->
        if timed then Metrics.observe h_write_hold (Unix.gettimeofday () -. t1);
        Mutex.lock t.m;
        t.write_depth <- 0;
        t.writer <- None;
        Condition.broadcast t.c;
        Mutex.unlock t.m)
      f
  end

let with_read t f =
  if held_by_self t then f () (* a writer may read inside its section *)
  else begin
    let timed = Metrics.enabled () in
    let t0 = if timed then Unix.gettimeofday () else 0. in
    Mutex.lock t.m;
    while t.writer <> None || t.waiting_writers > 0 do
      Condition.wait t.c t.m
    done;
    t.readers <- t.readers + 1;
    Mutex.unlock t.m;
    let t1 = if timed then Unix.gettimeofday () else 0. in
    if timed then Metrics.observe h_read_wait (t1 -. t0);
    Fun.protect
      ~finally:(fun () ->
        if timed then Metrics.observe h_read_hold (Unix.gettimeofday () -. t1);
        Mutex.lock t.m;
        t.readers <- t.readers - 1;
        if t.readers = 0 then Condition.broadcast t.c;
        Mutex.unlock t.m)
      f
  end
