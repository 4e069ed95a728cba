(* Monotonic clock and the traced run's span buffer.

   The benchmark times calls into each layer from outside, with a
   nanosecond monotonic clock.  In a traced run the spans of every
   [sample_every]-th design step also land in an in-memory buffer: a
   name, start and stop, the span that caused it, and the id of the
   design step it belongs to (all spans of one step share it).  The
   buffer has no cap, so recording goes on at the same rate for the
   whole traced phase; sampling keeps it to a few megabytes.  Buffers
   are written out once, when the run ends.  One buffer per client
   thread, so recording never takes a lock. *)

let now () = Int64.to_int (Monotonic_clock.now ())

(* One design step in [sample_every] has its spans recorded. *)
let sample_every = 16

(* Per span, five ints (id, step, parent, start, stop) and a name. *)
let width = 5

type t = {
  on : bool;
  base : int;  (** id prefix, distinct per buffer *)
  mutable next : int;
  mutable steps : int;  (** sampled steps *)
  mutable len : int;
  mutable ints : int array;
  mutable names : string array;
}

let create ~on ~base () =
  let cap = if on then 65_536 else 0 in
  { on; base; next = 0; steps = 0; len = 0; ints = Array.make (cap * width) 0; names = Array.make cap "" }

let fresh_id t =
  t.next <- t.next + 1;
  t.base + t.next

(* The id of the [i]-th design step when it is sampled, else [-1]: the
   spans of an unsampled step are not recorded. *)
let step t i =
  if t.on && i mod sample_every = 0 then begin
    t.steps <- t.steps + 1;
    fresh_id t
  end
  else -1

let grow t =
  let cap = 2 * Array.length t.names in
  let ints = Array.make (cap * width) 0 and names = Array.make cap "" in
  Array.blit t.ints 0 ints 0 (t.len * width);
  Array.blit t.names 0 names 0 t.len;
  t.ints <- ints;
  t.names <- names

let record t ~id ~step ~parent name start_ns stop_ns =
  if t.on && step >= 0 then begin
    if t.len = Array.length t.names then grow t;
    let o = t.len * width in
    t.ints.(o) <- id;
    t.ints.(o + 1) <- step;
    t.ints.(o + 2) <- parent;
    t.ints.(o + 3) <- start_ns;
    t.ints.(o + 4) <- stop_ns;
    t.names.(t.len) <- name;
    t.len <- t.len + 1
  end

(* A child span of [parent] within [step]. *)
let child t ~step ~parent name start_ns stop_ns =
  if t.on && step >= 0 then record t ~id:(fresh_id t) ~step ~parent name start_ns stop_ns

(* One JSON object per line, in recording order within each buffer.
   Returns a report line. *)
let write path ts =
  let oc = open_out path in
  List.iter
    (fun t ->
      for i = 0 to t.len - 1 do
        let f k = t.ints.((i * width) + k) in
        Printf.fprintf oc
          "{\"id\":%d,\"step\":%d,\"parent\":%d,\"name\":%S,\"start_ns\":%d,\"dur_ns\":%d}\n"
          (f 0) (f 1) (f 2) t.names.(i) (f 3) (f 4 - f 3)
      done)
    ts;
  close_out oc;
  let sum f = List.fold_left (fun acc t -> acc + f t) 0 ts in
  Printf.sprintf "spans: %d of %d sampled steps (1 in %d) written to %s" (sum (fun t -> t.len))
    (sum (fun t -> t.steps)) sample_every path
