(* Raw samples and exact order statistics.

   Latencies are kept as integer nanoseconds, one per call, and
   percentiles are read off the sorted samples (nearest rank), never from
   histogram buckets: a bucketed p99 reports a bucket edge, not a
   latency. *)

type t = { mutable data : int array; mutable len : int }

let create () = { data = Array.make 1024 0; len = 0 }

let add t v =
  if t.len = Array.length t.data then begin
    let d = Array.make (max 16 (2 * t.len)) 0 in
    Array.blit t.data 0 d 0 t.len;
    t.data <- d
  end;
  t.data.(t.len) <- v;
  t.len <- t.len + 1

let count t = t.len

let sum t =
  let s = ref 0 in
  for i = 0 to t.len - 1 do
    s := !s + t.data.(i)
  done;
  !s

let append ~into src =
  for i = 0 to src.len - 1 do
    add into src.data.(i)
  done

(* The samples added between the [lo]-th and the [hi]-th, in order. *)
let slice t ~lo ~hi = { data = Array.sub t.data lo (hi - lo); len = hi - lo }

let merge ts =
  let m = create () in
  List.iter (fun t -> append ~into:m t) ts;
  m

(* Nearest rank: the smallest sample with at least [num/den] of all
   samples at or below it.  Integer arithmetic, so p99 of 100 samples is
   exactly the 99th and not a float-rounding neighbour. *)
let rank_index ~n ~num ~den = max 0 (min (n - 1) ((((num * n) + den - 1) / den) - 1))

let percentile_sorted a ~num ~den =
  let n = Array.length a in
  if n = 0 then nan else float_of_int a.(rank_index ~n ~num ~den)

let sorted t =
  let a = Array.sub t.data 0 t.len in
  Array.sort Int.compare a;
  a

type summary = { n : int; mean : float; p50 : float; p99 : float }

let summarize t =
  let a = sorted t in
  {
    n = t.len;
    mean = (if t.len = 0 then nan else float_of_int (sum t) /. float_of_int t.len);
    p50 = percentile_sorted a ~num:50 ~den:100;
    p99 = percentile_sorted a ~num:99 ~den:100;
  }

(* Median of a few floats (repeated set-up times); the mean of the two
   middle values when the count is even. *)
let median = function
  | [] -> nan
  | xs ->
      let a = Array.of_list xs in
      Array.sort Float.compare a;
      let n = Array.length a in
      if n mod 2 = 1 then a.(n / 2) else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.

let us_of_ns ns = ns /. 1000.

(* [num / den], or [0.] when nothing was counted: a layer a workload does
   not call has done no work there. *)
let ratio num den = if den = 0. then 0. else num /. den
