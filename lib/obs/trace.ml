type span = {
  sp_name : string;
  sp_attrs : (string * string) list;
  sp_depth : int;
  sp_start : float;
  sp_duration : float;
}

(* ring buffer: [ring.(i)] is valid for the last [min total capacity]
   writes, [pos] is the next write slot.  All ring and slow-log state
   is guarded by [m]: spans are recorded from worker domains, and an
   unguarded push races on [pos] (lost records, duplicated slots).
   Nesting depth is per-domain — a span on one domain is not "inside"
   a span running concurrently on another. *)
let m = Mutex.create ()
let ring = ref (Array.make 512 None)
let pos = ref 0
let total = ref 0

let with_lock f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let depth_key = Domain.DLS.new_key (fun () -> ref 0)
let current_depth () = !(Domain.DLS.get depth_key)

let threshold = ref infinity
let slow_threshold () = !threshold
let set_slow_threshold t = threshold := t

(* Trace context: the id of the designer operation the running code is
   serving, stamped onto every span recorded while set.  One global
   slot, deliberately not DLS: the kernel has a single owner, and the
   server's loop sets and clears it around each request (the CLI is
   single-threaded), so there is never more than one writer. *)
let trace_slot = ref None
let set_current_trace id = trace_slot := id
let current_trace () = !trace_slot

(* Environment configuration is injectable so tests can exercise the
   parsing without mutating the process environment. *)
let configure_from_env ?(getenv = Sys.getenv_opt) () =
  (match getenv "COMPO_SLOW_MS" with
  | Some v -> (
      match float_of_string_opt v with
      | Some ms when ms >= 0. -> threshold := ms /. 1000.
      | Some _ | None -> ())
  | None -> ());
  match getenv "COMPO_TRACE_CAPACITY" with
  | Some v -> (
      match int_of_string_opt v with
      | Some n when n > 0 ->
          with_lock (fun () ->
              ring := Array.make n None;
              pos := 0;
              total := 0)
      | Some _ | None -> ())
  | None -> ()

let slow_capacity = 256
let slow = ref [] (* newest first, clipped to slow_capacity *)
let slow_count = ref 0

let clear () =
  with_lock (fun () ->
      Array.fill !ring 0 (Array.length !ring) None;
      pos := 0;
      total := 0;
      slow := [];
      slow_count := 0)

let set_capacity n =
  if n <= 0 then invalid_arg "Compo_obs.Trace.set_capacity";
  with_lock (fun () ->
      ring := Array.make n None;
      pos := 0;
      total := 0)

let record sp =
  with_lock (fun () ->
      let buf = !ring in
      buf.(!pos) <- Some sp;
      pos := (!pos + 1) mod Array.length buf;
      incr total;
      if sp.sp_duration >= !threshold then begin
        slow := sp :: !slow;
        incr slow_count;
        if !slow_count > slow_capacity then begin
          (* clip the oldest half rather than one-at-a-time *)
          slow := List.filteri (fun i _ -> i < slow_capacity) !slow;
          slow_count := slow_capacity
        end
      end)

(* the current trace context rides along as a ["trace"] attribute, so a
   kernel span recorded while the server serves a request carries the
   id of the wire request that caused it *)
let stamp_trace attrs =
  match !trace_slot with
  | None -> attrs
  | Some id -> ("trace", id) :: attrs

let with_span ?(attrs = []) name f =
  if not (Metrics.enabled ()) then f ()
  else begin
    let depth = Domain.DLS.get depth_key in
    let d = !depth in
    depth := d + 1;
    let t0 = Unix.gettimeofday () in
    let finish () =
      let dt = Unix.gettimeofday () -. t0 in
      depth := d;
      record
        { sp_name = name; sp_attrs = stamp_trace attrs; sp_depth = d;
          sp_start = t0; sp_duration = dt };
      Metrics.observe (Metrics.histogram name) dt
    in
    match f () with
    | v ->
        finish ();
        v
    | exception e ->
        finish ();
        raise e
  end

(* externally timed span: ring only, no histogram feed — callers that
   measure their own wait/hold intervals observe their own histogram
   families and use this purely to make the interval reconstructable
   in the span ring (with the trace attribute) *)
let note ?(attrs = []) name ~start ~duration =
  if Metrics.enabled () then
    record
      { sp_name = name; sp_attrs = stamp_trace attrs;
        sp_depth = current_depth (); sp_start = start; sp_duration = duration }

let recent () =
  with_lock (fun () ->
      let buf = !ring in
      let n = Array.length buf in
      let rec go acc i remaining =
        (* walks newest to oldest, prepending: [acc] ends up oldest-first *)
        if remaining = 0 then acc
        else
          let i = (i - 1 + n) mod n in
          match buf.(i) with
          | None -> acc
          | Some sp -> go (sp :: acc) i (remaining - 1)
      in
      List.rev (go [] !pos (min !total n)))

let recorded () = with_lock (fun () -> !total)
let slow_ops () = with_lock (fun () -> !slow)

let pp_span fmt sp =
  Format.fprintf fmt "%*s%s %.1fus%s" (2 * sp.sp_depth) "" sp.sp_name
    (sp.sp_duration *. 1e6)
    (match sp.sp_attrs with
    | [] -> ""
    | attrs ->
        " {"
        ^ String.concat ", " (List.map (fun (k, v) -> k ^ "=" ^ v) attrs)
        ^ "}")

let pp_spans fmt spans =
  List.iter (fun sp -> Format.fprintf fmt "%a@." pp_span sp) spans
