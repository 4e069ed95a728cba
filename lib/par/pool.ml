(* A hand-rolled domain pool: stdlib Domain/Atomic/Mutex/Condition
   only.  One process-wide pool, one batch queue.  Workers peek the
   head batch and race the submitter on its atomic cursor; an
   exhausted head is popped and the next batch surfaces.  The
   submitter always helps, so progress never depends on pool workers
   being free — in particular several domains may submit batches
   concurrently (the stress test's reader domains all do). *)

module Metrics = Compo_obs.Metrics

let m_tasks = Metrics.counter "par.tasks"
let m_chunks = Metrics.counter "par.chunks"
let m_steals = Metrics.counter "par.chunks.stolen"
let h_merge = Metrics.histogram "par.merge.seconds"
let g_busy = Metrics.gauge "par.busy.ratio"
let g_workers = Metrics.gauge "par.workers"

let max_jobs = 64

(* strict validation for front ends: zero, negative and non-numeric job
   counts are user errors there, not silent fallbacks to 1 *)
let parse_jobs raw =
  let raw = String.trim raw in
  match int_of_string_opt raw with
  | Some n when n >= 1 -> Ok (min n max_jobs)
  | Some _ | None ->
      Error (Printf.sprintf "must be a positive integer (got '%s')" raw)

let env_jobs () =
  match Sys.getenv_opt "COMPO_JOBS" with
  | None -> Ok None
  | Some raw -> Result.map Option.some (parse_jobs raw)

let default_jobs () =
  match Sys.getenv_opt "COMPO_JOBS" with
  | Some v -> (
      match int_of_string_opt (String.trim v) with
      | Some n when n >= 1 -> min n max_jobs
      | Some _ | None -> 1)
  | None -> 1

let effective_jobs = function
  | Some j -> max 1 (min j max_jobs)
  | None -> default_jobs ()

let available_cores () = Domain.recommended_domain_count ()

(* ------------------------------------------------------------------ *)
(* Batches                                                             *)

type batch = {
  b_tasks : (unit -> unit) array;
  b_times : float array;        (* per-task busy seconds, disjoint slots *)
  b_next : int Atomic.t;        (* next task index to claim *)
  b_done : int Atomic.t;        (* tasks finished *)
  b_total : int;
  b_error : exn option Atomic.t;
  b_m : Mutex.t;
  b_c : Condition.t;
  mutable b_finished : bool;
}

let exec_task b i =
  let t0 = Unix.gettimeofday () in
  (try b.b_tasks.(i) ()
   with e -> ignore (Atomic.compare_and_set b.b_error None (Some e)));
  b.b_times.(i) <- Unix.gettimeofday () -. t0;
  let finished = Atomic.fetch_and_add b.b_done 1 + 1 in
  if finished = b.b_total then begin
    Mutex.lock b.b_m;
    b.b_finished <- true;
    Condition.broadcast b.b_c;
    Mutex.unlock b.b_m
  end

(* ------------------------------------------------------------------ *)
(* The pool                                                            *)

let pm = Mutex.create ()
let pc = Condition.create ()
let queue : batch Queue.t = Queue.create ()
let handles : unit Domain.t list ref = ref [] (* guarded by [pm] *)
let stopping = ref false (* guarded by [pm] *)

let rec worker_loop () =
  Mutex.lock pm;
  while Queue.is_empty queue && not !stopping do
    Condition.wait pc pm
  done;
  if Queue.is_empty queue then Mutex.unlock pm (* stopping: exit *)
  else begin
    let b = Queue.peek queue in
    let i = Atomic.fetch_and_add b.b_next 1 in
    if i >= b.b_total then begin
      (* exhausted head; pop it (unless a peer already did) *)
      (match Queue.peek_opt queue with
      | Some b' when b' == b -> ignore (Queue.pop queue)
      | _ -> ());
      Mutex.unlock pm
    end
    else begin
      Mutex.unlock pm;
      Metrics.incr m_steals;
      exec_task b i
    end;
    worker_loop ()
  end

let ensure_workers n =
  Mutex.lock pm;
  if !stopping then stopping := false;
  while List.length !handles < min n (max_jobs - 1) do
    handles := Domain.spawn worker_loop :: !handles
  done;
  Metrics.set_gauge g_workers (float_of_int (List.length !handles));
  Mutex.unlock pm

let shutdown () =
  Mutex.lock pm;
  stopping := true;
  let hs = !handles in
  handles := [];
  Condition.broadcast pc;
  Mutex.unlock pm;
  List.iter Domain.join hs

let () = at_exit shutdown

let run ~jobs tasks =
  let total = Array.length tasks in
  if total = 0 then ()
  else if jobs <= 1 || total = 1 then Array.iter (fun f -> f ()) tasks
  else begin
    let b =
      {
        b_tasks = tasks;
        b_times = Array.make total 0.;
        b_next = Atomic.make 0;
        b_done = Atomic.make 0;
        b_total = total;
        b_error = Atomic.make None;
        b_m = Mutex.create ();
        b_c = Condition.create ();
        b_finished = false;
      }
    in
    Metrics.incr m_tasks;
    Metrics.add m_chunks total;
    ensure_workers (min jobs max_jobs - 1);
    let t0 = Unix.gettimeofday () in
    Mutex.lock pm;
    Queue.push b queue;
    Condition.broadcast pc;
    Mutex.unlock pm;
    (* help: race the workers on the cursor *)
    let rec help () =
      let i = Atomic.fetch_and_add b.b_next 1 in
      if i < total then begin
        exec_task b i;
        help ()
      end
    in
    help ();
    Mutex.lock b.b_m;
    while not b.b_finished do
      Condition.wait b.b_c b.b_m
    done;
    Mutex.unlock b.b_m;
    if Metrics.enabled () then begin
      let wall = Unix.gettimeofday () -. t0 in
      let busy = Array.fold_left ( +. ) 0. b.b_times in
      if wall > 0. then
        Metrics.set_gauge g_busy (busy /. (wall *. float_of_int jobs))
    end;
    match Atomic.get b.b_error with Some e -> raise e | None -> ()
  end

(* ------------------------------------------------------------------ *)
(* Deterministic order-preserving filter                               *)

let min_chunk = 16
let chunks_per_job = 4

let filter_list ~jobs pred xs =
  if jobs <= 1 then List.filter pred xs
  else begin
    let arr = Array.of_list xs in
    let len = Array.length arr in
    let nchunks =
      max 1 (min (jobs * chunks_per_job) ((len + min_chunk - 1) / min_chunk))
    in
    if nchunks <= 1 then List.filter pred xs
    else begin
      let results = Array.make nchunks [] in
      let base = len / nchunks and extra = len mod nchunks in
      (* chunk k covers [start k, start (k+1)): first [extra] chunks get
         one element more, so sizes differ by at most one *)
      let start k = (k * base) + min k extra in
      let tasks =
        Array.init nchunks (fun k () ->
            let lo = start k and hi = start (k + 1) in
            let kept = ref [] in
            for i = hi - 1 downto lo do
              if pred arr.(i) then kept := arr.(i) :: !kept
            done;
            results.(k) <- !kept)
      in
      run ~jobs tasks;
      let t0 = Unix.gettimeofday () in
      let out = List.concat (Array.to_list results) in
      Metrics.observe h_merge (Unix.gettimeofday () -. t0);
      out
    end
  end

(* side-effecting fan-out over [0, n): same chunk arithmetic as the
   filters, one call of [f lo hi] per chunk so the caller loops inside
   it; used by the plan layer to fill materialized-column cells and to
   mark the rows of a compiled scan in parallel (each index owns a
   distinct result slot, so no merge) *)
let iter_range ~jobs n f =
  if jobs <= 1 || n < 2 * min_chunk then f 0 n
  else begin
    let nchunks =
      max 1 (min (jobs * chunks_per_job) ((n + min_chunk - 1) / min_chunk))
    in
    if nchunks <= 1 then f 0 n
    else begin
      let base = n / nchunks and extra = n mod nchunks in
      let start k = (k * base) + min k extra in
      let tasks = Array.init nchunks (fun k () -> f (start k) (start (k + 1))) in
      run ~jobs tasks
    end
  end

