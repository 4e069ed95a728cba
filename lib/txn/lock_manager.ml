open Compo_core

module Obs = Compo_obs.Metrics

let m_acquire = Obs.counter "lock.acquire"
let m_wait = Obs.counter "lock.wait"
let m_conflict = Obs.counter "lock.conflict"
let m_deadlock = Obs.counter "lock.deadlock"
let m_release = Obs.counter "lock.release"

type txn_id = int

(* The holders of one locked object; pairwise compatible, since a mode is
   only granted when it is compatible with every other holder's. *)
type entry = { obj : Surrogate.t; mutable holders : (txn_id * Lock.mode) list }

type t = {
  table : entry Surrogate.Tbl.t;  (* object -> holders; no empty entries *)
  held : (txn_id, entry list ref) Hashtbl.t;  (* txn -> entries it is in *)
  waiting : (txn_id, txn_id list) Hashtbl.t;  (* waits-for edges *)
}

let create () =
  { table = Surrogate.Tbl.create 256; held = Hashtbl.create 16; waiting = Hashtbl.create 16 }

let holders t s = match Surrogate.Tbl.find_opt t.table s with Some e -> e.holders | None -> []

let holds t ~txn s = List.assoc_opt txn (holders t s)

let locks_of t ~txn =
  match Hashtbl.find_opt t.held txn with
  | None -> []
  | Some es ->
      List.map (fun e -> (e.obj, List.assoc txn e.holders)) !es
      |> List.sort (fun (a, _) (b, _) -> Surrogate.compare b a)

let lock_count t =
  Surrogate.Tbl.fold (fun _ e acc -> acc + List.length e.holders) t.table 0

let waits_for t ~txn = Option.value ~default:[] (Hashtbl.find_opt t.waiting txn)

(* cycle detection in the waits-for graph: does an edge out of [txn] lead
   back to it?  Each transaction is expanded at most once. *)
let would_deadlock t ~txn =
  let visited = Hashtbl.create 16 in
  let rec leads_back from =
    from = txn
    || (not (Hashtbl.mem visited from))
       && (Hashtbl.replace visited from ();
           List.exists leads_back (waits_for t ~txn:from))
  in
  List.exists leads_back (waits_for t ~txn)

(* a grant ends any wait of [txn]; the table is empty in the common case *)
let granted t ~txn =
  if Hashtbl.length t.waiting > 0 then Hashtbl.remove t.waiting txn;
  Ok `Granted

let join t ~txn e =
  match Hashtbl.find_opt t.held txn with
  | Some es -> es := e :: !es
  | None -> Hashtbl.add t.held txn (ref [ e ])

let acquire t ~txn s mode =
  Obs.incr m_acquire;
  match Surrogate.Tbl.find_opt t.table s with
  | None ->
      let e = { obj = s; holders = [ (txn, mode) ] } in
      Surrogate.Tbl.add t.table s e;
      join t ~txn e;
      granted t ~txn
  | Some e -> (
      let held = List.assoc_opt txn e.holders in
      match held with
      | Some h when Lock.stronger_or_equal h mode -> granted t ~txn
      | _ -> (
          let requested = match held with Some h -> Lock.supremum h mode | None -> mode in
          let blocker_ids =
            List.filter_map
              (fun (id, m) -> if id <> txn && not (Lock.compatible requested m) then Some id else None)
              e.holders
          in
          match blocker_ids with
          | [] ->
              e.holders <- (txn, requested) :: List.remove_assoc txn e.holders;
              if Option.is_none held then join t ~txn e;
              granted t ~txn
          | _ ->
              Obs.incr m_conflict;
              Hashtbl.replace t.waiting txn blocker_ids;
              if would_deadlock t ~txn then begin
                Obs.incr m_deadlock;
                Hashtbl.remove t.waiting txn;
                Error
                  (Errors.Lock_error
                     (Printf.sprintf
                        "deadlock: transaction %d waiting for %s on %s closes a cycle"
                        txn (Lock.to_string mode) (Surrogate.to_string s)))
              end
              else begin
                Obs.incr m_wait;
                Ok (`Blocked blocker_ids)
              end))

let acquire_exn t ~txn s mode =
  match acquire t ~txn s mode with
  | Ok `Granted -> ()
  | Ok (`Blocked blockers) ->
      raise
        (Errors.Compo_error
           (Errors.Lock_error
              (Printf.sprintf "transaction %d blocked on %s (held by %s)" txn
                 (Surrogate.to_string s)
                 (String.concat ", " (List.map string_of_int blockers)))))
  | Error e -> raise (Errors.Compo_error e)

let release_all t ~txn =
  Obs.incr m_release;
  (match Hashtbl.find_opt t.held txn with
  | None -> ()
  | Some es ->
      Hashtbl.remove t.held txn;
      List.iter
        (fun e ->
          e.holders <- List.remove_assoc txn e.holders;
          match e.holders with [] -> Surrogate.Tbl.remove t.table e.obj | _ :: _ -> ())
        !es);
  if Hashtbl.length t.waiting > 0 then begin
    Hashtbl.remove t.waiting txn;
    (* drop waits-for edges pointing at the finished transaction *)
    Hashtbl.filter_map_inplace (fun _ bs -> Some (List.filter (fun b -> b <> txn) bs)) t.waiting
  end
