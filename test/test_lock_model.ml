(* Model-based test of the lock table: random sequences of acquire and
   release_all over a few transactions and objects, checked step by step
   against a reference model kept here — the straightforward list-based
   table (holders as an association list per object, a waits-for table
   rebuilt on release, a list-based visited set for deadlock detection). *)

open Compo_core
open Compo_txn

module Model = struct
  type t = {
    table : (int * Lock.mode) list ref Surrogate.Tbl.t;
    held : (int, Surrogate.Set.t ref) Hashtbl.t;
    waiting : (int, int list) Hashtbl.t;
  }

  let create () =
    { table = Surrogate.Tbl.create 16; held = Hashtbl.create 16; waiting = Hashtbl.create 16 }

  let holders t s =
    match Surrogate.Tbl.find_opt t.table s with Some l -> !l | None -> []

  let holds t ~txn s = List.assoc_opt txn (holders t s)

  let locks_of t ~txn =
    match Hashtbl.find_opt t.held txn with
    | None -> []
    | Some set ->
        Surrogate.Set.fold
          (fun s acc -> match holds t ~txn s with Some m -> (s, m) :: acc | None -> acc)
          !set []

  let lock_count t = Surrogate.Tbl.fold (fun _ l acc -> acc + List.length !l) t.table 0
  let waits_for t ~txn = Option.value ~default:[] (Hashtbl.find_opt t.waiting txn)

  let would_deadlock t ~txn =
    let rec reachable visited from =
      if List.mem from visited then visited
      else List.fold_left reachable (from :: visited) (waits_for t ~txn:from)
    in
    List.mem txn (List.fold_left reachable [] (waits_for t ~txn))

  let record_entry t ~txn s mode =
    let cell =
      match Surrogate.Tbl.find_opt t.table s with
      | Some l -> l
      | None ->
          let l = ref [] in
          Surrogate.Tbl.replace t.table s l;
          l
    in
    cell := (txn, mode) :: List.remove_assoc txn !cell;
    let set =
      match Hashtbl.find_opt t.held txn with
      | Some set -> set
      | None ->
          let set = ref Surrogate.Set.empty in
          Hashtbl.replace t.held txn set;
          set
    in
    set := Surrogate.Set.add s !set

  let acquire t ~txn s mode =
    let others = List.filter (fun (id, _) -> id <> txn) (holders t s) in
    let requested =
      match holds t ~txn s with Some held -> Lock.supremum held mode | None -> mode
    in
    match List.filter (fun (_, m) -> not (Lock.compatible requested m)) others with
    | [] ->
        Hashtbl.remove t.waiting txn;
        record_entry t ~txn s requested;
        Ok `Granted
    | blockers ->
        let blocker_ids = List.map fst blockers in
        Hashtbl.replace t.waiting txn blocker_ids;
        if would_deadlock t ~txn then begin
          Hashtbl.remove t.waiting txn;
          Error
            (Errors.Lock_error
               (Printf.sprintf "deadlock: transaction %d waiting for %s on %s closes a cycle"
                  txn (Lock.to_string mode) (Surrogate.to_string s)))
        end
        else Ok (`Blocked blocker_ids)

  let release_all t ~txn =
    (match Hashtbl.find_opt t.held txn with
    | None -> ()
    | Some set ->
        Surrogate.Set.iter
          (fun s ->
            match Surrogate.Tbl.find_opt t.table s with
            | None -> ()
            | Some cell ->
                cell := List.remove_assoc txn !cell;
                if !cell = [] then Surrogate.Tbl.remove t.table s)
          !set);
    Hashtbl.remove t.held txn;
    Hashtbl.remove t.waiting txn;
    Hashtbl.iter
      (fun waiter blockers ->
        if List.mem txn blockers then
          Hashtbl.replace t.waiting waiter (List.filter (fun b -> b <> txn) blockers))
      (Hashtbl.copy t.waiting)
end

type op = Acquire of int * int * Lock.mode | Release of int

let modes = [ Lock.IS; Lock.IX; Lock.S; Lock.SIX; Lock.X ]

let show_op = function
  | Acquire (txn, obj, m) -> Printf.sprintf "acquire t%d o%d %s" txn obj (Lock.to_string m)
  | Release txn -> Printf.sprintf "release t%d" txn

(* 3-4 transactions, 4-6 objects; acquires outnumber releases so locks
   pile up and conflicts, waits and deadlocks all occur *)
let gen_case =
  let open QCheck.Gen in
  let* txns = int_range 3 4 in
  let* objs = int_range 4 6 in
  let op =
    frequency
      [
        (6, map3 (fun t o m -> Acquire (t, o, m)) (int_bound (txns - 1)) (int_bound (objs - 1)) (oneofl modes));
        (1, map (fun t -> Release t) (int_bound (txns - 1)));
      ]
  in
  let* ops = list_size (int_range 1 60) op in
  return (txns, objs, ops)

let arb_case =
  QCheck.make gen_case ~print:(fun (txns, objs, ops) ->
      Printf.sprintf "%d txns, %d objects: %s" txns objs (String.concat "; " (List.map show_op ops)))

let sorted_ids = List.sort compare
let sorted_holders l = List.sort compare (List.map (fun (id, m) -> (id, Lock.to_string m)) l)
let show_locks l = List.map (fun (s, m) -> (Surrogate.to_int s, Lock.to_string m)) l

let show_result = function
  | Ok `Granted -> "granted"
  | Ok (`Blocked ids) -> "blocked " ^ String.concat "," (List.map string_of_int (sorted_ids ids))
  | Error e -> Errors.to_string e

(* Replays [ops] on the lock table and the model, failing on the first
   step where they disagree; returns the acquire outcomes. *)
let replay (txns, objs, ops) =
  let lm = Lock_manager.create () and model = Model.create () in
  let obj i = Surrogate.of_int (100 + i) in
  let agree step op =
    let fail what = QCheck.Test.fail_reportf "step %d (%s): %s differs" step (show_op op) what in
    if Lock_manager.lock_count lm <> Model.lock_count model then fail "lock_count";
    for txn = 0 to txns - 1 do
      if show_locks (Lock_manager.locks_of lm ~txn) <> show_locks (Model.locks_of model ~txn) then
        fail (Printf.sprintf "locks_of t%d" txn);
      if sorted_ids (Lock_manager.waits_for lm ~txn) <> sorted_ids (Model.waits_for model ~txn) then
        fail (Printf.sprintf "waits_for t%d" txn);
      for o = 0 to objs - 1 do
        if Lock_manager.holds lm ~txn (obj o) <> Model.holds model ~txn (obj o) then
          fail (Printf.sprintf "holds t%d o%d" txn o)
      done
    done;
    for o = 0 to objs - 1 do
      if sorted_holders (Lock_manager.holders lm (obj o)) <> sorted_holders (Model.holders model (obj o))
      then fail (Printf.sprintf "holders o%d" o)
    done
  in
  List.concat
    (List.mapi
       (fun step op ->
         let outcome =
           match op with
           | Acquire (txn, o, m) ->
               let got = show_result (Lock_manager.acquire lm ~txn (obj o) m)
               and want = show_result (Model.acquire model ~txn (obj o) m) in
               if got <> want then
                 QCheck.Test.fail_reportf "step %d (%s): acquire gave %s, model %s" step
                   (show_op op) got want;
               [ got ]
           | Release txn ->
               Lock_manager.release_all lm ~txn;
               Model.release_all model ~txn;
               []
         in
         agree step op;
         outcome)
       ops)

let prop_matches_model =
  QCheck.Test.make ~name:"lock table agrees with the list-based model" ~count:500 arb_case
    (fun case ->
      ignore (replay case);
      true)

(* the generator must reach every outcome, or the property proves little *)
let test_generator_reaches_every_outcome () =
  let rand = Random.State.make [| 14 |] in
  let outcomes = List.concat_map (fun _ -> replay (gen_case rand)) (List.init 200 Fun.id) in
  let seen prefix = List.exists (fun o -> Helpers.contains o prefix) outcomes in
  Helpers.check_bool "grants" true (seen "granted");
  Helpers.check_bool "waits" true (seen "blocked");
  Helpers.check_bool "deadlocks" true (seen "deadlock")

let suite =
  ( "lock-model",
    [
      QCheck_alcotest.to_alcotest prop_matches_model;
      Helpers.case "generator reaches grants, waits and deadlocks"
        test_generator_reaches_every_outcome;
    ] )
