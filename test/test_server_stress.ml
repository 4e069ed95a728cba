(* Checked-history server stress: make stress-check.

   An in-process compo-server serves a population of inherited chains
   (a root owning [A], bound inheritors resolving it).  Several client
   sessions, one thread each, send random designer operations over the
   wire: transactions (begin, reads, writes, commit or abort),
   autocommit reads and writes, and selects.  Each session owns some
   chains; a few more are shared.  A session writes the roots of its own
   chains in and out of transactions, and the shared roots only inside
   transactions, so writers of a shared root race for its X lock: the
   loser is refused, and the order in which the winners commit decides
   the root's final value.  Every write uses a value no other write
   uses, and every (request, response) is recorded with its invoke and
   return times.  The histories are then checked:

   - a session's reads of its own chains, and its selects, match its
     model (committed values plus its own open transaction's writes);
   - a successful transactional read of another session's or a shared
     chain, which lock inheritance S-locks hop by hop, returns the
     reader's own uncommitted write to that chain if it made one, and
     otherwise a value that was committed before the read returned:
     never another session's uncommitted or aborted one;
   - an autocommit read returns some value written to that chain;
   - a serial replay of all sessions' committed transactions, in commit
     order, on a fresh in-process database, agrees with the history:
     each committed transaction's reads of shared chains (other than
     of its own writes) see the replayed state at its commit, and at
     the end every object read back over the wire equals the replayed
     one, with no aborted value left;
   - the store's invariants and the plan's self-check hold.

   Exits non-zero on any violation.  [--seed N] fixes the operation
   mix (interleavings still vary); the seed is printed. *)

open Compo_core
module Metrics = Compo_obs.Metrics
module Server = Compo_net.Server
module Client = Compo_net.Client

let failures = ref 0
let fail_mu = Mutex.create ()

let failf fmt =
  Printf.ksprintf
    (fun s ->
      Mutex.protect fail_mu (fun () ->
          incr failures;
          if !failures <= 20 then print_endline ("FAIL " ^ s)))
    fmt

let ok what = function
  | Ok v -> v
  | Error e ->
      Printf.printf "FATAL: %s: %s\n" what (Errors.to_string e);
      exit 2

let cok what = function
  | Ok v -> v
  | Error e ->
      Printf.printf "FATAL: %s: %s\n" what (Client.error_to_string e);
      exit 2

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* Population: [chains] roots of type N0 own [A]; each transmits it down
   [depth] bound inheritors.  Everything lives in class "Pop".  [build]
   returns each chain as its members, root first. *)

let ty k = "N" ^ string_of_int k
let rel k = "AllOf_N" ^ string_of_int k

let schema db ~depth =
  let* () =
    Database.define_obj_type db
      {
        Schema.ot_name = ty 0;
        ot_inheritor_in = None;
        ot_attrs = [ { Schema.attr_name = "A"; attr_domain = Domain.Integer } ];
        ot_subclasses = [];
        ot_subrels = [];
        ot_constraints = [];
      }
  in
  let rec go k =
    if k >= depth then Ok ()
    else
      let* () =
        Database.define_inher_rel_type db
          {
            Schema.it_name = rel k;
            it_transmitter = ty k;
            it_inheritor = Some (ty (k + 1));
            it_inheriting = [ "A" ];
            it_attrs = [];
            it_subclasses = [];
            it_constraints = [];
          }
      in
      let* () =
        Database.define_obj_type db
          {
            Schema.ot_name = ty (k + 1);
            ot_inheritor_in = Some (rel k);
            ot_attrs = [];
            ot_subclasses = [];
            ot_subrels = [];
            ot_constraints = [];
          }
      in
      go (k + 1)
  in
  let* () = go 0 in
  Database.create_class db ~name:"Pop" ~member_type:(ty 0)

let initial i = -(i + 1)

let build db ~chains ~depth =
  let* () = schema db ~depth in
  let rec chain parent k acc =
    if k > depth then Ok (List.rev acc)
    else
      let* s = Database.new_object db ~cls:"Pop" ~ty:(ty k) () in
      let* (_ : Surrogate.t) =
        Database.bind db ~via:(rel (k - 1)) ~transmitter:parent ~inheritor:s ()
      in
      chain s (k + 1) (s :: acc)
  in
  let rec mk i acc =
    if i >= chains then Ok (Array.of_list (List.rev acc))
    else
      let* root =
        Database.new_object db ~cls:"Pop" ~ty:(ty 0)
          ~attrs:[ ("A", Value.Int (initial i)) ]
          ()
      in
      let* rest = chain root 1 [] in
      mk (i + 1) (Array.of_list (root :: rest) :: acc)
  in
  mk 0 []

(* ------------------------------------------------------------------ *)
(* Histories *)

type op =
  | Begin
  | Commit
  | Abort
  | Get of { chain : int; obj : Surrogate.t; mine : int option }
      (* [mine]: the reader's own open write to [chain], if any *)
  | Set of { chain : int; v : int }
  | Select of { chain : int; v : int }

type outcome = Done | Value of int | Rows of Surrogate.t list | Refused of string

type event = { op : op; in_txn : bool; inv : float; ret : float; out : outcome }

(* What became of one write: committed (from [at], the invoke time of
   the commit or of the autocommit write), aborted, or left open. *)
type fate = Committed of float | Aborted | Open

(* A committed transaction: its commit's invoke time, its writes in
   order, and its reads of shared chains that did not see its own write,
   as (chain, value). *)
type committed = { at : float; writes : (int * int) list; reads : (int * int) list }

type session = {
  sid : int;
  mutable history : event list;  (* newest first *)
  mutable txns : committed list;  (* newest first *)
  fates : (int, int * fate) Hashtbl.t;  (* value -> chain, fate *)
}

let value_of sid counter = ((sid + 1) * 1_000_000) + counter

let run_session ~socket ~steps ~seed ~chains ~shared ~owner sess =
  let rng = Random.State.make [| seed; sess.sid |] in
  let c = cok "connect" (Client.connect ~user:(Printf.sprintf "s%d" sess.sid) socket) in
  let n = Array.length chains in
  let own = List.filter (fun i -> owner i = sess.sid) (List.init n Fun.id) |> Array.of_list in
  let others = List.filter (fun i -> owner i <> sess.sid) (List.init n Fun.id) |> Array.of_list in
  let committed = Hashtbl.create 8 in
  Array.iter (fun i -> Hashtbl.replace committed i (initial i)) own;
  let pending = Hashtbl.create 8 in
  let in_txn = ref false in
  let txn_writes = ref [] in  (* the open transaction's, newest first *)
  let txn_reads = ref [] in  (* its shared-chain reads, newest first *)
  let counter = ref 0 in
  let expect i =
    match Hashtbl.find_opt pending i with
    | Some v -> v
    | None -> Hashtbl.find committed i
  in
  let pick a = a.(Random.State.int rng (Array.length a)) in
  let member i = pick chains.(i) in
  let record op f =
    let inv = Unix.gettimeofday () in
    let out = f () in
    let ret = Unix.gettimeofday () in
    sess.history <- { op; in_txn = !in_txn; inv; ret; out } :: sess.history;
    (inv, out)
  in
  let refused what = function
    | Client.Remote msg -> Refused msg
    | e ->
        Printf.printf "FATAL: session %d: %s: %s\n" sess.sid what
          (Client.error_to_string e);
        exit 2
  in
  let get i =
    let obj = member i in
    let mine = if !in_txn then Hashtbl.find_opt pending i else None in
    let out =
      snd
        (record (Get { chain = i; obj; mine }) (fun () ->
             match Client.get_attr c obj "A" with
             | Ok (Value.Int v) -> Value v
             | Ok v -> Refused ("non-integer value " ^ Value.to_string v)
             | Error e -> refused "get" e))
    in
    (match out with
    | Value v when !in_txn && mine = None && owner i < 0 -> txn_reads := (i, v) :: !txn_reads
    | _ -> ());
    out
  in
  let check_own i = function
    | Value v when v <> expect i ->
        failf "session %d read %d on its own chain %d, model says %d" sess.sid v
          i (expect i)
    | Refused msg ->
        failf "session %d: read of its own chain %d refused: %s" sess.sid i msg
    | _ -> ()
  in
  let set i =
    incr counter;
    let v = value_of sess.sid !counter in
    let inv, out =
      record (Set { chain = i; v }) (fun () ->
          match Client.set_attr c chains.(i).(0) "A" (Value.Int v) with
          | Ok () -> Done
          | Error e -> refused "set" e)
    in
    match out with
    | Done when !in_txn ->
        Hashtbl.replace pending i v;
        txn_writes := (i, v) :: !txn_writes;
        Hashtbl.replace sess.fates v (i, Open)
    | Done ->
        Hashtbl.replace committed i v;
        Hashtbl.replace sess.fates v (i, Committed inv);
        sess.txns <- { at = inv; writes = [ (i, v) ]; reads = [] } :: sess.txns
    | _ -> ()
  in
  let finish commit =
    let inv, out =
      record (if commit then Commit else Abort) (fun () ->
          match if commit then Client.commit c else Client.abort c with
          | Ok () -> Done
          | Error e -> refused "commit/abort" e)
    in
    in_txn := false;
    let writes = List.rev !txn_writes in
    (match out with
    | Done when commit ->
        List.iter
          (fun (i, v) ->
            Hashtbl.replace committed i v;
            Hashtbl.replace sess.fates v (i, Committed inv))
          writes;
        if writes <> [] || !txn_reads <> [] then
          sess.txns <- { at = inv; writes; reads = List.rev !txn_reads } :: sess.txns
    | Done -> List.iter (fun (i, v) -> Hashtbl.replace sess.fates v (i, Aborted)) writes
    | _ -> failf "session %d: %s refused" sess.sid (if commit then "commit" else "abort"));
    txn_writes := [];
    txn_reads := [];
    Hashtbl.reset pending
  in
  for _ = 1 to steps do
    let r = Random.State.int rng 100 in
    if r < 35 then begin
      (match record Begin (fun () ->
                 match Client.begin_txn c with
                 | Ok () -> Done
                 | Error e -> refused "begin" e) with
      | _, Done -> in_txn := true
      | _ -> failf "session %d: begin refused" sess.sid);
      for _ = 1 to 1 + Random.State.int rng 4 do
        match Random.State.int rng 10 with
        | k when k < 3 ->
            let i = pick own in
            check_own i (get i)
        | k when k < 6 -> ignore (get (pick others))
        | k when k < 8 -> set (pick own)
        | _ -> set (pick shared)
      done;
      finish (Random.State.int rng 4 > 0)
    end
    else if r < 65 then begin
      if Random.State.bool rng then
        let i = pick own in
        check_own i (get i)
      else ignore (get (pick others))
    end
    else if r < 80 then set (pick own)
    else begin
      let i = pick own in
      let v = expect i in
      let where = Expr.(path [ "A" ] = int v) in
      let _, out =
        record (Select { chain = i; v }) (fun () ->
            match Client.select c ~cls:"Pop" ~where () with
            | Ok rows -> Rows rows
            | Error e -> refused "select" e)
      in
      let sorted l = List.sort Surrogate.compare l in
      match out with
      | Rows rows when sorted rows <> sorted (Array.to_list chains.(i)) ->
          failf "session %d: select A = %d returned %d row(s), chain %d has %d"
            sess.sid v (List.length rows) i (Array.length chains.(i))
      | Refused msg -> failf "session %d: select refused: %s" sess.sid msg
      | _ -> ()
    end
  done;
  Client.close c

(* ------------------------------------------------------------------ *)

let () =
  let seed =
    match Array.to_list Sys.argv with
    | [ _; "--seed"; n ] -> int_of_string n
    | _ -> int_of_float (Unix.gettimeofday () *. 1000.) land 0xffff
  in
  let sessions = 4 and per_session = 3 and nshared = 2 and depth = 3 and steps = 6000 in
  let nowned = sessions * per_session in
  let nchains = nowned + nshared in
  (* chains past [nowned] are shared: owner -1 is no session *)
  let owner i = if i < nowned then i mod sessions else -1 in
  let shared = Array.init nshared (fun k -> nowned + k) in
  Metrics.enable ();
  let db = Database.create () in
  let chains = ok "build" (build db ~chains:nchains ~depth) in
  let socket = Filename.temp_file "compo-stress" ".sock" in
  Sys.remove socket;
  let srv = Server.start (Server.default_config ~socket_path:socket) db in
  let sess =
    Array.init sessions (fun sid ->
        { sid; history = []; txns = []; fates = Hashtbl.create 256 })
  in
  let t0 = Unix.gettimeofday () in
  let threads =
    Array.map
      (fun s ->
        Thread.create (run_session ~socket ~steps ~seed ~chains ~shared ~owner) s)
      sess
  in
  Array.iter Thread.join threads;
  let wall = Unix.gettimeofday () -. t0 in

  (* what every value's writer made of it *)
  let fate_of v =
    if v < 0 then Some (-v - 1, Committed neg_infinity)
    else
      let sid = (v / 1_000_000) - 1 in
      if sid < 0 || sid >= sessions then None
      else Hashtbl.find_opt sess.(sid).fates v
  in
  let other_reads = ref 0 and conflicts = ref 0 and requests = ref 0 in
  let commits = ref 0 and aborts = ref 0 and selects = ref 0 in
  let shared_refused = ref 0 in
  Array.iter
    (fun s ->
      List.iter
        (fun e ->
          incr requests;
          match (e.op, e.out) with
          | Commit, Done -> incr commits
          | Abort, Done -> incr aborts
          | Select _, Rows _ -> incr selects
          | Set { chain; _ }, Refused _ when owner chain < 0 ->
              incr conflicts;
              incr shared_refused
          | Get _, Refused _ | Set _, Refused _ -> incr conflicts
          | Get { chain; mine = Some p; _ }, Value v when owner chain <> s.sid ->
              if v <> p then
                failf "session %d read %d on chain %d, its own open write was %d" s.sid
                  v chain p
          | Get { chain; _ }, Value v when owner chain <> s.sid -> (
              match fate_of v with
              | Some (i, _) when i <> chain ->
                  failf "session %d read %d on chain %d: a value of chain %d" s.sid
                    v chain i
              | None ->
                  failf "session %d read %d on chain %d: nobody wrote it" s.sid v
                    chain
              | Some (_, fate) when e.in_txn -> (
                  incr other_reads;
                  match fate with
                  | Committed at when at < e.ret -> ()
                  | Committed _ ->
                      failf
                        "session %d: transactional read of chain %d returned %d \
                         before its writer committed"
                        s.sid chain v
                  | Aborted ->
                      failf
                        "session %d: transactional read of chain %d returned the \
                         aborted value %d"
                        s.sid chain v
                  | Open ->
                      failf
                        "session %d: transactional read of chain %d returned the \
                         never-committed value %d"
                        s.sid chain v)
              | Some _ -> ())
          | _ -> ())
        s.history)
    sess;

  (* the final state over the wire *)
  let checker = cok "connect" (Client.connect ~user:"checker" socket) in
  let final =
    Array.map
      (Array.map (fun obj ->
           match Client.get_attr checker obj "A" with
           | Ok (Value.Int v) -> v
           | Ok v -> failwith ("non-integer final value " ^ Value.to_string v)
           | Error e -> failwith (Client.error_to_string e)))
      chains
  in
  Client.close checker;
  Server.stop srv;
  if Sys.file_exists socket then Sys.remove socket;

  (* the loop is joined: this domain owns the kernel again *)
  let store = Database.store db in
  List.iter (failf "invariant: %s") (Store.check_invariants store);
  List.iter (failf "plan: %s") (Plan.self_check store);

  (* serial replay of every session's committed transactions, in the
     order of their commits' invoke times.  Shared roots are written only
     under X locks and read only under S locks, each held to commit, so
     two transactions that touched the same shared root in conflicting
     modes are ordered by it: the later one could lock the root only
     after the earlier commit released it.  Each transaction's shared
     reads must therefore see the replayed state at its commit. *)
  let replay = Database.create () in
  let rchains = ok "replay build" (build replay ~chains:nchains ~depth) in
  let root_value i =
    match ok "replay read" (Database.get_attr replay rchains.(i).(0) "A") with
    | Value.Int v -> v
    | v -> failwith ("non-integer replay value " ^ Value.to_string v)
  in
  let txns =
    Array.to_list sess
    |> List.concat_map (fun s -> s.txns)
    |> List.stable_sort (fun a b -> Float.compare a.at b.at)
  in
  let shared_reads = ref 0 in
  List.iter
    (fun t ->
      List.iter
        (fun (i, v) ->
          incr shared_reads;
          let want = root_value i in
          if v <> want then
            failf "a transaction committed at %.6f read %d on shared chain %d, serial \
                   replay has %d there"
              t.at v i want)
        t.reads;
      List.iter
        (fun (i, v) -> ok "replay" (Database.set_attr replay rchains.(i).(0) "A" (Value.Int v)))
        t.writes)
    txns;
  Array.iteri
    (fun i members ->
      Array.iteri
        (fun k obj ->
          let want =
            match ok "replay read" (Database.get_attr replay obj "A") with
            | Value.Int v -> v
            | v -> failwith ("non-integer replay value " ^ Value.to_string v)
          in
          let got = final.(i).(k) in
          if got <> want then
            failf "chain %d member %d: server has %d, serial replay %d" i k got want;
          match fate_of got with
          | Some (_, Committed _) -> ()
          | Some (_, (Aborted | Open)) ->
              failf "chain %d member %d: the uncommitted value %d survived" i k got
          | None -> failf "chain %d member %d: unknown final value %d" i k got)
        members)
    rchains;

  (* the run exercised what it claims to check *)
  if !commits = 0 then failf "no transaction committed";
  if !aborts = 0 then failf "no transaction aborted";
  if !other_reads = 0 then failf "no transactional read of another session's chain";
  let shared_writers =
    Array.to_list shared
    |> List.filter (fun i ->
           Array.to_list sess
           |> List.filter (fun s -> List.exists (fun t -> List.mem_assoc i t.writes) s.txns)
           |> List.length >= 2)
  in
  if shared_writers = [] then failf "no shared root had commits from two sessions";
  if !shared_refused = 0 then failf "no write to a shared root was refused its lock";
  if !shared_reads = 0 then failf "no committed transaction read a shared chain";
  if !selects = 0 then failf "no select completed";
  Printf.printf
    "server-stress: seed %d, %d sessions, %d requests in %.2f s, %d commit(s), \
     %d abort(s), %d refused (lock conflicts), %d transactional read(s) of \
     other sessions' chains, %d refused shared write(s), %d committed shared \
     read(s) replayed, %d select(s), %d failure(s)\n"
    seed sessions !requests wall !commits !aborts !conflicts !other_reads
    !shared_refused !shared_reads !selects !failures;
  Metrics.disable ();
  exit (if !failures > 0 then 1 else 0)
