open Compo_core

let log_src = Logs.Src.create "compo.txn" ~doc:"compo transactions"

module Log = (val Logs.src_log log_src : Logs.LOG)
module Obs = Compo_obs.Metrics

let m_begin = Obs.counter "txn.begin"
let m_commit = Obs.counter "txn.commit"
let m_abort = Obs.counter "txn.abort"

type manager = {
  mg_store : Store.t;
  mg_locks : Lock_manager.t;
  mg_access : Access_control.t;
  mutable mg_next : int;
}

let create_manager ?access store =
  {
    mg_store = store;
    mg_locks = Lock_manager.create ();
    mg_access = Option.value ~default:(Access_control.create ()) access;
    mg_next = 1;
  }

let store_of mg = mg.mg_store
let lock_manager mg = mg.mg_locks
let access_control mg = mg.mg_access

type status = Active | Committed | Aborted

type t = {
  txn_id : int;
  txn_user : string;
  mutable txn_status : status;
  mutable txn_undo : (unit -> unit) list;
  mutable txn_written : (Surrogate.t * string) list;
      (* newest first; recorded for consistency control only at commit:
         an aborted update never happened, so it must not flag inheritors
         for adaptation *)
}

let begin_txn mg ~user =
  let id = mg.mg_next in
  mg.mg_next <- id + 1;
  Obs.incr m_begin;
  Log.info (fun m -> m "begin transaction %d (user %s)" id user);
  { txn_id = id; txn_user = user; txn_status = Active; txn_undo = []; txn_written = [] }

let id txn = txn.txn_id
let user txn = txn.txn_user
let status txn = txn.txn_status
let ( let* ) = Result.bind

let check_active txn =
  match txn.txn_status with
  | Active -> Ok ()
  | Committed | Aborted ->
      Error (Errors.Lock_error (Printf.sprintf "transaction %d is not active" txn.txn_id))

let commit mg txn =
  Compo_obs.Trace.with_span "txn.commit.latency" @@ fun () ->
  let* () = check_active txn in
  Obs.incr m_commit;
  Log.info (fun m -> m "commit transaction %d" txn.txn_id);
  (* the updates are now permanent: record each, in write order, so
     dependent inheritance links read stale (O(1) per write) *)
  List.iter
    (fun (s, attr) -> Store.record_write mg.mg_store s attr)
    (List.rev txn.txn_written);
  txn.txn_written <- [];
  Lock_manager.release_all mg.mg_locks ~txn:txn.txn_id;
  txn.txn_status <- Committed;
  Ok ()

let abort mg txn =
  let* () = check_active txn in
  Obs.incr m_abort;
  Log.info (fun m ->
      m "abort transaction %d (%d undo entries)" txn.txn_id
        (List.length txn.txn_undo));
  (* undo entries were prepended, so the list runs newest-first; each
     goes back through a store mutator, which logs its own precise change
     record *)
  List.iter (fun undo -> undo ()) txn.txn_undo;
  txn.txn_undo <- [];
  txn.txn_written <- [];
  Lock_manager.release_all mg.mg_locks ~txn:txn.txn_id;
  txn.txn_status <- Aborted;
  Ok ()

let push_undo txn f = txn.txn_undo <- f :: txn.txn_undo

(* Acquire a lock for [txn], consulting access control first.  Reads are
   allowed under Read_only; writes need Read_write. *)
let acquire mg txn s mode =
  match Access_control.cap_mode mg.mg_access ~user:txn.txn_user s mode with
  | None ->
      Error
        (Errors.Access_denied
           (Printf.sprintf "user %s may not access %s" txn.txn_user
              (Surrogate.to_string s)))
  | Some capped when Lock.stronger_or_equal capped mode || capped = mode -> (
      match Lock_manager.acquire mg.mg_locks ~txn:txn.txn_id s mode with
      | Ok `Granted -> Ok ()
      | Ok (`Blocked blockers) ->
          Log.debug (fun m ->
              m "transaction %d blocked on %s %a (held by %s)" txn.txn_id
                (Lock.to_string mode) Surrogate.pp s
                (String.concat ", " (List.map string_of_int blockers)));
          Error
            (Errors.Lock_error
               (Printf.sprintf "blocked on %s (held by transaction %s)"
                  (Surrogate.to_string s)
                  (String.concat ", " (List.map string_of_int blockers))))
      | Error e ->
          Log.warn (fun m ->
              m "transaction %d: %s" txn.txn_id (Errors.to_string e));
          Error e)
  | Some _capped ->
      (* the user's rights do not cover the requested mode *)
      Error
        (Errors.Access_denied
           (Printf.sprintf "user %s has read-only access to %s" txn.txn_user
              (Surrogate.to_string s)))

(* Hierarchical (intention) locking: S or X on an entity first takes IS
   or IX on every enclosing complex object, outermost first.  A designer
   holding S on a whole composite thereby conflicts with anyone writing
   one of its subobjects (X under IX), at composite granularity -- the
   behaviour section 6's expansion locking presumes. *)
let owner_chain mg s =
  let rec go acc s =
    match Store.get mg.mg_store s with
    | Ok { Store.owner = Some o; _ } -> go (o :: acc) o
    | Ok _ | Error _ -> acc
  in
  go [] s

let acquire_hier mg txn s mode =
  let intention =
    match mode with
    | Lock.S | Lock.IS -> Lock.IS
    | Lock.X | Lock.IX | Lock.SIX -> Lock.IX
  in
  let* () =
    List.fold_left
      (fun acc ancestor ->
        let* () = acc in
        acquire mg txn ancestor intention)
      (Ok ()) (owner_chain mg s)
  in
  acquire mg txn s mode

(* Run [f] with hooks that lock every entity the operation touches.  Reads
   of inherited data notify per transmitter hop, which is exactly the
   paper's lock inheritance.  Hooks are store-wide state, installed for
   this one call and removed after it: sound because the kernel has a
   single owner, so no other caller's read can run inside the window
   and fire them for a transaction it is not part of. *)
let with_lock_hooks mg txn f =
  let rh =
    Store.add_read_hook mg.mg_store (fun s ->
        match acquire_hier mg txn s Lock.S with
        | Ok () -> ()
        | Error e -> raise (Errors.Compo_error e))
  in
  let wh =
    Store.add_write_hook mg.mg_store (fun s ->
        match acquire_hier mg txn s Lock.X with
        | Ok () -> ()
        | Error e -> raise (Errors.Compo_error e))
  in
  Fun.protect
    ~finally:(fun () ->
      Store.remove_hook mg.mg_store rh;
      Store.remove_hook mg.mg_store wh)
    (fun () -> try f () with Errors.Compo_error e -> Error e)

let get_attr mg txn s name =
  let* () = check_active txn in
  with_lock_hooks mg txn (fun () -> Inheritance.attr mg.mg_store s name)

let subclass_members mg txn s name =
  let* () = check_active txn in
  with_lock_hooks mg txn (fun () -> Inheritance.subclass_members mg.mg_store s name)

(* A store mutator fires its write hook after it has changed the store,
   so a lock the hook is refused would leave the refused write behind
   with no undo: the mutators below take the X lock on the entity they
   notify before they write. *)
let set_attr mg txn s name value =
  let* () = check_active txn in
  let* old = Store.local_attr mg.mg_store s name in
  let* () = acquire_hier mg txn s Lock.X in
  let* () =
    with_lock_hooks mg txn (fun () -> Store.set_attr mg.mg_store s name value)
  in
  txn.txn_written <- (s, name) :: txn.txn_written;
  push_undo txn (fun () -> ignore (Store.set_attr mg.mg_store s name old));
  Ok ()

let created mg txn s =
  (* X-lock the new entity and undo by force-deleting it *)
  let* () = acquire_hier mg txn s Lock.X in
  push_undo txn (fun () -> ignore (Store.delete mg.mg_store ~force:true s));
  Ok s

let new_object mg txn ?cls ~ty ?(attrs = []) () =
  let* () = check_active txn in
  let* s =
    with_lock_hooks mg txn (fun () ->
        Store.create_object mg.mg_store ?cls ~ty attrs)
  in
  created mg txn s

let new_subobject mg txn ~parent ~subclass ?(attrs = []) () =
  let* () = check_active txn in
  let* () = acquire_hier mg txn parent Lock.X in
  let* s =
    with_lock_hooks mg txn (fun () ->
        Store.create_subobject mg.mg_store ~parent ~subclass attrs)
  in
  created mg txn s

let new_subrel mg txn ~parent ~subrel ~participants ?(attrs = []) () =
  let* () = check_active txn in
  let* () = acquire_hier mg txn parent Lock.X in
  let* s =
    with_lock_hooks mg txn (fun () ->
        Store.create_subrel mg.mg_store ~parent ~subrel ~participants ~attrs ())
  in
  created mg txn s

let bind mg txn ~via ~transmitter ~inheritor () =
  let* () = check_active txn in
  let* () = acquire_hier mg txn inheritor Lock.X in
  (* binding makes the inheritor depend on the transmitter's data *)
  let* () = acquire_hier mg txn transmitter Lock.S in
  let* link =
    with_lock_hooks mg txn (fun () ->
        Inheritance.bind mg.mg_store ~via ~transmitter ~inheritor ())
  in
  push_undo txn (fun () -> ignore (Inheritance.unbind mg.mg_store inheritor));
  Ok link

let unbind mg txn inheritor =
  let* () = check_active txn in
  let* () = acquire_hier mg txn inheritor Lock.X in
  let* b = Inheritance.binding_of mg.mg_store inheritor in
  match b with
  | None ->
      Error
        (Errors.Invalid_binding
           (Surrogate.to_string inheritor ^ " is not bound to a transmitter"))
  | Some { Store.b_via; b_transmitter; _ } ->
      let* () =
        with_lock_hooks mg txn (fun () -> Inheritance.unbind mg.mg_store inheritor)
      in
      push_undo txn (fun () ->
          ignore
            (Inheritance.bind mg.mg_store ~via:b_via ~transmitter:b_transmitter
               ~inheritor ()));
      Ok ()

let lock_expansion mg txn ?max_depth root ~mode =
  let* () = check_active txn in
  let nodes = Lock_inheritance.expansion_lock_set ?max_depth mg.mg_store root in
  let rec go acc = function
    | [] -> Ok (List.rev acc)
    | s :: rest -> (
        match Access_control.cap_mode mg.mg_access ~user:txn.txn_user s mode with
        | None ->
            Error
              (Errors.Access_denied
                 (Printf.sprintf "user %s may not access %s in the expansion"
                    txn.txn_user (Surrogate.to_string s)))
        | Some capped -> (
            match Lock_manager.acquire mg.mg_locks ~txn:txn.txn_id s capped with
            | Ok `Granted -> go ((s, capped) :: acc) rest
            | Ok (`Blocked blockers) ->
                Error
                  (Errors.Lock_error
                     (Printf.sprintf "expansion blocked on %s (held by %s)"
                        (Surrogate.to_string s)
                        (String.concat ", " (List.map string_of_int blockers))))
            | Error e -> Error e))
  in
  go [] nodes
