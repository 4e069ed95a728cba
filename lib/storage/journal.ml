open Compo_core

let log_src = Logs.Src.create "compo.journal" ~doc:"compo durability"

module Log = (val Logs.src_log log_src : Logs.LOG)
module Failpoint = Compo_faults.Failpoint

let ( let* ) = Result.bind

let m_checkpoint = Compo_obs.Metrics.counter "journal.checkpoint"
let m_recover = Compo_obs.Metrics.counter "recovery.open"
let m_replayed = Compo_obs.Metrics.counter "recovery.records.replayed"
let m_torn = Compo_obs.Metrics.counter "recovery.torn_tail"
let m_stale = Compo_obs.Metrics.counter "recovery.stale_wal"

(* Crash points around recovery itself (recovery must be re-runnable: it
   only reads until the channel swap at the very end) and around the
   checkpoint's snapshot-then-truncate sequence. *)
let fp_open_before_replay = Failpoint.register "journal.open.before_replay"
let fp_open_mid_replay = Failpoint.register "journal.open.mid_replay"
let fp_open_after_replay = Failpoint.register "journal.open.after_replay"
let fp_ckpt_begin = Failpoint.register "journal.checkpoint.begin"
let fp_ckpt_before_truncate = Failpoint.register "journal.checkpoint.before_truncate"
let fp_ckpt_after_truncate = Failpoint.register "journal.checkpoint.after_truncate"

type t = {
  dir : string;
  jdb : Database.t;
  mutable chan : Out_channel.t;
  mutable epoch : int;
  lock_fd : Unix.file_descr;
  lock_key : int * int;
  clean : bool;
  replayed : int;
  stale_wal : bool;
}

let snapshot_path dir = Filename.concat dir "snapshot.bin"
let wal_path dir = Filename.concat dir "wal.log"
let lock_path dir = Filename.concat dir "LOCK"

(* Directories open in this process, keyed by the lock file's (dev, ino).
   POSIX record locks do not conflict within one process, so the table is
   what makes a second [open_dir] on the same directory fail instead of
   silently double-writing the log. *)
let open_dirs : (int * int, unit) Hashtbl.t = Hashtbl.create 8

let acquire_lock dir =
  let path = lock_path dir in
  match Unix.openfile path [ Unix.O_CREAT; Unix.O_RDWR ] 0o644 with
  | exception Unix.Unix_error (err, _, _) ->
      Error (Errors.Io_error (path ^ ": " ^ Unix.error_message err))
  | fd -> (
      let st = Unix.fstat fd in
      let key = (st.Unix.st_dev, st.Unix.st_ino) in
      if Hashtbl.mem open_dirs key then begin
        Unix.close fd;
        Error
          (Errors.Io_error
             (dir ^ " is already open as a journal in this process"))
      end
      else
        match Unix.lockf fd Unix.F_TLOCK 0 with
        | () ->
            Hashtbl.replace open_dirs key ();
            Ok (fd, key)
        | exception Unix.Unix_error _ ->
            Unix.close fd;
            Error
              (Errors.Io_error
                 (dir ^ " is locked by another journal process")))

let release_lock fd key =
  Hashtbl.remove open_dirs key;
  try Unix.close fd with Unix.Unix_error _ -> ()

let open_dir dir =
  Compo_obs.Trace.with_span "journal.recover" @@ fun () ->
  let* () =
    match Sys.is_directory dir with
    | true -> Ok ()
    | false -> Error (Errors.Io_error (dir ^ " exists and is not a directory"))
    | exception Sys_error _ -> (
        match Sys.mkdir dir 0o755 with
        | () -> Ok ()
        | exception Sys_error msg -> Error (Errors.Io_error msg))
  in
  let* lock_fd, lock_key = acquire_lock dir in
  (* everything below must release the lock on failure — including a
     simulated crash raised by a recovery failpoint *)
  let guarded =
    try
      Compo_obs.Metrics.incr m_recover;
      (* a checkpoint that crashed mid-save can leave a torn temporary
         behind; it was never renamed, so it holds nothing durable *)
      let tmp = snapshot_path dir ^ ".tmp" in
      if Sys.file_exists tmp then Sys.remove tmp;
      let* db, snap_epoch =
        if Sys.file_exists (snapshot_path dir) then
          Snapshot.load_with_epoch (snapshot_path dir)
        else Ok (Database.create (), 0)
      in
      let* () = Failpoint.guard fp_open_before_replay in
      let { Wal.rp_epoch; rp_records; rp_clean; rp_clean_bytes } =
        Wal.read_file (wal_path dir)
      in
      (* the log continues exactly one snapshot generation; any other
         epoch is a leftover from before a checkpoint whose truncation the
         crash outran, and replaying it against the newer snapshot would
         diverge *)
      let records, clean, stale_wal =
        match rp_epoch with
        | None -> ([], rp_clean, false)
        | Some e when e = snap_epoch -> (rp_records, rp_clean, false)
        | Some _ -> ([], true, true)
      in
      let* replayed =
        List.fold_left
          (fun acc r ->
            let* n = acc in
            Failpoint.hit fp_open_mid_replay;
            let* () = Wal.apply db r in
            Ok (n + 1))
          (Ok 0) records
      in
      Failpoint.hit fp_open_after_replay;
      Compo_obs.Metrics.add m_replayed replayed;
      if stale_wal then begin
        Compo_obs.Metrics.incr m_stale;
        Log.warn (fun m ->
            m "%s: stale pre-checkpoint WAL discarded during recovery" dir)
      end;
      if not clean then begin
        Compo_obs.Metrics.incr m_torn;
        Log.warn (fun m -> m "%s: torn WAL tail skipped during recovery" dir)
      end;
      Log.info (fun m -> m "%s: recovered (%d WAL records replayed)" dir replayed);
      (* a fresh, stale, or corrupt-headered log restarts at the snapshot's
         epoch; a matching log is extended in place — after cutting off any
         corrupt tail, or the records appended next would sit behind it,
         invisible to the next recovery *)
      let needs_restart = stale_wal || rp_epoch = None in
      let chan =
        if needs_restart then begin
          let chan =
            Out_channel.open_gen
              [ Open_wronly; Open_trunc; Open_creat; Open_binary ]
              0o644 (wal_path dir)
          in
          Wal.write_header chan ~epoch:snap_epoch;
          chan
        end
        else begin
          if not clean then Unix.truncate (wal_path dir) rp_clean_bytes;
          Out_channel.open_gen
            [ Open_wronly; Open_append; Open_creat; Open_binary ]
            0o644 (wal_path dir)
        end
      in
      Ok
        {
          dir;
          jdb = db;
          chan;
          epoch = snap_epoch;
          lock_fd;
          lock_key;
          clean;
          replayed;
          stale_wal;
        }
    with e ->
      release_lock lock_fd lock_key;
      raise e
  in
  (match guarded with
  | Ok _ -> ()
  | Error _ -> release_lock lock_fd lock_key);
  guarded

let db t = t.jdb
let recovered_clean t = t.clean
let recovered_from_stale_wal t = t.stale_wal
let wal_records_replayed t = t.replayed
let wal_epoch t = t.epoch
let log t r = Wal.append t.chan r

(* Log-before-apply: validate the operation dry against the database
   first where cheap, then append the record, then apply.  For creating
   operations the surrogate is only known after applying, so those are
   applied first and logged with the produced surrogate; the apply and the
   append sit in the same critical step, and recovery verifies the
   surrogates on replay. *)

let define_domain t name d =
  let* () = Database.define_domain t.jdb name d in
  log t (Wal.Define_domain { name; domain = d });
  Ok ()

let log_define t entry =
  log t (Wal.Define (Codec.encode_entry (Database.schema t.jdb) entry))

let define_obj_type t o =
  let* () = Database.define_obj_type t.jdb o in
  (* re-read the stored form: inline subclasses were resolved on define *)
  let* stored = Schema.find_obj_type (Database.schema t.jdb) o.Schema.ot_name in
  log_define t (Schema.Obj_type stored);
  Ok ()

let define_rel_type t r =
  let* () = Database.define_rel_type t.jdb r in
  let* stored = Schema.find_rel_type (Database.schema t.jdb) r.Schema.rt_name in
  log_define t (Schema.Rel_type stored);
  Ok ()

let define_inher_rel_type t i =
  let* () = Database.define_inher_rel_type t.jdb i in
  log_define t (Schema.Inher_type i);
  Ok ()

let create_class t ~name ~member_type =
  let* () = Database.create_class t.jdb ~name ~member_type in
  log t (Wal.Create_class { name; member_type });
  Ok ()

let new_object t ?cls ~ty ?(attrs = []) () =
  let* s = Database.new_object t.jdb ?cls ~ty ~attrs () in
  log t (Wal.Create_object { cls; ty; attrs; expect = s });
  Ok s

let new_subobject t ~parent ~subclass ?(attrs = []) () =
  let* s = Database.new_subobject t.jdb ~parent ~subclass ~attrs () in
  log t (Wal.Create_subobject { parent; subclass; attrs; expect = s });
  Ok s

let new_relationship t ~ty ~participants ?(attrs = []) () =
  let* s = Database.new_relationship t.jdb ~ty ~participants ~attrs () in
  log t (Wal.Create_relationship { ty; participants; attrs; expect = s });
  Ok s

let new_subrel t ~parent ~subrel ~participants ?(attrs = []) () =
  let* s = Database.new_subrel t.jdb ~parent ~subrel ~participants ~attrs () in
  log t (Wal.Create_subrel { parent; subrel; participants; attrs; expect = s });
  Ok s

let set_attr t s name value =
  let* () = Database.set_attr t.jdb s name value in
  log t (Wal.Set_attr { target = s; name; value });
  Ok ()

let bind t ~via ~transmitter ~inheritor () =
  let* link = Database.bind t.jdb ~via ~transmitter ~inheritor () in
  log t (Wal.Bind { via; transmitter; inheritor; expect = link });
  Ok link

let unbind t inheritor =
  let* () = Database.unbind t.jdb inheritor in
  log t (Wal.Unbind { inheritor });
  Ok ()

let delete t ?(force = false) s =
  let* () = Database.delete t.jdb ~force s in
  log t (Wal.Delete { target = s; force });
  Ok ()

let acknowledge t link =
  let* () = Database.acknowledge t.jdb link in
  log t (Wal.Acknowledge { link });
  Ok ()

(* The snapshot is cut at [epoch + 1] and committed by its rename; the
   truncation that follows merely reclaims space.  A crash anywhere in
   between leaves either the old pairing (old snapshot + full old-epoch
   log) or the new one (new snapshot + log discarded as stale), both of
   which recover to a consistent prefix. *)
let checkpoint t =
  Compo_obs.Metrics.incr m_checkpoint;
  Log.info (fun m -> m "%s: checkpoint" t.dir);
  let* () = Failpoint.guard fp_ckpt_begin in
  let next_epoch = t.epoch + 1 in
  let* () = Snapshot.save ~epoch:next_epoch (snapshot_path t.dir) t.jdb in
  Failpoint.hit fp_ckpt_before_truncate;
  Out_channel.close t.chan;
  let chan =
    Out_channel.open_gen [ Open_wronly; Open_trunc; Open_creat; Open_binary ] 0o644 (wal_path t.dir)
  in
  Wal.write_header chan ~epoch:next_epoch;
  Failpoint.hit fp_ckpt_after_truncate;
  t.chan <- chan;
  t.epoch <- next_epoch;
  Ok ()

let wal_size_bytes t =
  (* logged payload only: the epoch header is bookkeeping, so an empty
     (just-checkpointed) log reports 0 *)
  match (Unix.stat (wal_path t.dir)).Unix.st_size with
  | size -> max 0 (size - Wal.header_len)
  | exception Unix.Unix_error _ -> 0

let close t =
  Out_channel.close t.chan;
  release_lock t.lock_fd t.lock_key

let crash t =
  (* simulated process death for the torture harness: abandon the handle
     without checkpointing, release the in-process registration so the
     "rebooted" process can reopen the directory *)
  Out_channel.close_noerr t.chan;
  release_lock t.lock_fd t.lock_key
