(* Crash-recovery torture driver: make torture-check.

   For every registered failpoint site, arm a crash (or fault) at that
   site, run a scripted workload against a journaled database until the
   trap springs, "reboot" (reopen the directory), and verify that the
   recovered state is byte-for-byte semantically equal to an in-memory
   oracle that executed some prefix of the same workload — the prefix at
   the crash, or one operation further when the crash landed after the
   record became durable.  Recovery-phase scenarios crash the recovery
   itself and prove the second reopen still lands on the full state.

   Every scenario then appends one more operation and reopens once more,
   proving the recovered store stays writable.  The run writes
   torture-check.log and exits non-zero on the first unrecoverable crash
   point. *)

open Compo_core
open Compo_storage
module Failpoint = Compo_faults.Failpoint

let log_chan = ref None

let logf fmt =
  Printf.ksprintf
    (fun s ->
      print_endline s;
      match !log_chan with
      | None -> ()
      | Some c ->
          output_string c (s ^ "\n");
          flush c)
    fmt

let failures = ref 0

let failf sc fmt =
  Printf.ksprintf
    (fun s ->
      incr failures;
      logf "FAIL [%s] %s" sc s)
    fmt

let ok what = function
  | Ok v -> v
  | Error e ->
      logf "FATAL: %s: %s" what (Errors.to_string e);
      exit 2

(* ------------------------------------------------------------------ *)
(* The workload, abstracted over journaled vs. plain execution         *)

type exec = {
  x_define_obj : Schema.obj_type -> (unit, Errors.t) result;
  x_define_inher : Schema.inher_rel_type -> (unit, Errors.t) result;
  x_create_class : string -> string -> (unit, Errors.t) result;
  x_new_object :
    string option ->
    string ->
    (string * Value.t) list ->
    (Surrogate.t, Errors.t) result;
  x_new_subobject :
    Surrogate.t ->
    string ->
    (string * Value.t) list ->
    (Surrogate.t, Errors.t) result;
  x_set_attr : Surrogate.t -> string -> Value.t -> (unit, Errors.t) result;
  x_bind :
    string -> Surrogate.t -> Surrogate.t -> (Surrogate.t, Errors.t) result;
  x_unbind : Surrogate.t -> (unit, Errors.t) result;
  x_delete : Surrogate.t -> (unit, Errors.t) result;
  x_acknowledge : Surrogate.t -> (unit, Errors.t) result;
  x_checkpoint : unit -> (unit, Errors.t) result;
}

let journal_exec ?(skip_checkpoints = false) j =
  {
    x_define_obj = Journal.define_obj_type j;
    x_define_inher = Journal.define_inher_rel_type j;
    x_create_class = (fun name mt -> Journal.create_class j ~name ~member_type:mt);
    x_new_object = (fun cls ty attrs -> Journal.new_object j ?cls ~ty ~attrs ());
    x_new_subobject =
      (fun parent subclass attrs ->
        Journal.new_subobject j ~parent ~subclass ~attrs ());
    x_set_attr = Journal.set_attr j;
    x_bind =
      (fun via transmitter inheritor ->
        Journal.bind j ~via ~transmitter ~inheritor ());
    x_unbind = Journal.unbind j;
    x_delete = (fun s -> Journal.delete j s);
    x_acknowledge = Journal.acknowledge j;
    x_checkpoint =
      (fun () -> if skip_checkpoints then Ok () else Journal.checkpoint j);
  }

let oracle_exec db =
  {
    x_define_obj = Database.define_obj_type db;
    x_define_inher = Database.define_inher_rel_type db;
    x_create_class = (fun name mt -> Database.create_class db ~name ~member_type:mt);
    x_new_object = (fun cls ty attrs -> Database.new_object db ?cls ~ty ~attrs ());
    x_new_subobject =
      (fun parent subclass attrs ->
        Database.new_subobject db ~parent ~subclass ~attrs ());
    x_set_attr = Database.set_attr db;
    x_bind =
      (fun via transmitter inheritor ->
        Database.bind db ~via ~transmitter ~inheritor ());
    x_unbind = Database.unbind db;
    x_delete = (fun s -> Database.delete db s);
    x_acknowledge = Database.acknowledge db;
    x_checkpoint = (fun () -> Ok ());
  }

type env = (string, Surrogate.t) Hashtbl.t

let need env name =
  match Hashtbl.find_opt env name with
  | Some s -> s
  | None -> failwith ("torture: unbound workload name " ^ name)

type step = { s_name : string; s_run : exec -> env -> (unit, Errors.t) result }

let step s_name s_run = { s_name; s_run }
let unit_op f x env = f x env
let naming name f x env = Result.map (Hashtbl.replace env name) (f x env)
let attr name domain = { Schema.attr_name = name; attr_domain = domain }

let obj_type ?(subclasses = []) ?inheritor_in name attrs =
  {
    Schema.ot_name = name;
    ot_inheritor_in = inheritor_in;
    ot_attrs = attrs;
    ot_subclasses = subclasses;
    ot_subrels = [];
    ot_constraints = [];
  }

(* One journal operation per step, so "executed the first K steps" is
   exactly "logged the first K records" (checkpoints log nothing and
   change no semantics).  The mix covers every logged operation kind:
   schema definition, classes, objects, subobjects, value-inheritance
   bind/unbind, attribute updates down inheritance chains (which mark
   links stale), deletion, acknowledging a stale link, and two
   checkpoints. *)
let workload =
  [
    step "define Bore"
      (unit_op (fun x _ ->
           x.x_define_obj (obj_type "Bore" [ attr "Radius" Domain.Integer ])));
    step "define Part"
      (unit_op (fun x _ ->
           x.x_define_obj
             (obj_type "Part"
                ~subclasses:
                  [ { Schema.sc_name = "Bores"; sc_member = Schema.Named_type "Bore" } ]
                [ attr "Weight" Domain.Integer; attr "Label" Domain.String ])));
    step "define AllOf_Part"
      (unit_op (fun x _ ->
           x.x_define_inher
             {
               Schema.it_name = "AllOf_Part";
               it_transmitter = "Part";
               it_inheritor = None;
               it_inheriting = [ "Weight" ];
               it_attrs = [];
               it_subclasses = [];
               it_constraints = [];
             }));
    step "define Widget"
      (unit_op (fun x _ ->
           x.x_define_obj
             (obj_type "Widget" ~inheritor_in:"AllOf_Part"
                [ attr "Tag" Domain.Integer ])));
    step "class Parts"
      (unit_op (fun x _ -> x.x_create_class "Parts" "Part"));
    step "create p1"
      (naming "p1" (fun x _ ->
           x.x_new_object (Some "Parts") "Part"
             [ ("Weight", Value.Int 5); ("Label", Value.Str "alpha") ]));
    step "create p2"
      (naming "p2" (fun x _ ->
           x.x_new_object (Some "Parts") "Part"
             [ ("Weight", Value.Int 7); ("Label", Value.Str "beta") ]));
    step "bore b1 in p1"
      (naming "b1" (fun x env ->
           x.x_new_subobject (need env "p1") "Bores"
             [ ("Radius", Value.Int 2) ]));
    step "create w1"
      (naming "w1" (fun x _ ->
           x.x_new_object None "Widget" [ ("Tag", Value.Int 1) ]));
    step "create w2"
      (naming "w2" (fun x _ ->
           x.x_new_object None "Widget" [ ("Tag", Value.Int 2) ]));
    step "bind p1->w1"
      (naming "l1" (fun x env ->
           x.x_bind "AllOf_Part" (need env "p1") (need env "w1")));
    step "bind p2->w2"
      (naming "l2" (fun x env ->
           x.x_bind "AllOf_Part" (need env "p2") (need env "w2")));
    step "checkpoint 1" (unit_op (fun x _ -> x.x_checkpoint ()));
    step "update p1.Weight"
      (unit_op (fun x env ->
           x.x_set_attr (need env "p1") "Weight" (Value.Int 11)));
    step "update w1.Tag"
      (unit_op (fun x env -> x.x_set_attr (need env "w1") "Tag" (Value.Int 42)));
    step "unbind w2"
      (unit_op (fun x env -> x.x_unbind (need env "w2")));
    step "create p3"
      (naming "p3" (fun x _ ->
           x.x_new_object (Some "Parts") "Part"
             [ ("Weight", Value.Int 3); ("Label", Value.Str "gamma") ]));
    step "delete w2"
      (unit_op (fun x env -> x.x_delete (need env "w2")));
    step "checkpoint 2" (unit_op (fun x _ -> x.x_checkpoint ()));
    step "update p2.Weight"
      (unit_op (fun x env ->
           x.x_set_attr (need env "p2") "Weight" (Value.Int 20)));
    step "create w3"
      (naming "w3" (fun x _ ->
           x.x_new_object None "Widget" [ ("Tag", Value.Int 3) ]));
    step "bind p3->w3"
      (naming "l3" (fun x env ->
           x.x_bind "AllOf_Part" (need env "p3") (need env "w3")));
    step "update p3.Weight"
      (unit_op (fun x env ->
           x.x_set_attr (need env "p3") "Weight" (Value.Int 4)));
    step "acknowledge l3"
      (unit_op (fun x env -> x.x_acknowledge (need env "l3")));
    step "update w3.Tag"
      (unit_op (fun x env -> x.x_set_attr (need env "w3") "Tag" (Value.Int 30)));
  ]

let n_steps = List.length workload

(* Run the workload until it completes, an operation fails, or a
   failpoint raises a simulated crash.  Returns the number of fully
   executed steps. *)
let run_workload x env =
  let rec go i = function
    | [] -> `Completed i
    | s :: rest -> (
        match s.s_run x env with
        | Ok () -> go (i + 1) rest
        | Error e -> `Errored (i, s.s_name, e)
        | exception Failpoint.Crashed site -> `Crashed (i, s.s_name, site))
  in
  go 0 workload

let oracle_of_prefix k =
  let db = Database.create () in
  let x = oracle_exec db in
  let env = Hashtbl.create 16 in
  let rec go i = function
    | [] -> db
    | _ when i >= k -> db
    | s :: rest -> (
        match s.s_run x env with
        | Ok () -> go (i + 1) rest
        | Error e ->
            failwith
              (Printf.sprintf "oracle failed at %s: %s" s.s_name
                 (Errors.to_string e)))
  in
  go 0 workload

(* ------------------------------------------------------------------ *)
(* Scenarios                                                           *)

type phase = During_workload | During_recovery

type scenario = {
  sc_name : string;
  sc_site : string;
  sc_after : int;
  sc_action : Failpoint.action;
  sc_phase : phase;
  sc_expect_clean : bool option;
      (** recovered_clean after the reboot, when determinate *)
  sc_expect_stale : bool option;
}

let scenario ?(after = 1) ?(phase = During_workload) ?clean ?stale name site
    action =
  {
    sc_name = name;
    sc_site = site;
    sc_after = after;
    sc_action = action;
    sc_phase = phase;
    sc_expect_clean = clean;
    sc_expect_stale = stale;
  }

let scenarios =
  [
    (* --- crashes around WAL appends --- *)
    scenario "append crash before first frame" "wal.append.before_frame"
      Failpoint.Crash ~clean:true ~stale:false;
    scenario "append crash before frame 14" "wal.append.before_frame"
      Failpoint.Crash ~after:14 ~clean:true ~stale:false;
    scenario "torn frame early" "wal.append.frame" Failpoint.Torn_frame
      ~after:3 ~clean:false ~stale:false;
    scenario "torn frame after checkpoint" "wal.append.frame"
      Failpoint.Torn_frame ~after:13 ~clean:false ~stale:false;
    scenario "short write" "wal.append.frame" (Failpoint.Short_write 4)
      ~after:6 ~clean:false ~stale:false;
    scenario "bit flip in frame" "wal.append.frame" Failpoint.Bit_flip
      ~after:9 ~clean:false ~stale:false;
    scenario "append crash with record durable" "wal.append.after_frame"
      Failpoint.Crash ~after:7 ~clean:true ~stale:false;
    scenario "append crash on last record" "wal.append.after_frame"
      Failpoint.Crash ~after:19 ~clean:true ~stale:false;
    (* l3 was stale and acknowledged before the crash: replay must keep
       it acknowledged (Fsck.diff compares link staleness) *)
    scenario "append crash after an acknowledge" "wal.append.before_frame"
      Failpoint.Crash ~after:23 ~clean:true ~stale:false;
    (* --- crashes across the checkpoint protocol --- *)
    scenario "checkpoint refused" "journal.checkpoint.begin"
      Failpoint.Error_result ~clean:true ~stale:false;
    scenario "crash entering checkpoint" "journal.checkpoint.begin"
      Failpoint.Crash ~clean:true ~stale:false;
    scenario "crash entering second checkpoint" "journal.checkpoint.begin"
      Failpoint.Crash ~after:2 ~clean:true ~stale:false;
    scenario "torn snapshot temporary" "snapshot.save.tmp_write"
      Failpoint.Torn_frame ~clean:true ~stale:false;
    scenario "crash before snapshot rename" "snapshot.save.before_rename"
      Failpoint.Crash ~clean:true ~stale:false;
    scenario "crash after snapshot rename" "snapshot.save.after_rename"
      Failpoint.Crash ~stale:true;
    scenario "crash before WAL truncate" "journal.checkpoint.before_truncate"
      Failpoint.Crash ~stale:true;
    scenario "torn WAL header on truncate" "wal.header.write"
      Failpoint.Torn_frame ~clean:false;
    scenario "crash after WAL truncate" "journal.checkpoint.after_truncate"
      Failpoint.Crash ~clean:true ~stale:false;
    (* --- crashes during recovery itself --- *)
    scenario "recovery refused before replay" "journal.open.before_replay"
      Failpoint.Error_result ~phase:During_recovery ~clean:true ~stale:false;
    scenario "crash before replay" "journal.open.before_replay"
      Failpoint.Crash ~phase:During_recovery ~clean:true ~stale:false;
    scenario "crash mid-replay" "journal.open.mid_replay" Failpoint.Crash
      ~after:10 ~phase:During_recovery ~clean:true ~stale:false;
    scenario "crash after replay" "journal.open.after_replay" Failpoint.Crash
      ~phase:During_recovery ~clean:true ~stale:false;
  ]

(* ------------------------------------------------------------------ *)
(* Verification                                                        *)

let tmp_dir =
  let counter = ref 0 in
  fun () ->
    incr counter;
    let dir =
      Filename.concat
        (Filename.get_temp_dir_name ())
        (Printf.sprintf "compo-torture-%d-%d" (Unix.getpid ()) !counter)
    in
    dir

let rec rm_rf path =
  match Sys.is_directory path with
  | true ->
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
  | false -> Sys.remove path
  | exception Sys_error _ -> ()

let prefix_matches k db =
  let oracle = oracle_of_prefix k in
  Fsck.diff ~oracle db

(* After the reboot: no fsck violations, the state equals the crash
   prefix (or one step further when the record outran the crash), and the
   store takes new work across one more reopen. *)
let verify_recovered sc dir ~completed =
  match Journal.open_dir dir with
  | Error e ->
      failf sc.sc_name "reopen after crash failed: %s" (Errors.to_string e)
  | exception Failpoint.Crashed site ->
      failf sc.sc_name "failpoint %s still armed at reopen" site
  | Ok j -> (
      let db = Journal.db j in
      (match Fsck.check_db db with
      | [] -> ()
      | vs ->
          List.iter (fun v -> failf sc.sc_name "fsck: %s" v) vs);
      (match sc.sc_expect_clean with
      | Some want when Journal.recovered_clean j <> want ->
          failf sc.sc_name "recovered_clean = %b, expected %b"
            (Journal.recovered_clean j) want
      | _ -> ());
      (match sc.sc_expect_stale with
      | Some want when Journal.recovered_from_stale_wal j <> want ->
          failf sc.sc_name "recovered_from_stale_wal = %b, expected %b"
            (Journal.recovered_from_stale_wal j) want
      | _ -> ());
      let candidates =
        if completed < n_steps then [ completed + 1; completed ]
        else [ completed ]
      in
      let matched =
        List.find_opt (fun k -> prefix_matches k db = []) candidates
      in
      (match matched with
      | Some k ->
          logf "  ok [%s] state = workload prefix %d/%d (crashed in step %d)"
            sc.sc_name k n_steps (completed + 1)
      | None ->
          let k = List.hd candidates in
          List.iter
            (fun d -> failf sc.sc_name "diff vs prefix %d: %s" k d)
            (prefix_matches k db));
      (* the recovered store must stay appendable across another reboot *)
      match Schema.find (Database.schema db) "Part" with
      | None -> Journal.close j
      | Some _ ->
          let p =
            ok "continuation append"
              (Journal.new_object j ~ty:"Part"
                 ~attrs:[ ("Weight", Value.Int 99); ("Label", Value.Str "cont") ]
                 ())
          in
          Journal.close j;
          let j2 = ok "second reopen" (Journal.open_dir dir) in
          if not (Store.mem (Database.store (Journal.db j2)) p) then
            failf sc.sc_name "continuation object lost across reopen";
          (match Fsck.check_db (Journal.db j2) with
          | [] -> ()
          | vs ->
              List.iter
                (fun v -> failf sc.sc_name "fsck after continuation: %s" v)
                vs);
          Journal.close j2)

let run_workload_scenario sc dir =
  let j = ok "open" (Journal.open_dir dir) in
  let env = Hashtbl.create 16 in
  Failpoint.arm ~after:sc.sc_after sc.sc_site sc.sc_action;
  let outcome = run_workload (journal_exec j) env in
  Failpoint.disarm_all ();
  Journal.crash j;
  match outcome with
  | `Completed _ ->
      failf sc.sc_name "failpoint %s never fired during the workload"
        sc.sc_site
  | `Errored (i, name, _) | `Crashed (i, name, _) ->
      logf "  [%s] %s at step %d (%s)" sc.sc_name
        (Failpoint.action_to_string sc.sc_action)
        (i + 1) name;
      verify_recovered sc dir ~completed:i

let run_recovery_scenario sc dir =
  (* build the full state with no checkpoints so recovery has the whole
     workload to replay, then crash recovery itself *)
  let j = ok "open" (Journal.open_dir dir) in
  let env = Hashtbl.create 16 in
  (match run_workload (journal_exec ~skip_checkpoints:true j) env with
  | `Completed _ -> ()
  | `Errored (_, name, e) ->
      logf "FATAL: workload failed at %s: %s" name (Errors.to_string e);
      exit 2
  | `Crashed (_, name, site) ->
      logf "FATAL: unexpected crash at %s (%s)" name site;
      exit 2);
  Journal.crash j;
  Failpoint.arm ~after:sc.sc_after sc.sc_site sc.sc_action;
  (match Journal.open_dir dir with
  | exception Failpoint.Crashed site ->
      logf "  [%s] crashed recovery at %s" sc.sc_name site
  | Error e ->
      logf "  [%s] recovery refused: %s" sc.sc_name (Errors.to_string e)
  | Ok j ->
      Journal.close j;
      failf sc.sc_name "failpoint %s never fired during recovery" sc.sc_site);
  Failpoint.disarm_all ();
  verify_recovered sc dir ~completed:n_steps

let () =
  let log_path =
    match Sys.argv with
    | [| _; "--log"; path |] -> path
    | _ -> "torture-check.log"
  in
  log_chan := Some (open_out log_path);
  logf "torture: %d scenarios over %d registered crash points"
    (List.length scenarios)
    (List.length (Failpoint.all_sites ()));
  let covered = Hashtbl.create 16 in
  List.iter
    (fun sc ->
      Hashtbl.replace covered sc.sc_site ();
      let dir = tmp_dir () in
      (match sc.sc_phase with
      | During_workload -> run_workload_scenario sc dir
      | During_recovery -> run_recovery_scenario sc dir);
      rm_rf dir)
    scenarios;
  (* every registered site must be exercised, and the floor holds *)
  List.iter
    (fun site ->
      if not (Hashtbl.mem covered site) then
        failf "coverage" "registered failpoint %s has no scenario" site)
    (Failpoint.all_sites ());
  if Hashtbl.length covered < 12 then
    failf "coverage" "only %d distinct crash points exercised"
      (Hashtbl.length covered);
  if !failures = 0 then begin
    logf "torture: all %d scenarios recovered (%d crash points)"
      (List.length scenarios) (Hashtbl.length covered);
    exit 0
  end
  else begin
    logf "torture: %d failures (see %s)" !failures log_path;
    exit 1
  end
