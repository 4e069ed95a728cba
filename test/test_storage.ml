open Compo_core
open Compo_storage
open Helpers
module G = Compo_scenarios.Gates
module S = Compo_scenarios.Steel

let tmp_dir prefix =
  let dir = Filename.temp_file prefix "" in
  Sys.remove dir;
  dir

let test_crc32_known_vectors () =
  (* standard test vector: crc32("123456789") = 0xCBF43926 *)
  Alcotest.(check int32) "check vector" 0xCBF43926l (Codec.crc32 "123456789");
  Alcotest.(check int32) "empty" 0l (Codec.crc32 "")

let value_examples =
  [
    Value.Null;
    Value.Bool true;
    Value.Int (-42);
    Value.Int max_int;
    Value.Real 3.14159;
    Value.Str "hello\nworld";
    Value.Enum_case "NOR";
    Value.point 3 4;
    Value.List [ Value.Int 1; Value.Str "x" ];
    Value.set [ Value.Int 3; Value.Int 1 ];
    Value.Matrix [| [| Value.Bool true; Value.Bool false |] |];
    Value.Tuple [ Value.Int 1; Value.Real 2.0 ];
    Value.Ref (Surrogate.of_int 99);
    Value.Record [ ("a", Value.List [ Value.point 1 2 ]) ];
  ]

let test_value_roundtrip () =
  List.iter
    (fun v ->
      let b = Codec.Enc.create () in
      Codec.encode_value b v;
      let decoded = ok (Codec.decode_value (Codec.Dec.of_string (Codec.Enc.contents b))) in
      check_value "value round-trip" v decoded)
    value_examples

let test_decode_rejects_garbage () =
  expect_error
    (function Errors.Io_error _ -> true | _ -> false)
    (Codec.decode_value (Codec.Dec.of_string "\xff"));
  expect_error ~msg:"truncated" any_error
    (Codec.decode_value (Codec.Dec.of_string "\x02\x01"))

let prop_value_roundtrip =
  let rec gen_value depth =
    let open QCheck.Gen in
    if depth = 0 then
      oneof
        [
          map (fun i -> Value.Int i) small_signed_int;
          map (fun s -> Value.Str s) (string_size (int_bound 12));
          map (fun b -> Value.Bool b) bool;
          return Value.Null;
        ]
    else
      frequency
        [
          (3, gen_value 0);
          (1, map (fun vs -> Value.List vs) (list_size (int_bound 4) (gen_value (depth - 1))));
          (1, map (fun vs -> Value.set vs) (list_size (int_bound 4) (gen_value (depth - 1))));
          ( 1,
            map
              (fun vs -> Value.record (List.mapi (fun i v -> ("f" ^ string_of_int i, v)) vs))
              (list_size (int_bound 3) (gen_value (depth - 1))) );
        ]
  in
  QCheck.Test.make ~name:"codec value round-trip (random)" ~count:300
    (QCheck.make (gen_value 3) ~print:Value.to_string)
    (fun v ->
      let b = Codec.Enc.create () in
      Codec.encode_value b v;
      match Codec.decode_value (Codec.Dec.of_string (Codec.Enc.contents b)) with
      | Ok v' -> Value.equal v v'
      | Error _ -> false)

let test_schema_roundtrip () =
  let db = full_db () in
  let schema = Database.schema db in
  let decoded = ok (Codec.decode_schema (Codec.encode_schema schema)) in
  (* compare through the DDL printer: identical text means identical schema *)
  check_string "schema round-trip"
    (Compo_ddl.Pretty.schema_to_string schema)
    (Compo_ddl.Pretty.schema_to_string decoded)

let test_store_roundtrip () =
  let db = gates_db () in
  let ff = ok (G.flip_flop db) in
  let iface = ok (G.nor_interface db) in
  let impl = ok (G.nor_implementation db ~interface:iface) in
  let schema = Database.schema db in
  let blob = Codec.encode_store (Database.store db) in
  let store2 = ok (Codec.decode_store schema blob) in
  let db2 = Database.of_parts schema store2 in
  (* structural checks on the decoded store *)
  check_int "entity count preserved"
    (Store.entity_count (Database.store db))
    (Store.entity_count store2);
  check_int "pins reachable" 4 (List.length (ok (Database.subclass_members db2 ff "Pins")));
  check_value "inheritance preserved" (Value.Int 4) (ok (Database.get_attr db2 impl "Length"));
  check_bool "classes preserved" true
    (List.exists (Surrogate.equal ff) (ok (Database.select db2 ~cls:"Gates" ())));
  (* fresh surrogates do not collide after decode *)
  let fresh = ok (Database.new_object db2 ~ty:"GateInterface_I" ()) in
  check_bool "generator advanced" false (Store.mem (Database.store db) fresh && false);
  check_bool "fresh surrogate unique" false
    (Surrogate.equal fresh ff || Surrogate.equal fresh impl)

let test_snapshot_save_load () =
  let db = steel_db () in
  let _ = ok (Compo_scenarios.Workload.screwed_structure db ~girders:3 ~bores_per_joint:2) in
  let path = Filename.temp_file "compo" ".snapshot" in
  ok (Snapshot.save path db);
  let db2 = ok (Snapshot.load path) in
  check_int "entities preserved"
    (Store.entity_count (Database.store db))
    (Store.entity_count (Database.store db2));
  check_no_violations "constraints still hold after reload" (Database.validate_all db2);
  (* corruption is detected *)
  let contents = In_channel.with_open_bin path In_channel.input_all in
  let corrupted = Bytes.of_string contents in
  let pos = Bytes.length corrupted / 2 in
  Bytes.set corrupted pos
    (if Bytes.get corrupted pos = '\xff' then '\x00' else '\xff');
  Out_channel.with_open_bin path (fun c -> Out_channel.output_bytes c corrupted);
  expect_error
    (function Errors.Io_error _ -> true | _ -> false)
    (Snapshot.load path);
  Sys.remove path

let test_wal_record_roundtrip () =
  let records =
    [
      Wal.Create_class { name = "Gates"; member_type = "Gate" };
      Wal.Create_object
        { cls = Some "Gates"; ty = "Gate"; attrs = [ ("Length", Value.Int 4) ];
          expect = Surrogate.of_int 7 };
      Wal.Set_attr { target = Surrogate.of_int 7; name = "Length"; value = Value.Int 9 };
      Wal.Bind
        { via = "AllOf_GateInterface"; transmitter = Surrogate.of_int 1;
          inheritor = Surrogate.of_int 2; expect = Surrogate.of_int 3 };
      Wal.Unbind { inheritor = Surrogate.of_int 2 };
      Wal.Delete { target = Surrogate.of_int 7; force = true };
      Wal.Acknowledge { link = Surrogate.of_int 3 };
    ]
  in
  List.iter
    (fun r ->
      let decoded = ok (Wal.decode_record (Wal.encode_record r)) in
      check_bool "wal record round-trip" true (decoded = r))
    records

let test_journal_recovery () =
  let module Obs = Compo_obs.Metrics in
  let dir = tmp_dir "compo-journal" in
  (* session 1: define schema, create objects.  Metrics stay on for the
     session so the wal.append counter can be cross-checked against the
     number of records the recovery below replays. *)
  Obs.reset ();
  Obs.enable ();
  let j = ok (Journal.open_dir dir) in
  ok
    (Journal.define_obj_type j
       {
         Schema.ot_name = "Part";
         ot_inheritor_in = None;
         ot_attrs = [ { Schema.attr_name = "Weight"; attr_domain = Domain.Integer } ];
         ot_subclasses = [];
         ot_subrels = [];
         ot_constraints = [];
       });
  ok (Journal.create_class j ~name:"Parts" ~member_type:"Part");
  let p1 = ok (Journal.new_object j ~cls:"Parts" ~ty:"Part" ~attrs:[ ("Weight", Value.Int 5) ] ()) in
  ok (Journal.set_attr j p1 "Weight" (Value.Int 6));
  Journal.close j;
  Obs.disable ();
  check_int "wal.append counts every logged record" 4
    (Obs.counter_value "wal.append");
  (* session 2: recover, verify, continue *)
  let j2 = ok (Journal.open_dir dir) in
  check_bool "clean recovery" true (Journal.recovered_clean j2);
  check_int "records replayed" 4 (Journal.wal_records_replayed j2);
  check_value "state recovered" (Value.Int 6) (ok (Database.get_attr (Journal.db j2) p1 "Weight"));
  let p2 = ok (Journal.new_object j2 ~cls:"Parts" ~ty:"Part" ~attrs:[ ("Weight", Value.Int 1) ] ()) in
  check_bool "no surrogate collision" false (Surrogate.equal p1 p2);
  Journal.close j2;
  (* session 3: everything still there *)
  let j3 = ok (Journal.open_dir dir) in
  check_int "both parts in class" 2
    (List.length (ok (Database.select (Journal.db j3) ~cls:"Parts" ())));
  Journal.close j3

let test_journal_checkpoint () =
  let dir = tmp_dir "compo-ckpt" in
  let j = ok (Journal.open_dir dir) in
  ok
    (Journal.define_obj_type j
       {
         Schema.ot_name = "Part";
         ot_inheritor_in = None;
         ot_attrs = [ { Schema.attr_name = "Weight"; attr_domain = Domain.Integer } ];
         ot_subclasses = [];
         ot_subrels = [];
         ot_constraints = [];
       });
  let p = ok (Journal.new_object j ~ty:"Part" ~attrs:[ ("Weight", Value.Int 5) ] ()) in
  check_bool "wal non-empty before checkpoint" true (Journal.wal_size_bytes j > 0);
  ok (Journal.checkpoint j);
  check_int "wal truncated" 0 (Journal.wal_size_bytes j);
  ok (Journal.set_attr j p "Weight" (Value.Int 9));
  Journal.close j;
  let j2 = ok (Journal.open_dir dir) in
  check_int "only post-checkpoint records replayed" 1 (Journal.wal_records_replayed j2);
  check_value "snapshot + wal combined" (Value.Int 9)
    (ok (Database.get_attr (Journal.db j2) p "Weight"));
  Journal.close j2

let test_torn_tail_tolerated () =
  let dir = tmp_dir "compo-torn" in
  let j = ok (Journal.open_dir dir) in
  ok
    (Journal.define_obj_type j
       {
         Schema.ot_name = "Part";
         ot_inheritor_in = None;
         ot_attrs = [ { Schema.attr_name = "Weight"; attr_domain = Domain.Integer } ];
         ot_subclasses = [];
         ot_subrels = [];
         ot_constraints = [];
       });
  let p = ok (Journal.new_object j ~ty:"Part" ~attrs:[ ("Weight", Value.Int 5) ] ()) in
  ok (Journal.set_attr j p "Weight" (Value.Int 6));
  Journal.close j;
  (* simulate a crash mid-append: truncate the last few bytes *)
  let wal = Filename.concat dir "wal.log" in
  let contents = In_channel.with_open_bin wal In_channel.input_all in
  Out_channel.with_open_bin wal (fun c ->
      Out_channel.output_string c
        (String.sub contents 0 (String.length contents - 5)));
  let j2 = ok (Journal.open_dir dir) in
  check_bool "torn tail reported" false (Journal.recovered_clean j2);
  check_int "clean prefix replayed" 2 (Journal.wal_records_replayed j2);
  check_value "last record lost, prior state intact" (Value.Int 5)
    (ok (Database.get_attr (Journal.db j2) p "Weight"));
  Journal.close j2

(* A journal with the Part schema and one object, closed; returns (dir, p). *)
let part_journal prefix =
  let dir = tmp_dir prefix in
  let j = ok (Journal.open_dir dir) in
  ok
    (Journal.define_obj_type j
       {
         Schema.ot_name = "Part";
         ot_inheritor_in = None;
         ot_attrs = [ { Schema.attr_name = "Weight"; attr_domain = Domain.Integer } ];
         ot_subclasses = [];
         ot_subrels = [];
         ot_constraints = [];
       });
  let p = ok (Journal.new_object j ~ty:"Part" ~attrs:[ ("Weight", Value.Int 5) ] ()) in
  Journal.close j;
  (dir, p)

let test_corrupt_first_frame_total () =
  (* a corrupt FIRST frame must read as zero records, never an exception:
     flip one bit in the first frame's length field *)
  let dir, _p = part_journal "compo-flip" in
  let wal = Filename.concat dir "wal.log" in
  let contents = Bytes.of_string (In_channel.with_open_bin wal In_channel.input_all) in
  (* byte 16 is the first byte of the first frame's length (LE) *)
  Bytes.set contents 16 (Char.chr (Char.code (Bytes.get contents 16) lxor 0x40));
  Out_channel.with_open_bin wal (fun c -> Out_channel.output_bytes c contents);
  let replay = Wal.read_file wal in
  check_bool "epoch still readable" true (replay.Wal.rp_epoch <> None);
  check_int "no records salvaged" 0 (List.length replay.Wal.rp_records);
  check_bool "reported unclean" false replay.Wal.rp_clean;
  (* recovery tolerates it too: empty database, unclean flag *)
  let j = ok (Journal.open_dir dir) in
  check_bool "unclean recovery" false (Journal.recovered_clean j);
  check_int "nothing replayed" 0 (Journal.wal_records_replayed j);
  Journal.close j

let test_overflowing_frame_length_total () =
  (* regression: a crafted length of max_int made [pos + 16 + len] wrap
     negative, slipping past the bound check into String.sub *)
  let dir, _p = part_journal "compo-overflow" in
  let wal = Filename.concat dir "wal.log" in
  let contents = Bytes.of_string (In_channel.with_open_bin wal In_channel.input_all) in
  Bytes.set_int64_le contents 16 (Int64.of_int max_int);
  Out_channel.with_open_bin wal (fun c -> Out_channel.output_bytes c contents);
  let replay = Wal.read_file wal in
  check_bool "reported unclean, not an exception" false replay.Wal.rp_clean;
  check_int "no records salvaged" 0 (List.length replay.Wal.rp_records)

let test_corrupt_wal_header_total () =
  let dir, _p = part_journal "compo-header" in
  let wal = Filename.concat dir "wal.log" in
  let contents = Bytes.of_string (In_channel.with_open_bin wal In_channel.input_all) in
  Bytes.set contents 3 'x' (* break the magic *);
  Out_channel.with_open_bin wal (fun c -> Out_channel.output_bytes c contents);
  let replay = Wal.read_file wal in
  check_bool "no epoch" true (replay.Wal.rp_epoch = None);
  check_bool "unclean" false replay.Wal.rp_clean;
  (* recovery restarts the log from the snapshot's epoch *)
  let j = ok (Journal.open_dir dir) in
  check_bool "unclean recovery" false (Journal.recovered_clean j);
  check_int "empty database" 0 (Store.entity_count (Database.store (Journal.db j)));
  Journal.close j;
  let j2 = ok (Journal.open_dir dir) in
  check_bool "log restarted cleanly" true (Journal.recovered_clean j2);
  Journal.close j2

let test_append_after_torn_tail () =
  (* regression caught by the torture harness: appending to an unclean log
     without cutting the corrupt tail strands the new records behind it *)
  let dir, p = part_journal "compo-tornappend" in
  (* one more record, so the tear below loses it rather than p's create *)
  let j0 = ok (Journal.open_dir dir) in
  ok (Journal.set_attr j0 p "Weight" (Value.Int 6));
  Journal.close j0;
  let wal = Filename.concat dir "wal.log" in
  let contents = In_channel.with_open_bin wal In_channel.input_all in
  Out_channel.with_open_bin wal (fun c ->
      Out_channel.output_string c
        (String.sub contents 0 (String.length contents - 3)));
  let j = ok (Journal.open_dir dir) in
  check_bool "torn tail reported" false (Journal.recovered_clean j);
  ok (Journal.set_attr j p "Weight" (Value.Int 8));
  Journal.close j;
  let j2 = ok (Journal.open_dir dir) in
  check_bool "clean after truncating the tail" true (Journal.recovered_clean j2);
  check_value "post-recovery append survives"
    (Value.Int 8)
    (ok (Database.get_attr (Journal.db j2) p "Weight"));
  Journal.close j2

let test_checkpoint_crash_windows () =
  let module Failpoint = Compo_faults.Failpoint in
  (* crash before the snapshot rename: old snapshot + full log win *)
  let dir, p = part_journal "compo-ckptcrash" in
  let j = ok (Journal.open_dir dir) in
  ok (Journal.set_attr j p "Weight" (Value.Int 7));
  Failpoint.arm "snapshot.save.before_rename" Failpoint.Crash;
  (match Journal.checkpoint j with
  | exception Failpoint.Crashed _ -> ()
  | Ok () -> Alcotest.fail "checkpoint should have crashed"
  | Error e -> Alcotest.failf "unexpected error: %s" (Errors.to_string e));
  Journal.crash j;
  let j2 = ok (Journal.open_dir dir) in
  check_bool "old pairing recovers clean" true (Journal.recovered_clean j2);
  check_bool "no stale discard" false (Journal.recovered_from_stale_wal j2);
  check_value "state intact" (Value.Int 7)
    (ok (Database.get_attr (Journal.db j2) p "Weight"));
  (* crash after the rename but before the truncation: the new snapshot
     wins and the old-epoch log is discarded as stale, not re-applied *)
  ok (Journal.set_attr j2 p "Weight" (Value.Int 9));
  Failpoint.arm "journal.checkpoint.before_truncate" Failpoint.Crash;
  (match Journal.checkpoint j2 with
  | exception Failpoint.Crashed _ -> ()
  | _ -> Alcotest.fail "checkpoint should have crashed");
  Journal.crash j2;
  let j3 = ok (Journal.open_dir dir) in
  check_bool "stale log discarded" true (Journal.recovered_from_stale_wal j3);
  check_bool "discard counts as clean" true (Journal.recovered_clean j3);
  check_value "checkpointed state intact" (Value.Int 9)
    (ok (Database.get_attr (Journal.db j3) p "Weight"));
  (* epoch 1: the first, crashed checkpoint never committed a snapshot *)
  check_int "epoch advanced" 1 (Journal.wal_epoch j3);
  Journal.close j3

let test_double_open_rejected () =
  let dir, _p = part_journal "compo-doubleopen" in
  let j = ok (Journal.open_dir dir) in
  expect_error ~msg:"second open_dir must fail"
    (function Errors.Io_error _ -> true | _ -> false)
    (Journal.open_dir dir);
  Journal.close j;
  (* the lock dies with the handle *)
  let j2 = ok (Journal.open_dir dir) in
  Journal.close j2

let test_fsck_clean_and_diff () =
  let dir, p = part_journal "compo-fsck" in
  let report = ok (Fsck.check_dir dir) in
  check_int "no violations" 0 (List.length report.Fsck.fr_violations);
  check_int "entities counted" 1 report.Fsck.fr_entities;
  (* diff: a matching rebuild is empty, a divergent one is not *)
  let oracle () =
    let db = Database.create () in
    ok
      (Database.define_obj_type db
         {
           Schema.ot_name = "Part";
           ot_inheritor_in = None;
           ot_attrs = [ { Schema.attr_name = "Weight"; attr_domain = Domain.Integer } ];
           ot_subclasses = [];
           ot_subrels = [];
           ot_constraints = [];
         });
    let p' = ok (Database.new_object db ~ty:"Part" ~attrs:[ ("Weight", Value.Int 5) ] ()) in
    check_bool "deterministic surrogate" true (Surrogate.equal p p');
    db
  in
  let j = ok (Journal.open_dir dir) in
  check_int "recovered matches oracle" 0
    (List.length (Fsck.diff ~oracle:(oracle ()) (Journal.db j)));
  let divergent = oracle () in
  ok (Database.set_attr divergent p "Weight" (Value.Int 6));
  check_bool "divergence detected" true
    (Fsck.diff ~oracle:divergent (Journal.db j) <> []);
  Journal.close j

let test_journal_full_scenario () =
  (* the whole steel scenario through the journal: build, reopen, verify *)
  let dir = tmp_dir "compo-steel" in
  let j = ok (Journal.open_dir dir) in
  ok (Compo_ddl.Elaborate.load_string (Journal.db j) Compo_scenarios.Paper_ddl.gates);
  (* schema loaded directly is not journaled; checkpoint captures it *)
  ok (Journal.checkpoint j);
  let iface_i = ok (Journal.new_object j ~ty:"GateInterface_I" ()) in
  let _ =
    ok
      (Journal.new_subobject j ~parent:iface_i ~subclass:"Pins"
         ~attrs:[ ("InOut", Value.Enum_case "IN"); ("PinLocation", Value.point 0 0) ]
         ())
  in
  let iface =
    ok
      (Journal.new_object j ~ty:"GateInterface"
         ~attrs:[ ("Length", Value.Int 4); ("Width", Value.Int 2) ]
         ())
  in
  let _ = ok (Journal.bind j ~via:"AllOf_GateInterface_I" ~transmitter:iface_i ~inheritor:iface ()) in
  let impl = ok (Journal.new_object j ~ty:"GateImplementation" ()) in
  let _ = ok (Journal.bind j ~via:"AllOf_GateInterface" ~transmitter:iface ~inheritor:impl ()) in
  Journal.close j;
  let j2 = ok (Journal.open_dir dir) in
  check_value "recovered inheritance" (Value.Int 4)
    (ok (Database.get_attr (Journal.db j2) impl "Length"));
  check_int "recovered pins" 1
    (List.length (ok (Database.subclass_members (Journal.db j2) impl "Pins")));
  Journal.close j2

let suite =
  ( "storage",
    [
      case "crc32 known vectors" test_crc32_known_vectors;
      case "value codec round-trip" test_value_roundtrip;
      case "decoder rejects garbage" test_decode_rejects_garbage;
      QCheck_alcotest.to_alcotest prop_value_roundtrip;
      case "schema codec round-trip" test_schema_roundtrip;
      case "store codec round-trip" test_store_roundtrip;
      case "snapshot save/load + corruption detection" test_snapshot_save_load;
      case "wal record round-trip" test_wal_record_roundtrip;
      case "journal recovery across sessions" test_journal_recovery;
      case "checkpoint truncates the wal" test_journal_checkpoint;
      case "torn wal tail tolerated" test_torn_tail_tolerated;
      case "corrupt first frame reads as zero records" test_corrupt_first_frame_total;
      case "overflowing frame length reads as unclean" test_overflowing_frame_length_total;
      case "corrupt wal header reads as unclean" test_corrupt_wal_header_total;
      case "append after torn tail survives reopen" test_append_after_torn_tail;
      case "checkpoint crash windows recover" test_checkpoint_crash_windows;
      case "double open_dir rejected" test_double_open_rejected;
      case "fsck report and oracle diff" test_fsck_clean_and_diff;
      case "full scenario through the journal" test_journal_full_scenario;
    ] )
