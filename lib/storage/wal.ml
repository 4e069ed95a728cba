open Compo_core

let ( let* ) = Result.bind

module Obs = Compo_obs.Metrics
module Failpoint = Compo_faults.Failpoint

let m_append = Obs.counter "wal.append"
let m_append_bytes = Obs.counter "wal.append.bytes"
let m_replay = Obs.counter "wal.replay"

(* Crash points at every append boundary.  [before_frame] loses the record
   entirely, [frame] can tear or corrupt it on disk, [after_frame] crashes
   with the record durable; [header.write] tears the epoch header a
   truncation writes. *)
let fp_before_frame = Failpoint.register "wal.append.before_frame"
let fp_frame = Failpoint.register "wal.append.frame"
let fp_after_frame = Failpoint.register "wal.append.after_frame"
let fp_header = Failpoint.register "wal.header.write"

type record =
  | Define_domain of { name : string; domain : Domain.t }
  | Define of string
  | Create_class of { name : string; member_type : string }
  | Create_object of {
      cls : string option;
      ty : string;
      attrs : (string * Value.t) list;
      expect : Surrogate.t;
    }
  | Create_subobject of {
      parent : Surrogate.t;
      subclass : string;
      attrs : (string * Value.t) list;
      expect : Surrogate.t;
    }
  | Create_relationship of {
      ty : string;
      participants : (string * Value.t) list;
      attrs : (string * Value.t) list;
      expect : Surrogate.t;
    }
  | Create_subrel of {
      parent : Surrogate.t;
      subrel : string;
      participants : (string * Value.t) list;
      attrs : (string * Value.t) list;
      expect : Surrogate.t;
    }
  | Set_attr of { target : Surrogate.t; name : string; value : Value.t }
  | Bind of {
      via : string;
      transmitter : Surrogate.t;
      inheritor : Surrogate.t;
      expect : Surrogate.t;
    }
  | Unbind of { inheritor : Surrogate.t }
  | Delete of { target : Surrogate.t; force : bool }
  | Acknowledge of { link : Surrogate.t }

module Enc = Codec.Enc
module Dec = Codec.Dec

let enc_attrs b attrs =
  Enc.list b
    (fun (n, v) ->
      Enc.string b n;
      Codec.encode_value b v)
    attrs

let dec_attrs d =
  Dec.list d (fun () ->
      let* n = Dec.string d in
      let* v = Codec.decode_value d in
      Ok (n, v))

let enc_sur b s = Enc.int b (Surrogate.to_int s)

let dec_sur d =
  let* i = Dec.int d in
  Ok (Surrogate.of_int i)

let encode_record r =
  let b = Enc.create () in
  (match r with
  | Define_domain { name; domain } ->
      Enc.byte b 0;
      Enc.string b name;
      Codec.encode_domain b domain
  | Define entry ->
      Enc.byte b 1;
      Enc.string b entry
  | Create_class { name; member_type } ->
      Enc.byte b 2;
      Enc.string b name;
      Enc.string b member_type
  | Create_object { cls; ty; attrs; expect } ->
      Enc.byte b 3;
      Enc.option b (Enc.string b) cls;
      Enc.string b ty;
      enc_attrs b attrs;
      enc_sur b expect
  | Create_subobject { parent; subclass; attrs; expect } ->
      Enc.byte b 4;
      enc_sur b parent;
      Enc.string b subclass;
      enc_attrs b attrs;
      enc_sur b expect
  | Create_relationship { ty; participants; attrs; expect } ->
      Enc.byte b 5;
      Enc.string b ty;
      enc_attrs b participants;
      enc_attrs b attrs;
      enc_sur b expect
  | Create_subrel { parent; subrel; participants; attrs; expect } ->
      Enc.byte b 6;
      enc_sur b parent;
      Enc.string b subrel;
      enc_attrs b participants;
      enc_attrs b attrs;
      enc_sur b expect
  | Set_attr { target; name; value } ->
      Enc.byte b 7;
      enc_sur b target;
      Enc.string b name;
      Codec.encode_value b value
  | Bind { via; transmitter; inheritor; expect } ->
      Enc.byte b 8;
      Enc.string b via;
      enc_sur b transmitter;
      enc_sur b inheritor;
      enc_sur b expect
  | Unbind { inheritor } ->
      Enc.byte b 9;
      enc_sur b inheritor
  | Delete { target; force } ->
      Enc.byte b 10;
      enc_sur b target;
      Enc.bool b force
  | Acknowledge { link } ->
      Enc.byte b 11;
      enc_sur b link);
  Enc.contents b

let decode_record payload =
  let d = Dec.of_string payload in
  let* tag = Dec.byte d in
  match tag with
  | 0 ->
      let* name = Dec.string d in
      let* domain = Codec.decode_domain d in
      Ok (Define_domain { name; domain })
  | 1 ->
      let* entry = Dec.string d in
      Ok (Define entry)
  | 2 ->
      let* name = Dec.string d in
      let* member_type = Dec.string d in
      Ok (Create_class { name; member_type })
  | 3 ->
      let* cls = Dec.option d (fun () -> Dec.string d) in
      let* ty = Dec.string d in
      let* attrs = dec_attrs d in
      let* expect = dec_sur d in
      Ok (Create_object { cls; ty; attrs; expect })
  | 4 ->
      let* parent = dec_sur d in
      let* subclass = Dec.string d in
      let* attrs = dec_attrs d in
      let* expect = dec_sur d in
      Ok (Create_subobject { parent; subclass; attrs; expect })
  | 5 ->
      let* ty = Dec.string d in
      let* participants = dec_attrs d in
      let* attrs = dec_attrs d in
      let* expect = dec_sur d in
      Ok (Create_relationship { ty; participants; attrs; expect })
  | 6 ->
      let* parent = dec_sur d in
      let* subrel = Dec.string d in
      let* participants = dec_attrs d in
      let* attrs = dec_attrs d in
      let* expect = dec_sur d in
      Ok (Create_subrel { parent; subrel; participants; attrs; expect })
  | 7 ->
      let* target = dec_sur d in
      let* name = Dec.string d in
      let* value = Codec.decode_value d in
      Ok (Set_attr { target; name; value })
  | 8 ->
      let* via = Dec.string d in
      let* transmitter = dec_sur d in
      let* inheritor = dec_sur d in
      let* expect = dec_sur d in
      Ok (Bind { via; transmitter; inheritor; expect })
  | 9 ->
      let* inheritor = dec_sur d in
      Ok (Unbind { inheritor })
  | 10 ->
      let* target = dec_sur d in
      let* force = Dec.bool d in
      Ok (Delete { target; force })
  | 11 ->
      let* link = dec_sur d in
      Ok (Acknowledge { link })
  | t -> Error (Errors.Io_error (Printf.sprintf "bad WAL record tag %d" t))

(* file: [magic: 8 bytes][epoch: 8 bytes LE] then frames.  The epoch pairs
   the log with the snapshot generation it continues (Journal.checkpoint
   bumps it); recovery discards a log whose epoch does not match the
   snapshot's, which closes the crash window between the snapshot rename
   and the truncation. *)
let magic = "COMPOWAL"
let header_len = 16

let write_header chan ~epoch =
  let b = Bytes.create header_len in
  Bytes.blit_string magic 0 b 0 8;
  Bytes.set_int64_le b 8 (Int64.of_int epoch);
  Failpoint.output fp_header chan (Bytes.to_string b);
  Out_channel.flush chan

(* frame: [payload length: 8 bytes LE][crc32: 8 bytes LE][payload] *)
let append chan r =
  (* the span histogram lives under .latency; "wal.append" itself stays a
     plain counter so record counts line up with journal entries *)
  Compo_obs.Trace.with_span "wal.append.latency" @@ fun () ->
  let payload = encode_record r in
  let header = Enc.create () in
  Enc.int header (String.length payload);
  Enc.int header (Int32.to_int (Codec.crc32 payload) land 0xFFFFFFFF);
  Failpoint.hit fp_before_frame;
  (* header and payload go out as one buffer so a torn-write failpoint can
     land the crash at any byte of the frame *)
  Failpoint.output fp_frame chan (Enc.contents header ^ payload);
  Out_channel.flush chan;
  Failpoint.hit fp_after_frame;
  Obs.incr m_append;
  Obs.add m_append_bytes (header_len + String.length payload)

type replay = {
  rp_epoch : int option;
  rp_records : record list;
  rp_clean : bool;
  rp_clean_bytes : int;
}

let read_file path =
  match In_channel.with_open_bin path In_channel.input_all with
  | exception Sys_error _ ->
      { rp_epoch = None; rp_records = []; rp_clean = true; rp_clean_bytes = 0 }
  | "" ->
      { rp_epoch = None; rp_records = []; rp_clean = true; rp_clean_bytes = 0 }
  | contents when
      String.length contents < header_len
      || not (String.equal (String.sub contents 0 8) magic) ->
      (* torn or corrupt epoch header: nothing in this file is trustworthy *)
      { rp_epoch = None; rp_records = []; rp_clean = false; rp_clean_bytes = 0 }
  | contents ->
      let epoch = Int64.to_int (String.get_int64_le contents 8) in
      let len = String.length contents in
      let finish acc clean pos =
        {
          rp_epoch = Some epoch;
          rp_records = List.rev acc;
          rp_clean = clean;
          rp_clean_bytes = pos;
        }
      in
      let rec go acc pos =
        if pos = len then finish acc true pos
        else if pos + 16 > len then finish acc false pos
        else
          let payload_len = Int64.to_int (String.get_int64_le contents pos) in
          let crc = Int64.to_int (String.get_int64_le contents (pos + 8)) in
          (* the length bound is phrased as a subtraction: a corrupt header
             can claim a near-max_int payload, and [pos + 16 + payload_len]
             would overflow past the check into String.sub *)
          if payload_len < 0 || payload_len > len - pos - 16 then
            finish acc false pos
          else
            let payload = String.sub contents (pos + 16) payload_len in
            if Int32.to_int (Codec.crc32 payload) land 0xFFFFFFFF <> crc then
              finish acc false pos
            else
              match decode_record payload with
              | Ok r -> go (r :: acc) (pos + 16 + payload_len)
              | Error _ -> finish acc false pos
      in
      go [] header_len

let check_expected what expect got =
  if Surrogate.equal expect got then Ok ()
  else
    Error
      (Errors.Io_error
         (Printf.sprintf "WAL replay diverged: %s produced %s, expected %s" what
            (Surrogate.to_string got) (Surrogate.to_string expect)))

let apply db r =
  Obs.incr m_replay;
  match r with
  | Define_domain { name; domain } -> Database.define_domain db name domain
  | Define blob -> (
      let d = Dec.of_string blob in
      let* entry = Codec.decode_entry d in
      match entry with
      | Schema.Obj_type o -> Database.define_obj_type db o
      | Schema.Rel_type rt -> Database.define_rel_type db rt
      | Schema.Inher_type it -> Database.define_inher_rel_type db it)
  | Create_class { name; member_type } -> Database.create_class db ~name ~member_type
  | Create_object { cls; ty; attrs; expect } ->
      let* s = Database.new_object db ?cls ~ty ~attrs () in
      check_expected "create-object" expect s
  | Create_subobject { parent; subclass; attrs; expect } ->
      let* s = Database.new_subobject db ~parent ~subclass ~attrs () in
      check_expected "create-subobject" expect s
  | Create_relationship { ty; participants; attrs; expect } ->
      let* s = Database.new_relationship db ~ty ~participants ~attrs () in
      check_expected "create-relationship" expect s
  | Create_subrel { parent; subrel; participants; attrs; expect } ->
      let* s = Database.new_subrel db ~parent ~subrel ~participants ~attrs () in
      check_expected "create-subrel" expect s
  | Set_attr { target; name; value } -> Database.set_attr db target name value
  | Bind { via; transmitter; inheritor; expect } ->
      let* link = Database.bind db ~via ~transmitter ~inheritor () in
      check_expected "bind" expect link
  | Unbind { inheritor } -> Database.unbind db inheritor
  | Delete { target; force } -> Database.delete db ~force target
  | Acknowledge { link } -> Database.acknowledge db link
