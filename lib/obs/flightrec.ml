type event = {
  ev_ts : float;
  ev_kind : string;
  ev_attrs : (string * string) list;
}

(* One process-wide bounded ring.  Recording is a mutex-guarded array
   store — cheap enough for connection-rate events (lifecycle, txn
   boundaries, drain phases), and never on a per-row hot path.  The
   ring is always armed: unlike the metrics registry there is no global
   switch, because the whole point is having the last events available
   when something already went wrong. *)
let m = Mutex.create ()
let default_capacity = 4096
let ring = ref (Array.make default_capacity None)
let pos = ref 0
let total = ref 0

let with_lock f =
  Mutex.lock m;
  Fun.protect ~finally:(fun () -> Mutex.unlock m) f

let set_capacity n =
  if n <= 0 then invalid_arg "Compo_obs.Flightrec.set_capacity";
  with_lock (fun () ->
      ring := Array.make n None;
      pos := 0;
      total := 0)

let capacity () = with_lock (fun () -> Array.length !ring)

let clear () =
  with_lock (fun () ->
      Array.fill !ring 0 (Array.length !ring) None;
      pos := 0;
      total := 0)

let record ?(attrs = []) kind =
  let ev = { ev_ts = Unix.gettimeofday (); ev_kind = kind; ev_attrs = attrs } in
  with_lock (fun () ->
      let buf = !ring in
      buf.(!pos) <- Some ev;
      pos := (!pos + 1) mod Array.length buf;
      incr total)

let recorded () = with_lock (fun () -> !total)

let recent () =
  with_lock (fun () ->
      let buf = !ring in
      let n = Array.length buf in
      let rec go acc i remaining =
        if remaining = 0 then acc
        else
          let i = (i - 1 + n) mod n in
          match buf.(i) with
          | None -> acc
          | Some ev -> go (ev :: acc) i (remaining - 1)
      in
      (* walks newest to oldest, prepending: the result is oldest-first *)
      go [] !pos (min !total n))

(* ------------------------------------------------------------------ *)
(* Environment configuration                                           *)

(* strict: a garbage capacity is a user error that dies with one line,
   never a silent fallback to the default *)
let parse_capacity raw =
  let raw = String.trim raw in
  match int_of_string_opt raw with
  | Some n when n >= 1 -> Ok n
  | Some _ | None ->
      Error (Printf.sprintf "must be a positive integer (got '%s')" raw)

let configure_from_env ?(getenv = Sys.getenv_opt) () =
  match getenv "COMPO_FLIGHTREC_CAPACITY" with
  | None -> Ok ()
  | Some raw -> (
      match parse_capacity raw with
      | Ok n ->
          set_capacity n;
          Ok ()
      | Error msg -> Error ("COMPO_FLIGHTREC_CAPACITY " ^ msg))

(* ------------------------------------------------------------------ *)
(* JSON round trip                                                     *)

module J = Json_min

let event_to_json ev =
  J.Obj
    [
      ("ts", J.Num ev.ev_ts);
      ("kind", J.Str ev.ev_kind);
      ("attrs", J.Obj (List.map (fun (k, v) -> (k, J.Str v)) ev.ev_attrs));
    ]

let to_json () =
  let events = recent () in
  J.to_string_json
    (J.Obj
       [
         ("flightrec", J.Num 1.);
         ("capacity", J.Num (float_of_int (capacity ())));
         ("recorded", J.Num (float_of_int (recorded ())));
         ("events", J.Arr (List.map event_to_json events));
       ])

let event_of_json j =
  match (J.member "ts" j, J.member "kind" j) with
  | Some ts, Some kind -> (
      match (J.to_float ts, J.to_string kind) with
      | Some ts, Some kind ->
          let attrs =
            match J.member "attrs" j with
            | Some a ->
                List.filter_map
                  (fun (k, v) -> Option.map (fun v -> (k, v)) (J.to_string v))
                  (J.obj_fields a)
            | None -> []
          in
          Ok { ev_ts = ts; ev_kind = kind; ev_attrs = attrs }
      | _ -> Error "event ts/kind have the wrong type")
  | _ -> Error "event missing ts or kind"

let of_json j =
  match J.member "flightrec" j with
  | None -> Error "not a flight-recorder dump (no \"flightrec\" field)"
  | Some _ ->
      let rec go acc = function
        | [] -> Ok (List.rev acc)
        | ev :: rest -> (
            match event_of_json ev with
            | Ok ev -> go (ev :: acc) rest
            | Error _ as e -> e)
      in
      go [] (match J.member "events" j with Some e -> J.to_list e | None -> [])

let dump_to_file path =
  match
    Out_channel.with_open_bin path (fun oc ->
        Out_channel.output_string oc (to_json ());
        Out_channel.output_char oc '\n')
  with
  | () -> Ok ()
  | exception Sys_error msg -> Error msg

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let pp_event ?(t0 = 0.) fmt ev =
  Format.fprintf fmt "%+10.3fs  %-22s" (ev.ev_ts -. t0) ev.ev_kind;
  List.iter (fun (k, v) -> Format.fprintf fmt " %s=%s" k v) ev.ev_attrs

let pp_events fmt events =
  let t0 = match events with [] -> 0. | ev :: _ -> ev.ev_ts in
  List.iter (fun ev -> Format.fprintf fmt "%a@." (pp_event ~t0) ev) events
