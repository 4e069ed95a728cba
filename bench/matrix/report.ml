module J = Compo_obs.Json_min

type outcome = Ok_run | Failed of string | Skipped of string

type row = {
  r_id : string;
  r_axes : (string * string) list;
  r_outcome : outcome;
  r_wall_s : float;
  r_metrics : (string * float) list;
}

type t = {
  m_smoke : bool;
  m_cores : int;
  m_suite : string list;
  m_rows : row list;
}

let outcome_to_string = function
  | Ok_run -> "ok"
  | Failed _ -> "failed"
  | Skipped _ -> "skipped"

let find_row t id =
  List.find_opt (fun r -> String.equal r.r_id id) t.m_rows

(* ------------------------------------------------------------------ *)
(* Writing: the same hand-pretty-printed style as the other BENCH_*
   reports — one row object per line, stable field order. *)

let bprint_row b row =
  Printf.bprintf b "    { \"id\": %s,\n" (J.escape_string row.r_id);
  Printf.bprintf b "      \"axes\": { %s },\n"
    (String.concat ", "
       (List.map
          (fun (a, v) -> Printf.sprintf "%s: %s" (J.escape_string a) (J.escape_string v))
          row.r_axes));
  Printf.bprintf b "      \"outcome\": %s,"
    (J.escape_string (outcome_to_string row.r_outcome));
  (match row.r_outcome with
  | Ok_run -> ()
  | Failed reason | Skipped reason ->
      Printf.bprintf b " \"reason\": %s," (J.escape_string reason));
  if Float.is_nan row.r_wall_s then Buffer.add_string b " \"wall_s\": null,\n"
  else Printf.bprintf b " \"wall_s\": %.3f,\n" row.r_wall_s;
  Printf.bprintf b "      \"metrics\": { %s } }"
    (String.concat ", "
       (List.map
          (fun (name, v) ->
            Printf.sprintf "%s: %s" (J.escape_string name)
              (if Float.is_nan v then "null" else J.number_to_string v))
          row.r_metrics))

let write_file path t =
  let b = Buffer.create 4096 in
  Buffer.add_string b "{\n";
  Buffer.add_string b "  \"experiment\": \"E20\",\n";
  Buffer.add_string b
    "  \"description\": \"ablation matrix: curated bench suite run once \
     per configuration cell (resolve cache x index x compile x delta \
     x provenance x failpoints), outcomes and skips as first-class rows\",\n";
  Printf.bprintf b "  \"smoke\": %b,\n" t.m_smoke;
  Printf.bprintf b "  \"cores\": %d,\n" t.m_cores;
  Printf.bprintf b "  \"suite\": [%s],\n"
    (String.concat ", " (List.map J.escape_string t.m_suite));
  Buffer.add_string b "  \"rows\": [\n";
  let n = List.length t.m_rows in
  List.iteri
    (fun i row ->
      bprint_row b row;
      Buffer.add_string b (if i = n - 1 then "\n" else ",\n"))
    t.m_rows;
  Buffer.add_string b "  ]\n}\n";
  let oc = open_out path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () -> output_string oc (Buffer.contents b))

(* ------------------------------------------------------------------ *)
(* Reading                                                             *)

let ( let* ) = Result.bind

let row_of_json j =
  let str field = Option.bind (J.member field j) J.to_string in
  let* id =
    match str "id" with
    | Some id -> Ok id
    | None -> Error "matrix row without an id"
  in
  let axes =
    match J.member "axes" j with
    | Some a ->
        List.filter_map
          (fun (k, v) -> Option.map (fun v -> (k, v)) (J.to_string v))
          (J.obj_fields a)
    | None -> []
  in
  let reason = Option.value ~default:"" (str "reason") in
  let* outcome =
    match str "outcome" with
    | Some "ok" -> Ok Ok_run
    | Some "failed" -> Ok (Failed reason)
    | Some "skipped" -> Ok (Skipped reason)
    | Some other -> Error (Printf.sprintf "row %s: unknown outcome %S" id other)
    | None -> Error (Printf.sprintf "row %s: no outcome" id)
  in
  let wall_s =
    match Option.bind (J.member "wall_s" j) J.to_float with
    | Some f -> f
    | None -> Float.nan
  in
  let metrics =
    match J.member "metrics" j with
    | Some m ->
        List.filter_map
          (fun (k, v) -> Option.map (fun f -> (k, f)) (J.to_float v))
          (J.obj_fields m)
    | None -> []
  in
  Ok { r_id = id; r_axes = axes; r_outcome = outcome; r_wall_s = wall_s;
       r_metrics = metrics }

(* every error names the file: benchdiff loads two matrices, and "row
   without an id" alone does not say which one is broken *)
let read_file path =
  Result.map_error (fun e -> path ^ ": " ^ e)
  @@
  let* root = J.parse_file path in
  let bool_field field =
    match J.member field root with Some (J.Bool b) -> b | _ -> false
  in
  let int_field field =
    match Option.bind (J.member field root) J.to_float with
    | Some f -> int_of_float f
    | None -> 0
  in
  let suite =
    match J.member "suite" root with
    | Some s -> List.filter_map J.to_string (J.to_list s)
    | None -> []
  in
  let* rows =
    match J.member "rows" root with
    | None -> Error "no \"rows\" array"
    | Some rows ->
        List.fold_left
          (fun acc j ->
            let* acc = acc in
            let* row = row_of_json j in
            Ok (row :: acc))
          (Ok []) (J.to_list rows)
        |> Result.map List.rev
  in
  Ok
    {
      m_smoke = bool_field "smoke";
      m_cores = int_field "cores";
      m_suite = suite;
      m_rows = rows;
    }
