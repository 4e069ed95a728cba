type axis = { ax_name : string; ax_values : string list }

(* canonical axis order; ids and tables render in this order *)
let canonical = [ "index"; "compile"; "delta"; "prov"; "fp" ]

let axis_rank name =
  let rec go i = function
    | [] -> (List.length canonical, name)
    | n :: rest -> if String.equal n name then (i, "") else go (i + 1) rest
  in
  go 0 canonical

type t = { c_axes : (string * string) list }

let make pairs =
  {
    c_axes =
      List.stable_sort
        (fun (a, _) (b, _) -> compare (axis_rank a) (axis_rank b))
        pairs;
  }

let axes t = t.c_axes

let id t =
  String.concat " " (List.map (fun (a, v) -> a ^ "=" ^ v) t.c_axes)

let value t name = List.assoc_opt name t.c_axes

(* a countdown no bench run can exhaust: the site stays armed (every
   hit pays the check) and the fault never fires *)
let failpoint_spec = "wal.append.before_frame=error@1000000000"

let env t =
  List.concat_map
    (fun (axis, v) ->
      match (axis, v) with
      | "index", "off" -> [ ("COMPO_NO_INDEX", "1") ]
      | "index", _ -> []
      | "compile", "off" -> [ ("COMPO_NO_COMPILE", "1") ]
      | "compile", _ -> []
      | "delta", "off" -> [ ("COMPO_NO_DELTA", "1") ]
      | "delta", _ -> []
      | "prov", "on" -> [ ("COMPO_PROVENANCE", "1") ]
      | "prov", _ -> []
      | "fp", "armed" -> [ ("COMPO_FAILPOINTS", failpoint_spec) ]
      | "fp", _ -> []
      | _, _ -> [])
    t.c_axes

let product axes_list =
  let rec go = function
    | [] -> [ [] ]
    | ax :: rest ->
        let tails = go rest in
        List.concat_map
          (fun v -> List.map (fun tail -> (ax.ax_name, v) :: tail) tails)
          ax.ax_values
  in
  List.map make (go axes_list)

let dedup cells =
  let seen = Hashtbl.create 16 in
  List.filter
    (fun c ->
      let k = id c in
      if Hashtbl.mem seen k then false
      else begin
        Hashtbl.add seen k ();
        true
      end)
    cells

let default_cells () =
  let onoff name = { ax_name = name; ax_values = [ "on"; "off" ] } in
  (* the main ablation block: every index x compile x prov combination,
     failpoints unarmed *)
  let base =
    product
      [
        onoff "index";
        onoff "compile";
        { ax_name = "delta"; ax_values = [ "on" ] };
        { ax_name = "prov"; ax_values = [ "off"; "on" ] };
        { ax_name = "fp"; ax_values = [ "off" ] };
      ]
  in
  (* single flip: failpoint machinery armed on the baseline config,
     measuring what an armed-but-never-firing site costs *)
  let fp_armed =
    [
      make
        [
          ("index", "on"); ("compile", "on");
          ("delta", "on"); ("prov", "off"); ("fp", "armed");
        ];
    ]
  in
  (* delta flip: the compiled engine with incremental plan maintenance
     disabled (every change-log window falls back to a full epoch
     rebuild) — what the delta machinery buys the baseline *)
  let delta_off =
    [
      make
        [
          ("index", "on"); ("compile", "on");
          ("delta", "off"); ("prov", "off"); ("fp", "off");
        ];
    ]
  in
  dedup (base @ fp_armed @ delta_off)
