open Compo_core

let ( let* ) = Result.bind

type entry = {
  ce_use : Surrogate.t;
  ce_owner : Surrogate.t;
  ce_component : Surrogate.t;
  ce_via : string;
  ce_stale : bool;
  ce_version : (string * int * Version_graph.state) option;
  ce_is_default : bool;
  ce_newer_stable : int list;
}

let stable_descendants g id =
  (* strict descendants in Released/Frozen state, by BFS over successors *)
  let rec go acc frontier =
    match frontier with
    | [] -> List.sort_uniq Int.compare acc
    | v :: rest ->
        let succs = Version_graph.successors g v in
        let fresh = List.filter (fun s -> not (List.mem s acc)) succs in
        let stable =
          List.filter
            (fun s ->
              match Version_graph.state_of g s with
              | Ok (Version_graph.Released | Version_graph.Frozen) -> true
              | Ok Version_graph.In_work | Error _ -> false)
            fresh
        in
        go (stable @ acc) (fresh @ rest)
  in
  go [] [ id ]

let entry_of_use reg store ~owner use (b : Store.binding) =
  let stale =
    match Store.is_stale store b.Store.b_link with
    | Ok s -> s
    | Error _ -> false
  in
  match Versioned.graph_of_object reg b.Store.b_transmitter with
  | None ->
      {
        ce_use = use;
        ce_owner = owner;
        ce_component = b.Store.b_transmitter;
        ce_via = b.Store.b_via;
        ce_stale = stale;
        ce_version = None;
        ce_is_default = false;
        ce_newer_stable = [];
      }
  | Some (g, id) ->
      let state =
        match Version_graph.state_of g id with
        | Ok st -> st
        | Error _ -> Version_graph.In_work
      in
      {
        ce_use = use;
        ce_owner = owner;
        ce_component = b.Store.b_transmitter;
        ce_via = b.Store.b_via;
        ce_stale = stale;
        ce_version = Some (Version_graph.name g, id, state);
        ce_is_default = Version_graph.default_version g = Some id;
        ce_newer_stable = stable_descendants g id;
      }

let configuration reg store root =
  let seen = ref Surrogate.Set.empty in
  let entries = ref [] in
  let rec go ~owner s =
    if not (Surrogate.Set.mem s !seen) then begin
      seen := Surrogate.Set.add s !seen;
      match Store.get store s with
      | Error _ -> ()
      | Ok e ->
          (match e.Store.bound with
          | Some b when not (Surrogate.equal s root) ->
              entries := entry_of_use reg store ~owner s b :: !entries;
              go ~owner:s b.Store.b_transmitter
          | Some _ | None -> ());
          Store.Smap.iter (fun _ ms -> List.iter (go ~owner:s) ms) e.Store.subobjs;
          Store.Smap.iter (fun _ ms -> List.iter (go ~owner:s) ms) e.Store.subrels
    end
  in
  let* _ = Store.get store root in
  go ~owner:root root;
  Ok (List.rev !entries)

let outdated entries = List.filter (fun e -> e.ce_newer_stable <> []) entries
let unmanaged entries = List.filter (fun e -> e.ce_version = None) entries

let pp_entry ppf e =
  Format.fprintf ppf "%a uses %a via %s" Surrogate.pp e.ce_use Surrogate.pp
    e.ce_component e.ce_via;
  (match e.ce_version with
  | Some (g, v, st) ->
      Format.fprintf ppf " [%s v%d %s%s]" g v
        (Version_graph.state_to_string st)
        (if e.ce_is_default then ", default" else "")
  | None -> Format.fprintf ppf " [unmanaged]");
  if e.ce_newer_stable <> [] then
    Format.fprintf ppf " newer: %s"
      (String.concat "," (List.map string_of_int e.ce_newer_stable));
  if e.ce_stale then Format.fprintf ppf " STALE"
