type hop_kind =
  | Local
  | Follow of {
      via : string;
      link : string;
      transmitter : string;
      permeable : bool;
    }
  | Unbound

type hop = { hop_object : string; hop_type : string; hop_kind : hop_kind }

type read = {
  r_object : string;
  r_attr : string;
  r_hops : hop list;
  r_value : string;
  r_trace : string option;
}

let source_of r =
  List.find_map
    (fun h -> match h.hop_kind with Local -> Some h.hop_object | _ -> None)
    r.r_hops

(* ------------------------------------------------------------------ *)
(* Collector                                                           *)

let on = ref false

(* The collector is a single global slot, which is sound because the
   kernel has a single owner: one domain at a time resolves reads (the
   network server's loop, or the caller in process), so there is one
   writer. *)
let enabled () = !on

let enable () = on := true

(* COMPO_PROVENANCE=1 switches the collector on at startup: the
   ablation matrix uses it to measure the recording overhead as a
   configuration axis without threading a flag through every harness. *)
let configure_from_env ?(getenv = Sys.getenv_opt) () =
  match getenv "COMPO_PROVENANCE" with
  | Some ("1" | "true" | "yes") -> on := true
  | Some _ | None -> ()

(* One read in flight at a time: resolution is synchronous and the
   recursion never issues a nested [attr] call, so a single slot (hops
   accumulated in reverse) is enough. *)
type in_flight = {
  mutable f_object : string;
  mutable f_attr : string;
  mutable f_rev_hops : hop list;
  mutable f_open : bool;
}

let flight = { f_object = ""; f_attr = ""; f_rev_hops = []; f_open = false }
let capacity = 64
let finished : read list ref = ref []
let finished_len = ref 0

let clear () =
  flight.f_open <- false;
  flight.f_rev_hops <- [];
  finished := [];
  finished_len := 0

let disable () =
  on := false;
  clear ()

let begin_read ~origin ~attr =
  if enabled () then begin
    flight.f_object <- origin;
    flight.f_attr <- attr;
    flight.f_rev_hops <- [];
    flight.f_open <- true
  end

let add_hop h = if enabled () && flight.f_open then flight.f_rev_hops <- h :: flight.f_rev_hops

let abort_read () =
  if flight.f_open then begin
    flight.f_open <- false;
    flight.f_rev_hops <- []
  end

let finish_read ~value =
  if enabled () && flight.f_open then begin
    let r =
      {
        r_object = flight.f_object;
        r_attr = flight.f_attr;
        r_hops = List.rev flight.f_rev_hops;
        r_value = value;
        r_trace = Trace.current_trace ();
      }
    in
    flight.f_open <- false;
    flight.f_rev_hops <- [];
    let keep = if !finished_len >= capacity then capacity - 1 else !finished_len in
    finished := r :: List.filteri (fun i _ -> i < keep) !finished;
    finished_len := keep + 1
  end

let last () = match !finished with r :: _ -> Some r | [] -> None
let recent () = !finished

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)

let pp_hop ppf ~indent h =
  let pad = String.make indent ' ' in
  match h.hop_kind with
  | Local ->
      Format.fprintf ppf "%s%s : %s  [source: attribute is owned here]"
        pad h.hop_object h.hop_type
  | Unbound ->
      Format.fprintf ppf "%s%s : %s  [unbound: no transmitter -> null]"
        pad h.hop_object h.hop_type
  | Follow { via; link; transmitter; permeable } ->
      Format.fprintf ppf
        "%s%s : %s@,%s  via %s (link %s)  permeability: %s@,%s  -> transmitter %s"
        pad h.hop_object h.hop_type pad via link
        (if permeable then "inherits" else "blocked")
        pad transmitter

let pp_hops ppf hops =
  Format.pp_open_vbox ppf 0;
  List.iteri
    (fun i h ->
      if i > 0 then Format.pp_print_cut ppf ();
      pp_hop ppf ~indent:(2 * i) h)
    hops;
  Format.pp_close_box ppf ()

let pp_read ppf r =
  Format.fprintf ppf "@[<v>read %s.%s = %s@,source: %s%t@,chain:@,%a@]"
    r.r_object r.r_attr r.r_value
    (match source_of r with Some s -> s | None -> "none (null)")
    (fun ppf ->
      match r.r_trace with
      | None -> ()
      | Some id -> Format.fprintf ppf "@,trace: %s" id)
    pp_hops r.r_hops
