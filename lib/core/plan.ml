(* Compiled flat query plans: adjacency registry + closure compilation +
   materialized resolved-value columns with a numeric shadow scanned by
   the numeric kernel, all delta-maintained against the store's typed
   change log.  See plan.mli for the contract; the
   load-bearing invariant throughout is that a compiled scan keeps a row
   iff the interpreted scan would keep it (same order, same rows), which
   the differential oracle in test/test_par_diff.ml checks over
   hundreds of random schemas — now with mutation batches interleaved
   between the selects, so the delta path itself is under the oracle. *)

module Obs = Compo_obs.Metrics

let m_compiled = Obs.counter "plan.scan.compiled"
let m_fallback = Obs.counter "plan.scan.fallback"
let m_registry_build = Obs.counter "plan.registry.build"
let m_col_build = Obs.counter "plan.column.build"
let m_col_hit = Obs.counter "plan.column.hit"

(* delta maintenance: batches applied, change records consumed, cells
   re-walked in place, cells refreshed from a written value, fallbacks
   to a full rebuild, registry slots patched, and tombstone compactions *)
let m_delta_apply = Obs.counter "plan.delta.apply"
let m_delta_changes = Obs.counter "plan.delta.changes"
let m_delta_cells = Obs.counter "plan.delta.cells"
let m_delta_refresh = Obs.counter "plan.delta.refresh"
let m_delta_rebuild = Obs.counter "plan.delta.rebuild"
let m_delta_patch = Obs.counter "plan.delta.registry.patch"
let m_delta_compact = Obs.counter "plan.delta.registry.compact"

(* ------------------------------------------------------------------ *)
(* Escape hatches                                                      *)

let env_bool var =
  match Sys.getenv_opt var with
  | Some ("1" | "true" | "yes") -> false
  | Some _ | None -> true

let enabled_ref = ref (env_bool "COMPO_NO_COMPILE")
let enabled () = !enabled_ref
let set_enabled b = enabled_ref := b

let delta_ref = ref (env_bool "COMPO_NO_DELTA")
let delta_enabled () = !delta_ref
let set_delta_enabled b = delta_ref := b

let parse_bool_env name cell = function
  | None -> Ok ()
  | Some ("1" | "true" | "yes") ->
      cell := false;
      Ok ()
  | Some ("0" | "false" | "no") ->
      cell := true;
      Ok ()
  | Some v ->
      Error
        (Printf.sprintf
           "%s must be a boolean (0/1/true/false/yes/no) (got '%s')" name v)

let configure_from_env ?(getenv = Sys.getenv_opt) () =
  match parse_bool_env "COMPO_NO_COMPILE" enabled_ref (getenv "COMPO_NO_COMPILE") with
  | Error _ as e -> e
  | Ok () -> parse_bool_env "COMPO_NO_DELTA" delta_ref (getenv "COMPO_NO_DELTA")

(* Delta tuning knobs, exposed for tests and benchmarks: a column whose
   dirty fraction exceeds [dirty_threshold] is rebuilt from scratch
   instead of refilled cell by cell; a registry with at least
   [compact_min] slots of which a quarter are tombstones is compacted. *)
let dirty_threshold = ref 0.5
let set_dirty_threshold f = dirty_threshold := f
let compact_min = ref 64
let set_compact_min n = compact_min := max 1 n

(* ------------------------------------------------------------------ *)
(* Per-store state, stamped with the mutation epoch it was derived at.
   Every data mutation advances the epoch and logs one change record, so
   a stale stamp means "catch up": the registry and each column apply
   exactly the records since their stamp.  Only a window the sliding log
   no longer holds or a [Ch_global] record forces a wholesale rebuild. *)

(* the relationship graph flattened: one dense slot per entity, the
   transmitter edge as an int index (-1 unbound, -2 dangling, -3 dead).
   Deletions tombstone their slot in place; appends grow the arrays by
   doubling; compaction squeezes tombstones out preserving slot order. *)
type registry = {
  mutable reg_stamp : int;  (* plan epoch *)
  reg_ids : int Surrogate.Tbl.t;  (* surrogate -> live slot *)
  mutable reg_ents : Store.entity array;  (* slot -> entity record *)
  mutable reg_trans : int array;  (* slot -> transmitter slot *)
  mutable reg_len : int;  (* used slots, tombstones included *)
  mutable reg_dead : int;  (* tombstones among them *)
  mutable reg_edges : int;  (* bound entities *)
}

(* how a (type, attribute) pair resolves, memoised so the scan does not
   re-derive the effective-attribute list from the schema per row/hop *)
type decision = Own | Via | Absent

(* what a materialized column holds: a single resolved attribute, a
   multi-segment reference chain, or a whole interpreter-filled
   sub-expression (quantifiers, [in] over a path) *)
type colspec = Cattr of string | Cpath of string list | Cexpr of Expr.t

let spec_equal a b =
  match (a, b) with
  | Cattr x, Cattr y -> String.equal x y
  | Cpath p, Cpath q -> List.equal String.equal p q
  | Cexpr x, Cexpr y -> Expr.equal x y
  | (Cattr _ | Cpath _ | Cexpr _), _ -> false

let spec_key = function
  | Cattr a -> "a:" ^ a
  | Cpath p -> "p:" ^ String.concat "." p
  | Cexpr e -> "e:" ^ Expr.to_string e

let spec_label = function
  | Cattr a -> a
  | Cpath p -> String.concat "."  p
  | Cexpr e -> Expr.to_string e

type state = {
  mutable s_registry : registry option;
  s_columns : (string * string, column) Hashtbl.t;  (* (cls, spec key) *)
  s_decisions : (string * string, decision) Hashtbl.t;  (* (type, attr) *)
}

and column = {
  mutable col_stamp : int;  (* plan epoch *)
  col_cls : string;
  col_spec : colspec;
  mutable col_members : Surrogate.t array;  (* extent snapshot, class order *)
  mutable col_vals : Value.t array;
  mutable col_err : bool array;  (* the interpreter would error here *)
  mutable col_volatile : bool array;  (* interp-filled: dirty on any change *)
  mutable col_nvol : int;  (* rows with [col_volatile] set *)
  mutable col_rows : int Surrogate.Tbl.t;  (* member -> row *)
  mutable col_deps : Surrogate.t list array;  (* row -> resolution chain *)
  col_rdeps : Surrogate.t list Surrogate.Tbl.t;  (* chain entity -> members *)
  (* numeric shadow, [Cattr] columns only (empty otherwise): row -> the
     cell as a float, valid where [col_kind] says [k_num] *)
  mutable col_num : float array;
  mutable col_kind : Bytes.t;
}

type Store.plan_slot += Slot of state

let state_of store =
  match Store.plan_slot store with
  | Some (Slot st) -> st
  | Some _ | None ->
      let st =
        {
          s_registry = None;
          s_columns = Hashtbl.create 16;
          s_decisions = Hashtbl.create 64;
        }
      in
      Store.set_plan_slot store (Slot st);
      st

(* ------------------------------------------------------------------ *)
(* Registry: build, patch, compact                                     *)

let build_registry store stamp =
  Obs.incr m_registry_build;
  let ents = Array.of_list (Store.fold store (fun acc e -> e :: acc) []) in
  let n = Array.length ents in
  let ids = Surrogate.Tbl.create (max 16 (2 * n)) in
  Array.iteri (fun i e -> Surrogate.Tbl.replace ids e.Store.id i) ents;
  let edges = ref 0 in
  let trans =
    Array.init n (fun i ->
        match ents.(i).Store.bound with
        | None -> -1
        | Some b -> (
            incr edges;
            match Surrogate.Tbl.find_opt ids b.Store.b_transmitter with
            | Some j -> j
            | None -> -2))
  in
  { reg_stamp = stamp; reg_ids = ids; reg_ents = ents; reg_trans = trans;
    reg_len = n; reg_dead = 0; reg_edges = !edges }

(* raised mid-delta when a record cannot be applied in place; the caller
   falls back to the wholesale rebuild *)
exception Rebuild

let reg_append reg e =
  let cap = Array.length reg.reg_ents in
  if reg.reg_len >= cap then begin
    let ncap = max 16 (2 * cap) in
    let ents = Array.make ncap e in
    Array.blit reg.reg_ents 0 ents 0 reg.reg_len;
    let trans = Array.make ncap (-1) in
    Array.blit reg.reg_trans 0 trans 0 reg.reg_len;
    reg.reg_ents <- ents;
    reg.reg_trans <- trans
  end;
  let i = reg.reg_len in
  reg.reg_ents.(i) <- e;
  reg.reg_trans.(i) <- -1;
  reg.reg_len <- i + 1;
  Surrogate.Tbl.replace reg.reg_ids e.Store.id i;
  i

(* recompute slot [i]'s transmitter edge from the entity's current
   binding, keeping the bound-entity count in step *)
let reg_set_edge reg i =
  let old = reg.reg_trans.(i) in
  let now =
    match reg.reg_ents.(i).Store.bound with
    | None -> -1
    | Some b -> (
        match Surrogate.Tbl.find_opt reg.reg_ids b.Store.b_transmitter with
        | Some j -> j
        | None -> -2)
  in
  reg.reg_trans.(i) <- now;
  if old <> -1 && old <> -3 then reg.reg_edges <- reg.reg_edges - 1;
  if now <> -1 then reg.reg_edges <- reg.reg_edges + 1

let reg_apply store reg ch =
  match ch with
  | Store.Ch_created s -> (
      match Surrogate.Tbl.find_opt reg.reg_ids s with
      | Some _ -> ()
      | None -> (
          match Store.get store s with
          | Error _ -> () (* created then deleted within the window *)
          | Ok e ->
              let i = reg_append reg e in
              reg_set_edge reg i;
              Obs.incr m_delta_patch))
  | Store.Ch_deleted s -> (
      match Surrogate.Tbl.find_opt reg.reg_ids s with
      | None -> ()
      | Some i ->
          if reg.reg_trans.(i) <> -1 then reg.reg_edges <- reg.reg_edges - 1;
          reg.reg_trans.(i) <- -3;
          Surrogate.Tbl.remove reg.reg_ids s;
          reg.reg_dead <- reg.reg_dead + 1;
          Obs.incr m_delta_patch)
  | Store.Ch_rebound s -> (
      match Surrogate.Tbl.find_opt reg.reg_ids s with
      | None -> if Store.mem store s then raise Rebuild
      | Some i ->
          reg_set_edge reg i;
          Obs.incr m_delta_patch)
  | Store.Ch_attr _ | Store.Ch_touched _ | Store.Ch_class_add _
  | Store.Ch_class_remove _ ->
      () (* entity records are shared with the store: reads stay live *)
  | Store.Ch_global -> raise Rebuild

(* squeeze tombstones out, preserving the relative order of live slots
   (the property test pins this: compaction must not reshuffle) *)
let reg_compact reg =
  Obs.incr m_delta_compact;
  let live = reg.reg_len - reg.reg_dead in
  let map = Array.make reg.reg_len (-1) in
  let next = ref 0 in
  for i = 0 to reg.reg_len - 1 do
    if reg.reg_trans.(i) <> -3 then begin
      map.(i) <- !next;
      incr next
    end
  done;
  let ents = Array.make (max live 1) reg.reg_ents.(0) in
  let trans = Array.make (max live 1) (-1) in
  for i = 0 to reg.reg_len - 1 do
    let ni = map.(i) in
    if ni >= 0 then begin
      ents.(ni) <- reg.reg_ents.(i);
      trans.(ni) <-
        (match reg.reg_trans.(i) with
        | j when j >= 0 -> (match map.(j) with -1 -> -2 | nj -> nj)
        | x -> x);
      Surrogate.Tbl.replace reg.reg_ids reg.reg_ents.(i).Store.id ni
    end
  done;
  reg.reg_ents <- ents;
  reg.reg_trans <- trans;
  reg.reg_len <- live;
  reg.reg_dead <- 0

let rebuild_registry store st stamp =
  (* a wholesale rebuild means the change window could not explain the
     drift: every dependent memo is equally unexplained, so drop them *)
  Hashtbl.reset st.s_columns;
  Hashtbl.reset st.s_decisions;
  let reg = build_registry store stamp in
  st.s_registry <- Some reg;
  reg

let window_clean = List.for_all (function Store.Ch_global -> false | _ -> true)

let registry_of store st stamp =
  match st.s_registry with
  | Some reg when reg.reg_stamp = stamp -> reg
  | Some reg when delta_enabled () -> (
      match Store.changes_since store reg.reg_stamp with
      | Some chs when window_clean chs -> (
          match List.iter (reg_apply store reg) chs with
          | () ->
              Obs.incr m_delta_apply;
              Obs.add m_delta_changes (List.length chs);
              if
                reg.reg_dead > 0
                && reg.reg_len >= !compact_min
                && reg.reg_dead * 4 >= reg.reg_len
              then reg_compact reg;
              reg.reg_stamp <- stamp;
              reg
          | exception Rebuild ->
              Obs.incr m_delta_rebuild;
              rebuild_registry store st stamp)
      | Some _ | None ->
          (* a global record, or a window the log no longer holds *)
          Obs.incr m_delta_rebuild;
          rebuild_registry store st stamp)
  | Some _ | None -> rebuild_registry store st stamp

(* memoized in [s_decisions] *)
let decision_of st schema ty attr =
  match Hashtbl.find_opt st.s_decisions (ty, attr) with
  | Some d -> d
  | None ->
      let d =
        match Schema.find_effective_attr schema ty attr with
        | None -> Absent
        | Some (_, Schema.Own) -> Own
        | Some (_, Schema.Via _) -> Via
      in
      Hashtbl.replace st.s_decisions (ty, attr) d;
      d

(* ------------------------------------------------------------------ *)
(* Column materialization                                               *)

(* One filled cell: the value the interpreter would produce for this row,
   an error mark where it would error, whether the fill went through the
   interpreter (volatile: must be refreshed on any mutation), and the
   entities whose state the flat walk read (the resolution chain — the
   delta pass dirties exactly the rows whose recorded chains pass through
   a touched entity). *)
type cell = {
  cv : Value.t;
  ce : bool;
  cvol : bool;
  cdeps : Surrogate.t list;
}

let spec_expr = function
  | Cattr a -> Expr.Path [ a ]
  | Cpath p -> Expr.Path p
  | Cexpr e -> e

(* The flat walk mirrors [Inheritance.attr_at] hop for hop, one segment
   at a time; every resolution shape it cannot replicate exactly —
   effective-attr miss at any hop (which the interpreter routes through
   subclass/participant/class-head fallback), a dangling transmitter, a
   cyclic chain, a non-[Ref] intermediate value — delegates to the
   interpreter for that row, so the cell is exact by construction. *)
let fill_cell store st reg schema spec s =
  let interp () =
    match Eval.eval (Eval.env ~self:s store) (spec_expr spec) with
    | Ok v -> { cv = v; ce = false; cvol = true; cdeps = [] }
    | Error _ -> { cv = Value.Null; ce = true; cvol = true; cdeps = [] }
  in
  match spec with
  | Cexpr _ -> interp ()
  | Cattr _ | Cpath _ -> (
      let segs = match spec with Cattr a -> [ a ] | Cpath p -> p | Cexpr _ -> [] in
      let limit = reg.reg_len in
      (* resolve one attribute segment from slot [i]; None delegates *)
      let rec walk attr i hops deps =
        if hops > limit then None
        else if reg.reg_trans.(i) = -3 then None
        else
          let e = reg.reg_ents.(i) in
          let deps = e.Store.id :: deps in
          match decision_of st schema e.Store.type_name attr with
          | Absent -> None
          | Own ->
              Some
                ( Option.value ~default:Value.Null
                    (Store.Smap.find_opt attr e.Store.attrs),
                  deps )
          | Via -> (
              match reg.reg_trans.(i) with
              | -1 -> Some (Value.Null, deps)
              | j when j >= 0 -> walk attr j (hops + 1) deps
              | _ -> None)
      in
      let rec segs_walk segs s deps =
        match Surrogate.Tbl.find_opt reg.reg_ids s with
        | None -> None
        | Some i -> (
            match segs with
            | [] -> None
            | [ attr ] -> walk attr i 0 deps
            | attr :: rest -> (
                match walk attr i 0 deps with
                | Some (Value.Ref r, deps) -> segs_walk rest r deps
                | Some _ | None -> None))
      in
      match segs_walk segs s [] with
      | Some (v, deps) -> { cv = v; ce = false; cvol = false; cdeps = deps }
      | None -> interp ())

let rdeps_add tbl d m =
  Surrogate.Tbl.replace tbl d
    (m :: Option.value ~default:[] (Surrogate.Tbl.find_opt tbl d))

let rdeps_remove tbl d m =
  match Surrogate.Tbl.find_opt tbl d with
  | None -> ()
  | Some ms -> (
      match List.filter (fun x -> not (Surrogate.equal x m)) ms with
      | [] -> Surrogate.Tbl.remove tbl d
      | ms -> Surrogate.Tbl.replace tbl d ms)

let count_true a = Array.fold_left (fun n b -> if b then n + 1 else n) 0 a

(* The numeric shadow holds a cell that is an [Int] or a non-NaN [Real]
   and not an error, as the float [Eval.compare_values] compares it as;
   every other cell ([Null], strings, NaN, error marks) stays boxed. *)
let k_boxed = '\000'
let k_num = '\001'

(* the cell's shadow value, NaN where the row must stay boxed *)
let numeric v err =
  if err then Float.nan
  else
    match v with
    | Value.Int n -> float_of_int n
    | Value.Real r -> r
    | _ -> Float.nan

(* the one place a cell is written: value, error mark, volatile flag
   (keeping [col_nvol] in step), recorded chain, and the numeric shadow *)
let set_cell col i ~v ~err ~vol ~deps =
  col.col_vals.(i) <- v;
  col.col_err.(i) <- err;
  if col.col_volatile.(i) <> vol then
    col.col_nvol <- (col.col_nvol + if vol then 1 else -1);
  col.col_volatile.(i) <- vol;
  col.col_deps.(i) <- deps;
  if Bytes.length col.col_kind > 0 then begin
    let x = numeric v err in
    col.col_num.(i) <- x;
    Bytes.set col.col_kind i (if Float.is_nan x then k_boxed else k_num)
  end

(* a freshly filled cell for member [m] at row [i], recorded in the
   reverse-dependency map *)
let put_cell col i m c =
  set_cell col i ~v:c.cv ~err:c.ce ~vol:c.cvol ~deps:c.cdeps;
  List.iter (fun d -> rdeps_add col.col_rdeps d m) c.cdeps

(* give the column fresh, empty rows for the extent [marr] *)
let reset_rows col marr =
  let n = Array.length marr in
  let rows = Surrogate.Tbl.create (max 16 (2 * n)) in
  Array.iteri (fun i m -> Surrogate.Tbl.replace rows m i) marr;
  let shadowed = match col.col_spec with Cattr _ -> n | Cpath _ | Cexpr _ -> 0 in
  col.col_members <- marr;
  col.col_vals <- Array.make n Value.Null;
  col.col_err <- Array.make n false;
  col.col_volatile <- Array.make n false;
  col.col_nvol <- 0;
  col.col_rows <- rows;
  col.col_deps <- Array.make n [];
  col.col_num <- Array.make shadowed Float.nan;
  col.col_kind <- Bytes.make shadowed k_boxed

let build_column store st reg ~cls ~spec members stamp =
  Obs.incr m_col_build;
  let marr = Array.of_list (Lazy.force members) in
  let cells = Array.map (fill_cell store st reg (Store.schema store) spec) marr in
  let col =
    {
      col_stamp = stamp;
      col_cls = cls;
      col_spec = spec;
      col_members = [||];
      col_vals = [||];
      col_err = [||];
      col_volatile = [||];
      col_nvol = 0;
      col_rows = Surrogate.Tbl.create 1;
      col_deps = [||];
      col_rdeps = Surrogate.Tbl.create (max 16 (2 * Array.length marr));
      col_num = [||];
      col_kind = Bytes.empty;
    }
  in
  reset_rows col marr;
  Array.iteri (fun i c -> put_cell col i marr.(i) c) cells;
  col

(* ------------------------------------------------------------------ *)
(* Column delta                                                        *)

exception Col_rebuild

let refill_row store st reg schema col m i =
  List.iter (fun d -> rdeps_remove col.col_rdeps d m) col.col_deps.(i);
  put_cell col i m (fill_cell store st reg schema col.col_spec m);
  Obs.incr m_delta_cells

(* membership changed: realign to the current extent, copying clean
   cells across by surrogate and filling new or dirty rows *)
let realign store st reg col members dirty =
  let schema = Store.schema store in
  let marr = Array.of_list (Lazy.force members) in
  let old_members = col.col_members and old_rows = col.col_rows in
  let vals = col.col_vals and errs = col.col_err in
  let vols = col.col_volatile and deps = col.col_deps in
  (* members leaving the extent take their rdeps contributions along *)
  let keep = Surrogate.Tbl.create (max 16 (2 * Array.length marr)) in
  Array.iter (fun m -> Surrogate.Tbl.replace keep m ()) marr;
  Array.iteri
    (fun i m ->
      if not (Surrogate.Tbl.mem keep m) then
        List.iter (fun d -> rdeps_remove col.col_rdeps d m) deps.(i))
    old_members;
  reset_rows col marr;
  Array.iteri
    (fun i' m ->
      match Surrogate.Tbl.find_opt old_rows m with
      | Some i when not (Surrogate.Tbl.mem dirty m) ->
          set_cell col i' ~v:vals.(i) ~err:errs.(i) ~vol:vols.(i) ~deps:deps.(i)
      | found ->
          (match found with
          | Some i -> List.iter (fun d -> rdeps_remove col.col_rdeps d m) deps.(i)
          | None -> ());
          put_cell col i' m (fill_cell store st reg schema col.col_spec m);
          Obs.incr m_delta_cells)
    marr

let apply_column_delta store st reg col members stamp chs =
  let schema = Store.schema store in
  let n = Array.length col.col_members in
  let dirty = Surrogate.Tbl.create 16 in
  let mark m =
    if Surrogate.Tbl.mem col.col_rows m then Surrogate.Tbl.replace dirty m ()
  in
  let rdeps x =
    Option.value ~default:[] (Surrogate.Tbl.find_opt col.col_rdeps x)
  in
  let mark_rdeps x = List.iter mark (rdeps x) in
  (* A value write moves no chain: which entity a row resolves from
     depends only on types and bindings.  So a row whose recorded chain
     ends at the written entity [x], where [x]'s type owns the
     attribute, takes [x]'s current local value; every other row through
     [x] passes it as a [Via] hop and never reads its local attributes.
     An [x] gone from the registry was deleted later in the window: its
     rows re-walk. *)
  let owns = ref [] in
  let owner_owns attr ty =
    match List.find_opt (fun (t, _) -> String.equal t ty) !owns with
    | Some (_, o) -> o
    | None ->
        let o = decision_of st schema ty attr = Own in
        owns := (ty, o) :: !owns;
        o
  in
  let refresh x attr =
    match Surrogate.Tbl.find_opt reg.reg_ids x with
    | None -> mark_rdeps x
    | Some slot ->
        let e = reg.reg_ents.(slot) in
        if owner_owns attr e.Store.type_name then
          let v =
            Option.value ~default:Value.Null
              (Store.Smap.find_opt attr e.Store.attrs)
          in
          List.iter
            (fun m ->
              match Surrogate.Tbl.find_opt col.col_rows m with
              | Some i -> (
                  match col.col_deps.(i) with
                  | h :: _ as deps when Surrogate.equal h x ->
                      (* a flat-filled cell: never an error, never volatile *)
                      set_cell col i ~v ~err:false ~vol:false ~deps;
                      Obs.incr m_delta_refresh
                  | _ -> ())
              | None -> ())
            (rdeps x)
  in
  let membership = ref false in
  List.iter
    (fun ch ->
      match ch with
      | Store.Ch_attr (x, a) -> (
          match col.col_spec with
          | Cattr b -> if String.equal a b then refresh x a
          | Cpath segs -> if List.mem a segs then mark_rdeps x
          | Cexpr _ -> () (* every expression cell is volatile anyway *))
      | Store.Ch_rebound x ->
          mark_rdeps x;
          mark x
      | Store.Ch_deleted x ->
          mark_rdeps x;
          if Surrogate.Tbl.mem col.col_rows x then membership := true
      | Store.Ch_created _ -> ()
      | Store.Ch_touched x -> mark_rdeps x
      | Store.Ch_class_add (c, _) | Store.Ch_class_remove (c, _) ->
          if String.equal c col.col_cls then membership := true
      | Store.Ch_global -> raise Col_rebuild)
    chs;
  (* interpreter-filled cells depend on arbitrary state: any mutation at
     all dirties them *)
  if col.col_nvol > 0 then
    Array.iteri
      (fun i m -> if col.col_volatile.(i) then mark m)
      col.col_members;
  (if !membership then realign store st reg col members dirty
   else
     let d = Surrogate.Tbl.length dirty in
     if d > 0 then
       if n > 0 && float_of_int d /. float_of_int n > !dirty_threshold then
         raise Col_rebuild
       else
         Surrogate.Tbl.iter
           (fun m () ->
             match Surrogate.Tbl.find_opt col.col_rows m with
             | None -> ()
             | Some i -> refill_row store st reg schema col m i)
           dirty);
  Obs.incr m_delta_apply;
  col.col_stamp <- stamp

(* returns (column, built-by-this-call) *)
let column_of store st reg ~cls ~spec members stamp =
  let key = (cls, spec_key spec) in
  let rebuild () =
    let c = build_column store st reg ~cls ~spec members stamp in
    Hashtbl.replace st.s_columns key c;
    (c, true)
  in
  match Hashtbl.find_opt st.s_columns key with
  | Some c when spec_equal c.col_spec spec && c.col_stamp = stamp ->
      Obs.incr m_col_hit;
      (c, false)
  | Some c when spec_equal c.col_spec spec && delta_enabled () -> (
      match Store.changes_since store c.col_stamp with
      | Some chs when window_clean chs -> (
          match apply_column_delta store st reg c members stamp chs with
          | () ->
              Obs.incr m_col_hit;
              (c, false)
          | exception Col_rebuild ->
              Obs.incr m_delta_rebuild;
              rebuild ())
      | Some _ | None ->
          Obs.incr m_delta_rebuild;
          rebuild ())
  | Some _ | None -> rebuild ()

(* ------------------------------------------------------------------ *)
(* Closure compilation                                                  *)

(* raised by a compiled closure exactly where the interpreter would
   return [Error _]; the row test catches it and drops the row, which is
   what [Query.matching] does with an interpreted error *)
exception Row_error

type cctx = { cc_cols : column array }

let as_bool = function Value.Bool b -> b | _ -> raise Row_error

(* first-use slot assignment: the compiled program reads columns by
   index, the slot list remembers which column spec each index means *)
let slot_index slots spec =
  let rec find i = function
    | [] -> None
    | x :: rest -> if spec_equal x spec then Some i else find (i + 1) rest
  in
  match find 0 (List.rev !slots) with
  | Some i -> i
  | None ->
      let i = List.length !slots in
      slots := spec :: !slots;
      i

(* outside the [open Expr] below: Expr shadows the comparison operators
   with expression builders *)
let cmp_holds op c =
  match op with
  | Expr.Eq -> c = 0
  | Expr.Ne -> c <> 0
  | Expr.Lt -> c < 0
  | Expr.Le -> c <= 0
  | Expr.Gt -> c > 0
  | Expr.Ge -> c >= 0
  | _ -> assert false

(* shared results, so a row test allocates no boolean *)
let v_true = Value.Bool true
let v_false = Value.Bool false
let of_bool b = if b then v_true else v_false

(* The compilable subset now covers the whole expression grammar.  Paths
   of any length and the quantifier forms ([count]/[sum]/[forall]/
   [exists], plus [in] over a path right-hand side) become materialized
   columns — multi-segment reference chains fill flat, everything the
   flat walk cannot replicate is filled per-row by the interpreter and
   marked volatile.  Constants, boolean connectives (the evaluator's
   short-circuit order), arithmetic and comparisons compile to closures
   over those columns. *)
let rec compile counter slots expr =
  let mk f =
    incr counter;
    Some f
  in
  let col_read spec =
    let slot = slot_index slots spec in
    mk (fun ctx i ->
        let c = ctx.cc_cols.(slot) in
        if c.col_err.(i) then raise Row_error else c.col_vals.(i))
  in
  let open Expr in
  match expr with
  | Const v -> mk (fun _ _ -> v)
  | Path [ a ] -> col_read (Cattr a)
  | Path [] -> None
  | Path p -> col_read (Cpath p)
  | (Count _ | Sum _ | Forall _ | Exists _) as q -> col_read (Cexpr q)
  | Unop (Not, e) -> (
      match compile counter slots e with
      | None -> None
      | Some f -> mk (fun ctx i -> of_bool (not (as_bool (f ctx i)))))
  | Unop (Neg, e) -> (
      match compile counter slots e with
      | None -> None
      | Some f ->
          mk (fun ctx i ->
              match f ctx i with
              | Value.Int n -> Value.Int (-n)
              | Value.Real r -> Value.Real (-.r)
              | _ -> raise Row_error))
  | Binop (And, a, b) -> (
      match (compile counter slots a, compile counter slots b) with
      | Some fa, Some fb ->
          mk (fun ctx i ->
              if not (as_bool (fa ctx i)) then v_false
              else of_bool (as_bool (fb ctx i)))
      | _ -> None)
  | Binop (Or, a, b) -> (
      match (compile counter slots a, compile counter slots b) with
      | Some fa, Some fb ->
          mk (fun ctx i ->
              if as_bool (fa ctx i) then v_true
              else of_bool (as_bool (fb ctx i)))
      | _ -> None)
  | Binop (In, a, b) -> (
      match b with
      | Path _ ->
          (* the interpreter expands path collections; materialize the
             whole membership test as one interpreter-filled column *)
          col_read (Cexpr expr)
      | _ -> (
          match (compile counter slots a, compile counter slots b) with
          | Some fa, Some fb ->
              mk (fun ctx i ->
                  let v = fa ctx i in
                  let members =
                    match fb ctx i with
                    | Value.Set vs | Value.List vs -> vs
                    | w -> [ w ]
                  in
                  of_bool (List.exists (Value.equal v) members))
          | _ -> None))
  | Binop (((Add | Sub | Mul | Div) as op), a, b) -> (
      match (compile counter slots a, compile counter slots b) with
      | Some fa, Some fb ->
          mk (fun ctx i ->
              let x = fa ctx i in
              let y = fb ctx i in
              match Eval.numeric_binop op x y with
              | Ok v -> v
              | Error _ -> raise Row_error)
      | _ -> None)
  | Binop (((Eq | Ne | Lt | Le | Gt | Ge) as op), a, b) -> (
      match (compile counter slots a, compile counter slots b) with
      | Some fa, Some fb ->
          mk (fun ctx i ->
              let x = fa ctx i in
              let y = fb ctx i in
              of_bool (cmp_holds op (Eval.compare_values x y)))
      | _ -> None)

(* ------------------------------------------------------------------ *)
(* The numeric kernel                                                   *)

(* A comparison of one attribute with a numeric constant, or an [and] of
   such comparisons, skips the closure program: each comparison becomes
   a leaf read straight off its column's numeric shadow.  On a shadowed
   row [Eval.compare_values] is the float comparison, fixed per
   operator at compile time as "x lies in [lo, hi]" ([<>] negates [=]):
   on non-NaN floats [x < c] is [x <= pred c] unless no float lies
   below [c], and dually for [>].  A boxed row takes the closure
   program's own route: an error drops it, anything else compares
   boxed.  A false or erroring conjunct drops the row in both engines,
   so the conjunction is the leaves' [&&]. *)
type leaf = {
  lf_slot : int;
  lf_lo : float;
  lf_hi : float;
  lf_neg : bool;
  lf_op : Expr.binop;  (* for boxed rows *)
  lf_const : Value.t;
}

let empty_interval = (Float.infinity, Float.neg_infinity)

let interval op c =
  match op with
  | Expr.Eq | Expr.Ne -> (c, c)
  | Expr.Le -> (Float.neg_infinity, c)
  | Expr.Ge -> (c, Float.infinity)
  | Expr.Lt ->
      if c = Float.neg_infinity then empty_interval
      else (Float.neg_infinity, Float.pred c)
  | Expr.Gt ->
      if c = Float.infinity then empty_interval else (Float.succ c, Float.infinity)
  | _ -> assert false

let rec kernel_leaves slots expr =
  let leaf op attr v =
    let c = numeric v false in
    if Float.is_nan c then None
    else
      let lo, hi = interval op c in
      Some
        [
          {
            lf_slot = slot_index slots (Cattr attr);
            lf_lo = lo;
            lf_hi = hi;
            lf_neg = op = Expr.Ne;
            lf_op = op;
            lf_const = v;
          };
        ]
  in
  match expr with
  | Expr.Binop (Expr.And, a, b) -> (
      match kernel_leaves slots a with
      | None -> None
      | Some la -> Option.map (fun lb -> la @ lb) (kernel_leaves slots b))
  | Expr.Binop
      ( ((Expr.Eq | Expr.Ne | Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge) as op),
        Expr.Path [ attr ],
        Expr.Const v ) ->
      leaf op attr v
  | Expr.Binop
      ( ((Expr.Eq | Expr.Ne | Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge) as op),
        Expr.Const v,
        Expr.Path [ attr ] ) ->
      leaf (Expr.flip op) attr v
  | _ -> None

(* AND leaf [l]'s verdict on every row of [col] into [mask]: one loop
   per leaf, its bounds in registers, the shadowed rows tested without a
   branch; the lengths are checked once, up front *)
let mark_leaf col l mask =
  let kind = col.col_kind and num = col.col_num in
  let n = Bytes.length mask in
  if n > Bytes.length kind || n > Array.length num then
    invalid_arg "Plan.mark_leaf";
  let lo = l.lf_lo and hi = l.lf_hi and neg = Bool.to_int l.lf_neg in
  for i = 0 to n - 1 do
    let hit =
      if Bytes.unsafe_get kind i = k_num then
        let x = Array.unsafe_get num i in
        Bool.to_int (lo <= x) land Bool.to_int (x <= hi) lxor neg
      else
        Bool.to_int
          ((not col.col_err.(i))
          && cmp_holds l.lf_op (Eval.compare_values col.col_vals.(i) l.lf_const))
    in
    Bytes.unsafe_set mask i
      (Char.unsafe_chr (Char.code (Bytes.unsafe_get mask i) land hit))
  done

(* ------------------------------------------------------------------ *)
(* The compiled scan                                                    *)

type report = {
  rp_closures : int;
  rp_kernel : int;
  rp_columns : (string * int * bool) list;
  rp_nodes : int;
  rp_edges : int;
  rp_extent : int;
}

type program = Kernel of leaf list | Closures of (cctx -> int -> Value.t)

let scans = ref 0
let compiled_scans () = !scans

let try_scan store ~cls expr =
  if not (enabled ()) then None
  else if Store.read_hooks_installed store then begin
    (* hooks are the transaction layer's lock inheritance: they must
       fire per hop, and a column scan performs no hops *)
    Obs.incr m_fallback;
    None
  end
  else
    match Store.class_member_type store cls with
    | Error _ -> None (* let the interpreted path surface the error *)
    | Ok _ -> (
        let slots = ref [] in
        let counter = ref 0 in
        let program =
          match kernel_leaves slots expr with
          | Some leaves -> Some (Kernel leaves)
          | None ->
              slots := [];
              Option.map (fun f -> Closures f) (compile counter slots expr)
        in
        match program with
        | None ->
            Obs.incr m_fallback;
            None
        | Some program ->
            let st = state_of store in
            let stamp = Store.plan_epoch store in
            let specs = Array.of_list (List.rev !slots) in
            let built = Array.make (Array.length specs) false in
            (* a current column holds the extent: the list is copied
               only to build or realign one *)
            let members =
              lazy (Result.value ~default:[] (Store.class_members store cls))
            in
            (* bring the shared state current; the scan below only
               reads it *)
            let reg = registry_of store st stamp in
            let cols =
              Array.mapi
                (fun i spec ->
                  let c, b = column_of store st reg ~cls ~spec members stamp in
                  built.(i) <- b;
                  c)
                specs
            in
            (* every column of one scan is aligned to the same extent *)
            let marr =
              if Array.length cols > 0 then cols.(0).col_members
              else Array.of_list (Lazy.force members)
            in
            let n = Array.length marr in
            (* the program clears the rows that fail in [mask] *)
            let mask = Bytes.make n '\001' in
            (match program with
            | Kernel leaves ->
                List.iter (fun l -> mark_leaf cols.(l.lf_slot) l mask) leaves
            | Closures f ->
                let ctx = { cc_cols = cols } in
                for i = 0 to n - 1 do
                  match f ctx i with
                  | Value.Bool true -> ()
                  | _ | (exception Row_error) -> Bytes.set mask i '\000'
                done);
            let rows = ref [] in
            for i = n - 1 downto 0 do
              if Bytes.get mask i <> '\000' then rows := marr.(i) :: !rows
            done;
            incr scans;
            Obs.incr m_compiled;
            let rp_columns =
              Array.to_list
                (Array.mapi
                   (fun i spec ->
                     (spec_label spec, stamp, built.(i)))
                   specs)
            in
            (* the kernel's one closure is its row marker *)
            let rp_closures, rp_kernel =
              match program with
              | Kernel leaves -> (1, List.length leaves)
              | Closures _ -> (!counter, 0)
            in
            Some
              (Ok
                 ( !rows,
                   {
                     rp_closures;
                     rp_kernel;
                     rp_columns;
                     rp_nodes = reg.reg_len - reg.reg_dead;
                     rp_edges = reg.reg_edges;
                     rp_extent = n;
                   } )))

(* ------------------------------------------------------------------ *)
(* Introspection for tests                                              *)

(* live registry surrogates in slot order, plus the tombstone count *)
let registry_live store =
  match Store.plan_slot store with
  | Some (Slot { s_registry = Some reg; _ }) ->
      let acc = ref [] in
      for i = reg.reg_len - 1 downto 0 do
        if reg.reg_trans.(i) <> -3 then
          acc := reg.reg_ents.(i).Store.id :: !acc
      done;
      Some (!acc, reg.reg_dead)
  | Some _ | None -> None

(* one current column against a from-scratch fill: values, error marks
   and recorded chains row by row (the value refresh trusts each chain's
   head), the reverse-dependency map as the exact inverse of the chains
   (a pair missing there is a write that would never reach its row), the
   volatile count the sweep is gated on, and the numeric shadow row by
   row against the boxed cells the kernel falls back to *)
let check_column add store st reg schema cls col =
  let report fmt = Printf.ksprintf add fmt in
  let label = spec_label col.col_spec in
  (match Store.class_members store cls with
  | Error _ -> report "column %s/%s over unknown class" cls label
  | Ok members ->
      let marr = Array.of_list members in
      if Array.length marr <> Array.length col.col_members then
        report "column %s/%s has %d rows, extent has %d" cls label
          (Array.length col.col_members)
          (Array.length marr)
      else
        Array.iteri
          (fun i m ->
            if not (Surrogate.equal m col.col_members.(i)) then
              report "column %s/%s row %d member drifted" cls label i
            else
              let c = fill_cell store st reg schema col.col_spec m in
              if
                (not (Value.equal c.cv col.col_vals.(i)))
                || c.ce <> col.col_err.(i)
              then
                report "column %s/%s row %d (%s): delta %s/%b, rebuild %s/%b"
                  cls label i (Surrogate.to_string m)
                  (Value.to_string col.col_vals.(i))
                  col.col_err.(i) (Value.to_string c.cv) c.ce;
              if not (List.equal Surrogate.equal c.cdeps col.col_deps.(i)) then
                report "column %s/%s row %d (%s): chain [%s], rebuild [%s]"
                  cls label i (Surrogate.to_string m)
                  (String.concat " "
                     (List.map Surrogate.to_string col.col_deps.(i)))
                  (String.concat " " (List.map Surrogate.to_string c.cdeps)))
          marr);
  let inverse = Surrogate.Tbl.create 16 in
  Array.iteri
    (fun i m -> List.iter (fun d -> rdeps_add inverse d m) col.col_deps.(i))
    col.col_members;
  let sorted ms = List.sort Surrogate.compare ms in
  let compare_entry d expect =
    let have =
      Option.value ~default:[] (Surrogate.Tbl.find_opt col.col_rdeps d)
    in
    if not (List.equal Surrogate.equal (sorted have) (sorted expect)) then
      report "column %s/%s rdeps of %s: %d member(s), chains name %d" cls label
        (Surrogate.to_string d) (List.length have) (List.length expect)
  in
  Surrogate.Tbl.iter compare_entry inverse;
  Surrogate.Tbl.iter
    (fun d _ ->
      if not (Surrogate.Tbl.mem inverse d) then compare_entry d [])
    col.col_rdeps;
  if col.col_nvol <> count_true col.col_volatile then
    report "column %s/%s volatile count %d, %d volatile row(s)" cls label
      col.col_nvol (count_true col.col_volatile);
  match col.col_spec with
  | Cpath _ | Cexpr _ -> ()
  | Cattr _ ->
      let n = Array.length col.col_members in
      if Bytes.length col.col_kind <> n || Array.length col.col_num <> n then
        report "column %s/%s numeric shadow has %d/%d rows, column has %d" cls
          label (Bytes.length col.col_kind) (Array.length col.col_num) n
      else
        (* the shadow against the boxed cell it mirrors *)
        Array.iteri
          (fun i v ->
            let x = numeric v col.col_err.(i) in
            let agrees =
              if Float.is_nan x then Bytes.get col.col_kind i = k_boxed
              else
                Bytes.get col.col_kind i = k_num
                && Float.equal col.col_num.(i) x
            in
            if not agrees then
              report "column %s/%s row %d: numeric shadow %s/%g, cell %s/%b" cls
                label i
                (if Bytes.get col.col_kind i = k_num then "num" else "boxed")
                col.col_num.(i) (Value.to_string v) col.col_err.(i))
          col.col_vals

(* the column-equivalence invariant: every delta-maintained structure
   that claims to be current must equal a from-scratch derivation *)
let self_check store =
  match Store.plan_slot store with
  | Some (Slot st) -> (
      let problems = ref [] in
      let add s = problems := s :: !problems in
      let report fmt = Printf.ksprintf add fmt in
      let stamp = Store.plan_epoch store in
      (match st.s_registry with
      | Some reg when reg.reg_stamp = stamp ->
          let live = ref 0 in
          for i = 0 to reg.reg_len - 1 do
            if reg.reg_trans.(i) <> -3 then begin
              incr live;
              let e = reg.reg_ents.(i) in
              if not (Store.mem store e.Store.id) then
                report "registry slot %d holds deleted entity %s" i
                  (Surrogate.to_string e.Store.id);
              (match Surrogate.Tbl.find_opt reg.reg_ids e.Store.id with
              | Some j when j = i -> ()
              | _ -> report "registry id map misses slot %d" i);
              let expect =
                match e.Store.bound with
                | None -> -1
                | Some b -> (
                    match
                      Surrogate.Tbl.find_opt reg.reg_ids b.Store.b_transmitter
                    with
                    | Some j -> j
                    | None -> -2)
              in
              if reg.reg_trans.(i) <> expect then
                report "slot %d transmitter edge is %d, expected %d" i
                  reg.reg_trans.(i) expect
            end
          done;
          if !live <> Store.entity_count store then
            report "registry has %d live slots, store has %d entities" !live
              (Store.entity_count store);
          let schema = Store.schema store in
          Hashtbl.iter
            (fun (cls, _) col ->
              if col.col_stamp = stamp then
                check_column add store st reg schema cls col)
            st.s_columns
      | Some _ | None -> ());
      List.rev !problems)
  | Some _ | None -> []
