(* Differential oracle for the query engines: over randomized schemas,
   populations and predicates, two runs of the same select must return
   exactly the same thing — same rows, same order, same resolved values:

     interpreted   Plan disabled   (the reference)
     compiled      Plan enabled

   The generator is a hand-rolled splittable PRNG (never
   [Random.self_init]), so every run replays the same 200+ seeds and a
   reported failure reproduces from its seed alone.

   The mutation-interleaved rounds keep one database alive and run
   randomized attribute writes, rebinds, unbinds, creates and deletes
   between the selects, so the compiled runs go through delta-maintained
   registries and columns rather than fresh builds; the predicates there
   also draw multi-segment paths and quantifiers, which the widened
   compiler must serve.  A divergence reports the seed plus the full
   mutation script. *)

open Compo_core
open Helpers

let ( let* ) = Result.bind

(* ------------------------------------------------------------------ *)
(* SplitMix64: one mutable stream per seed, splittable by construction
   (each seed is an independent stream). *)

type rng = { mutable state : int64 }

let mix64 z =
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 30))
      0xbf58476d1ce4e5b9L
  in
  let z =
    Int64.mul
      (Int64.logxor z (Int64.shift_right_logical z 27))
      0x94d049bb133111ebL
  in
  Int64.logxor z (Int64.shift_right_logical z 31)

let make_rng seed = { state = mix64 (Int64.of_int (seed * 2 + 1)) }

let bits r =
  r.state <- Int64.add r.state 0x9e3779b97f4a7c15L;
  mix64 r.state

let rand r bound =
  Int64.to_int (Int64.rem (Int64.logand (bits r) Int64.max_int) (Int64.of_int bound))

let pick r arr = arr.(rand r (Array.length arr))

(* ------------------------------------------------------------------ *)
(* Random schema: an inheritance chain T0 -> T1 -> ... -> Td (depth
   2..5).  T0 owns [A] and [B]; each hop transmits a random subset of
   them (its permeability), so a deep object may see [A] but not [B],
   both, or neither.  Every type owns a [Local] attribute. *)

let ty k = "T" ^ string_of_int k
let rel k = "AllOf_T" ^ string_of_int k

let random_schema r db =
  let depth = 2 + rand r 4 in
  let* () =
    Database.define_obj_type db
      {
        Schema.ot_name = ty 0;
        ot_inheritor_in = None;
        ot_attrs =
          [
            { Schema.attr_name = "A"; attr_domain = Domain.Integer };
            { Schema.attr_name = "B"; attr_domain = Domain.Integer };
            { Schema.attr_name = "Local"; attr_domain = Domain.Integer };
            (* a reference to any population member: the second segment
               of the mutation rounds' P.A / P.B / P.Local predicates *)
            { Schema.attr_name = "P"; attr_domain = Domain.Ref None };
          ];
        ot_subclasses = [];
        ot_subrels = [];
        ot_constraints = [];
      }
  in
  (* a hop can only transmit features of its transmitter, so the
     permeable set narrows monotonically down the chain: T3 may see A
     but not B when R1 dropped B *)
  let rec hops k avail =
    if k >= depth then Ok depth
    else
      let permeable =
        match avail with
        | [ "A"; "B" ] -> (
            match rand r 3 with
            | 0 -> [ "A" ]
            | 1 -> [ "B" ]
            | _ -> [ "A"; "B" ])
        | narrowed -> narrowed
      in
      let* () =
        Database.define_inher_rel_type db
          {
            Schema.it_name = rel k;
            it_transmitter = ty k;
            it_inheritor = Some (ty (k + 1));
            it_inheriting = permeable;
            it_attrs = [];
            it_subclasses = [];
            it_constraints = [];
          }
      in
      let* () =
        Database.define_obj_type db
          {
            Schema.ot_name = ty (k + 1);
            ot_inheritor_in = Some (rel k);
            ot_attrs =
              [ { Schema.attr_name = "Local"; attr_domain = Domain.Integer } ];
            ot_subclasses = [];
            ot_subrels = [];
            ot_constraints = [];
          }
      in
      hops (k + 1) permeable
  in
  let* depth = hops 0 [ "A"; "B" ] in
  let* () = Database.create_class db ~name:"Pop" ~member_type:(ty 0) in
  Ok depth

(* ------------------------------------------------------------------ *)
(* Random population: 100..1000 objects across the chain levels
   ([cap] trims that for the quadratic quantifier predicates of the
   mutation rounds); a level-k object binds to a random level-(k-1)
   object, so inherited reads resolve across k transmitter hops.
   Returns the per-level membership, which the mutation engine keeps
   updating as it creates and deletes. *)

let random_population ?(cap = 1001) r db ~depth =
  let n = min cap (100 + rand r 901) in
  let by_level = Array.make (depth + 1) [] in
  let* () =
    let rec go i =
      if i >= n then Ok ()
      else
        let level =
          if i = 0 then 0
          else
            let l = rand r (depth + 1) in
            if by_level.(max 0 (l - 1)) = [] then 0 else l
        in
        let attrs =
          if level = 0 then
            [
              ("A", Value.Int (rand r 20));
              ("B", Value.Int (rand r 20));
              ("Local", Value.Int (rand r 20));
            ]
          else [ ("Local", Value.Int (rand r 20)) ]
        in
        let* s = Database.new_object db ~cls:"Pop" ~ty:(ty level) ~attrs () in
        let* () =
          if level = 0 then Ok ()
          else
            let parents = Array.of_list by_level.(level - 1) in
            let t = pick r parents in
            let* (_ : Surrogate.t) =
              Database.bind db ~via:(rel (level - 1)) ~transmitter:t
                ~inheritor:s ()
            in
            Ok ()
        in
        by_level.(level) <- s :: by_level.(level);
        go (i + 1)
    in
    go 0
  in
  Ok (n, by_level)

(* ------------------------------------------------------------------ *)
(* Random predicate over A / B / Local: comparison leaves, And/Or/Not
   combinators, depth up to 3.  Rendered as source and parsed, so the
   oracle exercises the same expression pipeline as the CLI. *)

let rec random_pred r depth =
  if depth = 0 || rand r 3 = 0 then
    let attr = pick r [| "A"; "B"; "Local" |] in
    let op = pick r [| "="; "<>"; "<"; "<="; ">"; ">=" |] in
    Printf.sprintf "%s %s %d" attr op (rand r 20)
  else
    match rand r 3 with
    | 0 ->
        Printf.sprintf "(%s and %s)"
          (random_pred r (depth - 1))
          (random_pred r (depth - 1))
    | 1 ->
        Printf.sprintf "(%s or %s)"
          (random_pred r (depth - 1))
          (random_pred r (depth - 1))
    | _ -> Printf.sprintf "(not %s)" (random_pred r (depth - 1))

(* ------------------------------------------------------------------ *)
(* Wider predicates for the mutation rounds: the plain comparison
   leaves, plus multi-segment paths through the P reference and the
   quantifier forms — exactly the shapes the widened compiler serves
   with flat or interpreter-filled columns.  Still string-rendered and
   parsed, so a reported predicate replays through the CLI verbatim. *)

let ops = [| "="; "<>"; "<"; "<="; ">"; ">=" |]

let rec random_pred_wide r depth =
  if depth = 0 || rand r 3 = 0 then
    match rand r 10 with
    | 0 | 1 ->
        Printf.sprintf "P.%s %s %d"
          (pick r [| "A"; "B"; "Local" |])
          (pick r ops) (rand r 20)
    | 2 ->
        Printf.sprintf "(exists p in Pop : p.%s %s %s)"
          (pick r [| "A"; "B"; "Local" |])
          (pick r ops)
          (pick r [| "A"; "B"; "Local" |])
    | 3 ->
        Printf.sprintf "(for p in Pop : p.Local %s %d)" (pick r ops)
          (rand r 20)
    | 4 ->
        Printf.sprintf "((count (Pop) where (Local %s %d)) %s %d)" (pick r ops)
          (rand r 20) (pick r ops) (rand r 40)
    | 5 -> Printf.sprintf "((sum (Pop.Local)) %s %d)" (pick r ops) (rand r 2000)
    | _ ->
        Printf.sprintf "%s %s %d"
          (pick r [| "A"; "B"; "Local" |])
          (pick r ops) (rand r 20)
  else
    match rand r 3 with
    | 0 ->
        Printf.sprintf "(%s and %s)"
          (random_pred_wide r (depth - 1))
          (random_pred_wide r (depth - 1))
    | 1 ->
        Printf.sprintf "(%s or %s)"
          (random_pred_wide r (depth - 1))
          (random_pred_wide r (depth - 1))
    | _ -> Printf.sprintf "(not %s)" (random_pred_wide r (depth - 1))

(* ------------------------------------------------------------------ *)
(* The mutation engine.  Every step appends one line to [script]
   (including the errors it tolerated — deleting a member someone still
   binds to, rebinding a just-deleted inheritor, ... are all legitimate
   interleavings whose Error results are part of the round), so a
   divergence reports an exact replayable trace. *)

let surr = Surrogate.to_string

(* The mutators a round draws from: the autocommit [Database] calls, or
   the same steps inside one [Transaction] (which has no delete). *)
type ops = {
  set_attr : Surrogate.t -> string -> Value.t -> (unit, Errors.t) result;
  unbind : Surrogate.t -> (unit, Errors.t) result;
  bind :
    via:string -> transmitter:Surrogate.t -> inheritor:Surrogate.t ->
    (unit, Errors.t) result;
  create :
    ty:string -> attrs:(string * Value.t) list -> (Surrogate.t, Errors.t) result;
  delete : (Surrogate.t -> (unit, Errors.t) result) option;
}

let db_ops db =
  {
    set_attr = Database.set_attr db;
    unbind = Database.unbind db;
    bind =
      (fun ~via ~transmitter ~inheritor ->
        Result.map ignore (Database.bind db ~via ~transmitter ~inheritor ()));
    create = (fun ~ty ~attrs -> Database.new_object db ~cls:"Pop" ~ty ~attrs ());
    delete = Some (Database.delete db ~force:true);
  }

let txn_ops mg txn =
  let module Txn = Compo_txn.Transaction in
  {
    set_attr = Txn.set_attr mg txn;
    unbind = Txn.unbind mg txn;
    bind =
      (fun ~via ~transmitter ~inheritor ->
        Result.map ignore (Txn.bind mg txn ~via ~transmitter ~inheritor ()));
    create =
      (fun ~ty ~attrs -> Txn.new_object mg txn ~cls:"Pop" ~ty ~attrs ());
    delete = None;
  }

let mutate ops r levels script =
  let log fmt = Printf.ksprintf (Buffer.add_string script) fmt in
  let tolerate what res =
    match res with
    | Ok () -> log "%s\n" what
    | Error e -> log "%s -> %s\n" what (Errors.to_string e)
  in
  let depth = Array.length levels - 1 in
  let pick_level p =
    match
      List.filter
        (fun k -> levels.(k) <> [] && p k)
        (List.init (depth + 1) Fun.id)
    with
    | [] -> None
    | ks -> Some (List.nth ks (rand r (List.length ks)))
  in
  let pick_member k = pick r (Array.of_list levels.(k)) in
  let bind s k =
    let t = pick_member (k - 1) in
    tolerate
      (Printf.sprintf "bind %s via %s -> %s" (surr s) (rel (k - 1)) (surr t))
      (ops.bind ~via:(rel (k - 1)) ~transmitter:t ~inheritor:s)
  in
  match rand r (match ops.delete with Some _ -> 12 | None -> 10) with
  | 0 | 1 | 2 | 3 -> (
      (* attribute write: the bread and butter of column deltas *)
      match pick_level (fun _ -> true) with
      | None -> ()
      | Some k ->
          let s = pick_member k in
          let attr = if k = 0 then pick r [| "A"; "B"; "Local" |] else "Local" in
          let v = rand r 20 in
          tolerate
            (Printf.sprintf "set %s.%s = %d" (surr s) attr v)
            (ops.set_attr s attr (Value.Int v)))
  | 4 | 5 -> (
      (* re-point a level-0 reference: dirties second-segment chains *)
      match levels.(0) with
      | [] -> ()
      | _ ->
          let s = pick_member 0 in
          let target = pick r (Array.of_list (List.concat (Array.to_list levels))) in
          tolerate
            (Printf.sprintf "set %s.P = %s" (surr s) (surr target))
            (ops.set_attr s "P" (Value.Ref target)))
  | 6 | 7 -> (
      (* disconnect, then usually reconnect elsewhere: Ch_rebound *)
      match pick_level (fun k -> k > 0) with
      | None -> ()
      | Some k ->
          let s = pick_member k in
          tolerate (Printf.sprintf "unbind %s" (surr s)) (ops.unbind s);
          if levels.(k - 1) <> [] && rand r 4 > 0 then bind s k)
  | 8 | 9 -> (
      (* grow the population: Ch_created + class membership *)
      match pick_level (fun k -> k = 0 || levels.(k - 1) <> []) with
      | None -> ()
      | Some k -> (
          let attrs =
            if k = 0 then
              [
                ("A", Value.Int (rand r 20));
                ("B", Value.Int (rand r 20));
                ("Local", Value.Int (rand r 20));
              ]
            else [ ("Local", Value.Int (rand r 20)) ]
          in
          match ops.create ~ty:(ty k) ~attrs with
          | Error e -> log "create T%d -> %s\n" k (Errors.to_string e)
          | Ok s ->
              levels.(k) <- s :: levels.(k);
              log "create %s : T%d\n" (surr s) k;
              if k > 0 then bind s k))
  | _ -> (
      (* shrink it: tombstones in the registry, realignment in columns *)
      match (ops.delete, pick_level (fun _ -> true)) with
      | None, _ | _, None -> ()
      | Some delete, Some k -> (
          let s = pick_member k in
          match delete s with
          | Ok () ->
              levels.(k) <-
                List.filter (fun x -> not (Surrogate.equal x s)) levels.(k);
              log "delete %s\n" (surr s)
          | Error e -> log "delete %s -> %s\n" (surr s) (Errors.to_string e)))

let random_mutation r db levels script = mutate (db_ops db) r levels script

(* ------------------------------------------------------------------ *)
(* One differential round.  On mismatch, report the seed and the plan
   of both runs so the failure reproduces and explains itself. *)

let explain_both db ~cls where =
  match Database.explain_select db ~cls ?where () with
  | Ok (_, ex) -> Format.asprintf "%a" (Query.pp_explain ~timings:false) ex
  | Error e -> "explain failed: " ^ Errors.to_string e

let check_round seed =
  let r = make_rng seed in
  let db = Database.create () in
  let depth = ok (random_schema r db) in
  let (_ : int * Surrogate.t list array) = ok (random_population r db ~depth) in
  (* half the seeds register an index on Local, covering the planned
     (index access + residual filter) path as well as the scan path *)
  if rand r 2 = 0 then ok (Database.create_index db ~cls:"Pop" ~attr:"Local");
  let src = random_pred r 3 in
  let where = Some (ok (Compo_ddl.Parser.parse_expr src)) in
  let plan0 = Plan.enabled () in
  Fun.protect ~finally:(fun () -> Plan.set_enabled plan0) @@ fun () ->
  let run_with enabled =
    Plan.set_enabled enabled;
    ok (Database.select db ~cls:"Pop" ?where ())
  in
  let interp = run_with false in
  let compiled = run_with true in
  let diff label a b =
    if not (List.equal Surrogate.equal a b) then
      Alcotest.failf
        "seed %d: %s rows differ for %s\n\
         reference: %d row(s) [%s]\n\
         other:     %d row(s) [%s]\n\
         plan:\n\
         %s"
        seed label src (List.length a)
        (String.concat ", " (List.map Surrogate.to_string a))
        (List.length b)
        (String.concat ", " (List.map Surrogate.to_string b))
        (explain_both db ~cls:"Pop" where)
  in
  diff "interpreted vs compiled" interp compiled;
  (* same rows in the same order; now the same resolved values *)
  List.iter
    (fun attr ->
      let project rows =
        List.map
          (fun s ->
            match Database.get_attr db s attr with
            | Ok v -> Value.to_string v
            | Error e -> "!" ^ Errors.to_string e)
          rows
      in
      if project interp <> project compiled then
        Alcotest.failf "seed %d: resolved %s values differ for %s" seed attr
          src)
    [ "A"; "B"; "Local" ]

let test_differential () =
  let scans0 = Plan.compiled_scans () in
  for seed = 0 to 219 do
    check_round seed
  done;
  (* the oracle proves nothing if the compiled engine silently stood
     down for every round *)
  Alcotest.(check bool)
    "compiled engine engaged" true
    (Plan.compiled_scans () > scans0)

(* ------------------------------------------------------------------ *)
(* Mutation-interleaved torture: one database per seed stays alive for
   ten rounds of (mutation batch; 2-way check), so from round two
   onward the compiled engine runs on delta-maintained plan state.  30
   seeds x 10 rounds = 300 mutating rounds.  The per-round check is the
   same 2-way diff as above, but over the widened predicate pool
   (multi-segment paths, quantifiers); a failure reports the seed, the
   predicate and the full mutation script executed so far. *)

(* interpreted == compiled for one predicate; a divergence reports the
   seed, the round and the mutation script *)
let check_two_way ~seed ~round ~script db src =
  let where = Some (ok (Compo_ddl.Parser.parse_expr src)) in
  let run_with enabled =
    Plan.set_enabled enabled;
    ok (Database.select db ~cls:"Pop" ?where ())
  in
  let interp = run_with false in
  let compiled = run_with true in
  if not (List.equal Surrogate.equal interp compiled) then
    Alcotest.failf
      "seed %d round %s: interpreted vs compiled rows differ for %s\n\
       reference: %d row(s) [%s]\n\
       other:     %d row(s) [%s]\n\
       mutation script so far:\n\
       %s"
      seed round src (List.length interp)
      (String.concat ", " (List.map Surrogate.to_string interp))
      (List.length compiled)
      (String.concat ", " (List.map Surrogate.to_string compiled))
      (Buffer.contents script)

(* one live database per seed: a population with its P references
   seeded so multi-segment predicates resolve *)
let mutation_db r =
  let db = Database.create () in
  let depth = ok (random_schema r db) in
  let _n, levels = ok (random_population ~cap:160 r db ~depth) in
  let all = List.concat (Array.to_list levels) in
  List.iter
    (fun s ->
      if rand r 2 = 0 then
        ok (Database.set_attr db s "P" (Value.Ref (pick r (Array.of_list all)))))
    levels.(0);
  (db, levels)

let check_mutation_seed seed =
  let r = make_rng seed in
  let db, levels = mutation_db r in
  let script = Buffer.create 256 in
  let plan0 = Plan.enabled () in
  Fun.protect ~finally:(fun () -> Plan.set_enabled plan0) @@ fun () ->
  for round = 0 to 9 do
    for _ = 0 to 2 + rand r 4 do
      random_mutation r db levels script
    done;
    check_two_way ~seed ~round:(string_of_int round) ~script db
      (random_pred_wide r 2)
  done

let test_mutation_interleaved () =
  let scans0 = Plan.compiled_scans () in
  for seed = 2000 to 2029 do
    check_mutation_seed seed
  done;
  Alcotest.(check bool)
    "compiled engine engaged under mutation" true
    (Plan.compiled_scans () > scans0)

(* ------------------------------------------------------------------ *)
(* Transactional rounds: the same mutation engine, run inside one
   [Transaction] per round (attribute writes, unbind/rebind, creates),
   committed or — one round in three — aborted.  The 2-way check and
   [Plan.self_check] run with the transaction still open and again after
   it ends, so the delta path carries the plan state onto the uncommitted
   state and back off it through the undo's change records.  20 seeds x
   8 rounds; a failure reports the seed plus the mutation script. *)

let check_txn_seed seed =
  let module Txn = Compo_txn.Transaction in
  let r = make_rng seed in
  let db, levels = mutation_db r in
  let mg = Txn.create_manager (Database.store db) in
  let script = Buffer.create 256 in
  let plan0 = Plan.enabled () in
  Fun.protect ~finally:(fun () -> Plan.set_enabled plan0) @@ fun () ->
  let check round =
    check_two_way ~seed ~round ~script db (random_pred_wide r 2);
    match Plan.self_check (Database.store db) with
    | [] -> ()
    | problems ->
        Alcotest.failf
          "seed %d round %s: delta state diverged from rebuild:\n%s\n\
           mutation script so far:\n\
           %s"
          seed round
          (String.concat "\n" problems)
          (Buffer.contents script)
  in
  for round = 0 to 7 do
    let txn = Txn.begin_txn mg ~user:"designer" in
    Printf.bprintf script "begin %d\n" (Txn.id txn);
    (* an abort deletes the round's creates: restore the level lists *)
    let saved = Array.copy levels in
    for _ = 0 to 1 + rand r 4 do
      mutate (txn_ops mg txn) r levels script
    done;
    check (Printf.sprintf "%d (open)" round);
    if rand r 3 = 0 then begin
      ok (Txn.abort mg txn);
      Array.blit saved 0 levels 0 (Array.length levels);
      Printf.bprintf script "abort %d\n" (Txn.id txn)
    end
    else begin
      ok (Txn.commit mg txn);
      Printf.bprintf script "commit %d\n" (Txn.id txn)
    end;
    check (string_of_int round)
  done

let test_txn_interleaved () =
  let scans0 = Plan.compiled_scans () in
  for seed = 4000 to 4019 do
    check_txn_seed seed
  done;
  Alcotest.(check bool)
    "compiled engine engaged under transactions" true
    (Plan.compiled_scans () > scans0)

(* The unplanned scan path through Query.select directly (no Database
   planner in the way): interpreted == compiled. *)
let test_query_select_direct () =
  let plan0 = Plan.enabled () in
  Fun.protect ~finally:(fun () -> Plan.set_enabled plan0) @@ fun () ->
  for seed = 1000 to 1019 do
    let r = make_rng seed in
    let db = Database.create () in
    let depth = ok (random_schema r db) in
    let (_ : int * Surrogate.t list array) =
      ok (random_population r db ~depth)
    in
    let src = random_pred r 3 in
    let where = ok (Compo_ddl.Parser.parse_expr src) in
    let store = Database.store db in
    let run_with enabled =
      Plan.set_enabled enabled;
      ok (Query.select store ~cls:"Pop" ~where ())
    in
    let interp = run_with false in
    let compiled = run_with true in
    if not (List.equal Surrogate.equal interp compiled) then
      Alcotest.failf "seed %d: Query.select rows differ for %s" seed src
  done

(* Degenerate shapes: an empty extent selects nothing under either
   engine, and no predicate returns the whole extent in class order. *)
let test_edges () =
  let db = Database.create () in
  let r = make_rng 424242 in
  let depth = ok (random_schema r db) in
  let where = ok (Compo_ddl.Parser.parse_expr "Local >= 0") in
  let plan0 = Plan.enabled () in
  Fun.protect ~finally:(fun () -> Plan.set_enabled plan0) @@ fun () ->
  List.iter
    (fun enabled ->
      Plan.set_enabled enabled;
      check_int "empty extent" 0
        (List.length (ok (Database.select db ~cls:"Pop" ~where ()))))
    [ false; true ];
  check_int "empty extent, no predicate" 0
    (List.length (ok (Database.select db ~cls:"Pop" ())));
  let (_ : int * Surrogate.t list array) =
    ok (random_population r db ~depth)
  in
  Alcotest.(check (list surrogate))
    "no predicate: the extent"
    (ok (Store.class_members (Database.store db) "Pop"))
    (ok (Database.select db ~cls:"Pop" ()))

(* ------------------------------------------------------------------ *)
(* The numeric kernel's seams.  A comparison of one attribute with a
   numeric constant, or an [and] of such comparisons, runs on the
   column's float shadow instead of the closure program, so these rounds
   draw exactly those shapes over the values where a float scan could
   drift from [Eval.compare_values]: an Integer and a Real attribute
   (the Real one also holding Int values), Null cells from roots created
   without the attribute and from unbound chain ends, NaN, infinities
   and -0.0, Int values past 2^53 where int and float order disagree,
   and constants of both domains on either side of the operator.  Every
   round runs the 2-way check after a mutation batch, then
   [Plan.self_check], which compares each shadow with its boxed cells. *)

let num_ty k = "N" ^ string_of_int k
let num_rel k = "AllOf_N" ^ string_of_int k
let two53 = 9007199254740992

let int_pool =
  [| 0; 1; -1; 7; 19; two53; two53 + 1; two53 + 2; -two53 - 1; max_int; min_int |]

let real_pool =
  [| 0.; -0.; 0.5; -7.25; 7.; 19.5; float_of_int two53; Float.nan;
     Float.infinity; Float.neg_infinity; 1e300 |]

let random_int r =
  if rand r 2 = 0 then Value.Int (rand r 20) else Value.Int (pick r int_pool)

(* the Real attribute takes Int values as well: its domain admits both *)
let random_real r =
  match rand r 3 with
  | 0 -> Value.Real (pick r real_pool)
  | 1 -> Value.Real (float_of_int (rand r 40) /. 2.)
  | _ -> random_int r

let numeric_db r =
  let db = Database.create () in
  let depth = 1 + rand r 3 in
  ok
    (Database.define_obj_type db
       {
         Schema.ot_name = num_ty 0;
         ot_inheritor_in = None;
         ot_attrs =
           [
             { Schema.attr_name = "I"; attr_domain = Domain.Integer };
             { Schema.attr_name = "X"; attr_domain = Domain.Real };
           ];
         ot_subclasses = [];
         ot_subrels = [];
         ot_constraints = [];
       });
  for k = 0 to depth - 1 do
    ok
      (Database.define_inher_rel_type db
         {
           Schema.it_name = num_rel k;
           it_transmitter = num_ty k;
           it_inheritor = Some (num_ty (k + 1));
           it_inheriting = [ "I"; "X" ];
           it_attrs = [];
           it_subclasses = [];
           it_constraints = [];
         });
    ok
      (Database.define_obj_type db
         {
           Schema.ot_name = num_ty (k + 1);
           ot_inheritor_in = Some (num_rel k);
           ot_attrs = [];
           ot_subclasses = [];
           ot_subrels = [];
           ot_constraints = [];
         })
  done;
  ok (Database.create_class db ~name:"Num" ~member_type:(num_ty 0));
  (* a root leaves out each attribute one time in four (a Null cell); an
     inheritor stays unbound one time in four (a Null chain end) *)
  let levels = Array.make (depth + 1) [] in
  for i = 0 to 99 + rand r 400 do
    let k = if i = 0 then 0 else rand r (depth + 1) in
    let k = if k > 0 && levels.(k - 1) = [] then 0 else k in
    let attrs =
      if k > 0 then []
      else
        (if rand r 4 = 0 then [] else [ ("I", random_int r) ])
        @ if rand r 4 = 0 then [] else [ ("X", random_real r) ]
    in
    let s = ok (Database.new_object db ~cls:"Num" ~ty:(num_ty k) ~attrs ()) in
    if k > 0 && rand r 4 > 0 then
      ignore
        (ok
           (Database.bind db ~via:(num_rel (k - 1))
              ~transmitter:(pick r (Array.of_list levels.(k - 1)))
              ~inheritor:s ()));
    levels.(k) <- s :: levels.(k)
  done;
  (db, levels)

(* one leaf: either attribute, any comparison, a constant of either
   domain on either side; one leaf in ten compares with a string, which
   the kernel declines *)
let random_leaf r =
  let attr = Expr.Path [ pick r [| "I"; "X" |] ] in
  let op = pick r Expr.[| Eq; Ne; Lt; Le; Gt; Ge |] in
  let c =
    match rand r 10 with
    | 0 -> Value.Str "x"
    | 1 | 2 | 3 | 4 -> random_int r
    | _ -> random_real r
  in
  if rand r 2 = 0 then Expr.Binop (op, attr, Expr.Const c)
  else Expr.Binop (op, Expr.Const c, attr)

let random_conjunction r =
  let rec go n e =
    if n = 0 then e else go (n - 1) (Expr.Binop (Expr.And, e, random_leaf r))
  in
  go (rand r 3) (random_leaf r)

let numeric_mutation r db levels =
  match rand r 3 with
  | 0 | 1 -> (
      match levels.(0) with
      | [] -> ()
      | roots ->
          let s = pick r (Array.of_list roots) in
          if rand r 2 = 0 then ok (Database.set_attr db s "I" (random_int r))
          else ok (Database.set_attr db s "X" (random_real r)))
  | _ -> (
      let depth = Array.length levels - 1 in
      let k = 1 + rand r depth in
      match (levels.(k), levels.(k - 1)) with
      | [], _ | _, [] -> ()
      | here, above ->
          let s = pick r (Array.of_list here) in
          ignore (Database.unbind db s);
          if rand r 4 > 0 then
            ignore
              (ok
                 (Database.bind db ~via:(num_rel (k - 1))
                    ~transmitter:(pick r (Array.of_list above))
                    ~inheritor:s ())))

(* rounds whose explain reported the numeric kernel *)
let kernel_rounds = ref 0

let check_numeric_seed seed =
  let r = make_rng seed in
  let db, levels = numeric_db r in
  let plan0 = Plan.enabled () in
  Fun.protect ~finally:(fun () -> Plan.set_enabled plan0) @@ fun () ->
  for round = 0 to 7 do
    for _ = 0 to rand r 4 do
      numeric_mutation r db levels
    done;
    let where = random_conjunction r in
    let src = Expr.to_string where in
    let run_with enabled =
      Plan.set_enabled enabled;
      ok (Database.select db ~cls:"Num" ~where ())
    in
    let interp = run_with false in
    let compiled = run_with true in
    if not (List.equal Surrogate.equal interp compiled) then
      Alcotest.failf
        "seed %d round %d: interpreted vs compiled rows differ for %s\n\
         reference: %d row(s)\n\
         other:     %d row(s)\n\
         plan:\n\
         %s"
        seed round src (List.length interp) (List.length compiled)
        (explain_both db ~cls:"Num" (Some where));
    (match Database.explain_select db ~cls:"Num" ~where () with
    | Ok (_, { Query.ex_plan = Some rp; _ }) when rp.Plan.rp_kernel > 0 ->
        incr kernel_rounds
    | Ok _ | Error _ -> ());
    match Plan.self_check (Database.store db) with
    | [] -> ()
    | problems ->
        Alcotest.failf "seed %d round %d: plan state diverged:\n%s" seed round
          (String.concat "\n" problems)
  done

let test_numeric_kernel () =
  kernel_rounds := 0;
  for seed = 6000 to 6039 do
    check_numeric_seed seed
  done;
  Alcotest.(check bool)
    "numeric kernel engaged" true (!kernel_rounds > 0)

(* Past 2^53, [Eval.compare_values] compares Int with Int as floats, so
   2^53 + 1 = 2^53 holds; the kernel must agree, from either side, and
   must be what ran. *)
let test_kernel_past_2_53 () =
  let r = make_rng 77 in
  let db, levels = numeric_db r in
  let store = Database.store db in
  let a, b =
    match levels.(0) with
    | a :: b :: _ -> (a, b)
    | _ -> Alcotest.fail "seed 77 grows fewer than two roots"
  in
  ok (Database.set_attr db a "I" (Value.Int two53));
  ok (Database.set_attr db b "I" (Value.Int (two53 + 1)));
  let plan0 = Plan.enabled () in
  Fun.protect ~finally:(fun () -> Plan.set_enabled plan0) @@ fun () ->
  List.iter
    (fun where ->
      let src = Expr.to_string where in
      Plan.set_enabled false;
      let interp = ok (Database.select db ~cls:"Num" ~where ()) in
      Plan.set_enabled true;
      let seq = ok (Database.select db ~cls:"Num" ~where ()) in
      Alcotest.(check bool)
        (src ^ ": both 2^53 and 2^53 + 1 match")
        true
        (List.exists (Surrogate.equal a) interp
        && List.exists (Surrogate.equal b) interp);
      Alcotest.(check (list surrogate)) (src ^ ": compiled rows") interp seq;
      match Database.explain_select db ~cls:"Num" ~where () with
      | Ok (_, { Query.ex_plan = Some rp; _ }) ->
          check_int (src ^ ": kernel comparisons") 1 rp.Plan.rp_kernel
      | Ok _ | Error _ -> Alcotest.failf "%s: the compiled engine stood down" src)
    [
      Expr.Binop (Expr.Eq, Expr.Path [ "I" ], Expr.Const (Value.Int (two53 + 1)));
      Expr.Binop (Expr.Eq, Expr.Const (Value.Int two53), Expr.Path [ "I" ]);
      Expr.Binop
        (Expr.Le, Expr.Const (Value.Real (float_of_int two53)), Expr.Path [ "I" ]);
    ];
  check_int "plan state consistent" 0 (List.length (Plan.self_check store))

let suite =
  ( "par-diff",
    [
      case "interpreted == compiled over random rounds (220)" test_differential;
      case
        "mutation-interleaved: 300 rounds of deltas under the same oracle"
        test_mutation_interleaved;
      case "Query.select direct path, 20 rounds" test_query_select_direct;
      case "degenerate shapes" test_edges;
      case
        "transactional: 160 committed/aborted rounds under the same oracle"
        test_txn_interleaved;
      case "numeric kernel: 320 rounds over its seams" test_numeric_kernel;
      case "numeric kernel: Int past 2^53 compares as float"
        test_kernel_past_2_53;
    ] )
