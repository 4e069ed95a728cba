module Smap = Map.Make (String)

type item = E of Surrogate.t | V of Value.t

type env = { store : Store.t; self : Surrogate.t option; vars : item Smap.t }

let env ?self ?(vars = []) store =
  {
    store;
    self;
    vars = List.fold_left (fun m (n, i) -> Smap.add n i m) Smap.empty vars;
  }

let with_var e name item = { e with vars = Smap.add name item e.vars }
let self_of e = e.self
let ( let* ) = Result.bind

(* one count per expression node evaluated: the work metric behind
   query predicates and constraint checks *)
let m_eval_node = Compo_obs.Metrics.counter "eval.node"

let node_count () = Compo_obs.Metrics.count m_eval_node

let item_value _store = function E s -> Value.Ref s | V v -> v

(* Stepping a value by a segment name: record projection, mapping over
   collections, dereferencing object references. *)
let rec step_value env name v k =
  match v with
  | Value.Record _ -> (
      match Value.field name v with
      | Some fv -> k [ V fv ]
      | None -> Error (Errors.Eval_error ("no record field " ^ name)))
  | Value.List vs | Value.Set vs ->
      let rec go acc = function
        | [] -> k (List.concat (List.rev acc))
        | v :: rest ->
            let* items = step_value env name v (fun items -> Ok items) in
            go (items :: acc) rest
      in
      go [] vs
  | Value.Ref s ->
      let* items = step_entity env name s in
      k items
  | Value.Null -> k []
  | Value.Int _ | Value.Real _ | Value.Bool _ | Value.Str _
  | Value.Enum_case _ | Value.Matrix _ | Value.Tuple _ ->
      Error
        (Errors.Eval_error
           (Printf.sprintf "cannot navigate %s through %s"
              (Value.to_string v) name))

(* Stepping an entity by a segment name: effective attribute, effective
   subclass, subrelationship class, or participant. *)
and step_entity env name s =
  let store = env.store in
  let* e = Store.get store s in
  let schema = Store.schema store in
  if Option.is_some (Schema.find_effective_attr schema e.Store.type_name name)
  then
    let* v = Inheritance.attr store s name in
    Ok [ V v ]
  else if
    Option.is_some (Schema.find_effective_subclass schema e.Store.type_name name)
  then
    let* ms = Inheritance.subclass_members store s name in
    Ok (List.map (fun m -> E m) ms)
  else (
      match Store.subrel_members store s name with
      | Ok ms -> Ok (List.map (fun m -> E m) ms)
      | Error _ -> (
          match Store.participant store s name with
          | Ok v -> (
              match v with
              | Value.Ref target -> Ok [ E target ]
              | Value.Set vs | Value.List vs ->
                  Ok
                    (List.map
                       (function Value.Ref r -> E r | v -> V v)
                       vs)
              | v -> Ok [ V v ])
          | Error _ ->
              Error
                (Errors.Eval_error
                   (Printf.sprintf "%s has no feature %s" e.Store.type_name
                      name))))

let step_item env name = function
  | E s -> step_entity env name s
  | V v -> step_value env name v (fun items -> Ok items)

let step_items env name items =
  let rec go acc = function
    | [] -> Ok (List.concat (List.rev acc))
    | item :: rest ->
        let* stepped = step_item env name item in
        go (stepped :: acc) rest
  in
  go [] items

let resolve_head env name =
  match Smap.find_opt name env.vars with
  | Some item -> Ok [ item ]
  | None -> (
      match env.self with
      | Some self -> (
          match step_entity env name self with
          | Ok items -> Ok items
          | Error _ -> (
              match Store.class_members env.store name with
              | Ok ms -> Ok (List.map (fun m -> E m) ms)
              | Error _ ->
                  Error
                    (Errors.Eval_error
                       ("cannot resolve path head " ^ name))))
      | None -> (
          match Store.class_members env.store name with
          | Ok ms -> Ok (List.map (fun m -> E m) ms)
          | Error _ ->
              Error (Errors.Eval_error ("cannot resolve path head " ^ name))))

let eval_items env = function
  | [] -> Error (Errors.Eval_error "empty path")
  | head :: rest ->
      let* items = resolve_head env head in
      List.fold_left
        (fun acc seg ->
          let* items = acc in
          step_items env seg items)
        (Ok items) rest

(* Flatten collection values so that [count]/[sum]/[in] see members, not
   the collection itself. *)
let expand_collections items =
  List.concat_map
    (fun item ->
      match item with
      | V (Value.Set vs) | V (Value.List vs) -> List.map (fun v -> V v) vs
      | other -> [ other ])
    items

let scalar env = function
  | [ item ] -> Ok (item_value env.store item)
  | [] -> Ok Value.Null
  | items ->
      Error
        (Errors.Eval_error
           (Printf.sprintf "path yields %d values in scalar context"
              (List.length items)))

let numeric_binop op a b =
  let fail () =
    Error
      (Errors.Eval_error
         (Printf.sprintf "arithmetic on non-numeric values %s, %s"
            (Value.to_string a) (Value.to_string b)))
  in
  match (a, b) with
  | Value.Int x, Value.Int y -> (
      match op with
      | Expr.Add -> Ok (Value.Int (x + y))
      | Expr.Sub -> Ok (Value.Int (x - y))
      | Expr.Mul -> Ok (Value.Int (x * y))
      | Expr.Div ->
          if y = 0 then Error (Errors.Eval_error "division by zero")
          else Ok (Value.Int (x / y))
      | _ -> fail ())
  | _ -> (
      match (Value.as_float a, Value.as_float b) with
      | Some x, Some y -> (
          match op with
          | Expr.Add -> Ok (Value.Real (x +. y))
          | Expr.Sub -> Ok (Value.Real (x -. y))
          | Expr.Mul -> Ok (Value.Real (x *. y))
          | Expr.Div ->
              if y = 0.0 then Error (Errors.Eval_error "division by zero")
              else Ok (Value.Real (x /. y))
          | _ -> fail ())
      | _ -> fail ())

(* numbers compare as floats, Int against Int included; matched
   directly rather than through [Value.as_float], which would box both
   operands on every call *)
let compare_values a b =
  match (a, b) with
  | Value.Int x, Value.Int y -> Float.compare (float_of_int x) (float_of_int y)
  | Value.Int x, Value.Real y -> Float.compare (float_of_int x) y
  | Value.Real x, Value.Int y -> Float.compare x (float_of_int y)
  | Value.Real x, Value.Real y -> Float.compare x y
  | _ -> Value.compare a b

let rec eval env expr =
  Compo_obs.Metrics.incr m_eval_node;
  match expr with
  | Expr.Const v -> Ok v
  | Expr.Path p ->
      let* items = eval_items env p in
      scalar env items
  | Expr.Count (p, filter) ->
      let* items = eval_items env p in
      let members = expand_collections items in
      let binder = List.nth p (List.length p - 1) in
      let* n =
        match filter with
        | None -> Ok (List.length members)
        | Some pred ->
            List.fold_left
              (fun acc item ->
                let* n = acc in
                let* keep = eval_bool (with_var env binder item) pred in
                Ok (if keep then n + 1 else n))
              (Ok 0) members
      in
      Ok (Value.Int n)
  | Expr.Sum p ->
      let* items = eval_items env p in
      let members = expand_collections items in
      let* total =
        List.fold_left
          (fun acc item ->
            let* acc = acc in
            let v = item_value env.store item in
            match (acc, v) with
            | Value.Int a, Value.Int b -> Ok (Value.Int (a + b))
            | acc, v -> (
                match (Value.as_float acc, Value.as_float v) with
                | Some a, Some b -> Ok (Value.Real (a +. b))
                | _ ->
                    Error
                      (Errors.Eval_error
                         ("sum over non-numeric value " ^ Value.to_string v))))
          (Ok (Value.Int 0)) members
      in
      Ok total
  | Expr.Unop (Expr.Not, e) ->
      let* b = eval_bool env e in
      Ok (Value.Bool (not b))
  | Expr.Unop (Expr.Neg, e) -> (
      let* v = eval env e in
      match v with
      | Value.Int i -> Ok (Value.Int (-i))
      | Value.Real f -> Ok (Value.Real (-.f))
      | v ->
          Error
            (Errors.Eval_error ("negation of non-number " ^ Value.to_string v)))
  | Expr.Binop (Expr.And, a, b) ->
      let* x = eval_bool env a in
      if not x then Ok (Value.Bool false)
      else
        let* y = eval_bool env b in
        Ok (Value.Bool y)
  | Expr.Binop (Expr.Or, a, b) ->
      let* x = eval_bool env a in
      if x then Ok (Value.Bool true)
      else
        let* y = eval_bool env b in
        Ok (Value.Bool y)
  | Expr.Binop (Expr.In, a, b) ->
      let* v = eval env a in
      let* members =
        match b with
        | Expr.Path p ->
            let* items = eval_items env p in
            Ok (List.map (item_value env.store) (expand_collections items))
        | other -> (
            let* rhs = eval env other in
            match rhs with
            | Value.Set vs | Value.List vs -> Ok vs
            | v -> Ok [ v ])
      in
      Ok (Value.Bool (List.exists (Value.equal v) members))
  | Expr.Binop (((Expr.Add | Expr.Sub | Expr.Mul | Expr.Div) as op), a, b) ->
      let* x = eval env a in
      let* y = eval env b in
      numeric_binop op x y
  | Expr.Binop (((Expr.Eq | Expr.Ne | Expr.Lt | Expr.Le | Expr.Gt | Expr.Ge) as op), a, b) ->
      let* x = eval env a in
      let* y = eval env b in
      let c = compare_values x y in
      let r =
        match op with
        | Expr.Eq -> c = 0
        | Expr.Ne -> c <> 0
        | Expr.Lt -> c < 0
        | Expr.Le -> c <= 0
        | Expr.Gt -> c > 0
        | Expr.Ge -> c >= 0
        | _ -> assert false
      in
      Ok (Value.Bool r)
  | Expr.Forall (binders, body) -> quantify env binders body ~forall:true
  | Expr.Exists (binders, body) -> quantify env binders body ~forall:false

and quantify env binders body ~forall =
  (* Sequential binder scoping: each binder path may mention earlier
     variables.  [forall] over an empty range is true, [exists] false. *)
  match binders with
  | [] ->
      let* b = eval_bool env body in
      Ok (Value.Bool b)
  | (var, path) :: rest ->
      let* items = eval_items env path in
      let members = expand_collections items in
      let* result =
        List.fold_left
          (fun acc item ->
            let* acc = acc in
            match (forall, acc) with
            | true, false -> Ok false (* short-circuit *)
            | false, true -> Ok true
            | _ ->
                let* sub =
                  quantify (with_var env var item) rest body ~forall
                in
                let* b =
                  match sub with
                  | Value.Bool b -> Ok b
                  | v ->
                      Error
                        (Errors.Eval_error
                           ("quantifier body is not boolean: "
                          ^ Value.to_string v))
                in
                Ok (if forall then acc && b else acc || b))
          (Ok forall) members
      in
      Ok (Value.Bool result)

and eval_bool env expr =
  let* v = eval env expr in
  match v with
  | Value.Bool b -> Ok b
  | v ->
      Error
        (Errors.Eval_error
           (Printf.sprintf "expected boolean, got %s (in %s)"
              (Value.to_string v) (Expr.to_string expr)))
