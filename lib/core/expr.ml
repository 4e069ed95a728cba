type path = string list
type unop = Not | Neg

type binop =
  | Add
  | Sub
  | Mul
  | Div
  | Eq
  | Ne
  | Lt
  | Le
  | Gt
  | Ge
  | And
  | Or
  | In

type t =
  | Const of Value.t
  | Path of path
  | Count of path * t option
  | Sum of path
  | Unop of unop * t
  | Binop of binop * t * t
  | Forall of (string * path) list * t
  | Exists of (string * path) list * t

let binop_name = function
  | Add -> "+"
  | Sub -> "-"
  | Mul -> "*"
  | Div -> "/"
  | Eq -> "="
  | Ne -> "<>"
  | Lt -> "<"
  | Le -> "<="
  | Gt -> ">"
  | Ge -> ">="
  | And -> "and"
  | Or -> "or"
  | In -> "in"

let pp_path ppf p = Format.pp_print_string ppf (String.concat "." p)

let rec pp ppf = function
  | Const v -> Value.pp ppf v
  | Path p -> pp_path ppf p
  | Count (p, None) -> Format.fprintf ppf "count (%a)" pp_path p
  | Count (p, Some filter) ->
      Format.fprintf ppf "count (%a) where %a" pp_path p pp filter
  | Sum p -> Format.fprintf ppf "sum (%a)" pp_path p
  | Unop (Not, e) -> Format.fprintf ppf "not (%a)" pp e
  | Unop (Neg, e) -> Format.fprintf ppf "-(%a)" pp e
  | Binop (op, a, b) ->
      Format.fprintf ppf "(%a %s %a)" pp a (binop_name op) pp b
  | Forall (binders, body) ->
      Format.fprintf ppf "for (%a): %a" pp_binders binders pp body
  | Exists (binders, body) ->
      Format.fprintf ppf "exists (%a): %a" pp_binders binders pp body

and pp_binders ppf binders =
  Format.pp_print_list
    ~pp_sep:(fun ppf () -> Format.pp_print_string ppf ", ")
    (fun ppf (v, p) -> Format.fprintf ppf "%s in %a" v pp_path p)
    ppf binders

let to_string e = Format.asprintf "%a" pp e

let rec equal a b =
  match (a, b) with
  | Const x, Const y -> Value.equal x y
  | Path p, Path q -> List.equal String.equal p q
  | Count (p, f), Count (q, g) ->
      List.equal String.equal p q && Option.equal equal f g
  | Sum p, Sum q -> List.equal String.equal p q
  | Unop (o, x), Unop (p, y) -> o = p && equal x y
  | Binop (o, x, x'), Binop (p, y, y') -> o = p && equal x y && equal x' y'
  | Forall (bs, x), Forall (cs, y) | Exists (bs, x), Exists (cs, y) ->
      List.equal
        (fun (v, p) (w, q) -> String.equal v w && List.equal String.equal p q)
        bs cs
      && equal x y
  | (Const _ | Path _ | Count _ | Sum _ | Unop _ | Binop _ | Forall _
    | Exists _), _ ->
      false

let flip = function
  | Lt -> Gt
  | Le -> Ge
  | Gt -> Lt
  | Ge -> Le
  | op -> op

let path p = Path p
let int i = Const (Value.Int i)
let str s = Const (Value.Str s)
let enum c = Const (Value.Enum_case c)
let ( = ) a b = Binop (Eq, a, b)
let ( <> ) a b = Binop (Ne, a, b)
let ( < ) a b = Binop (Lt, a, b)
let ( <= ) a b = Binop (Le, a, b)
let ( > ) a b = Binop (Gt, a, b)
let ( >= ) a b = Binop (Ge, a, b)
let ( && ) a b = Binop (And, a, b)
let ( || ) a b = Binop (Or, a, b)
let ( + ) a b = Binop (Add, a, b)
let ( - ) a b = Binop (Sub, a, b)
let ( * ) a b = Binop (Mul, a, b)
let ( / ) a b = Binop (Div, a, b)
let not_ e = Unop (Not, e)
let in_ a b = Binop (In, a, b)
let count ?where p = Count (p, where)
let sum p = Sum p
let forall binders body = Forall (binders, body)
let exists binders body = Exists (binders, body)
