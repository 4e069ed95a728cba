open Compo_core

type right = No_access | Read_only | Read_write

let right_to_string = function
  | No_access -> "no-access"
  | Read_only -> "read-only"
  | Read_write -> "read-write"

type t = {
  default : right;
  rules : (string, right Surrogate.Tbl.t) Hashtbl.t;  (* user -> object -> right *)
  protected : unit Surrogate.Tbl.t;
}

let create ?(default = Read_write) () =
  { default; rules = Hashtbl.create 8; protected = Surrogate.Tbl.create 64 }

let grant t ~user s right =
  match Hashtbl.find t.rules user with
  | objs -> Surrogate.Tbl.replace objs s right
  | exception Not_found ->
      let objs = Surrogate.Tbl.create 16 in
      Surrogate.Tbl.add objs s right;
      Hashtbl.add t.rules user objs

let protect t s = Surrogate.Tbl.replace t.protected s ()

let fallback t s =
  if Surrogate.Tbl.length t.protected > 0 && Surrogate.Tbl.mem t.protected s then Read_only
  else t.default

(* no allocation: an access check runs on every lock the transaction
   layer takes, one per hop of an inherited read *)
let rights t ~user s =
  if Hashtbl.length t.rules = 0 then fallback t s
  else
    match Surrogate.Tbl.find (Hashtbl.find t.rules user) s with
    | r -> r
    | exception Not_found -> fallback t s

let cap_mode t ~user s mode =
  match rights t ~user s with
  | Read_write -> Some mode
  | No_access -> None
  | Read_only -> (
      match mode with
      | Lock.S | Lock.IS -> Some mode
      | Lock.X | Lock.SIX -> Some Lock.S
      | Lock.IX -> Some Lock.IS)
