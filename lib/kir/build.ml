(** Combinator DSL for constructing kernel IR from OCaml.

    The generated-code side of the consolidation compiler and the unit
    tests build ASTs with these combinators; applications are written in
    MiniCU source and parsed instead.

    Operators are suffixed with [:] to avoid shadowing the stdlib ones:
    [v "x" +: i 1] builds [x + 1]. *)

open Ast

let i n = Const (Value.Vint n)
let f x = Const (Value.Vfloat x)
let v name = Var (var name)

let tid = Special Thread_idx
let bid = Special Block_idx
let bdim = Special Block_dim
let gdim = Special Grid_dim
let lane = Special Lane_id
let warp = Special Warp_id
let warpsize = Special Warp_size

(** Global thread index: [blockIdx.x * blockDim.x + threadIdx.x]. *)
let gtid = Binop (Add, Binop (Mul, bid, bdim), tid)

let ( +: ) a b = Binop (Add, a, b)
let ( -: ) a b = Binop (Sub, a, b)
let ( *: ) a b = Binop (Mul, a, b)
let ( /: ) a b = Binop (Div, a, b)
let ( %: ) a b = Binop (Mod, a, b)
let ( <: ) a b = Binop (Lt, a, b)
let ( <=: ) a b = Binop (Le, a, b)
let ( >: ) a b = Binop (Gt, a, b)
let ( >=: ) a b = Binop (Ge, a, b)
let ( ==: ) a b = Binop (Eq, a, b)
let ( <>: ) a b = Binop (Ne, a, b)
let ( &&: ) a b = Binop (And, a, b)
let ( ||: ) a b = Binop (Or, a, b)
let min_ a b = Binop (Min, a, b)
let neg a = Unop (Neg, a)
let to_float a = Unop (To_float, a)
let to_int a = Unop (To_int, a)

let ( .%[] ) buf idx = Load (buf, idx)
let load buf idx = Load (buf, idx)
let shared name idx = Shared_load (name, idx)
let buf_len b = Buf_len b

let set name e = Let (var name, e)
let store buf idx value = Store (buf, idx, value)
let shared_set name idx value = Shared_store (name, idx, value)
let if_ c t e = If (c, t, e)
let if_then c t = If (c, t, [])
let while_ c body = While (c, body)
let for_ name ~from ~below body = For (var name, from, below, body)
let sync = Syncthreads
let device_sync = Device_sync
let grid_barrier = Grid_barrier
let return = Return

let atomic_add ?old buf idx operand =
  Atomic { op = Aadd; buf; idx; operand; compare = None;
           old = Option.map var old }

let atomic_min ?old buf idx operand =
  Atomic { op = Amin; buf; idx; operand; compare = None;
           old = Option.map var old }

let atomic_max ?old buf idx operand =
  Atomic { op = Amax; buf; idx; operand; compare = None;
           old = Option.map var old }

let atomic_exch ?old buf idx operand =
  Atomic { op = Aexch; buf; idx; operand; compare = None;
           old = Option.map var old }

let atomic_cas ?old buf idx ~compare operand =
  Atomic { op = Acas; buf; idx; operand; compare = Some compare;
           old = Option.map var old }

let launch ?pragma callee ~grid ~block args =
  Launch { callee; grid; block; args; pragma }

let malloc ~scope dst count = Malloc { dst = var dst; count; scope; site = -1 }
let free e = Free e

let kernel ~name ?(params = []) ?(shared = []) body =
  Kernel.make ~name ~params ~shared body

(** Integer parameter. *)
let p name = param ~ty:Tint name

(** Float parameter. *)
let pf name = param ~ty:Tfloat name

(** Pointer-to-int parameter. *)
let pi name = param ~ty:Tptr_int name

(** Pointer-to-float parameter. *)
let pp name = param ~ty:Tptr_float name
