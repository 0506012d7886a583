type t = Call of int | Return of int

let id = function Call i | Return i -> i
let is_call = function Call _ -> true | Return _ -> false
let is_return e = not (is_call e)

let equal a b =
  match (a, b) with
  | Call x, Call y | Return x, Return y -> x = y
  | Call _, Return _ | Return _, Call _ -> false

let to_string symtab = function
  | Call i -> Symtab.name symtab i
  | Return i -> "ret " ^ Symtab.name symtab i

let encode = function Call i -> i lsl 1 | Return i -> (i lsl 1) lor 1
let fresh n = if n land 1 = 0 then Call (n lsr 1) else Return (n lsr 1)

(* one immutable value per encoding below the bound, so decoding a
   trace allocates nothing per event in the common case *)
let shared_bound = 4096
let shared = Array.init shared_bound fresh

let[@inline] decode n =
  if n >= 0 && n < shared_bound then Array.unsafe_get shared n else fresh n
