open Difftrace_util

type elem = Sym of int | Loop of { body : int; count : int }

let elem_equal a b =
  match (a, b) with
  | Sym x, Sym y -> Int.equal x y
  | Loop { body = b1; count = c1 }, Loop { body = b2; count = c2 } ->
    Int.equal b1 b2 && Int.equal c1 c2
  | Sym _, Loop _ | Loop _, Sym _ -> false

exception Corrupt of string

let corrupt fmt = Printf.ksprintf (fun s -> raise (Corrupt s)) fmt

let write_elems buf elems =
  Varint.write buf (Array.length elems);
  Array.iter
    (function
      | Sym id ->
        Varint.write buf 0;
        Varint.write buf id
      | Loop { body; count } ->
        Varint.write buf 1;
        Varint.write buf body;
        Varint.write buf count)
    elems

let read_elem ~n_syms ~n_bodies s pos =
  let tag, pos = Varint.read s pos in
  match tag with
  | 0 ->
    let id, pos = Varint.read s pos in
    if id >= n_syms then corrupt "symbol id %d out of range (%d known)" id n_syms;
    (Sym id, pos)
  | 1 ->
    let body, pos = Varint.read s pos in
    let count, pos = Varint.read s pos in
    if body >= n_bodies then
      corrupt "loop body %d out of range (%d known)" body n_bodies;
    (Loop { body; count }, pos)
  | _ -> corrupt "unknown element tag %d" tag

let read_elems ~n_syms ~n_bodies s pos =
  let n, pos = Varint.read s pos in
  (* an element is at least two varint bytes — a count the remaining
     bytes cannot hold is corruption, not a huge allocation *)
  if n > (String.length s - pos) / 2 then
    corrupt "element count %d overruns record" n;
  let pos = ref pos in
  let elems =
    Array.init n (fun _ ->
        let e, p = read_elem ~n_syms ~n_bodies s !pos in
        pos := p;
        e)
  in
  (elems, !pos)

module Loop_table = struct
  (* Bodies are elem arrays; [by_body] interns them structurally so the
     same body found in any trace of the execution gets the same ID. *)
  type t = { bodies : elem array Vec.t; by_body : (elem list, int) Hashtbl.t }

  let create () = { bodies = Vec.create (); by_body = Hashtbl.create 64 }
  let size t = Vec.length t.bodies

  let body t id =
    if id < 0 || id >= Vec.length t.bodies then invalid_arg "Loop_table.body";
    Vec.get t.bodies id

  let intern t b =
    let key = Array.to_list b in
    match Hashtbl.find_opt t.by_body key with
    | Some id -> id
    | None ->
      let id = Vec.length t.bodies in
      Vec.push t.bodies (Array.copy b);
      Hashtbl.add t.by_body key id;
      id

  let label id = "L" ^ string_of_int id
end

type t = { elems : elem array; input_length : int }

(* [same_run x i y j b]: the [b] elements of [x] from [i] equal those of
   [y] from [j]; stops at the first mismatch. *)
let rec same_run x i y j b =
  b = 0 || (elem_equal x.(i) y.(j) && same_run x (i + 1) y (j + 1) (b - 1))

(* Windows [w] .. [repeats-1] of width [b] below the top of
   [stack.(0 .. len-1)] all equal the top window. *)
let rec windows_match stack len ~repeats b w =
  w >= repeats
  || (same_run stack (len - b) stack (len - ((w + 1) * b)) b
     && windows_match stack len ~repeats b (w + 1))

(* One reduction step over the top of the stack [stack.(0 .. len-1)],
   trying widths [b] .. [k]; returns the new length, which is [len] iff
   the stack did not change (each rule shrinks it). Two rules, from
   Procedure 1, extension before creation at each width, the first
   match winning:
   - extension: a loop sits at depth b+1 and the top b elements are
     isomorphic to its body -> absorb them, incrementing the count;
   - creation: the top [repeats] windows of length b are pairwise
     isomorphic -> replace them by a fresh loop element. *)
let rec reduce_step ~table ~k ~repeats stack len b =
  if b > k then len
  else
    let extended =
      len >= b + 1
      &&
      match stack.(len - b - 1) with
      | Loop { body; count } ->
        let bd = Loop_table.body table body in
        if Array.length bd = b && same_run bd 0 stack (len - b) b then begin
          stack.(len - b - 1) <- Loop { body; count = count + 1 };
          true
        end
        else false
      | Sym _ -> false
    in
    if extended then len - b
    else if len >= repeats * b && windows_match stack len ~repeats b 1 then begin
      let base = len - (repeats * b) in
      let id = Loop_table.intern table (Array.sub stack (len - b) b) in
      stack.(base) <- Loop { body = id; count = repeats };
      base + 1
    end
    else reduce_step ~table ~k ~repeats stack len (b + 1)

let of_ids ~table ?(k = 10) ?(repeats = 2) ids =
  if k < 1 then invalid_arg "Nlr.of_ids: k must be >= 1";
  if repeats < 2 then invalid_arg "Nlr.of_ids: repeats must be >= 2";
  (* no rule grows the stack, so it never holds more than the input *)
  let stack = Array.make (Array.length ids) (Sym 0) in
  let len = ref 0 in
  for i = 0 to Array.length ids - 1 do
    stack.(!len) <- Sym ids.(i);
    incr len;
    let before = ref 0 in
    while !len <> !before do
      before := !len;
      len := reduce_step ~table ~k ~repeats stack !len 1
    done
  done;
  { elems = Array.sub stack 0 !len; input_length = Array.length ids }

let length t = Array.length t.elems

let reintern ~from ~into t =
  let n = Loop_table.size from in
  let map = Array.make n (-1) in
  let remap_elem = function
    | Sym _ as e -> e
    | Loop { body; count } -> Loop { body = map.(body); count }
  in
  (* A body only references loops created before it, so ascending order
     guarantees [map] is filled for every id a body mentions — and it
     replays [from]'s intern calls in their original order, which is
     what keeps shared-table ids identical to a fully sequential run. *)
  for id = 0 to n - 1 do
    map.(id) <- Loop_table.intern into (Array.map remap_elem (Loop_table.body from id))
  done;
  { t with elems = Array.map remap_elem t.elems }

let expand ~table t =
  let out = Vec.with_capacity t.input_length in
  let rec emit = function
    | Sym id -> Vec.push out id
    | Loop { body; count } ->
      let bd = Loop_table.body table body in
      for _ = 1 to count do
        Array.iter emit bd
      done
  in
  Array.iter emit t.elems;
  Vec.to_array out

let reduction_factor t =
  if Array.length t.elems = 0 then 1.0
  else float_of_int t.input_length /. float_of_int (Array.length t.elems)

let token symtab = function
  | Sym id -> Difftrace_trace.Symtab.name symtab id
  | Loop { body; _ } -> Loop_table.label body

let multiplicity = function Sym _ -> 1 | Loop { count; _ } -> count

let elem_to_string symtab = function
  | Sym id -> Difftrace_trace.Symtab.name symtab id
  | Loop { body; count } -> Printf.sprintf "%s^%d" (Loop_table.label body) count

let to_strings symtab t = Array.to_list (Array.map (elem_to_string symtab) t.elems)

let body_to_string ~table symtab id =
  let bd = Loop_table.body table id in
  "[" ^ String.concat "-" (Array.to_list (Array.map (elem_to_string symtab) bd)) ^ "]"
