open Difftrace_util

type elem = Sym of int | Loop of { body : int; count : int }

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
    if count < 2 then corrupt "loop count %d below 2" count;
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

(* [rename map e] — [e] with its loop body ID looked up in [map] *)
let rename map = function
  | Sym _ as e -> e
  | Loop { body; count } -> Loop { body = map.(body); count }

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

  (* A body only references loops created before it, so ascending order
     fills [map] for every ID a body mentions — and replays [from]'s
     intern calls in their original order. *)
  let remap ~from ~into =
    let n = size from in
    let map = Array.make n (-1) in
    for id = 0 to n - 1 do
      map.(id) <- intern into (Array.map (rename map) (Vec.get from.bodies id))
    done;
    map
end

type t = { elems : elem array; input_length : int }

(* The reduction stack, unboxed: element [i] is the pair
   [(syms.(i), cnts.(i))] — a symbol ID and 0, or a loop's body ID and
   its count, which is >= 2 — so two elements are equal iff both words
   are. [body_syms]/[body_cnts] cache, by body ID, the bodies this call
   creates in the same split form, loaded from the table on first
   sight; [[||]] marks an uncached ID (no body is empty). *)
type stack = {
  syms : int array;
  cnts : int array;
  mutable body_syms : int array array;
  mutable body_cnts : int array array;
}

let elem_at s i =
  if s.cnts.(i) = 0 then Sym s.syms.(i)
  else Loop { body = s.syms.(i); count = s.cnts.(i) }

let cache_body s table id =
  let cap = Array.length s.body_syms in
  if id >= cap then begin
    let grow a =
      let a' = Array.make (max (id + 1) (2 * cap)) [||] in
      Array.blit a 0 a' 0 cap;
      a'
    in
    s.body_syms <- grow s.body_syms;
    s.body_cnts <- grow s.body_cnts
  end;
  if Array.length s.body_syms.(id) = 0 then begin
    let bd = Loop_table.body table id in
    s.body_syms.(id) <- Array.map (function Sym x -> x | Loop { body; _ } -> body) bd;
    s.body_cnts.(id) <- Array.map (function Sym _ -> 0 | Loop { count; _ } -> count) bd
  end

(* [same_run xs xc i ys yc j b]: the [b] split elements of [xs]/[xc]
   from [i] equal those of [ys]/[yc] from [j]; stops at the first
   mismatch. *)
let rec same_run (xs : int array) (xc : int array) i (ys : int array)
    (yc : int array) j b =
  b = 0
  || xs.(i) = ys.(j)
     && xc.(i) = yc.(j)
     && same_run xs xc (i + 1) ys yc (j + 1) (b - 1)

(* Windows [w] .. [repeats-1] of width [b] below the top of the stack
   of length [len] all equal the top window. *)
let rec windows_match s len ~repeats b w =
  w >= repeats
  || same_run s.syms s.cnts (len - b) s.syms s.cnts (len - ((w + 1) * b)) b
     && windows_match s len ~repeats b (w + 1)

(* One reduction step over the top of the stack [s] of length [len],
   trying widths [b] .. [k]; returns the new length, which is [len] iff
   the stack did not change (each rule shrinks it). Two rules, from
   Procedure 1, extension before creation at each width, the first
   match winning:
   - extension: a loop sits at depth b+1 and the top b elements are
     isomorphic to its body -> absorb them, incrementing the count;
   - creation: the top [repeats] windows of length b are pairwise
     isomorphic -> replace them by a fresh loop element.
   Neither rule fits a width [b >= len]. Each rule first tests what a
   few array loads decide — a loop at depth b+1 whose body is b long,
   equal top elements in the two top windows — so most widths are
   rejected without a call. Every loop on the stack was created by this
   call, so its body is cached. *)
let rec reduce_step ~table ~k ~repeats s len b =
  if b > k || b >= len then len
  else
    let syms = s.syms and cnts = s.cnts in
    let d = len - b - 1 in
    if
      cnts.(d) > 0
      &&
      let body = syms.(d) in
      Array.length s.body_syms.(body) = b
      && same_run s.body_syms.(body) s.body_cnts.(body) 0 syms cnts (len - b) b
    then begin
      cnts.(d) <- cnts.(d) + 1;
      len - b
    end
    else if
      len >= repeats * b
      && syms.(len - 1) = syms.(d)
      && cnts.(len - 1) = cnts.(d)
      && windows_match s len ~repeats b 1
    then begin
      let base = len - (repeats * b) in
      let id =
        Loop_table.intern table (Array.init b (fun i -> elem_at s (len - b + i)))
      in
      cache_body s table id;
      syms.(base) <- id;
      cnts.(base) <- repeats;
      base + 1
    end
    else reduce_step ~table ~k ~repeats s len (b + 1)

let of_ids ~table ?(k = 10) ?(repeats = 2) ids =
  if k < 1 then invalid_arg "Nlr.of_ids: k must be >= 1";
  if repeats < 2 then invalid_arg "Nlr.of_ids: repeats must be >= 2";
  (* no rule grows the stack, so it never holds more than the input *)
  let n = Array.length ids in
  let s =
    { syms = Array.make n 0;
      cnts = Array.make n 0;
      body_syms = Array.make 16 [||];
      body_cnts = Array.make 16 [||] }
  in
  let len = ref 0 in
  for i = 0 to n - 1 do
    s.syms.(!len) <- ids.(i);
    s.cnts.(!len) <- 0;
    incr len;
    let before = ref 0 in
    while !len <> !before do
      before := !len;
      len := reduce_step ~table ~k ~repeats s !len 1
    done
  done;
  { elems = Array.init !len (elem_at s); input_length = n }

let length t = Array.length t.elems

let reintern ~from ~into t =
  let map = Loop_table.remap ~from ~into in
  { t with elems = Array.map (rename map) t.elems }

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
