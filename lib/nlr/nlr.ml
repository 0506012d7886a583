open Difftrace_util

type elem = Sym of int | Loop of { body : int; count : int }

let elem_equal (a : elem) (b : elem) = a = b

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

(* One reduction step over the top of the stack; returns true if the
   stack changed. Two rules, from Procedure 1:
   - extension: a loop sits at depth b+1 and the top b elements are
     isomorphic to its body -> absorb them, incrementing the count;
   - creation: the top [repeats] windows of length b are pairwise
     isomorphic -> replace them by a fresh loop element. *)
let reduce_step ~table ~k ~repeats stack =
  let len = Vec.length stack in
  let exception Changed in
  try
    for b = 1 to k do
      (* extension *)
      (if len >= b + 1 then
         match Vec.peek stack b with
         | Loop { body; count } ->
           let bd = Loop_table.body table body in
           if
             Array.length bd = b
             && (let ok = ref true in
                 for i = 0 to b - 1 do
                   if not (elem_equal bd.(i) (Vec.peek stack (b - 1 - i))) then
                     ok := false
                 done;
                 !ok)
           then begin
             Vec.truncate stack (len - b - 1);
             Vec.push stack (Loop { body; count = count + 1 });
             raise Changed
           end
         | Sym _ -> ());
      (* creation *)
      if len >= repeats * b then begin
        let window w i = Vec.get stack (len - ((w + 1) * b) + i) in
        let all_equal = ref true in
        for w = 1 to repeats - 1 do
          for i = 0 to b - 1 do
            if not (elem_equal (window 0 i) (window w i)) then all_equal := false
          done
        done;
        if !all_equal then begin
          let body = Array.init b (fun i -> window 0 i) in
          let id = Loop_table.intern table body in
          Vec.truncate stack (len - (repeats * b));
          Vec.push stack (Loop { body = id; count = repeats });
          raise Changed
        end
      end
    done;
    false
  with Changed -> true

let of_ids ~table ?(k = 10) ?(repeats = 2) ids =
  if k < 1 then invalid_arg "Nlr.of_ids: k must be >= 1";
  if repeats < 2 then invalid_arg "Nlr.of_ids: repeats must be >= 2";
  let stack = Vec.with_capacity (Array.length ids) in
  Array.iter
    (fun id ->
      Vec.push stack (Sym id);
      while reduce_step ~table ~k ~repeats stack do
        ()
      done)
    ids;
  { elems = Vec.to_array stack; input_length = Array.length ids }

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
