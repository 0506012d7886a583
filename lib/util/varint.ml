let write buf n =
  if n < 0 then invalid_arg "Varint.write: negative";
  let rec go n =
    if n < 0x80 then Buffer.add_char buf (Char.chr n)
    else begin
      Buffer.add_char buf (Char.chr (0x80 lor (n land 0x7f)));
      go (n lsr 7)
    end
  in
  go n

type cursor = { src : string; mutable pos : int }

let cursor src pos = { src; pos }

(* a top-level loop over plain arguments: a read allocates nothing *)
let rec next_at c pos shift acc =
  let s = c.src in
  if pos >= String.length s then invalid_arg "Varint.read: truncated input";
  (* [write] never emits more than 9 bytes (shift 56 holds bits 56..62
     of a 63-bit int); past that — or once a continuation run would set
     the sign bit — [lsl] silently wraps, so reject. *)
  if shift > 56 then invalid_arg "Varint.read: overflow";
  let b = Char.code (String.unsafe_get s pos) in
  let acc = acc lor ((b land 0x7f) lsl shift) in
  if acc < 0 then invalid_arg "Varint.read: overflow";
  if b land 0x80 = 0 then begin
    c.pos <- pos + 1;
    acc
  end
  else next_at c (pos + 1) (shift + 7) acc

let next c = next_at c c.pos 0 0

let read s pos =
  let c = cursor s pos in
  let v = next c in
  (v, c.pos)

let size n =
  if n < 0 then invalid_arg "Varint.size: negative";
  let rec go n acc = if n < 0x80 then acc else go (n lsr 7) (acc + 1) in
  go n 1

let write_list buf l =
  write buf (List.length l);
  List.iter (write buf) l

let read_list s pos =
  let n, pos = read s pos in
  let rec go i pos acc =
    if i = n then (List.rev acc, pos)
    else
      let v, pos = read s pos in
      go (i + 1) pos (v :: acc)
  in
  go 0 pos []
