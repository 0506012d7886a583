open Difftrace_util

(* Classic LZW. Codes 0..255 denote single bytes; code 256 is the
   end-of-stream marker; fresh phrases get codes from 257 up. The
   current phrase is represented by its dictionary code, so the encoder
   state is O(1) per step plus the dictionary. *)

let eos_code = 256
let first_code = 257

type encoder = {
  dict : (int * char, int) Hashtbl.t;
  mutable next_code : int;
  mutable current : int; (* code of the pending phrase; -1 = none *)
  out : Buffer.t;
  mutable fed : int;
}

let encoder () =
  { dict = Hashtbl.create 4096;
    next_code = first_code;
    current = -1;
    out = Buffer.create 256;
    fed = 0 }

let feed e c =
  e.fed <- e.fed + 1;
  if e.current < 0 then e.current <- Char.code c
  else
    match Hashtbl.find_opt e.dict (e.current, c) with
    | Some code -> e.current <- code
    | None ->
      Varint.write e.out e.current;
      Hashtbl.add e.dict (e.current, c) e.next_code;
      e.next_code <- e.next_code + 1;
      e.current <- Char.code c

let feed_string e s = String.iter (feed e) s

let finish e =
  if e.current >= 0 then begin
    Varint.write e.out e.current;
    e.current <- -1
  end;
  Varint.write e.out eos_code;
  Buffer.contents e.out

let output_size e = Buffer.length e.out
let input_size e = e.fed

let compress s =
  let e = encoder () in
  feed_string e s;
  finish e

(* Decoder: the dictionary is four flat arrays indexed by [code -
   first_code] — each phrase's prefix code, last byte, first byte and
   length — so defining a phrase is O(1) and emitting one is a single
   back-to-front walk of its prefix chain straight into the output
   bytes, O(phrase length) with no allocation beyond amortized growth.
   Handles the KwKwK case (a code one past the dictionary end refers to
   the phrase currently being defined). The decoder is incremental:
   compressed bytes arrive in arbitrary slices (a varint code may
   straddle two feeds), so the archive layer can stream a trace file
   chunk by chunk without ever materializing it as one string. *)

type decoder = {
  mutable prefix : int array;
  mutable plen : int array;
  mutable first : Bytes.t;
  mutable last : Bytes.t;
  mutable nphrases : int;
  mutable out : Bytes.t; (* decoded bytes [0, out_len) not yet taken *)
  mutable out_len : int;
  mutable prev : int; (* previous code; -1 = none yet *)
  mutable acc : int; (* partial varint accumulator *)
  mutable shift : int; (* nonzero while a varint straddles feeds *)
  mutable eos : bool; (* end-of-stream marker consumed *)
}

let decoder () =
  { prefix = [||];
    plen = [||];
    first = Bytes.empty;
    last = Bytes.empty;
    nphrases = 0;
    out = Bytes.create 256;
    out_len = 0;
    prev = -1;
    acc = 0;
    shift = 0;
    eos = false }

let grow_dict d =
  let cap = max 256 (2 * d.nphrases) in
  let ints a =
    let b = Array.make cap 0 in
    Array.blit a 0 b 0 d.nphrases;
    b
  in
  let bytes a =
    let b = Bytes.create cap in
    Bytes.blit a 0 b 0 d.nphrases;
    b
  in
  d.prefix <- ints d.prefix;
  d.plen <- ints d.plen;
  d.first <- bytes d.first;
  d.last <- bytes d.last

let first_byte d code =
  if code < 256 then Char.unsafe_chr code
  else Bytes.unsafe_get d.first (code - first_code)

let define d prefix last =
  let i = d.nphrases in
  if i = Array.length d.prefix then grow_dict d;
  d.prefix.(i) <- prefix;
  Bytes.set d.last i last;
  if prefix < 256 then begin
    d.plen.(i) <- 2;
    Bytes.set d.first i (Char.unsafe_chr prefix)
  end
  else begin
    let p = prefix - first_code in
    d.plen.(i) <- d.plen.(p) + 1;
    Bytes.set d.first i (Bytes.get d.first p)
  end;
  d.nphrases <- i + 1

let reserve d n =
  let need = d.out_len + n in
  if need > Bytes.length d.out then begin
    let b = Bytes.create (max need (2 * Bytes.length d.out)) in
    Bytes.blit d.out 0 b 0 d.out_len;
    d.out <- b
  end

(* write the phrase for [code] back to front: last byte first, then
   down the prefix chain to the literal that starts it *)
let emit d code =
  if code < 256 then begin
    reserve d 1;
    Bytes.unsafe_set d.out d.out_len (Char.unsafe_chr code);
    d.out_len <- d.out_len + 1
  end
  else begin
    let n = d.plen.(code - first_code) in
    reserve d n;
    let out = d.out in
    let c = ref code in
    for pos = d.out_len + n - 1 downto d.out_len + 1 do
      let i = !c - first_code in
      Bytes.unsafe_set out pos (Bytes.unsafe_get d.last i);
      c := Array.unsafe_get d.prefix i
    done;
    Bytes.unsafe_set out d.out_len (Char.unsafe_chr !c);
    d.out_len <- d.out_len + n
  end

let decode_code d code =
  if code = eos_code then d.eos <- true
  else begin
    let valid_max = first_code + d.nphrases in
    if code > valid_max || code < 0 then invalid_arg "Lzw.decompress: bad code";
    (* the first code of a stream must be a literal: no phrase exists
       yet, and the KwKwK rule needs a previous code to lean on *)
    if d.prev < 0 && code >= first_code then
      invalid_arg "Lzw.decompress: bad code";
    if d.prev >= 0 then
      (* Define the phrase prev ++ first_byte(code); for the KwKwK
         case code = valid_max, whose first byte equals prev's. *)
      define d d.prev
        (if code = valid_max then first_byte d d.prev else first_byte d code);
    emit d code;
    d.prev <- code
  end

let decode_feed_sub d s ~pos ~len =
  if pos < 0 || len < 0 || pos > String.length s - len then
    invalid_arg "Lzw.decode_feed_sub";
  for i = pos to pos + len - 1 do
    if d.eos then invalid_arg "Lzw.decompress: trailing bytes after end-of-stream";
    let b = Char.code (String.unsafe_get s i) in
    (* inline varint accumulation; codes are dictionary-bounded, so a
       run shifting past 56 bits can only be corruption *)
    if d.shift > 56 then invalid_arg "Lzw.decompress: bad code";
    d.acc <- d.acc lor ((b land 0x7f) lsl d.shift);
    if d.acc < 0 then invalid_arg "Lzw.decompress: bad code";
    if b land 0x80 = 0 then begin
      let code = d.acc in
      d.acc <- 0;
      d.shift <- 0;
      decode_code d code
    end
    else d.shift <- d.shift + 7
  done

let decode_feed d s = decode_feed_sub d s ~pos:0 ~len:(String.length s)

(* [decode_take] drains the decoded bytes produced so far, so callers
   can consume output incrementally and keep the buffer bounded. *)
let decode_take d =
  let s = Bytes.sub_string d.out 0 d.out_len in
  d.out_len <- 0;
  s

(* the output is marked taken before [f] runs, so bytes [f] rejects
   midway are dropped exactly as a [decode_take] would have dropped them *)
let decode_drain d f =
  let n = d.out_len in
  d.out_len <- 0;
  f d.out n

let decode_finished d = d.eos

let decode_finish d =
  if not d.eos then invalid_arg "Lzw.decompress: missing end-of-stream";
  decode_take d

let decompress s =
  if String.length s = 0 then ""
  else begin
    let d = decoder () in
    decode_feed d s;
    decode_finish d
  end
