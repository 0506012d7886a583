(* The backing array is always created from a real element (never from
   [Obj.magic]) so that OCaml's flat float-array representation is
   respected. Cells beyond [len] may retain stale elements; they are
   never exposed and only delay GC of those values, which is acceptable
   for the short-lived vectors used here. *)

type 'a t = { mutable data : 'a array; mutable len : int; mutable want : int }

let create () = { data = [||]; len = 0; want = 0 }
let with_capacity n = { data = [||]; len = 0; want = n }
let length v = v.len
let is_empty v = v.len = 0

let check v i = if i < 0 || i >= v.len then invalid_arg "Vec: index out of range"

let get v i =
  check v i;
  v.data.(i)

let set v i x =
  check v i;
  v.data.(i) <- x

(* OCaml 5's [Array.make] forces a minor collection whenever it builds
   an array above 256 words from a young block, and the element being
   pushed usually is one. [Array.append] never does (it also keeps float
   arrays flat), so large arrays are built by doubling instead. *)
let rec filled n x =
  if n <= 256 then Array.make n x
  else
    let half = filled (n / 2) x in
    if n land 1 = 0 then Array.append half half
    else Array.concat [ half; half; [| x |] ]

let grow v x =
  if Array.length v.data = 0 then v.data <- filled (max 8 v.want) x
  else v.data <- Array.append v.data v.data

let push v x =
  if v.len = Array.length v.data then grow v x;
  v.data.(v.len) <- x;
  v.len <- v.len + 1

let pop v =
  if v.len = 0 then invalid_arg "Vec.pop: empty";
  v.len <- v.len - 1;
  v.data.(v.len)

let peek v i =
  if i < 0 || i >= v.len then invalid_arg "Vec.peek: out of range";
  v.data.(v.len - 1 - i)

let truncate v n =
  if n < 0 || n > v.len then invalid_arg "Vec.truncate";
  v.len <- n

let clear v = truncate v 0
let to_array v = Array.sub v.data 0 v.len
let of_array a = { data = Array.copy a; len = Array.length a; want = 0 }
let to_list v = Array.to_list (to_array v)

let iter f v =
  for i = 0 to v.len - 1 do
    f v.data.(i)
  done

let iteri f v =
  for i = 0 to v.len - 1 do
    f i v.data.(i)
  done

let fold_left f init v =
  let acc = ref init in
  iter (fun x -> acc := f !acc x) v;
  !acc

let sub v pos len =
  if pos < 0 || len < 0 || pos + len > v.len then invalid_arg "Vec.sub";
  Array.sub v.data pos len

let append_array v a = Array.iter (push v) a
