open Difftrace_nlr

type t = {
  blocks : string Myers.block list;
  normal_truncated : bool;
  faulty_truncated : bool;
}

let of_strings ~normal ~faulty =
  let a = Array.of_list normal and b = Array.of_list faulty in
  { blocks = Myers.blocks (Myers.diff ~equal:String.equal a b);
    normal_truncated = false;
    faulty_truncated = false }

let make symtab ~normal:(nlr_n, trunc_n) ~faulty:(nlr_f, trunc_f) =
  let strings nlr = Array.of_list (Nlr.to_strings symtab nlr) in
  let a = strings nlr_n and b = strings nlr_f in
  { blocks = Myers.blocks (Myers.diff ~equal:String.equal a b);
    normal_truncated = trunc_n;
    faulty_truncated = trunc_f }

let common_length t =
  List.fold_left
    (fun acc -> function
      | Myers.Common l -> acc + List.length l
      | Myers.Changed _ -> acc)
    0 t.blocks

let changed_length t =
  List.fold_left
    (fun acc -> function
      | Myers.Common _ -> acc
      | Myers.Changed { del; ins } -> acc + List.length del + List.length ins)
    0 t.blocks

(* the widest element, at least 12: every column is padded to it *)
let width t =
  List.fold_left
    (fun acc b ->
      match b with
      | Myers.Common l -> List.fold_left (fun acc s -> max acc (String.length s)) acc l
      | Myers.Changed { del; ins } ->
        List.fold_left
          (fun acc s -> max acc (String.length s))
          (List.fold_left (fun acc s -> max acc (String.length s)) acc del)
          ins)
    12 t.blocks

let truncation_line t =
  match (t.normal_truncated, t.faulty_truncated) with
  | false, true ->
    "    faulty trace is TRUNCATED: the thread hung inside its last call\n"
  | true, false -> "    normal trace is TRUNCATED (unexpected)\n"
  | true, true -> "    both traces are TRUNCATED\n"
  | false, false -> ""

(* Every line below the title is [2 * width + 8] bytes: a 4-byte
   margin, two padded columns, " | " (or "-+-") and the newline. The
   rows are the header, a rule before the first block and after each
   block, and one row per common element or per pair of changed ones. *)
let rendered_length ?(title = "diffNLR") t =
  let rows =
    List.fold_left
      (fun acc -> function
        | Myers.Common l -> acc + List.length l + 1
        | Myers.Changed { del; ins } ->
          acc + max (List.length del) (List.length ins) + 1)
      2 t.blocks
  in
  String.length title + 9
  + (rows * ((2 * width t) + 8))
  + String.length (truncation_line t)

let render_to buf ?(title = "diffNLR") t =
  let width = width t in
  let pad s =
    Buffer.add_string buf s;
    for _ = String.length s + 1 to width do
      Buffer.add_char buf ' '
    done
  in
  let row mark l r =
    Buffer.add_string buf mark;
    pad l;
    Buffer.add_string buf " | ";
    pad r;
    Buffer.add_char buf '\n'
  in
  let rule () =
    Buffer.add_string buf "    ";
    for _ = 1 to width do
      Buffer.add_char buf '-'
    done;
    Buffer.add_string buf "-+-";
    for _ = 1 to width do
      Buffer.add_char buf '-'
    done;
    Buffer.add_char buf '\n'
  in
  Buffer.add_string buf "=== ";
  Buffer.add_string buf title;
  Buffer.add_string buf " ===\n";
  row "    " "normal" "faulty";
  rule ();
  List.iter
    (fun block ->
      (match block with
      | Myers.Common lines -> List.iter (fun l -> row "  = " l l) lines
      | Myers.Changed { del; ins } ->
        let rec zip d i =
          match (d, i) with
          | [], [] -> ()
          | dh :: dt, [] ->
            row "  < " dh "";
            zip dt []
          | [], ih :: it ->
            row "  > " "" ih;
            zip [] it
          | dh :: dt, ih :: it ->
            row "  ~ " dh ih;
            zip dt it
        in
        zip del ins);
      rule ())
    t.blocks;
  Buffer.add_string buf (truncation_line t)

let render ?title t =
  let buf = Buffer.create (rendered_length ?title t) in
  render_to buf ?title t;
  Buffer.contents buf
