(* CI/build-log ingestion with log-aware tokenization, in the spirit
   of CiDiff: normalize the volatile parts of log lines (timestamps,
   hashes, paths, counters) so that diffing two pipeline logs
   surfaces structural divergence, not noise. See cilog.mli. *)

open Difftrace_trace

let name = "cilog"

(* --- log-aware tokenization ------------------------------------------ *)

(* Every test below reads the token [s.[i..j-1]] in place, so
   normalizing a line allocates only its output. *)

let is_digit c = c >= '0' && c <= '9'

let is_hex c =
  is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

let is_alpha c = (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')

let rec for_all_in p s i j = i >= j || (p s.[i] && for_all_in p s (i + 1) j)
let rec exists_in p s i j = i < j && (p s.[i] || exists_in p s (i + 1) j)

(* a "NN:NN:NN" wall-clock shape anywhere in the token marks it as a
   timestamp (catches ISO-8601, bracketed clocks, bare HH:MM:SS) *)
let has_clock s i j =
  let rec go p =
    p + 8 <= j
    && ((is_digit s.[p]
        && is_digit s.[p + 1]
        && s.[p + 2] = ':'
        && is_digit s.[p + 3]
        && is_digit s.[p + 4]
        && s.[p + 5] = ':'
        && is_digit s.[p + 6]
        && is_digit s.[p + 7])
       || go (p + 1))
  in
  go i

let is_numeric_char c =
  is_digit c
  || match c with '.' | ',' | '%' | '+' | '-' | '#' | '(' | ')' -> true | _ -> false

let is_numeric s i j =
  j > i && exists_in is_digit s i j && for_all_in is_numeric_char s i j

(* "3.2s", "120ms", "45GiB": a short alphabetic unit suffix on a
   numeric core still reads as a counter *)
let is_numeric_with_unit s i j =
  let rec core k =
    if k > i && j - k < 3 && is_alpha s.[k - 1] then core (k - 1) else k
  in
  let k = core j in
  k < j && is_numeric s i k

(* the placeholder the token [s.[i..j-1]] normalizes to; [None] keeps
   it verbatim *)
let class_of s i j =
  if has_clock s i j then Some "<ts>"
  else if j - i >= 8 && for_all_in is_hex s i j then Some "<hex>"
  else if exists_in (fun c -> c = '/' || c = '\\') s i j then Some "<path>"
  else if is_numeric s i j || is_numeric_with_unit s i j then Some "<n>"
  else None

let classify tok =
  Option.value (class_of tok 0 (String.length tok)) ~default:tok

(* a stray CR is a separator too: kept inside a token it would name a
   leaf that re-ingesting the rendered text cannot reproduce, since
   line splitting strips a CR before the newline *)
let is_sep c = c = ' ' || c = '\t' || c = '\r'

let normalize line =
  let n = String.length line in
  let b = Buffer.create n in
  let i = ref 0 in
  while !i < n do
    if is_sep line.[!i] then incr i
    else begin
      let j = ref (!i + 1) in
      while !j < n && not (is_sep line.[!j]) do
        incr j
      done;
      if Buffer.length b > 0 then Buffer.add_char b ' ';
      (match class_of line !i !j with
      | Some c -> Buffer.add_string b c
      | None -> Buffer.add_substring b line !i (!j - !i));
      i := !j
    end
  done;
  Buffer.contents b

(* --- structure ------------------------------------------------------- *)

(* docker-compose style interleaving: "name | rest" claims the line
   for stream [name] when the prefix is short, non-empty and
   space-free; only the first '|' splits, so step/log content keeps
   its own pipes *)
let split_stream line =
  match String.index_opt line '|' with
  | None -> ("", line)
  | Some p ->
    let prefix = String.trim (String.sub line 0 p) in
    let rest_start = if p + 1 < String.length line && line.[p + 1] = ' ' then p + 2 else p + 1 in
    let rest = String.sub line rest_start (String.length line - rest_start) in
    if
      prefix <> ""
      && String.length prefix <= 32
      && not (String.contains prefix ' ')
      && p <= 40
    then (prefix, rest)
    else ("", line)

let group_marker = "##[group]"
let endgroup_marker = "##[endgroup]"

(* docker build step header: "Step N/M : CMD" *)
let docker_step rest =
  if String.starts_with ~prefix:"Step " rest then
    match String.index_opt rest ':' with
    | Some i when i + 1 < String.length rest ->
      let head = String.sub rest 0 i in
      if String.contains head '/' then
        Some (String.sub rest (i + 1) (String.length rest - i - 1))
      else None
    | _ -> None
  else None

type ev = Call of string | Return of string

(* one stream's lines -> its event skeleton (names, not ids); pure,
   so streams fan over the runner independently *)
let parse_stream lines =
  let out = Difftrace_util.Vec.create () in
  let open_step = ref None in
  let close_step () =
    match !open_step with
    | Some s ->
      Difftrace_util.Vec.push out (Return s);
      open_step := None
    | None -> ()
  in
  let open_new title =
    close_step ();
    let s = "step:" ^ normalize title in
    Difftrace_util.Vec.push out (Call s);
    open_step := Some s
  in
  Array.iter
    (fun raw ->
      let line = Frontend.strip_ansi raw in
      (* GH-Actions-style logs prefix every line with a timestamp;
         structure markers are detected past it (leaf names keep it,
         normalized to <ts>) *)
      let struct_line =
        let t = String.trim line in
        match String.index_opt t ' ' with
        | Some sp when classify (String.sub t 0 sp) = "<ts>" ->
          String.trim (String.sub t (sp + 1) (String.length t - sp - 1))
        | _ -> t
      in
      if String.starts_with ~prefix:group_marker struct_line then
        open_new
          (String.sub struct_line (String.length group_marker)
             (String.length struct_line - String.length group_marker))
      else if String.starts_with ~prefix:endgroup_marker struct_line then
        close_step ()
      else
        match docker_step struct_line with
        | Some cmd -> open_new cmd
        | None ->
          let leaf = normalize line in
          if leaf <> "" then begin
            Difftrace_util.Vec.push out (Call leaf);
            Difftrace_util.Vec.push out (Return leaf)
          end)
    lines;
  close_step ();
  Difftrace_util.Vec.to_array out

let ingest ~runner input =
  match Frontend.split_lines ~frontend:name input with
  | Error e -> Error e
  | Ok lines ->
    (* streams in first-appearance order become pids 0, 1, ... *)
    let order = Difftrace_util.Vec.create () in
    let groups : (string, string Difftrace_util.Vec.t) Hashtbl.t =
      Hashtbl.create 8
    in
    Array.iter
      (fun line ->
        let stream, rest = split_stream line in
        let v =
          match Hashtbl.find_opt groups stream with
          | Some v -> v
          | None ->
            let v = Difftrace_util.Vec.create () in
            Hashtbl.add groups stream v;
            Difftrace_util.Vec.push order stream;
            v
        in
        Difftrace_util.Vec.push v rest)
      lines;
    let streams =
      Array.map
        (fun s -> Difftrace_util.Vec.to_array (Hashtbl.find groups s))
        (Difftrace_util.Vec.to_array order)
    in
    let skeletons =
      runner.Difftrace_util.Runner.run (Array.length streams) (fun i ->
          parse_stream streams.(i))
    in
    (* interning is sequential and in stream order, so the symbol
       table (and with it the digest) is schedule-independent; streams
       whose lines all normalize to nothing carry no events and are
       dropped (rendering cannot represent them), with the remaining
       streams renumbered densely *)
    let symtab = Symtab.create () in
    let traces =
      Array.to_list skeletons
      |> List.filter (fun skel -> Array.length skel > 0)
      |> List.mapi (fun pid skel ->
             let events =
               Array.map
                 (function
                   | Call s -> Event.Call (Symtab.intern symtab s)
                   | Return s -> Event.Return (Symtab.intern symtab s))
                 skel
             in
             Trace.make ~pid ~tid:0 ~truncated:false events)
    in
    Ok (Trace_set.create symtab traces)

(* --- canonical rendering --------------------------------------------- *)

(* Streams render as sequential blocks, each line claimed by a "t<pid>"
   prefix; groups re-render as ##[group]/##[endgroup] pairs. Because
   normalization is idempotent and the first '|' always re-splits the
   prefix off, re-ingesting this text reproduces the digest. *)
let render ts =
  let symtab = Trace_set.symtab ts in
  let b = Buffer.create 1024 in
  Array.iter
    (fun (tr : Trace.t) ->
      let prefix = Printf.sprintf "t%d | " tr.Trace.pid in
      let events = tr.Trace.events in
      let n = Array.length events in
      let i = ref 0 in
      while !i < n do
        (match events.(!i) with
        | Event.Call id
          when !i + 1 < n && events.(!i + 1) = Event.Return id ->
          Buffer.add_string b (prefix ^ Symtab.name symtab id ^ "\n");
          incr i
        | Event.Call id ->
          let nm = Symtab.name symtab id in
          let title =
            if String.starts_with ~prefix:"step:" nm then
              String.sub nm 5 (String.length nm - 5)
            else nm
          in
          Buffer.add_string b (prefix ^ group_marker ^ title ^ "\n")
        | Event.Return _ ->
          Buffer.add_string b (prefix ^ endgroup_marker ^ "\n"));
        incr i
      done)
    (Trace_set.traces ts);
  Buffer.contents b

let frontend =
  { Frontend.name;
    version = "1";
    description =
      "CI/build logs: log-aware tokenization (<ts>/<hex>/<path>/<n>), step \
       headers as call boundaries, 'name |' interleaving as threads";
    ingest;
    render }
