type t = { pid : int; tid : int; events : Event.t array; truncated : bool }

let make ~pid ~tid ~truncated events = { pid; tid; events; truncated }

let label ?(short = false) t =
  if short && t.tid = 0 then string_of_int t.pid
  else Printf.sprintf "%d.%d" t.pid t.tid

let length t = Array.length t.events

let call_ids t =
  let out = Difftrace_util.Vec.with_capacity (Array.length t.events) in
  Array.iter
    (function
      | Event.Call id -> Difftrace_util.Vec.push out id
      | Event.Return _ -> ())
    t.events;
  Difftrace_util.Vec.to_array out

let distinct_functions t =
  let seen = Hashtbl.create 64 in
  Array.iter (fun e -> Hashtbl.replace seen (Event.id e) ()) t.events;
  Hashtbl.length seen

(* The MD5 of the events with their IDs renumbered in first-use order,
   followed by the names in that order: two traces get the same digest
   exactly when they make the same calls and returns by name, however
   their symbol tables are ordered. The event count, each event (as
   varint renumbered-ID * 2, plus 1 for a return) and each name are
   length-prefixed or self-delimiting. *)
let stream_digest symtab t =
  let module Varint = Difftrace_util.Varint in
  let events = t.events in
  let renum = Array.make (Symtab.size symtab) (-1) in
  let names = Buffer.create 256 in
  let used = ref 0 in
  let b = Buffer.create (24 + (2 * Array.length events)) in
  Buffer.add_string b "difftrace-stream 1\n";
  Varint.write b (Array.length events);
  Array.iter
    (fun ev ->
      let id = Event.id ev in
      let ret = match ev with Event.Call _ -> 0 | Event.Return _ -> 1 in
      if renum.(id) < 0 then begin
        renum.(id) <- !used;
        incr used;
        let name = Symtab.name symtab id in
        Varint.write names (String.length name);
        Buffer.add_string names name
      end;
      let code = (renum.(id) lsl 1) lor ret in
      if code < 0x80 then Buffer.add_char b (Char.unsafe_chr code)
      else Varint.write b code)
    events;
  Buffer.add_buffer b names;
  Digest.string (Buffer.contents b)

let to_strings symtab t = Array.to_list (Array.map (Event.to_string symtab) t.events)

let pp symtab ppf t =
  Format.fprintf ppf "@[<v 2>T%s%s:@ %a@]" (label t)
    (if t.truncated then " (truncated)" else "")
    (Format.pp_print_list ~pp_sep:Format.pp_print_cut Format.pp_print_string)
    (to_strings symtab t)
