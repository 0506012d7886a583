(* The frontend interface and registry — see frontend.mli for the
   contract and test/test_frontend.ml for the conformance suite every
   registered frontend must pass. *)

open Difftrace_trace
module Telemetry = Difftrace_obs.Telemetry
module Framed = Difftrace_util.Framed
module Runner = Difftrace_util.Runner

let c_ingests = Telemetry.Counter.make "frontend.ingests"
let c_lines = Telemetry.Counter.make "frontend.lines"
let c_events = Telemetry.Counter.make "frontend.events"
let c_errors = Telemetry.Counter.make "frontend.errors"

type error = {
  fe_frontend : string;
  fe_line : int option;
  fe_reason : string;
}

let error_to_string e =
  match e.fe_line with
  | Some n ->
    Printf.sprintf "frontend %s: line %d: %s" e.fe_frontend n e.fe_reason
  | None -> Printf.sprintf "frontend %s: %s" e.fe_frontend e.fe_reason

let max_line_bytes = 1 lsl 20

type t = {
  name : string;
  version : string;
  description : string;
  ingest : runner:Runner.t -> string -> (Trace_set.t, error) result;
  render : Trace_set.t -> string;
}

(* --- registry --------------------------------------------------------- *)

(* written at module init and by [register]; lookups only read *)
let tbl : (string, t) Hashtbl.t = Hashtbl.create 8

let register fe =
  if fe.name = "" then invalid_arg "Frontend.register: empty frontend name";
  Hashtbl.replace tbl fe.name fe

let find name = Hashtbl.find_opt tbl name

let known () =
  Hashtbl.fold (fun k _ acc -> k :: acc) tbl [] |> List.sort String.compare

let all () = List.filter_map find (known ())

(* --- driving ---------------------------------------------------------- *)

let ingest_string fe ?(runner = Runner.sequential) s =
  Telemetry.Counter.incr c_ingests;
  let r =
    (* a frontend that raises is breaking its contract, but the
       session (and the daemon behind it) must survive the bug *)
    match fe.ingest ~runner s with
    | r -> r
    | exception exn ->
      Error
        { fe_frontend = fe.name;
          fe_line = None;
          fe_reason =
            "frontend bug (uncaught exception): " ^ Printexc.to_string exn }
  in
  (match r with
  | Ok ts -> Telemetry.Counter.add c_events (Trace_set.total_events ts)
  | Error _ -> Telemetry.Counter.incr c_errors);
  r

let read_source fe path =
  Result.map_error
    (fun m ->
      { fe_frontend = fe.name;
        fe_line = None;
        fe_reason = "cannot read " ^ path ^ ": " ^ m })
    (Framed.read_file path)

let ingest_file fe ?runner path =
  Result.bind (read_source fe path) (ingest_string fe ?runner)

(* --- canonical digest ------------------------------------------------- *)

(* Everything the pipeline can observe, length-prefixed so no two
   distinct sets concatenate to the same bytes. *)
let digest ts =
  let b = Buffer.create 4096 in
  Buffer.add_string b "difftrace-frontend-digest 1\n";
  let symtab = Trace_set.symtab ts in
  Buffer.add_string b (Printf.sprintf "symbols %d\n" (Symtab.size symtab));
  Array.iter
    (fun name -> Buffer.add_string b (Printf.sprintf "%d:%s\n" (String.length name) name))
    (Symtab.names symtab);
  let traces = Trace_set.traces ts in
  Buffer.add_string b (Printf.sprintf "threads %d\n" (Array.length traces));
  Array.iter
    (fun (tr : Trace.t) ->
      Buffer.add_string b
        (Printf.sprintf "thread %d %d %b %d\n" tr.Trace.pid tr.Trace.tid
           tr.Trace.truncated (Trace.length tr));
      Array.iter
        (fun ev -> Buffer.add_string b (Printf.sprintf "%d " (Event.encode ev)))
        tr.Trace.events;
      Buffer.add_char b '\n')
    traces;
  let d = Digest.string (Buffer.contents b) in
  Digest.to_hex d

(* --- directly-follows graph ------------------------------------------- *)

let dfg_edges ts =
  let symtab = Trace_set.symtab ts in
  let edges = Hashtbl.create 64 in
  Array.iter
    (fun (tr : Trace.t) ->
      let calls = Trace.call_ids tr in
      for i = 0 to Array.length calls - 2 do
        let key = (Symtab.name symtab calls.(i), Symtab.name symtab calls.(i + 1)) in
        Hashtbl.replace edges key
          (1 + Option.value ~default:0 (Hashtbl.find_opt edges key))
      done)
    (Trace_set.traces ts);
  Hashtbl.fold (fun k v acc -> (k, v) :: acc) edges []
  |> List.sort compare

let render_dfg ts =
  let edges = dfg_edges ts in
  Printf.sprintf "directly-follows graph: %d edges\n" (List.length edges)
  ^ Difftrace_util.Texttable.render
      ~headers:[ "From"; "To"; "Count" ]
      (List.map
         (fun ((a, b), n) -> [ a; b; string_of_int n ])
         edges)

(* --- line helpers ----------------------------------------------------- *)

let split_lines ~frontend s =
  let out = Difftrace_util.Vec.create () in
  let n = String.length s in
  let err = ref None in
  let start = ref 0 in
  let lineno = ref 0 in
  let push stop =
    incr lineno;
    let len = stop - !start in
    if len > max_line_bytes then begin
      if !err = None then
        err :=
          Some
            { fe_frontend = frontend;
              fe_line = Some !lineno;
              fe_reason =
                Printf.sprintf "line exceeds %d bytes (%d)" max_line_bytes len }
    end
    else begin
      let len = if len > 0 && s.[stop - 1] = '\r' then len - 1 else len in
      Difftrace_util.Vec.push out (String.sub s !start len)
    end
  in
  let i = ref 0 in
  while !i < n && !err = None do
    if s.[!i] = '\n' then begin
      push !i;
      start := !i + 1
    end;
    incr i
  done;
  match !err with
  | Some e -> Error e
  | None ->
    if !start < n then push n;
    (match !err with
    | Some e -> Error e
    | None ->
      Telemetry.Counter.add c_lines (Difftrace_util.Vec.length out);
      Ok (Difftrace_util.Vec.to_array out))

(* CSI sequences (ESC [ params final-byte) and bare two-byte escapes;
   an unterminated escape at end of input is dropped rather than kept *)
let strip_escapes s =
  let n = String.length s in
  let b = Buffer.create n in
  let i = ref 0 in
  while !i < n do
    if s.[!i] = '\027' then
      if !i + 1 < n && s.[!i + 1] = '[' then begin
        let j = ref (!i + 2) in
        while
          !j < n
          && (let c = s.[!j] in
              (c >= '0' && c <= '9') || c = ';' || c = '?' || c = ':')
        do
          incr j
        done;
        (* the final byte, if present, belongs to the sequence *)
        i := if !j < n then !j + 1 else !j
      end
      else i := min n (!i + 2)
    else begin
      Buffer.add_char b s.[!i];
      incr i
    end
  done;
  Buffer.contents b

let strip_ansi s = if String.contains s '\027' then strip_escapes s else s
