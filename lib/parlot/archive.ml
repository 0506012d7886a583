open Difftrace_trace
open Difftrace_util
module Telemetry = Difftrace_obs.Telemetry
module Span = Telemetry.Span

let c_chunks = Telemetry.Counter.make "archive.chunks"
let c_crc_fail = Telemetry.Counter.make "archive.crc_fail"
let c_salvaged = Telemetry.Counter.make "archive.salvaged_events"

type error = { err_path : string; err_reason : string }

let error_to_string e =
  Printf.sprintf "archive error in %s: %s" e.err_path e.err_reason

type salvage = {
  sv_pid : int;
  sv_tid : int;
  sv_events : int;
  sv_dropped_bytes : int;
  sv_reason : string;
}

type loaded = { set : Trace_set.t; version : int; salvaged : salvage list }

type trace_check = {
  tc_pid : int;
  tc_tid : int;
  tc_chunks : int;
  tc_events : int;
  tc_bytes : int;
  tc_issue : string option;
}

type report = {
  rp_dir : string;
  rp_version : int;
  rp_traces : trace_check list;
  rp_ok : bool;
}

let manifest_file dir = Filename.concat dir "manifest"

(* presence check only — the manifest may still be damaged; [load]
   decides that *)
let is_archive dir =
  Sys.file_exists (manifest_file dir) && not (Sys.is_directory (manifest_file dir))

let trace_file dir ~pid ~tid =
  Filename.concat dir (Printf.sprintf "trace_%d_%d.lzw" pid tid)

(* ------------------------------------------------------------------ *)
(* Writing                                                             *)
(* ------------------------------------------------------------------ *)

let write_file path contents =
  match Framed.write_atomic ~path contents with
  | Ok () -> ()
  | Error m -> raise (Sys_error m)

let chunk_magic = "DTA2"
let default_chunk_size = 4096

(* v2 trace file: the magic, then one framed record per chunk of the
   compressed stream, then a zero-length terminator chunk whose footer
   checksums the whole stream. Chunk boundaries are transport framing
   only — they need not align with LZW code boundaries, which is why
   the decoder is incremental. Chunks go out one at a time, so the
   file is never buffered whole. *)
let write_v2_trace path data ~chunk_size =
  let oc = open_out_bin path in
  Fun.protect
    ~finally:(fun () -> close_out oc)
    (fun () ->
      output_string oc chunk_magic;
      let total = String.length data in
      let b = Buffer.create 4096 in
      let pos = ref 0 in
      while !pos < total do
        let len = min chunk_size (total - !pos) in
        Buffer.clear b;
        Framed.add_record b (String.sub data !pos len);
        Buffer.output_buffer oc b;
        Telemetry.Counter.incr c_chunks;
        pos := !pos + len
      done;
      Buffer.clear b;
      Varint.write b 0;
      Buffer.add_string b (Crc32.to_le_bytes (Crc32.string data));
      Buffer.output_buffer oc b)

let encode_trace (tr : Trace.t) =
  let enc = Lzw.encoder () in
  let scratch = Buffer.create 16 in
  Array.iter
    (fun ev ->
      Buffer.clear scratch;
      Varint.write scratch (Event.encode ev);
      Lzw.feed_string enc (Buffer.contents scratch))
    tr.Trace.events;
  Lzw.finish enc

let save ?(chunk_size = default_chunk_size) ~dir ts =
  if chunk_size < 1 then invalid_arg "Archive.save: chunk_size must be >= 1";
  Span.with_ "archive.save" @@ fun () ->
  (match Framed.mkdir_p dir with
  | Ok () -> ()
  | Error m -> invalid_arg ("Archive.save: " ^ m));
  let symtab = Trace_set.symtab ts in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf "difftrace-archive 2\n";
  Buffer.add_string buf (Printf.sprintf "symbols %d\n" (Symtab.size symtab));
  Array.iter
    (fun name -> Buffer.add_string buf (Printf.sprintf "%S\n" name))
    (Symtab.names symtab);
  let traces = Trace_set.traces ts in
  Buffer.add_string buf (Printf.sprintf "threads %d\n" (Array.length traces));
  Array.iter
    (fun (tr : Trace.t) ->
      Buffer.add_string buf
        (Printf.sprintf "thread %d %d %s %d\n" tr.Trace.pid tr.Trace.tid
           (if tr.Trace.truncated then "truncated" else "complete")
           (Trace.length tr)))
    traces;
  (* the v2 manifest is sealed with a CRC-32 footer over everything
     above it, so manifest corruption is detected, not misparsed *)
  write_file (manifest_file dir) (Framed.seal (Buffer.contents buf));
  Array.iter
    (fun (tr : Trace.t) ->
      write_v2_trace
        (trace_file dir ~pid:tr.Trace.pid ~tid:tr.Trace.tid)
        (encode_trace tr) ~chunk_size)
    traces;
  Array.length traces

(* ------------------------------------------------------------------ *)
(* Manifest parsing                                                    *)
(* ------------------------------------------------------------------ *)

type manifest = {
  m_version : int;
  m_symbols : string list;
  m_threads : (int * int * bool * int) list; (* pid, tid, truncated, len *)
}

exception Bad of string

let parse_manifest text =
  let fail msg = raise (Bad msg) in
  let version, body =
    if String.length text >= 20 && String.sub text 0 20 = "difftrace-archive 1\n"
    then (1, text)
    else if
      String.length text >= 20 && String.sub text 0 20 = "difftrace-archive 2\n"
    then
      match Framed.unseal text with
      | Ok body -> (2, body)
      | Error `Missing -> fail "missing manifest checksum"
      | Error `Mismatch -> fail "manifest checksum mismatch"
    else fail "bad magic"
  in
  match String.split_on_char '\n' body with
  | _magic :: rest ->
    let nsyms, rest =
      match rest with
      | l :: rest -> (
        try Scanf.sscanf l "symbols %d" (fun n -> (n, rest))
        with _ -> fail "missing symbols header")
      | [] -> fail "truncated manifest"
    in
    if nsyms < 0 then fail "missing symbols header";
    let rec read_syms n rest acc =
      if n = 0 then (List.rev acc, rest)
      else
        match rest with
        | l :: rest ->
          let name =
            try Scanf.sscanf l "%S" (fun s -> s) with _ -> fail "bad symbol"
          in
          read_syms (n - 1) rest (name :: acc)
        | [] -> fail "truncated symbols"
    in
    let symbols, rest = read_syms nsyms rest [] in
    let nthreads, rest =
      match rest with
      | l :: rest -> (
        try Scanf.sscanf l "threads %d" (fun n -> (n, rest))
        with _ -> fail "missing threads header")
      | [] -> fail "truncated manifest"
    in
    if nthreads < 0 then fail "missing threads header";
    let rec read_threads n rest acc =
      if n = 0 then List.rev acc
      else
        match rest with
        | l :: rest ->
          let pid, tid, status, len =
            try Scanf.sscanf l "thread %d %d %s %d" (fun a b c d -> (a, b, c, d))
            with _ -> fail "bad thread line"
          in
          let truncated =
            match status with
            | "truncated" -> true
            | "complete" -> false
            | _ -> fail "bad thread status"
          in
          read_threads (n - 1) rest ((pid, tid, truncated, len) :: acc)
        | [] -> fail "truncated thread list"
    in
    let threads = read_threads nthreads rest [] in
    { m_version = version; m_symbols = symbols; m_threads = threads }
  | [] -> fail "bad magic"

(* ------------------------------------------------------------------ *)
(* Reading one trace file                                              *)
(* ------------------------------------------------------------------ *)

(* Outcome of scanning one trace file: chunk accounting plus the
   decoder holding every event recovered before the first problem.
   [sc_consumed] is the file offset just past the last fully validated
   chunk — dropped bytes under salvage are measured from there. *)
type scan = {
  sc_chunks : int;
  sc_bytes : int; (* validated payload bytes *)
  sc_consumed : int;
  sc_size : int;
  sc_issue : string option;
  sc_stream : Tracer.stream;
}

let read_block_size = 65536

(* Shared by load and verify; IO errors (missing file) are reported as
   an issue, never an exception. [expect] is the manifest's event count,
   passed to the decoder as a preallocation hint only: it is untrusted,
   and {!Tracer.stream} clamps it. Chunks are read into one reused
   buffer and fed as slices, so no chunk is copied into a fresh string;
   the decoder keeps nothing of a slice once the feed returns, which is
   what makes viewing the buffer as a string safe. *)
let scan_trace ~version ~expect path =
  match open_in_bin path with
  | exception Sys_error m ->
    { sc_chunks = 0;
      sc_bytes = 0;
      sc_consumed = 0;
      sc_size = 0;
      sc_issue = Some ("cannot open trace file: " ^ m);
      sc_stream = Tracer.stream () }
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let size = in_channel_length ic in
        let st = Tracer.stream ~expect () in
        let chunks = ref 0 in
        let bytes = ref 0 in
        let consumed = ref 0 in
        let issue = ref None in
        let set_issue r = if !issue = None then issue := Some r in
        (match version with
        | 1 ->
          (* v1: a bare LZW stream; read in blocks, feed incrementally *)
          (try
             let buf = Bytes.create read_block_size in
             let rec go () =
               let n = input ic buf 0 read_block_size in
               if n > 0 then begin
                 Tracer.stream_feed_sub st (Bytes.unsafe_to_string buf) ~pos:0
                   ~len:n;
                 bytes := !bytes + n;
                 consumed := pos_in ic;
                 go ()
               end
             in
             go ();
             if not (Tracer.stream_complete st) then
               set_issue "unterminated event stream"
           with Invalid_argument m -> set_issue ("decode error: " ^ m))
        | _ ->
          let read_varint () =
            let rec go shift acc =
              if shift > 56 then failwith "bad chunk length";
              let b = input_byte ic in
              let acc = acc lor ((b land 0x7f) lsl shift) in
              if acc < 0 then failwith "bad chunk length";
              if b land 0x80 = 0 then acc else go (shift + 7) acc
            in
            go 0 0
          in
          (try
             let magic = really_input_string ic 4 in
             if magic <> chunk_magic then set_issue "bad trace file magic"
             else begin
               let stream_crc = ref Crc32.init in
               let buf = ref Bytes.empty in
               let rec loop () =
                 let len = read_varint () in
                 if len = 0 then begin
                   let footer = Crc32.of_le_bytes (really_input_string ic 4) 0 in
                   if Crc32.finish !stream_crc <> footer then begin
                     Telemetry.Counter.incr c_crc_fail;
                     set_issue "whole-stream checksum mismatch"
                   end
                   else begin
                     consumed := pos_in ic;
                     if pos_in ic <> size then
                       set_issue "trailing garbage after terminator"
                     else if not (Tracer.stream_complete st) then
                       set_issue "unterminated event stream"
                   end
                 end
                 else if len > size - pos_in ic then failwith "truncated chunk"
                 else begin
                   if Bytes.length !buf < len then
                     buf := Bytes.create (max len (2 * Bytes.length !buf));
                   really_input ic !buf 0 len;
                   let data = Bytes.unsafe_to_string !buf in
                   let footer = Crc32.of_le_bytes (really_input_string ic 4) 0 in
                   if Crc32.finish (Crc32.update Crc32.init data ~pos:0 ~len) <> footer
                   then begin
                     Telemetry.Counter.incr c_crc_fail;
                     set_issue "chunk checksum mismatch"
                   end
                   else begin
                     incr chunks;
                     Telemetry.Counter.incr c_chunks;
                     bytes := !bytes + len;
                     stream_crc := Crc32.update !stream_crc data ~pos:0 ~len;
                     match Tracer.stream_feed_sub st data ~pos:0 ~len with
                     | () ->
                       consumed := pos_in ic;
                       loop ()
                     | exception Invalid_argument m ->
                       set_issue ("decode error: " ^ m)
                   end
                 end
               in
               loop ()
             end
           with
          | End_of_file -> set_issue "truncated chunk"
          | Failure m -> set_issue m));
        { sc_chunks = !chunks;
          sc_bytes = !bytes;
          sc_consumed = !consumed;
          sc_size = size;
          sc_issue = !issue;
          sc_stream = st })

(* ------------------------------------------------------------------ *)
(* Loading                                                             *)
(* ------------------------------------------------------------------ *)

let read_manifest dir =
  let path = manifest_file dir in
  match Framed.read_file path with
  | Error m -> Error { err_path = path; err_reason = "cannot read manifest: " ^ m }
  | Ok text -> (
    match parse_manifest text with
    | m -> Ok m
    | exception Bad reason -> Error { err_path = path; err_reason = reason })

type thread_outcome =
  | T_ok of Trace.t
  | T_salvaged of Trace.t * salvage
  | T_err of error

let load_thread ~version ~salvage dir (pid, tid, truncated, len) =
  let path = trace_file dir ~pid ~tid in
  let sc = scan_trace ~version ~expect:len path in
  let outcome =
    match sc.sc_issue with
    | Some reason -> Error reason
    | None ->
      if Tracer.stream_events sc.sc_stream <> len then
        Error
          (Printf.sprintf "trace length mismatch (manifest %d, decoded %d)" len
             (Tracer.stream_events sc.sc_stream))
      else (
        (* a clean scan already verified completeness, but never let a
           decoder refusal escape as an exception *)
        match Tracer.stream_finish sc.sc_stream ~pid ~tid ~truncated with
        | tr -> Ok tr
        | exception Invalid_argument _ -> Error "incomplete event stream")
  in
  match outcome with
  | Ok tr -> T_ok tr
  | Error reason when salvage ->
    let tr = Tracer.stream_salvage sc.sc_stream ~pid ~tid in
    Telemetry.Counter.add c_salvaged (Trace.length tr);
    T_salvaged
      ( tr,
        { sv_pid = pid;
          sv_tid = tid;
          sv_events = Trace.length tr;
          sv_dropped_bytes = sc.sc_size - sc.sc_consumed;
          sv_reason = reason } )
  | Error reason -> T_err { err_path = path; err_reason = reason }

let load ?(runner = Runner.sequential) ?(salvage = false) ~dir () =
  Span.with_ "archive.load" @@ fun () ->
  match read_manifest dir with
  | Error e -> Error e
  | Ok m -> (
    let symtab = Symtab.create () in
    List.iter (fun name -> ignore (Symtab.intern symtab name)) m.m_symbols;
    let threads = Array.of_list m.m_threads in
    let outcomes =
      runner.run (Array.length threads) (fun i ->
          load_thread ~version:m.m_version ~salvage dir threads.(i))
    in
    let err =
      Array.fold_left
        (fun acc o ->
          match (acc, o) with Some _, _ -> acc | None, T_err e -> Some e | None, _ -> None)
        None outcomes
    in
    match err with
    | Some e -> Error e
    | None ->
      let traces =
        Array.to_list
          (Array.map
             (function
               | T_ok tr | T_salvaged (tr, _) -> tr | T_err _ -> assert false)
             outcomes)
      in
      let salvaged =
        Array.to_list outcomes
        |> List.filter_map (function T_salvaged (_, s) -> Some s | _ -> None)
      in
      Ok
        { set = Trace_set.create symtab traces;
          version = m.m_version;
          salvaged })

(* ------------------------------------------------------------------ *)
(* Verify / repair                                                     *)
(* ------------------------------------------------------------------ *)

let verify ?(runner = Runner.sequential) ~dir () =
  Span.with_ "archive.verify" @@ fun () ->
  match read_manifest dir with
  | Error e -> Error e
  | Ok m ->
    let threads = Array.of_list m.m_threads in
    let checks =
      runner.run (Array.length threads) (fun i ->
          let pid, tid, _, len = threads.(i) in
          let sc =
            scan_trace ~version:m.m_version ~expect:len (trace_file dir ~pid ~tid)
          in
          let events = Tracer.stream_events sc.sc_stream in
          let issue =
            match sc.sc_issue with
            | Some _ as i -> i
            | None when events <> len ->
              Some
                (Printf.sprintf "trace length mismatch (manifest %d, decoded %d)"
                   len events)
            | None -> None
          in
          { tc_pid = pid;
            tc_tid = tid;
            tc_chunks = sc.sc_chunks;
            tc_events = events;
            tc_bytes = sc.sc_bytes;
            tc_issue = issue })
    in
    let traces = Array.to_list checks in
    Ok
      { rp_dir = dir;
        rp_version = m.m_version;
        rp_traces = traces;
        rp_ok = List.for_all (fun t -> t.tc_issue = None) traces }

let render_report r =
  let header =
    Printf.sprintf "archive %s (v%d): %s\n" r.rp_dir r.rp_version
      (if r.rp_ok then "OK"
       else
         Printf.sprintf "DAMAGED (%d of %d traces)"
           (List.length (List.filter (fun t -> t.tc_issue <> None) r.rp_traces))
           (List.length r.rp_traces))
  in
  header
  ^ Texttable.render
      ~headers:[ "Trace"; "Chunks"; "Bytes"; "Events"; "Status" ]
      (List.map
         (fun t ->
           [ Printf.sprintf "%d.%d" t.tc_pid t.tc_tid;
             string_of_int t.tc_chunks;
             string_of_int t.tc_bytes;
             string_of_int t.tc_events;
             (match t.tc_issue with None -> "ok" | Some i -> i) ])
         r.rp_traces)

let render_salvaged salvaged =
  String.concat ""
    (List.map
       (fun s ->
         Printf.sprintf
           "salvaged trace %d.%d: %d events recovered, %d bytes dropped (%s)\n"
           s.sv_pid s.sv_tid s.sv_events s.sv_dropped_bytes s.sv_reason)
       salvaged)

let repair ?runner ~src ~dst () =
  match load ?runner ~salvage:true ~dir:src () with
  | Error e -> Error e
  | Ok l ->
    let files = save ~dir:dst l.set in
    Ok (l, files)
