open Difftrace_trace
open Difftrace_util
module Telemetry = Difftrace_obs.Telemetry
module Span = Telemetry.Span

let c_chunks = Telemetry.Counter.make "archive.chunks"
let c_crc_fail = Telemetry.Counter.make "archive.crc_fail"
let c_salvaged = Telemetry.Counter.make "archive.salvaged_events"

(* trace files whose checksums were verified and whose events were not
   decoded ({!check_thread}) *)
let c_verified = Telemetry.Counter.make "parlot.traces.verified"

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
        (Printf.sprintf "thread %d %d %s %d %s\n" tr.Trace.pid tr.Trace.tid
           (if tr.Trace.truncated then "truncated" else "complete")
           (Trace.length tr)
           (Digest.to_hex (Trace.stream_digest symtab tr))))
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

type thread = {
  th_pid : int;
  th_tid : int;
  th_truncated : bool;
  th_length : int;
  th_digest : string option;
}

type index = {
  ix_dir : string;
  ix_version : int;
  ix_symbols : string array;
  ix_threads : thread array;
}

exception Bad of string

(* A decimal field as [save] writes it (an optional minus sign, then
   digits), so the fields read as [Scanf]'s "%d" would read them. *)
let decimal s =
  let n = String.length s in
  let start = if n > 0 && s.[0] = '-' then 1 else 0 in
  let rec digits i = i = n || (s.[i] >= '0' && s.[i] <= '9' && digits (i + 1)) in
  if n > start && digits start then int_of_string_opt s else None

(* "thread P T STATUS EVENTS[ DIGEST]", single-spaced as [save] writes
   it; manifests written before the stream digest existed end at the
   event count. The digest stays hex text: it only ever keys a lookup. *)
let parse_thread line =
  let fail msg = raise (Bad msg) in
  let pid, tid, status, len, digest =
    match String.split_on_char ' ' line with
    | "thread" :: p :: t :: status :: n :: rest -> (
      match (decimal p, decimal t, decimal n) with
      | Some p, Some t, Some n -> (p, t, status, n, rest)
      | _ -> fail "bad thread line")
    | _ -> fail "bad thread line"
  in
  let truncated =
    match status with
    | "truncated" -> true
    | "complete" -> false
    | _ -> fail "bad thread status"
  in
  { th_pid = pid;
    th_tid = tid;
    th_truncated = truncated;
    th_length = len;
    th_digest =
      (match digest with
      | [] -> None
      | [ d ] when String.length d = 32 -> Some d
      | _ -> fail "bad thread digest") }

let parse_manifest ~dir text =
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
        | l :: rest -> read_threads (n - 1) rest (parse_thread l :: acc)
        | [] -> fail "truncated thread list"
    in
    let threads = read_threads nthreads rest [] in
    { ix_dir = dir;
      ix_version = version;
      ix_symbols = Array.of_list symbols;
      ix_threads = Array.of_list threads }
  | [] -> fail "bad magic"

(* ------------------------------------------------------------------ *)
(* Reading one trace file                                              *)
(* ------------------------------------------------------------------ *)

(* Outcome of scanning one trace file: chunk accounting plus, when the
   scan decodes, the decoder holding every event recovered before the
   first problem. [sc_consumed] is the file offset just past the last
   fully validated chunk — dropped bytes under salvage are measured
   from there. *)
type scan = {
  sc_chunks : int;
  sc_bytes : int; (* validated payload bytes *)
  sc_consumed : int;
  sc_size : int;
  sc_issue : string option;
  sc_stream : Tracer.stream option; (* [None]: checksums only *)
}

let read_block_size = 65536

(* The one trace-file scanner, shared by load, verify and check; IO
   errors (missing file) are reported as an issue, never an exception.
   Without [decode] a v2 file is read and every chunk checksum and the
   whole-stream checksum are verified, but no byte goes through the
   decoder, so a CRC-valid file's event-level checks (stream
   termination, the manifest's event count) are skipped; a v1 file has
   no checksums, so its scan always decodes. [expect] is the manifest's
   event count, passed to the decoder as a preallocation hint only: it
   is untrusted, and {!Tracer.stream} clamps it. Chunks are read into
   one reused buffer and fed as slices, so no chunk is copied into a
   fresh string; the decoder keeps nothing of a slice once the feed
   returns, which is what makes viewing the buffer as a string safe. *)
let scan_trace ~version ~decode ~expect path =
  let decode = decode || version = 1 in
  match open_in_bin path with
  | exception Sys_error m ->
    { sc_chunks = 0;
      sc_bytes = 0;
      sc_consumed = 0;
      sc_size = 0;
      sc_issue = Some ("cannot open trace file: " ^ m);
      sc_stream = (if decode then Some (Tracer.stream ()) else None) }
  | ic ->
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () ->
        let size = in_channel_length ic in
        let st =
          if decode then Some (Tracer.stream ~expect ()) else None
        in
        let feed data ~len =
          Option.iter (fun st -> Tracer.stream_feed_sub st data ~pos:0 ~len) st
        in
        let complete () = Option.fold ~none:true ~some:Tracer.stream_complete st in
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
                 feed (Bytes.unsafe_to_string buf) ~len:n;
                 bytes := !bytes + n;
                 consumed := pos_in ic;
                 go ()
               end
             in
             go ();
             if not (complete ()) then set_issue "unterminated event stream"
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
                     else if not (complete ()) then
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
                     match feed data ~len with
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

let scan_thread ~decode ix th =
  scan_trace ~version:ix.ix_version ~decode ~expect:th.th_length
    (trace_file ix.ix_dir ~pid:th.th_pid ~tid:th.th_tid)

let decoded_events sc = Option.fold ~none:0 ~some:Tracer.stream_events sc.sc_stream

(* ------------------------------------------------------------------ *)
(* Loading                                                             *)
(* ------------------------------------------------------------------ *)

let open_index ~dir =
  let path = manifest_file dir in
  match Framed.read_file path with
  | Error m -> Error { err_path = path; err_reason = "cannot read manifest: " ^ m }
  | Ok text -> (
    match parse_manifest ~dir text with
    | ix -> Ok ix
    | exception Bad reason -> Error { err_path = path; err_reason = reason })

let index_symtab ix =
  let symtab = Symtab.create () in
  Array.iter (fun name -> ignore (Symtab.intern symtab name)) ix.ix_symbols;
  symtab

type thread_outcome =
  | T_ok of Trace.t
  | T_salvaged of Trace.t * salvage
  | T_err of error

let length_mismatch ~manifest ~decoded =
  Printf.sprintf "trace length mismatch (manifest %d, decoded %d)" manifest
    decoded

let load_thread ~salvage ix th =
  let { th_pid = pid; th_tid = tid; th_truncated = truncated; th_length = len; _ } =
    th
  in
  let sc = scan_thread ~decode:true ix th in
  let st = Option.get sc.sc_stream in
  let outcome =
    match sc.sc_issue with
    | Some reason -> Error reason
    | None ->
      if Tracer.stream_events st <> len then
        Error (length_mismatch ~manifest:len ~decoded:(Tracer.stream_events st))
      else (
        (* a clean scan already verified completeness, but never let a
           decoder refusal escape as an exception *)
        match Tracer.stream_finish st ~pid ~tid ~truncated with
        | tr -> Ok tr
        | exception Invalid_argument _ -> Error "incomplete event stream")
  in
  match outcome with
  | Ok tr -> T_ok tr
  | Error reason when salvage ->
    let tr = Tracer.stream_salvage st ~pid ~tid in
    Telemetry.Counter.add c_salvaged (Trace.length tr);
    T_salvaged
      ( tr,
        { sv_pid = pid;
          sv_tid = tid;
          sv_events = Trace.length tr;
          sv_dropped_bytes = sc.sc_size - sc.sc_consumed;
          sv_reason = reason } )
  | Error reason ->
    T_err { err_path = trace_file ix.ix_dir ~pid ~tid; err_reason = reason }

let decode_thread ix th =
  match load_thread ~salvage:false ix th with
  | T_ok tr | T_salvaged (tr, _) -> Ok tr
  | T_err e -> Error e

let check_thread ?events ix th =
  let sc = scan_thread ~decode:false ix th in
  let fail reason =
    Error
      { err_path = trace_file ix.ix_dir ~pid:th.th_pid ~tid:th.th_tid;
        err_reason = reason }
  in
  match (sc.sc_issue, events) with
  | Some reason, _ -> fail reason
  | None, Some decoded when decoded <> th.th_length ->
    fail (length_mismatch ~manifest:th.th_length ~decoded)
  | None, _ ->
    Telemetry.Counter.incr c_verified;
    Ok ()

let load_index ?(runner = Runner.sequential) ?(salvage = false) ix =
  let outcomes =
    runner.run (Array.length ix.ix_threads) (fun i ->
        load_thread ~salvage ix ix.ix_threads.(i))
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
      { set = Trace_set.create (index_symtab ix) traces;
        version = ix.ix_version;
        salvaged }

let load ?runner ?salvage ~dir () =
  Span.with_ "archive.load" @@ fun () ->
  Result.bind (open_index ~dir) (load_index ?runner ?salvage)

(* ------------------------------------------------------------------ *)
(* Verify / repair                                                     *)
(* ------------------------------------------------------------------ *)

let verify ?(runner = Runner.sequential) ~dir () =
  Span.with_ "archive.verify" @@ fun () ->
  match open_index ~dir with
  | Error e -> Error e
  | Ok ix ->
    let checks =
      runner.run (Array.length ix.ix_threads) (fun i ->
          let th = ix.ix_threads.(i) in
          let sc = scan_thread ~decode:true ix th in
          let events = decoded_events sc in
          let issue =
            match sc.sc_issue with
            | Some _ as i -> i
            | None when events <> th.th_length ->
              Some (length_mismatch ~manifest:th.th_length ~decoded:events)
            | None -> None
          in
          { tc_pid = th.th_pid;
            tc_tid = th.th_tid;
            tc_chunks = sc.sc_chunks;
            tc_events = events;
            tc_bytes = sc.sc_bytes;
            tc_issue = issue })
    in
    let traces = Array.to_list checks in
    Ok
      { rp_dir = dir;
        rp_version = ix.ix_version;
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
