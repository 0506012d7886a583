module Nlr = Difftrace_nlr.Nlr
module Jsm = Difftrace_cluster.Jsm
module Telemetry = Difftrace_obs.Telemetry
module Framed = Difftrace_util.Framed
module Varint = Difftrace_util.Varint

let c_evictions = Telemetry.Counter.make "store.evictions"
let c_crc_fail = Telemetry.Counter.make "store.crc_fail"

(* merged variational alignments served warm (vdiff skips re-alignment) *)
let c_vdiff_hits = Telemetry.Counter.make "store.vdiff_hits"
let c_vdiff_misses = Telemetry.Counter.make "store.vdiff_misses"

(* trace sources whose summary was found by source key, so the trace
   was verified instead of decoded, filtered and re-keyed *)
let c_source_hits = Telemetry.Counter.make "store.source_hits"
let c_source_misses = Telemetry.Counter.make "store.source_misses"

let magic = "difftrace-store 1\n"
let store_file = "analysis.store"

(* one line naming the path involved *)
type error = string

let error_to_string e = e

(* a persisted variational alignment: the merged column sequence of an
   n-way vdiff, keyed by a digest over the aligned runs' element
   sequences (in run order) — same runs, same columns, so a hit skips
   the whole progressive re-alignment *)
type vdiff_entry = {
  vd_stamp : int;
  vd_nruns : int;
  vd_cols : (string * int list) array;  (* (text, presence indices) *)
}

(* a trace source: the summary key its filtered, re-keyed events have
   under this store's tables; stamped [max_int] until first written *)
type source_entry = { mutable so_stamp : int; so_summary : string }

type t = {
  dir : string;
  file : string;
  memo : Memo.t;
  stamps : (string, int) Hashtbl.t;  (* summary key -> stamp *)
  evicted : (string, unit) Hashtbl.t;  (* summary keys gc'd, skip at flush *)
  sources : (string, source_entry) Hashtbl.t;  (* source key -> entry *)
  vdiffs : (string, vdiff_entry) Hashtbl.t;  (* run-set digest -> entry *)
  mutable next_stamp : int;
  mutable dirty : bool;
  mutable salvaged : bool;
}

let dir t = t.dir
let memo t = t.memo

(* the one insertion-stamp counter every kind draws from; adoption
   advances it past each stamp read back from disk *)
let fresh_stamp t =
  let s = t.next_stamp in
  t.next_stamp <- s + 1;
  s

let note_stamp t s = if s >= t.next_stamp then t.next_stamp <- s + 1

(* {2 Record encoding}

   File = magic line, then {!Framed} records. Payload byte 0 is the
   type.
   Write order is symbols, loop bodies, summaries, sources, vdiffs, so
   every reference points backwards and a salvaged prefix is
   self-consistent. A source record names a summary written before it.
   Vdiff records are standalone (they reference nothing), and a store
   that never served a vdiff or a source holds none of either.

   Two kinds are retired. Tag 4 held a finished JSM, tag 5 a
   per-object MinHash signature; recomputing either from the attribute
   classes costs less than decoding it. Older stores hold such
   records, so they still decode and are checked like any other
   record, then are dropped at adoption; the next flush rewrites the
   file without them. *)

let tag_symbol = 1
let tag_body = 2
let tag_summary = 3
let tag_matrix = 4
let tag_signature = 5
let tag_vdiff = 6
let tag_source = 7

let payload_symbol name =
  let b = Buffer.create (1 + String.length name) in
  Buffer.add_char b (Char.chr tag_symbol);
  Buffer.add_string b name;
  Buffer.contents b

let payload_body elems =
  let b = Buffer.create 64 in
  Buffer.add_char b (Char.chr tag_body);
  Nlr.write_elems b elems;
  Buffer.contents b

let payload_summary ~key ~stamp (nlr : Nlr.t) =
  let b = Buffer.create 128 in
  Buffer.add_char b (Char.chr tag_summary);
  Buffer.add_string b key;
  Varint.write b stamp;
  Varint.write b nlr.input_length;
  Nlr.write_elems b nlr.elems;
  Buffer.contents b

let payload_source ~key (e : source_entry) =
  let b = Buffer.create 40 in
  Buffer.add_char b (Char.chr tag_source);
  Buffer.add_string b key;
  Varint.write b e.so_stamp;
  Buffer.add_string b e.so_summary;
  Buffer.contents b

let payload_vdiff ~key (e : vdiff_entry) =
  let b = Buffer.create 256 in
  Buffer.add_char b (Char.chr tag_vdiff);
  Buffer.add_string b key;
  Varint.write b e.vd_stamp;
  Varint.write b e.vd_nruns;
  Varint.write b (Array.length e.vd_cols);
  Array.iter
    (fun (text, present) ->
      Varint.write b (String.length text);
      Buffer.add_string b text;
      Varint.write b (List.length present);
      List.iter (Varint.write b) present)
    e.vd_cols;
  Buffer.contents b

(* {2 Record decoding}

   Decoding validates structure against the running table sizes; any
   violation is damage, diagnosed by a [Bad_record] (or the element
   codec's [Nlr.Corrupt]) that the scan turns into a salvage point. *)

exception Bad_record of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad_record s)) fmt

let read_digest s pos =
  if pos + 16 > String.length s then bad "truncated digest";
  (String.sub s pos 16, pos + 16)

type raw =
  | Rsymbol of string
  | Rbody of Nlr.elem array
  | Rsummary of { key : string; stamp : int; nlr : Nlr.t }
  | Rretired of int  (* a tag-4 or tag-5 record: decoded, checked, dropped *)
  | Rsource of { key : string; entry : source_entry }
  | Rvdiff of { key : string; entry : vdiff_entry }

let tag_of = function
  | Rsymbol _ -> tag_symbol
  | Rbody _ -> tag_body
  | Rsummary _ -> tag_summary
  | Rretired tag -> tag
  | Rsource _ -> tag_source
  | Rvdiff _ -> tag_vdiff

(* [n_syms]/[n_bodies] are the table sizes accumulated from preceding
   records of this load — the only IDs a well-formed record may cite —
   and [summarized] tells the summary keys read so far *)
let decode_payload ~n_syms ~n_bodies ~summarized s =
  if String.length s = 0 then bad "empty payload";
  let len = String.length s in
  let tag = Char.code s.[0] in
  let record =
    if tag = tag_symbol then (Rsymbol (String.sub s 1 (len - 1)), len)
    else if tag = tag_body then begin
      (* a body's loops reference strictly earlier bodies (NLR creates
         inner loops first), so the running count is the right bound *)
      let elems, pos = Nlr.read_elems ~n_syms ~n_bodies s 1 in
      (Rbody elems, pos)
    end
    else if tag = tag_summary then begin
      let key, pos = read_digest s 1 in
      let stamp, pos = Varint.read s pos in
      let input_length, pos = Varint.read s pos in
      let elems, pos = Nlr.read_elems ~n_syms ~n_bodies s pos in
      (Rsummary { key; stamp; nlr = { Nlr.elems; input_length } }, pos)
    end
    else if tag = tag_matrix then begin
      let _, pos = read_digest s 1 in
      let _, pos = Varint.read s pos in
      let n, pos = Varint.read s pos in
      (* namespace, stamp, n, then n labels each with an attribute
         digest (so each object costs ≥ 17 bytes), then the n(n+1)/2
         8-byte cells of the packed upper triangle *)
      if n * 17 > len - pos then bad "object count %d overruns record" n;
      let pos = ref pos in
      for _ = 1 to n do
        let ll, p = Varint.read s !pos in
        if p + ll > len then bad "truncated matrix label";
        pos := snd (read_digest s (p + ll))
      done;
      let cells = n * (n + 1) / 2 in
      if !pos + (8 * cells) > len then bad "truncated matrix cells";
      (Rretired tag_matrix, !pos + (8 * cells))
    end
    else if tag = tag_signature then begin
      (* object digest, stamp, k, then k 8-byte row minima *)
      let _, pos = read_digest s 1 in
      let _, pos = Varint.read s pos in
      let k, pos = Varint.read s pos in
      if k > (len - pos) / 8 then bad "truncated signature rows";
      (Rretired tag_signature, pos + (8 * k))
    end
    else if tag = tag_source then begin
      let key, pos = read_digest s 1 in
      let stamp, pos = Varint.read s pos in
      let summary, pos = read_digest s pos in
      if not (summarized summary) then bad "source names an unknown summary";
      (Rsource { key; entry = { so_stamp = stamp; so_summary = summary } }, pos)
    end
    else if tag = tag_vdiff then begin
      let key, pos = read_digest s 1 in
      let stamp, pos = Varint.read s pos in
      let nruns, pos = Varint.read s pos in
      if nruns < 1 then bad "vdiff with %d runs" nruns;
      let ncols, pos = Varint.read s pos in
      (* a column costs at least 2 bytes (empty text, one index) *)
      if ncols * 2 > len - pos then bad "column count %d overruns record" ncols;
      let pos = ref pos in
      let cols =
        Array.init ncols (fun _ ->
            let tl, p = Varint.read s !pos in
            if p + tl > len then bad "truncated vdiff column text";
            let text = String.sub s p tl in
            let np, p = Varint.read s (p + tl) in
            if np < 1 then bad "vdiff column with empty presence";
            if np > nruns then bad "presence count %d exceeds %d runs" np nruns;
            let p = ref p in
            let present =
              List.init np (fun _ ->
                  let i, q = Varint.read s !p in
                  if i >= nruns then
                    bad "run index %d out of range (%d runs)" i nruns;
                  p := q;
                  i)
            in
            pos := !p;
            (text, present))
      in
      (Rvdiff { key; entry = { vd_stamp = stamp; vd_nruns = nruns;
                               vd_cols = cols } },
       !pos)
    end
    else bad "unknown record type %d" tag
  in
  let record, consumed = record in
  if consumed <> len then bad "trailing bytes in record";
  record

(* {2 File scan}

   [scan] splits a file image into CRC-checked, structurally decoded
   records, stopping at the first damage and reporting it. It never
   raises: truncation, bit flips, and malformed varints all fold into
   the [damage] component. *)

let scan image =
  let summaries = Hashtbl.create 64 in
  let summarized key = Hashtbl.mem summaries key in
  let (records, _, _), damage =
    Framed.fold ~magic image ~init:([], 0, 0)
      ~f:(fun (records, n_syms, n_bodies) payload ->
        match decode_payload ~n_syms ~n_bodies ~summarized payload with
        | Rsymbol _ as r -> Ok (r :: records, n_syms + 1, n_bodies)
        | Rbody _ as r -> Ok (r :: records, n_syms, n_bodies + 1)
        | Rsummary { key; _ } as r ->
          Hashtbl.replace summaries key ();
          Ok (r :: records, n_syms, n_bodies)
        | r -> Ok (r :: records, n_syms, n_bodies)
        | exception (Bad_record reason | Nlr.Corrupt reason) -> Error reason)
  in
  (List.rev records, damage)

(* {2 Load} *)

let adopt t records =
  (* replay the tables' intern sequences in record order; an index
     drift (duplicate symbol/body record) would silently renumber every
     later reference, so it is damage, not a tolerable oddity *)
  let symtab = Memo.symtab t.memo and table = Memo.loop_table t.memo in
  let damage = ref None in
  (try
     List.iter
       (fun r ->
         match r with
         | Rsymbol name ->
           let expect = Difftrace_trace.Symtab.size symtab in
           if Difftrace_trace.Symtab.intern symtab name <> expect then
             bad "duplicate symbol %S" name
         | Rbody elems ->
           let expect = Nlr.Loop_table.size table in
           if Nlr.Loop_table.intern table elems <> expect then
             bad "duplicate loop body %d" expect
         | Rsummary { key; stamp; nlr } ->
           Memo.restore t.memo ~key nlr;
           Hashtbl.replace t.stamps key stamp;
           note_stamp t stamp
         | Rretired _ -> t.dirty <- true
         | Rsource { key; entry } ->
           Hashtbl.replace t.sources key entry;
           note_stamp t entry.so_stamp
         | Rvdiff { key; entry } ->
           Hashtbl.replace t.vdiffs key entry;
           note_stamp t entry.vd_stamp)
       records
   with Bad_record reason -> damage := Some reason);
  !damage

let load ~dir =
  if Sys.file_exists dir && not (Sys.is_directory dir) then
    Error (dir ^ ": not a directory")
  else begin
    let file = Filename.concat dir store_file in
    let t =
      { dir;
        file;
        memo = Memo.create ();
        stamps = Hashtbl.create 64;
        evicted = Hashtbl.create 16;
        sources = Hashtbl.create 64;
        vdiffs = Hashtbl.create 16;
        next_stamp = 0;
        dirty = false;
        salvaged = false }
    in
    if not (Sys.file_exists file) then Ok t
    else
      match Framed.read_file file with
      | Error reason -> Error (file ^ ": " ^ reason)
      | Ok image ->
        let records, damage = scan image in
        let damage =
          match damage with
          | Some _ as d ->
            (* adopt the valid prefix anyway — it is self-consistent *)
            ignore (adopt t records : string option);
            d
          | None -> adopt t records
        in
        (match damage with
        | Some _ ->
          Telemetry.Counter.incr c_crc_fail;
          t.salvaged <- true;
          (* rewrite a clean file on the next flush *)
          t.dirty <- true
        | None -> ());
        Ok t
  end

(* kept for the end-to-end benchmark's replay, which calls it; it goes
   when that copy of the pipeline does *)
let jsm _ ~config ~init ctx =
  Jsm.compute ?candidates:(Config.candidates config ctx) ~init ctx

(* {2 Trace sources} *)

(* a test override bumps it; see store.mli *)
let source_derivation = ref "1"

(* everything but the stream is computed once per partial application *)
let source_key (config : Config.t) =
  let part s = Printf.sprintf "%d:%s" (String.length s) s in
  let prefix =
    String.concat ""
      [ "difftrace-source\n";
        part !source_derivation;
        part (Difftrace_filter.Filter.identity config.Config.filter);
        Printf.sprintf "%d %d\n" config.Config.k config.Config.repeats ]
  in
  fun ~stream -> Digest.string (prefix ^ stream)

let find_source t ~key =
  match Hashtbl.find_opt t.sources key with
  | Some e when Memo.lookup t.memo ~key:e.so_summary <> None ->
    Telemetry.Counter.incr c_source_hits;
    Some (Memo.of_raw e.so_summary)
  | _ ->
    Telemetry.Counter.incr c_source_misses;
    None

let add_source t ~key summary =
  let summary = Memo.to_raw summary in
  match Hashtbl.find_opt t.sources key with
  | Some e when e.so_summary = summary -> ()
  | _ ->
    Hashtbl.replace t.sources key { so_stamp = max_int; so_summary = summary };
    t.dirty <- true

(* {2 Variational alignments} *)

let find_vdiff t ~key =
  match Hashtbl.find_opt t.vdiffs key with
  | Some e ->
    Telemetry.Counter.incr c_vdiff_hits;
    Some e.vd_cols
  | None ->
    Telemetry.Counter.incr c_vdiff_misses;
    None

let add_vdiff t ~key ~nruns cols =
  Hashtbl.replace t.vdiffs key
    { vd_stamp = fresh_stamp t; vd_nruns = nruns; vd_cols = cols };
  t.dirty <- true

(* {2 Record kinds}

   One entry per evictable record kind; everything below iterates the
   table. [entries] lists live [(stamp, key)] pairs in any order, one
   not yet persisted stamped [max_int]; [payload] renders a live key. *)

type retention =
  | Cap of int  (* the newest [n] stay; [flush] applies this cap *)
  | Rides of (t -> string -> bool)
      (* no cap of its own: an entry goes when this says the record it
         names went *)

type kind = {
  name : string;
  tag : int;
  retention : retention;
  doc : string;  (* what one record holds, for help text *)
  listed_when_zero : bool;
  entries : t -> (int * string) list;
  drop : t -> string -> unit;
  payload : t -> string -> string;
}

(* summaries live in the memo; the store keeps their stamps and the
   keys gc dropped, and stamps a new summary when it first writes it *)
let summaries =
  { name = "summaries";
    tag = tag_summary;
    retention = Cap 4096;
    doc = "NLR summaries";
    listed_when_zero = true;
    entries =
      (fun t ->
        Memo.fold t.memo ~init:[] ~f:(fun key _ acc ->
            if Hashtbl.mem t.evicted key then acc
            else
              let stamp = Hashtbl.find_opt t.stamps key in
              (Option.value stamp ~default:max_int, key) :: acc));
    drop = (fun t key -> Hashtbl.replace t.evicted key ());
    payload =
      (fun t key ->
        let stamp =
          match Hashtbl.find_opt t.stamps key with
          | Some s -> s
          | None ->
            let s = fresh_stamp t in
            Hashtbl.replace t.stamps key s;
            s
        in
        payload_summary ~key ~stamp (Option.get (Memo.lookup t.memo ~key))) }

(* a source rides its summary's cap: it goes when that summary goes.
   A store that never served a source lists none. *)
let sources =
  { name = "sources";
    tag = tag_source;
    retention =
      Rides
        (fun t k ->
          let summary = (Hashtbl.find t.sources k).so_summary in
          Hashtbl.mem t.evicted summary
          || Memo.lookup t.memo ~key:summary = None);
    doc = "trace sources";
    listed_when_zero = false;
    entries =
      (fun t ->
        Hashtbl.fold (fun k e acc -> (e.so_stamp, k) :: acc) t.sources []);
    drop = (fun t k -> Hashtbl.remove t.sources k);
    payload =
      (fun t k ->
        let e = Hashtbl.find t.sources k in
        if e.so_stamp = max_int then e.so_stamp <- fresh_stamp t;
        payload_source ~key:k e) }

(* a store that never served a vdiff lists none *)
let vdiffs =
  { name = "vdiffs";
    tag = tag_vdiff;
    retention = Cap 64;
    doc = "variational alignments";
    listed_when_zero = false;
    entries =
      (fun t ->
        Hashtbl.fold (fun k e acc -> (e.vd_stamp, k) :: acc) t.vdiffs []);
    drop = (fun t k -> Hashtbl.remove t.vdiffs k);
    payload = (fun t k -> payload_vdiff ~key:k (Hashtbl.find t.vdiffs k)) }

(* display order (gc results, stats, verify, the store gc flags) and
   write order, which is part of the format: every reference points
   backwards *)
let kind_table = [ summaries; sources; vdiffs ]

let kinds =
  List.filter_map
    (fun k ->
      match k.retention with
      | Cap cap -> Some (k.name, cap, k.doc)
      | Rides _ -> None)
    kind_table

(* oldest first: stamp order, key-tiebroken, so eviction and the
   rendered bytes are deterministic *)
let live t k =
  List.sort
    (fun (s1, k1) (s2, k2) ->
      match Int.compare s1 s2 with 0 -> String.compare k1 k2 | c -> c)
    (k.entries t)

(* {2 Eviction, flush} *)

let gc ?(keep = []) t =
  List.iter
    (fun (name, cap) ->
      if not (List.exists (fun (k, _, _) -> k = name) kinds) then
        invalid_arg ("Store.gc: unknown record kind " ^ name);
      if cap < 0 then
        invalid_arg
          (Printf.sprintf "Store.gc: negative cap %d for %s" cap name))
    keep;
  (* in table order, so a riding kind sees what its owner dropped *)
  let dropped =
    List.map
      (fun k ->
        let entries = live t k in
        let doomed =
          match k.retention with
          | Rides gone -> List.filter (fun (_, key) -> gone t key) entries
          | Cap default ->
            let cap = Option.value (List.assoc_opt k.name keep) ~default in
            let excess = List.length entries - cap in
            List.filteri (fun i _ -> i < excess) entries
        in
        List.iter (fun (_, key) -> k.drop t key) doomed;
        (k.name, List.length doomed))
      kind_table
  in
  let n = List.fold_left (fun n (_, d) -> n + d) 0 dropped in
  if n > 0 then begin
    Telemetry.Counter.add c_evictions n;
    t.dirty <- true
  end;
  dropped

let render t =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf magic;
  let symtab = Memo.symtab t.memo and table = Memo.loop_table t.memo in
  Array.iter
    (fun name -> Framed.add_record buf (payload_symbol name))
    (Difftrace_trace.Symtab.names symtab);
  for id = 0 to Nlr.Loop_table.size table - 1 do
    Framed.add_record buf (payload_body (Nlr.Loop_table.body table id))
  done;
  List.iter
    (fun k ->
      List.iter
        (fun (_, key) -> Framed.add_record buf (k.payload t key))
        (live t k))
    kind_table;
  Buffer.contents buf

let flush t =
  let unstamped k = List.exists (fun (s, _) -> s = max_int) (k.entries t) in
  if not (t.dirty || List.exists unstamped kind_table) then Ok ()
  else begin
    ignore (gc t : (string * int) list);
    match Framed.mkdir_p t.dir with
    | Error _ as e -> e
    | Ok () -> (
      match Framed.write_atomic ~path:t.file (render t) with
      | Ok () ->
        t.dirty <- false;
        t.salvaged <- false;
        Ok ()
      | Error reason -> Error (t.file ^ ": " ^ reason))
  end

(* {2 Stats and verify} *)

(* the kinds a render lists, with their counts, in display order *)
let listed counts =
  List.filter_map
    (fun k ->
      let n = Option.value (List.assoc_opt k.name counts) ~default:0 in
      if n > 0 || k.listed_when_zero then Some (k.name, n) else None)
    kind_table

let render_counts buf counts ~symbols ~loop_bodies =
  List.iter (fun (name, n) -> Printf.bprintf buf "%-11s %d\n" name n)
    (listed counts);
  Printf.bprintf buf "symbols     %d\nloop bodies %d\n" symbols loop_bodies

let render_evicted dropped =
  "evicted "
  ^ String.concat ", "
      (List.map (fun (name, n) -> Printf.sprintf "%d %s" n name)
         (listed dropped))
  ^ "\n"

type stats = {
  summaries : int;
  matrices : int;
  kinds : (string * int) list;
  symbols : int;
  loop_bodies : int;
  file_bytes : int;
  salvaged : bool;
}

let stats t =
  let counts =
    List.map (fun k -> (k.name, List.length (k.entries t))) kind_table
  in
  { summaries = List.assoc "summaries" counts;
    matrices = 0;
    kinds = counts;
    symbols = Difftrace_trace.Symtab.size (Memo.symtab t.memo);
    loop_bodies = Nlr.Loop_table.size (Memo.loop_table t.memo);
    file_bytes =
      (try (Unix.stat t.file).Unix.st_size with Unix.Unix_error _ -> 0);
    salvaged = t.salvaged }

let render_stats s =
  let buf = Buffer.create 128 in
  render_counts buf s.kinds ~symbols:s.symbols ~loop_bodies:s.loop_bodies;
  Printf.bprintf buf "file bytes  %d\n" s.file_bytes;
  if s.salvaged then Buffer.add_string buf "salvaged    yes\n";
  Buffer.contents buf

type check = {
  c_records : int;
  c_kinds : (string * int) list;
  c_symbols : int;
  c_loop_bodies : int;
  c_bytes : int;
  c_damage : string option;
}

let verify ~dir =
  let file = Filename.concat dir store_file in
  let check ~bytes ~damage records =
    let count tag =
      List.length (List.filter (fun r -> tag_of r = tag) records)
    in
    { c_records = List.length records;
      c_kinds = List.map (fun k -> (k.name, count k.tag)) kind_table;
      c_symbols = count tag_symbol;
      c_loop_bodies = count tag_body;
      c_bytes = bytes;
      c_damage = damage }
  in
  if not (Sys.file_exists file) then Ok (check ~bytes:0 ~damage:None [])
  else
    match Framed.read_file file with
    | Error reason -> Error (file ^ ": " ^ reason)
    | Ok image ->
      let records, damage = scan image in
      Ok (check ~bytes:(String.length image) ~damage records)

let render_check c =
  let buf = Buffer.create 128 in
  (match c.c_damage with
  | None -> Printf.bprintf buf "store: ok (%d records)\n" c.c_records
  | Some reason ->
    Printf.bprintf buf "store: damaged — %s (%d records salvageable)\n" reason
      c.c_records);
  render_counts buf c.c_kinds ~symbols:c.c_symbols
    ~loop_bodies:c.c_loop_bodies;
  Buffer.contents buf
