(** On-disk trace archives with checksummed streaming ingestion.

    The paper's workflow records traces once and re-analyzes them
    offline "with different filters" at every debug iteration — and the
    runs most worth re-analyzing are the crashed or hung ones, exactly
    the runs that leave truncated or corrupt trace files behind. The
    archive layer therefore treats damage as an expected input, not an
    exception: loads are result-returning, every v2 byte is covered by
    a CRC-32, and a {e salvage} mode recovers the longest checksum-valid
    prefix of each damaged trace instead of discarding the run.

    Layout (version 2, the only one {!save} writes):
    {v
    <dir>/manifest        version, symbols, one line per thread,
                          closed by a "crc %08x" footer line
    <dir>/trace_P_T.lzw   "DTA2", then varint-length-prefixed chunks of
                          the compressed event stream, each closed by a
                          CRC-32 footer; a zero-length terminator chunk
                          carries the whole-stream CRC-32
    v}
    The footer line and the chunk records are
    {!Difftrace_util.Framed}'s sealed text and framed records. A thread
    line reads ["thread P T complete|truncated EVENTS DIGEST"]; the
    trailing [DIGEST] ({!Difftrace_trace.Trace.stream_digest}, 32 hex
    digits) is optional, and manifests written before it existed end at
    the event count.

    Version 1 archives (bare LZW streams, no checksums) remain
    readable. Trace files are decoded incrementally — chunk by chunk
    through {!Lzw}'s streaming decoder — so a multi-GB archive never
    materializes a trace file as one string, and per-thread loads can
    be fanned out over domains via a {!Difftrace_util.Runner.t}.

    Cost: a load does O(compressed bytes + decoded bytes) work, and
    chunks are read into one reused buffer. The manifest's per-thread
    event count is passed to the decoder as a preallocation hint, so a
    pristine trace's event array is allocated once, at its final size.
    That count is untrusted input: the hint is clamped to 65536 events,
    and a wrong count costs only array growth before it is reported as
    the usual [trace length mismatch]. *)

(** A hard ingestion failure: which file, and why. *)
type error = { err_path : string; err_reason : string }

val error_to_string : error -> string

(** One damaged trace recovered in salvage mode. *)
type salvage = {
  sv_pid : int;
  sv_tid : int;
  sv_events : int;  (** events recovered (the clean prefix) *)
  sv_dropped_bytes : int;  (** compressed bytes discarded *)
  sv_reason : string;  (** first problem encountered *)
}

(** A successful load: the trace set, the archive version it came from,
    and the per-trace salvage outcomes (empty for a pristine archive;
    salvaged traces are marked [truncated] in [set]). *)
type loaded = {
  set : Difftrace_trace.Trace_set.t;
  version : int;
  salvaged : salvage list;
}

(** [save ?chunk_size ~dir ts] writes a version 2 archive (creating
    [dir] and any missing parents) and returns the number of trace
    files written. Re-encodes each decoded trace with the streaming LZW
    codec and frames the compressed stream into [chunk_size]-byte
    (default 4096) checksummed chunks.
    Raises [Invalid_argument] if [dir] cannot be created (it or a
    parent exists and is not a directory) or if [chunk_size < 1];
    [Sys_error] on IO failure. *)
val save :
  ?chunk_size:int ->
  dir:string ->
  Difftrace_trace.Trace_set.t ->
  int

(** [load ?runner ?salvage ~dir] reads a version 1 or 2 archive back
    into a trace set, fanning per-thread loads over [runner] (default
    {!Difftrace_util.Runner.sequential}).

    Without [salvage] (the default), any corruption — a flipped bit, a
    truncated or deleted chunk, appended garbage, a manifest that fails
    its checksum — yields [Error] naming the offending file; no
    exception escapes for malformed {e content} ([Sys_error] can still
    be raised for IO failures outside the archive's control).

    With [salvage:true], each damaged trace file is recovered up to its
    last checksum-valid, cleanly-decoding point; the recovered trace is
    marked [truncated] and reported in [salvaged]. Only manifest-level
    damage still yields [Error].

    [load] is {!open_index} followed by {!load_index}. *)
val load :
  ?runner:Difftrace_util.Runner.t ->
  ?salvage:bool ->
  dir:string ->
  unit ->
  (loaded, error) result

(** {1 Reading thread by thread}

    A store-backed compare that already holds a trace's summary needs
    its events only to know the trace is intact. It opens the index,
    verifies the checksums of each trace it has summarized
    ({!check_thread}) and decodes the rest ({!decode_thread}); {!load}
    decodes every thread through the same scanner.

    Trust model: the manifest and every chunk are CRC-checked, so a
    trace's digest is trusted exactly as far as its events are. A
    flipped, truncated or deleted byte anywhere in a v2 trace file fails
    {!check_thread} with the error {!load} reports. What only a decode
    can find — a CRC-valid file whose compressed stream is malformed or
    whose event count disagrees with the manifest, which no {!save}
    writes — goes unseen by a check. *)

(** One thread line of a manifest. *)
type thread = {
  th_pid : int;
  th_tid : int;
  th_truncated : bool;
  th_length : int;  (** the manifest's event count (untrusted) *)
  th_digest : string option;
      (** the {!Difftrace_trace.Trace.stream_digest} {!save} recorded,
          as its 32 hex digits; [None] in manifests written before the
          field existed *)
}

(** An opened archive: its parsed, checksum-verified manifest. *)
type index = {
  ix_dir : string;
  ix_version : int;
  ix_symbols : string array;  (** the archive's symbol table, in ID order *)
  ix_threads : thread array;  (** in manifest order *)
}

(** [open_index ~dir] reads and checks the manifest only; its errors are
    {!load}'s manifest errors. *)
val open_index : dir:string -> (index, error) result

(** [index_symtab ix] — a fresh symbol table holding [ix_symbols]. *)
val index_symtab : index -> Difftrace_trace.Symtab.t

(** [load_index ?runner ?salvage ix] — decode every thread of [ix];
    [load ~dir] without the manifest read. *)
val load_index :
  ?runner:Difftrace_util.Runner.t ->
  ?salvage:bool ->
  index ->
  (loaded, error) result

(** [decode_thread ix th] — one thread as {!load} without salvage
    decodes it (counting [parlot.traces.decoded]), or the error {!load}
    would report for it. Its events are in [index_symtab ix]'s IDs. *)
val decode_thread : index -> thread -> (Difftrace_trace.Trace.t, error) result

(** [check_thread ix th] — read [th]'s file and verify every chunk
    checksum and the whole-stream checksum without decoding a byte
    (counting [parlot.traces.verified] on success). On damage the error
    is the one {!load} reports for that file. A v1 file has no
    checksums: its check decodes the stream and checks only that it
    terminates. *)
val check_thread : index -> thread -> (unit, error) result

(** {1 Verification} *)

(** Integrity of one trace file: checksum-valid chunks, validated
    payload bytes, cleanly decoded events, and the first problem found
    ([None] = pristine). *)
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

(** [verify ?runner ~dir] scans every trace file without building a
    trace set. [Error] only when the manifest itself is unreadable. *)
val verify :
  ?runner:Difftrace_util.Runner.t -> dir:string -> unit -> (report, error) result

(** Human-readable rendering of a verify report (one row per trace). *)
val render_report : report -> string

(** One line per salvaged trace ("salvaged trace P.T: N events
    recovered, B bytes dropped (REASON)"), as [archive repair] and
    [analyze --salvage] print them. *)
val render_salvaged : salvage list -> string

(** [repair ?runner ~src ~dst] loads [src] with salvage and rewrites
    the recovered set as a clean v2 archive at [dst]. Returns what was
    loaded plus the number of files written. *)
val repair :
  ?runner:Difftrace_util.Runner.t ->
  src:string ->
  dst:string ->
  unit ->
  (loaded * int, error) result

(** [is_archive dir] — [dir] holds an archive manifest file. A cheap
    presence probe for layouts (e.g. campaign state directories) that
    mix archives with other state; it does not validate the manifest —
    {!load} does. *)
val is_archive : string -> bool

(** [manifest_file dir] / [trace_file dir ~pid ~tid] — file paths. *)
val manifest_file : string -> string

val trace_file : string -> pid:int -> tid:int -> string
