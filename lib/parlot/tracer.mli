(** Per-thread trace recorder with ParLOT's on-the-fly compression.

    The simulated runtime calls [on_call]/[on_return] exactly where Pin
    instrumentation would fire; events are varint-serialized and pushed
    straight into a streaming {!Lzw} encoder, so the in-memory footprint
    during capture is the encoder state, not the trace. *)

(** Which binary image a function belongs to. ParLOT captures either the
    [main image] only (user code + API entry points) or [all images]
    (including inner library frames). *)
type image = Main | Library

type level = Main_image | All_images

type t

(** [create ~symtab ~level ~pid ~tid]. *)
val create :
  symtab:Difftrace_trace.Symtab.t -> level:level -> pid:int -> tid:int -> t

val pid : t -> int
val tid : t -> int

(** [on_call t ?image name] records entry into [name]. Events from
    [Library] images are dropped under [Main_image] capture, mirroring
    ParLOT's image filter. [image] defaults to [Main]. *)
val on_call : ?image:image -> t -> string -> unit

(** [on_return t ?image name] records exit from [name]. *)
val on_return : ?image:image -> t -> string -> unit

(** [scoped t ?image name f] records the call, runs [f ()], records the
    return, and passes exceptions through *without* recording the return
    — a thread killed inside a call leaves a truncated trace, as the
    paper's deadlock examples show. *)
val scoped : ?image:image -> t -> string -> (unit -> 'a) -> 'a

(** [set_truncated t] marks the thread as never having terminated. *)
val set_truncated : t -> unit

(** [events_recorded t] is the number of retained events so far. *)
val events_recorded : t -> int

(** [compressed_so_far t] is the compressed byte count so far. *)
val compressed_so_far : t -> int

(** [finish t] closes the stream and returns the compressed trace file
    contents together with the truncation flag. *)
val finish : t -> string * bool

(** [decode ?expect ~symtab ~pid ~tid ~truncated data] decompresses a
    finished stream back into a {!Difftrace_trace.Trace.t} — the
    pipeline's "ParLOT decoder" stage. [expect] is the count hint of
    {!stream}. Raises [Invalid_argument] on corrupt or unterminated
    input (use the streaming API below to salvage). *)
val decode :
  ?expect:int ->
  symtab:Difftrace_trace.Symtab.t ->
  pid:int ->
  tid:int ->
  truncated:bool ->
  string ->
  Difftrace_trace.Trace.t

(** {1 Streaming decode}

    The inverse of the streaming capture side: compressed bytes are
    accepted in arbitrary slices (the archive feeds checksummed chunks
    as it reads them), events materialize incrementally, and a damaged
    stream can be {e salvaged} — every event that decoded cleanly before
    the first bad byte is kept.

    Cost: decoded bytes are parsed in place, with no copy and no
    per-byte closure. Events whose encoding is below a fixed bound
    (ids below 2048) are shared immutable values, so decoding allocates
    nothing per event for them; a decoded trace's events may be
    physically shared with other traces. *)

type stream

(** [stream ?expect ()] is a fresh streaming decoder for one trace
    file. [expect] (default 0) is a hint for the number of events: the
    event array is preallocated to it, so a correct hint means no
    growth and no final copy. The hint may come from untrusted input:
    preallocation is clamped to [0, 65536] events, the array grows past
    that as needed, and a wrong hint changes nothing but speed. *)
val stream : ?expect:int -> unit -> stream

(** [stream_feed st bytes] pushes compressed bytes; completed events
    accumulate inside. Raises [Invalid_argument] on corrupt input —
    events decoded before the bad byte are retained for
    {!stream_salvage}. *)
val stream_feed : stream -> string -> unit

(** [stream_feed_sub st bytes ~pos ~len] is
    [stream_feed st (String.sub bytes pos len)] without the copy. *)
val stream_feed_sub : stream -> string -> pos:int -> len:int -> unit

(** [stream_events st] is the number of fully decoded events so far. *)
val stream_events : stream -> int

(** [stream_complete st] — has the stream seen its end-of-stream marker
    with no event split across it? A stream fed zero bytes (an empty
    trace file) is complete: it decodes to the empty event sequence,
    mirroring [Lzw.decompress ""] = [""]. *)
val stream_complete : stream -> bool

(** [stream_finish st ~pid ~tid ~truncated] closes a well-formed stream.
    Raises [Invalid_argument] if it is unterminated or ends mid-event;
    a stream fed zero bytes finishes as a valid empty trace. *)
val stream_finish :
  stream -> pid:int -> tid:int -> truncated:bool -> Difftrace_trace.Trace.t

(** [stream_salvage st ~pid ~tid] recovers the longest cleanly decoded
    event prefix of a damaged stream as a trace marked [truncated].
    Never raises. *)
val stream_salvage : stream -> pid:int -> tid:int -> Difftrace_trace.Trace.t
