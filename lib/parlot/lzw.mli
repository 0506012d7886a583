(** Streaming LZW compression over byte strings.

    ParLOT's defining property is *on-the-fly, incremental* compression
    of each thread's function-ID stream: events are compressed as they
    are produced, so only a bounded encoder state (not the trace) is
    resident, and the output is appended to the thread's trace file as
    the application runs. This module reproduces that property with the
    classic LZW scheme over bytes; dictionary codes are emitted as
    LEB128 varints so fresh (small) codes stay short. *)

type encoder

(** [encoder ()] is a fresh streaming encoder. *)
val encoder : unit -> encoder

(** [feed e byte] pushes one input byte; any completed codes are
    appended to the encoder's internal output buffer immediately. *)
val feed : encoder -> char -> unit

(** [feed_string e s] pushes every byte of [s]. *)
val feed_string : encoder -> string -> unit

(** [finish e] flushes the pending phrase and returns the complete
    compressed output. The encoder must not be fed afterwards. *)
val finish : encoder -> string

(** [output_size e] is the number of compressed bytes produced so far
    (excluding the unflushed pending phrase). *)
val output_size : encoder -> int

(** [input_size e] is the number of bytes fed so far. *)
val input_size : encoder -> int

(** [compress s] is one-shot compression. *)
val compress : string -> string

(** {1 Incremental decoding}

    The decoder mirrors the encoder's streaming property: compressed
    bytes are accepted in arbitrary slices (a varint code may straddle
    two feeds), so archive ingestion never materializes a whole trace
    file. Corruption — an out-of-range code, a phrase code before any
    literal, an over-long varint run, or bytes after the end-of-stream
    marker — raises [Invalid_argument]; everything decoded before the
    bad byte remains available via {!decode_take} for salvage.

    Cost: the dictionary is held in flat arrays (prefix code, last
    byte, first byte and length per phrase), so each code costs O(1)
    to define plus O(phrase length) to write its bytes, straight into
    one growable output buffer; nothing is allocated per byte or per
    code beyond amortized buffer growth. *)

type decoder

(** [decoder ()] is a fresh streaming decoder. *)
val decoder : unit -> decoder

(** [decode_feed d s] pushes compressed bytes.
    Raises [Invalid_argument] on corrupt input or input past the
    end-of-stream marker. *)
val decode_feed : decoder -> string -> unit

(** [decode_feed_sub d s ~pos ~len] pushes bytes [pos, pos + len) of
    [s], exactly as [decode_feed d (String.sub s pos len)] would,
    without the copy. Raises [Invalid_argument] as {!decode_feed} does,
    or if the slice is out of bounds. *)
val decode_feed_sub : decoder -> string -> pos:int -> len:int -> unit

(** [decode_take d] drains and returns the decompressed bytes produced
    since the last take. *)
val decode_take : decoder -> string

(** [decode_drain d f] drains the same bytes as {!decode_take} without
    copying them: it marks them taken, then calls [f buf n], where
    bytes [0, n) of [buf] are the output. [buf] is the decoder's own
    buffer — read it inside [f] only; the next feed overwrites it. *)
val decode_drain : decoder -> (Bytes.t -> int -> 'a) -> 'a

(** [decode_finished d] — has the end-of-stream marker been consumed? *)
val decode_finished : decoder -> bool

(** [decode_finish d] checks the end-of-stream marker was seen and
    drains the remaining output. Raises [Invalid_argument] if the
    stream is unterminated. *)
val decode_finish : decoder -> string

(** [decompress s] inverts [compress]/[feed]+[finish].
    Raises [Invalid_argument] on corrupt input: bad codes, a truncated
    or unterminated stream, or trailing bytes after the end-of-stream
    marker. *)
val decompress : string -> string
