(** CRC-framed files: the one place the on-disk containers of the
    analysis store, the event-DB index, the archive and the campaign
    state get their framing, checksums and file IO.

    {b Records.} A record file is a magic line followed by records,
    each [varint payload length | payload | CRC-32 of the payload as 4
    little-endian bytes] (see {!Varint}, {!Crc32}). The payload's
    meaning — typically a tag byte and a body — belongs to the caller.
    A flipped bit anywhere in a record is caught by its CRC before the
    caller decodes a byte of it. The archive's v2 trace chunks share
    this record shape (behind their own magic) and close with a
    zero-length terminator whose footer checksums the whole stream.

    {b Text footers.} A text file is sealed by appending one line,
    [crc %08x\n], holding the CRC-32 of everything before it.

    {b Salvage.} {!fold} stops at the first damaged record and hands
    back everything accumulated before it together with a message
    naming the damage and its byte offset. Because writers emit
    records so that every reference points backwards, that prefix is
    self-consistent: a caller may keep it (the store) or treat any
    damage as a reason to rebuild (the event DB).

    {b IO.} {!read_file}, {!write_atomic} and {!mkdir_p} never raise;
    their errors are one-line messages naming the path involved. *)

(** [add_record buf payload] appends one framed record. *)
val add_record : Buffer.t -> string -> unit

(** [fold ~magic image ~init ~f] walks the CRC-checked records of a
    file image that must start with [magic], threading [f] over each
    payload in order. [f] may reject a payload with [Error reason].
    Returns the accumulator after the last accepted record and, if the
    walk stopped early, the damage:
    - ["unrecognized magic/version"] (the accumulator is [init]);
    - ["truncated record at byte N"]: the length runs past the end;
    - ["CRC mismatch at byte N"];
    - ["<reason> at byte N"]: [f] rejected the payload;
    - ["malformed framing at byte N"]: an unreadable length varint, or
      [f] raising [Invalid_argument] (a truncated varint inside the
      payload).

    [N] is the offset of the record's length prefix. Raises nothing
    itself; exceptions from [f] other than [Invalid_argument]
    propagate. *)
val fold :
  magic:string ->
  string ->
  init:'a ->
  f:('a -> string -> ('a, string) result) ->
  'a * string option

(** [seal body] is [body] followed by its [crc %08x\n] footer. *)
val seal : string -> string

(** [unseal text] is the body of a sealed [text]. [`Missing] when the
    text is no longer than a footer or its last line is not one
    (a sealed body is never empty); [`Mismatch] when the footer does
    not match the body. *)
val unseal : string -> (string, [ `Missing | `Mismatch ]) result

(** [read_file path] is the whole file; a directory is an error
    (["PATH: is a directory"]). *)
val read_file : string -> (string, string) result

(** [write_atomic ~path contents] writes [contents] to a
    [<path>.tmp<pid>] sibling, [pid] being the writer's process id, and
    renames it over [path], so a reader sees the old file or the new
    one, never a torn write, and two processes saving the same [path]
    never share a sibling. On failure the sibling is removed and [path]
    is untouched; a writer killed mid-write leaves its sibling behind
    ([store gc] removes those of a store whose pid no longer runs). *)
val write_atomic : path:string -> string -> (unit, string) result

(** [mkdir_p dir] creates [dir] and any missing parents (mode 0o755).
    [Ok ()] when [dir] already is a directory, including when another
    process created it concurrently; an error when it or a parent
    exists and is not a directory. *)
val mkdir_p : string -> (unit, string) result
