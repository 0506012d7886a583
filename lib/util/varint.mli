(** LEB128 variable-length integer coding.

    The ParLOT-style trace codec stores function IDs and LZW codes as
    unsigned varints: small IDs (the common case in hot loops) take a
    single byte, keeping the on-the-fly compressed streams compact. *)

(** [write buf n] appends the unsigned LEB128 coding of [n] to [buf].
    Raises [Invalid_argument] if [n < 0]. *)
val write : Buffer.t -> int -> unit

(** [read s pos] decodes an unsigned varint starting at [pos] and returns
    [(value, next_pos)]. Raises [Invalid_argument] on truncated input and
    on overflow — a continuation run that would shift past the native
    int's 62 value bits (malformed or adversarial input; [write] never
    produces it). *)
val read : string -> int -> int * int

(** A read position in a string, for decoders that read many varints
    in a row: {!next} advances it in place and allocates nothing. *)
type cursor = { src : string; mutable pos : int }

(** [cursor s pos] — a cursor on [s] at [pos]. *)
val cursor : string -> int -> cursor

(** [next c] decodes the varint at [c.pos] and moves [c.pos] past it;
    it raises as {!read} does, leaving [c.pos] where it was. *)
val next : cursor -> int

(** [size n] is the number of bytes [write] would emit for [n]. *)
val size : int -> int

(** [write_list buf l] writes the length of [l] followed by its
    elements. *)
val write_list : Buffer.t -> int list -> unit

(** [read_list s pos] reads a list written by [write_list]. *)
val read_list : string -> int -> int list * int
