(** Trace events: function calls and returns, by interned symbol ID.

    This is the whole vocabulary DiffTrace needs — the paper's front end
    records call/return pairs at every traced interface (user code, MPI,
    OpenMP, libc) and all later phases are defined over these streams. *)

type t =
  | Call of int    (** entry into function [id] *)
  | Return of int  (** exit from function [id] *)

(** [id e] is the function ID of either kind of event. *)
val id : t -> int

(** [is_call e] / [is_return e]. *)
val is_call : t -> bool

val is_return : t -> bool

(** [equal a b] — structural equality. *)
val equal : t -> t -> bool

(** [to_string symtab e] renders as [foo] for calls and [ret foo] for
    returns. *)
val to_string : Symtab.t -> t -> string

(** [encode e] packs an event into a single non-negative int
    (LSB = return flag); [decode] inverts it. Used by the trace codec
    and the event database. [decode] returns one shared, preallocated
    value for every encoding below 4096 (function IDs below 2048), so
    decoding a stream allocates nothing per event in the common case;
    events are immutable, so sharing is invisible but to [==]. *)
val encode : t -> int

val decode : int -> t
