(** Nested Loop Recognition (paper §III-A).

    Adapts Ketterlin–Clauss nested-loop recognition to function-call
    traces: trace entries are pushed onto a stack of {e elements}
    (function IDs or already-recognized loops); after each push the top
    of the stack is recursively reduced, either {e extending} a loop
    whose body reappears right after it, or {e creating} a loop when
    [repeats] consecutive copies of a window of length ≤ [k] sit on
    top. Recognized loop bodies live in a {!Loop_table} shared by all
    traces of an execution, so the same body gets the same [L]-id in
    every trace — the property Table III and the FCA attributes rely
    on. The representation is lossless: {!expand} returns the exact
    input sequence.

    Complexity is [Θ(k² n)] for input length [n] in the worst case, as
    in the paper; a window comparison stops at its first mismatch. The
    stack is unboxed — two int arrays, an element's symbol or body ID
    and a count that is 0 for a symbol — and so are the bodies a
    reduction compares against, so a comparison is two integer loads
    per element, and a width whose top elements already differ is
    rejected without a call. *)

(** A summarized trace element. *)
type elem =
  | Sym of int  (** a function ID *)
  | Loop of { body : int; count : int }
      (** [count] consecutive repetitions of loop body [body] (an index
          into the execution's loop table); [count >= 2], since a loop
          is only created from at least two copies *)

(** {2 Binary codec}

    The element-sequence encoding shared by the analysis store and the
    event-DB index: a varint count, then per element the varints
    [0 id] (a symbol) or [1 body count] (a loop). *)

(** A structurally invalid element sequence, with the reason. *)
exception Corrupt of string

(** [write_elems buf elems] appends the encoding of [elems]. *)
val write_elems : Buffer.t -> elem array -> unit

(** [read_elems ~n_syms ~n_bodies s pos] decodes a sequence starting
    at [pos] and returns it with the position just after it. Symbol
    IDs must be below [n_syms] and loop bodies below [n_bodies] — the
    table sizes the reader has rebuilt so far. Raises [Corrupt] on an
    out-of-range ID, a loop count below 2, an unknown element tag, or
    an element count the rest of [s] cannot hold (checked before
    allocating);
    [Invalid_argument] on a truncated varint. *)
val read_elems : n_syms:int -> n_bodies:int -> string -> int -> elem array * int

(** The execution-wide table of distinct loop bodies. *)
module Loop_table : sig
  type t

  val create : unit -> t

  (** [size t] is the number of distinct bodies recorded. *)
  val size : t -> int

  (** [body t id] is body [id]. Raises [Invalid_argument] if unknown. *)
  val body : t -> int -> elem array

  (** [intern t b] returns the ID of body [b], registering it if new. *)
  val intern : t -> elem array -> int

  (** [label id] is the paper's display name, ["L0"], ["L1"], … *)
  val label : int -> string

  (** [remap ~from ~into] interns every body of [from] into [into], in
      creation order and with its loop IDs rewritten, and returns the
      map from [from]'s body IDs to [into]'s. Replaying the intern
      calls in their original order gives [into] the exact IDs that
      interning into it directly would have. *)
  val remap : from:t -> into:t -> int array
end

(** A summarized (NLR) trace. *)
type t = { elems : elem array; input_length : int }

(** [of_ids ~table ?k ?repeats ids] summarizes a function-ID sequence.
    [k] (default 10) bounds the loop-body window length, as the paper's
    "NLR constant K"; [repeats] (default 2) is how many consecutive
    copies trigger loop creation (Procedure 1 shows 3; 2 is what
    Table III's [L0^2] requires and is the Ketterlin–Clauss default). *)
val of_ids : table:Loop_table.t -> ?k:int -> ?repeats:int -> int array -> t

(** [length t] is the number of elements of the summary. *)
val length : t -> int

(** [reintern ~from ~into t] — re-express a summary built against the
    private table [from] in terms of the table [into], interning
    [from]'s bodies (all of them, in creation order) and rewriting the
    loop IDs of [t] accordingly.

    This is how the pipeline parallelizes summarization without giving
    up determinism: each trace is summarized into its own fresh table
    on any domain, then re-interned into the execution's shared table
    sequentially in trace order. Because a summary never references
    pre-existing shared bodies (its loops all come from its own
    reduction), the local table is a consistent renaming of what direct
    shared-table summarization would have produced, and replaying its
    intern calls in creation order assigns the exact same shared IDs a
    sequential run would. *)
val reintern : from:Loop_table.t -> into:Loop_table.t -> t -> t

(** [expand ~table t] is the original function-ID sequence (losslessness
    witness). *)
val expand : table:Loop_table.t -> t -> int array

(** [reduction_factor t] is [input_length / length] — §V reports 1.92
    (K=10) and 16.74 (K=50) for LULESH. Returns 1.0 for empty input. *)
val reduction_factor : t -> float

(** [elem_to_string symtab e] — ["MPI_Init"] or ["L0^4"]. *)
val elem_to_string : Difftrace_trace.Symtab.t -> elem -> string

(** [token symtab e] — like {!elem_to_string} but without the loop
    count (["L0"]): the FCA attribute name of the element. *)
val token : Difftrace_trace.Symtab.t -> elem -> string

(** [multiplicity e] — 1 for symbols, the iteration count for loops:
    the FCA attribute frequency contribution. *)
val multiplicity : elem -> int

(** [to_strings symtab t] — each element rendered, in order
    (Table III's rows). *)
val to_strings : Difftrace_trace.Symtab.t -> t -> string list

(** [body_to_string ~table symtab id] — a loop body rendered as
    ["[MPI_Send-MPI_Recv]"]. *)
val body_to_string :
  table:Loop_table.t -> Difftrace_trace.Symtab.t -> int -> string
