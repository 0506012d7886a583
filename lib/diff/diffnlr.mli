(** diffNLR — block-aligned visualization of a normal/faulty trace pair
    (paper §II-G.1, Figs. 5–7).

    Runs Myers diff over the two NLR element sequences and lays the
    result out as a "main stem" of common blocks with side-by-side
    normal-only / faulty-only diff rectangles, the paper's textual
    metaphor for git-style diffs of loop structure. *)

type t = {
  blocks : string Myers.block list;
  normal_truncated : bool;
  faulty_truncated : bool;
}

(** [make symtab ~normal ~faulty] diffs two summarized traces of the
    same thread from the two executions; the [truncated] flags come
    from the underlying traces and are shown in the rendering ("never
    reached MPI_Finalize"). *)
val make :
  Difftrace_trace.Symtab.t ->
  normal:Difftrace_nlr.Nlr.t * bool ->
  faulty:Difftrace_nlr.Nlr.t * bool ->
  t

(** [of_strings ~normal ~faulty] — same layout over pre-rendered
    element strings (used by tests and generic callers). *)
val of_strings : normal:string list -> faulty:string list -> t

(** [common_length t] / [changed_length t] — number of elements on the
    stem vs. inside diff rectangles. *)
val common_length : t -> int

val changed_length : t -> int

(** [render ?title t] — the two-column text figure. *)
val render : ?title:string -> t -> string

(** [render_to buf ?title t] appends [render ?title t] to [buf]. *)
val render_to : Buffer.t -> ?title:string -> t -> unit

(** [rendered_length ?title t] — the length of [render ?title t], to
    size a buffer before [render_to] writes into it. *)
val rendered_length : ?title:string -> t -> int
