(** Trace front-end filters (paper Table I).

    A filter is two primary *drop* switches (function returns, [.plt]
    stubs) plus a union of *keep* categories; when at least one keep
    category is enabled, only matching calls survive. Filters are pure
    views over decoded traces — the whole point of whole-program
    tracing is that the same capture can be re-filtered offline at every
    debug iteration. *)

type keep =
  | Mpi_all          (** functions starting with [MPI_] *)
  | Mpi_collectives  (** MPI_Barrier / Allreduce / Reduce / Bcast / … *)
  | Mpi_send_recv    (** MPI_Send/Isend/Recv/Irecv/Wait *)
  | Mpi_internal     (** inner MPI library frames (MPID*, MPIDI*, …) *)
  | Omp_all          (** GOMP_* and omp_* *)
  | Omp_critical     (** GOMP_critical_start / GOMP_critical_end *)
  | Omp_mutex        (** mutex / omp lock functions *)
  | Sys_memory       (** memcpy, memset, malloc, … *)
  | Sys_network      (** network, tcp, socket, sched, … *)
  | Sys_poll         (** poll, yield, sched, … *)
  | Sys_string       (** strlen, strcpy, … *)
  | Custom of string (** regular expression over function names *)
  | Everything       (** keep everything (identity keep) *)

type t = {
  drop_returns : bool;
  drop_plt : bool;
  keeps : keep list; (** empty = keep all (subject to the drops) *)
}

(** [make ?drop_returns ?drop_plt keeps] — drops default to [true],
    matching the paper's usual "11." prefix. *)
val make : ?drop_returns:bool -> ?drop_plt:bool -> keep list -> t

(** [keep_name k] — compact name used in filter specs ("mpiall",
    "mem", …); [Custom re] prints as ["cust"]. *)
val keep_name : keep -> string

(** [name t] — the spec string, paper-style: two drop digits, then the
    keep names dot-separated (e.g. ["11.mem.ompcrit.cust"]). *)
val name : t -> string

(** [parse ?custom s] parses [name]'s format. Each ["cust"] component
    takes the next regex from [custom] (default [".*"]). Bad digits, an
    unknown component or a [custom] regex that does not compile (Perl
    syntax) is an [Error] naming it. *)
val parse : ?custom:string list -> string -> (t, string) result

(** [of_spec ?custom s] — {!parse} for constant specs; raises
    [Invalid_argument] with {!parse}'s message. *)
val of_spec : ?custom:string list -> string -> t

(** [matches t fname] — would a call to [fname] survive the keep
    stage? (Ignores the two drop switches.) *)
val matches : t -> string -> bool

(** [apply t symtab events] — the filtered event sequence. *)
val apply :
  t ->
  Difftrace_trace.Symtab.t ->
  Difftrace_trace.Event.t array ->
  Difftrace_trace.Event.t array

(** [compile t symtab] — [apply t symtab] with the per-symbol keep
    decisions made once, for filtering many traces over one symbol
    table. *)
val compile :
  t ->
  Difftrace_trace.Symtab.t ->
  Difftrace_trace.Event.t array ->
  Difftrace_trace.Event.t array

(** [identity t] — {!name} with every custom regex spelled out, each
    part length-prefixed: two filters with equal identities keep exactly
    the same events of every trace. *)
val identity : t -> string

(** [apply_set t ts] — filter every trace of a set. *)
val apply_set : t -> Difftrace_trace.Trace_set.t -> Difftrace_trace.Trace_set.t

(** [predefined] — Table I: category, sub-category, description. *)
val predefined : (string * string * string) list
