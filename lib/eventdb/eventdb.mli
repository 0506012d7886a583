(** The indexed event database (the drill-down layer).

    Every analysis surface above this one ends at a rendered string;
    the event database is the way back down: it derives, from the raw
    traces of one execution, (a) a per-function postings list of call
    positions, (b) a call-interval index per thread, (c) the NLR loop
    spans of each thread mapped to event positions, and (d) the
    time-ordered event log itself — everything {!Query} needs to answer
    drill-down questions without rescanning archives.

    Builds fan out per thread over an engine-provided runner and the
    result persists as one CRC-framed file (see
    {!Difftrace_util.Framed}) named by
    the content digest of its source traces, so a warm rerun loads
    instead of rebuilding. All positions are event indices into the
    owning thread's event array — the stable coordinates quoted by
    diffNLR suspect renders. *)

module Event = Difftrace_trace.Event
module Symtab = Difftrace_trace.Symtab
module Trace_set = Difftrace_trace.Trace_set
module Nlr = Difftrace_nlr.Nlr

(** One NLR loop instance of a thread — at any nesting depth — as a
    half-open event-position span [[lp_start, lp_stop)] covering the
    calls of its iterations. *)
type loop_span = {
  lp_body : int;  (** loop body ID in the database's shared table *)
  lp_count : int;  (** iteration count *)
  lp_start : int;
  lp_stop : int;
}

type thread = {
  th_pid : int;
  th_tid : int;
  th_truncated : bool;
  th_events : Event.t array;  (** the time-ordered event log *)
  th_postings : int array array;
      (** per function ID, the ascending positions of its [Call]
          events; indexed by function ID, empty for uncalled IDs *)
  th_intervals : Intervals.t array;  (** in call order *)
  th_loops : loop_span array;
}

type t = {
  db_digest : string;  (** hex content digest of the source traces *)
  db_symtab : Symtab.t;
  db_table : Nlr.Loop_table.t;  (** shared loop bodies, thread order *)
  db_threads : thread array;  (** in (pid, tid) order *)
}

(** [digest ts] is the content digest (hex) that namespaces the on-disk
    index of [ts]: its symbol names in ID order plus, per thread in set
    order, the pid, tid, truncation flag and
    {!Difftrace_trace.Trace.stream_digest}. The stream digest pins the
    events up to ID renaming and the symbol table pins the IDs, so the
    digest names the exact event streams. *)
val digest : Trace_set.t -> string

(** [digest_of ~symbols threads] — {!digest} from its parts: [symbols]
    in ID order and, per thread in set order, (pid, tid, truncated, hex
    stream digest). An archive manifest holds all of them, so a caller
    can name a run's index without decoding a trace:
    [digest ts = digest_of ~symbols:(Symtab.names (Trace_set.symtab ts))
    ...] over the same parts. *)
val digest_of : symbols:string array -> (int * int * bool * string) array -> string

(** [index_file ~dir ~digest] — the path {!save} writes and {!load}
    reads: [dir/<digest>.edb]. *)
val index_file : dir:string -> digest:string -> string

(** [label th] is the paper's thread label, short form (["5"], ["6.4"]). *)
val label : thread -> string

(** [find_thread db l] accepts both short and long labels. *)
val find_thread : t -> string -> thread option

(** [build ?runner ?digest ts] indexes every thread of [ts], fanning
    the per-thread work over [runner]. Deterministic: the same traces
    produce the same database under any runner. [digest], when the
    caller already holds {!digest}[ ts] (or the manifest's name for it,
    {!digest_of}), saves recomputing it. Bumps the [eventdb.builds]
    counter. *)
val build : ?runner:Difftrace_util.Runner.t -> ?digest:string -> Trace_set.t -> t

(** [save ~dir db] writes [dir/<digest>.edb] atomically, creating
    [dir] as needed. *)
val save : dir:string -> t -> (unit, string) result

(** [load ~dir ~digest] reads an index written by {!save}. Any damage
    — missing file, bad magic, CRC mismatch, structural decode failure
    — is an [Error]; the caller rebuilds. Bumps [eventdb.loads] on
    success and [eventdb.damaged] when the file exists but does not
    load. *)
val load : dir:string -> digest:string -> (t, string) result

(** [open_ ?runner ?dir ?digest ts] is the warm path: digest [ts]
    (unless [digest] is given), load the index from [dir] if present and
    intact, else build (and, with a [dir], persist best-effort). *)
val open_ :
  ?runner:Difftrace_util.Runner.t ->
  ?dir:string ->
  ?digest:string ->
  Trace_set.t ->
  t * [ `Built | `Loaded ]

(** [body_contains table ~outer ~inner] — does loop body [outer] equal
    or transitively contain loop body [inner]? *)
val body_contains : Nlr.Loop_table.t -> outer:int -> inner:int -> bool

(** [stream_divergence syma a symb b] is the first event position where
    the two streams disagree (comparing kind and function {e name}, so
    streams from different symbol tables compare correctly), or [None]
    when one is a prefix of the other and lengths match — i.e. the
    streams are identical. A strict prefix diverges at the shorter
    length. *)
val stream_divergence :
  Symtab.t -> Event.t array -> Symtab.t -> Event.t array -> int option

(** [divergence_note ~normal ~faulty ~label] is the one-line event-DB
    footer appended under a diffNLR suspect render: the first raw-event
    divergence of that thread across the two runs, plus a ready-made
    [difftrace query] to drill into it. [None] when the label is
    missing from either run. *)
val divergence_note :
  normal:Trace_set.t -> faulty:Trace_set.t -> label:string -> string option
