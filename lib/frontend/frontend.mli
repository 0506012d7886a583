(** Pluggable ingestion frontends.

    DiffTrace's analysis core (NLR / JSM / diffNLR / vdiff) only
    assumes ordered per-thread event streams; nothing in it cares that
    the seed repo captured them from the MPI simulator. A {e frontend}
    exploits that: it turns some foreign trace format — a CI build log,
    an strace capture, anything line-shaped — into a {!Trace_set.t}
    that the whole pipeline (and every Session operation, CLI
    subcommand and RPC method) can consume.

    Frontends live in a name → frontend table mirroring the workload
    registry, so [difftrace compare a.log b.log --frontend cilog]
    resolves the same way [--workload heat] does.

    {2 The contract}

    Every registered frontend must satisfy the conformance suite
    (see {!Conformance}, [test/test_frontend.ml] and EXTENDING.md):

    - {b total}: [ingest] never raises, on any byte string — malformed
      input produces a typed {!error};
    - {b deterministic}: the same input yields a byte-identical
      {!digest}, whatever runner schedules the per-thread work;
    - {b round-trip stable}: re-ingesting {!t.render} of an ingested
      set reproduces the same digest (a fixed point);
    - {b salvage-compatible}: the produced set survives an
      [Archive.save] / [Archive.load ~salvage:true] round trip
      unchanged. *)

type error = {
  fe_frontend : string;
  fe_line : int option;  (** 1-based input line, when the failure has one *)
  fe_reason : string;
}

val error_to_string : error -> string

(** Ingestion refuses single lines longer than this (1 MiB) with a
    typed error instead of buffering them — the guard that keeps a
    100 MB-line fuzz input from becoming a 100 MB symbol. *)
val max_line_bytes : int

type t = {
  name : string;
  version : string;
      (** the version of the set [ingest] builds from given bytes. A
          store-backed session caches ingested sets keyed by name,
          version and source digest, so a change that alters what
          [ingest] produces for some input must bump it *)
  description : string;
  ingest :
    runner:Difftrace_util.Runner.t ->
    string ->
    (Difftrace_trace.Trace_set.t, error) result;
      (** raw input bytes -> trace set. Must be total. Per-thread work
          is fanned over [runner] (the frontend layer cannot depend on
          the engine, so callers inject one). *)
  render : Difftrace_trace.Trace_set.t -> string;
      (** the canonical textual form of an ingested set; re-ingesting
          it must be a digest fixed point *)
}

(** {2 Registry} *)

(** [register t] adds (or replaces) [t] under [t.name]. *)
val register : t -> unit

val find : string -> t option

(** Registered names, sorted. *)
val known : unit -> string list

(** Registered frontends in name order. *)
val all : unit -> t list

(** {2 Driving a frontend} *)

(** [ingest_string fe s] runs [fe.ingest], additionally converting any
    escaping exception (a conformance violation, but the daemon must
    not die for it) into a typed error. *)
val ingest_string :
  t ->
  ?runner:Difftrace_util.Runner.t ->
  string ->
  (Difftrace_trace.Trace_set.t, error) result

(** [read_source fe path] — the file's bytes; an unreadable file (or
    a directory) is [fe]'s typed error. *)
val read_source : t -> string -> (string, error) result

(** [ingest_file fe path] — {!ingest_string} over {!read_source}'s
    bytes. *)
val ingest_file :
  t ->
  ?runner:Difftrace_util.Runner.t ->
  string ->
  (Difftrace_trace.Trace_set.t, error) result

(** {2 Canonical digest}

    [digest ts] is a stable hex digest over the complete observable
    content of a trace set — symbol table (in id order), and every
    trace's pid / tid / truncation flag / event stream. Two sets with
    equal digests are indistinguishable to the analysis pipeline; the
    conformance suite's determinism, parity and round-trip properties
    are all stated as digest equalities. *)
val digest : Difftrace_trace.Trace_set.t -> string

(** {2 Directly-follows graph}

    The DFG view of an ingested set: one edge per consecutive pair of
    calls on a thread (the Sankaran-et-al. reading of syscall and I/O
    traces), with edge multiplicities summed across threads. Returned
    in (src, dst) name order. *)
val dfg_edges :
  Difftrace_trace.Trace_set.t -> ((string * string) * int) list

val render_dfg : Difftrace_trace.Trace_set.t -> string

(** {2 Shared line-level helpers for frontend authors} *)

(** [split_lines ~frontend s] splits on ['\n'], drops a trailing ['\r']
    per line, and fails with a typed error on any line longer than
    {!max_line_bytes}. A trailing newline does not produce an empty
    final line. *)
val split_lines :
  frontend:string -> string -> (string array, error) result

(** Strip ANSI escape sequences (CSI and bare two-byte escapes). *)
val strip_ansi : string -> string
