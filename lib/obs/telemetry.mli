(** Pipeline-wide telemetry: hierarchical timing spans and named
    counters.

    Everything is {e off by default}: until {!enable} is called, an
    instrumented call site costs a single atomic load and a branch, so
    the hot kernels (JSM cells, NLR summarization, LZW capture) can
    stay instrumented permanently. Enabling records into a process-wide
    aggregation table that is safe to touch from every domain the
    parallel engine spawns.

    {b Determinism.} Span wall-clock and allocation numbers are
    measurements and vary run to run. Counters count {e logical} work
    (cache probes, JSM cells, lattice closures, captured events), are
    incremented atomically, and therefore total identically under
    [Engine.Sequential] and [Engine.Parallel] — that invariant is what
    makes profile JSON files comparable across commits and hosts. *)

(** Minimal JSON values: enough to print and re-parse the telemetry
    and bench report schemas without external dependencies. *)
module Json : sig
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  (** Compact single-line rendering. *)
  val to_string : t -> string

  (** Two-space indented rendering (one element per line), newline
      terminated — the format written to [--profile-json] and bench
      artifact files. *)
  val to_string_pretty : t -> string

  exception Parse_error of string

  (** Parse a JSON document produced by {!to_string} /
      {!to_string_pretty}.
      @raise Parse_error on malformed input. *)
  val of_string : string -> t

  (** [member k (Obj kvs)] — the value bound to [k], if any. *)
  val member : string -> t -> t option

  val to_int : t -> int option
  val to_str : t -> string option
end

(** [enable ()] resets all recorded state and turns telemetry on:
    closed spans aggregate per path (queried via {!report}), counters
    count. *)
val enable : unit -> unit

(** Turn telemetry off; instrumented code reverts to the almost-free
    path. Recorded data survives until the next [enable]. *)
val disable : unit -> unit

val enabled : unit -> bool

(** Clear every span aggregate and zero every counter. *)
val reset : unit -> unit

(** [set_clock (Some f)] substitutes the wall clock (seconds) — used
    by tests for deterministic spans; [None] restores the default
    ([Unix.gettimeofday]). *)
val set_clock : (unit -> float) option -> unit

(** Spans measure allocation via [Gc.allocated_bytes] deltas by
    default; [set_track_alloc false] turns that sampling off. *)
val set_track_alloc : bool -> unit

(** Named monotonically-increasing counters. *)
module Counter : sig
  type t

  (** [make name] — create or look up the process-wide counter
      [name]. Intended for top-level [let] bindings at the
      instrumentation site. *)
  val make : string -> t

  (** [add c n] — add [n] when telemetry is enabled; a no-op (one
      atomic load) otherwise. *)
  val add : t -> int -> unit

  val incr : t -> unit
  val name : t -> string
  val value : t -> int
end

(** Hierarchical timing spans. *)
module Span : sig
  (** [with_ name f] runs [f] inside a span. The span's path is the
      slash-joined chain of the enclosing spans on the current domain
      ("compare_runs/analyze/summarize"); equal paths aggregate. When
      telemetry is disabled this is exactly [f ()] plus one branch. *)
  val with_ : string -> (unit -> 'a) -> 'a

  (** [with_root name f] — like {!with_}, but anchored at the path
      root regardless of enclosing spans. Used for work scheduled onto
      engine domains, so every domain's share of e.g. ["engine.worker"]
      lands under one path no matter where it was spawned from. *)
  val with_root : string -> (unit -> 'a) -> 'a

  (** The current domain's innermost open span path, if any. *)
  val current_path : unit -> string option
end

(** One aggregated span: total wall nanoseconds, total GC-allocated
    bytes and the number of times the path closed. *)
type span = { path : string; count : int; wall_ns : int; alloc_bytes : int }

(** A snapshot: spans sorted by path, nonzero counters sorted by
    name — both orders deterministic. *)
type report = { spans : span list; counters : (string * int) list }

val report : unit -> report

(** ["difftrace-telemetry/1"] — bumped on any incompatible schema
    change. *)
val schema_version : string

(** The report as a {!Json.t} (schema documented in MANUAL.md). *)
val report_to_json : report -> Json.t

(** Pretty-printed JSON document of {!report_to_json}. *)
val to_json : report -> string

(** Inverse of {!to_json} / {!report_to_json}; validates the schema
    tag.
    @raise Json.Parse_error on malformed or incompatible input. *)
val report_of_json : string -> report

val report_of_json_value : Json.t -> report

(** Render the per-stage table and counter table (Texttable). *)
val render : report -> string
