(** Execution engines for the analysis pipeline.

    The two hot stages of {!Pipeline.analyze} — per-trace NLR
    summarization and the O(n²) pairwise Jaccard similarity matrix —
    are embarrassingly parallel. An engine decides how their
    independent work items are executed: [Sequential] runs them in
    order on the calling domain; [Parallel] fans them out over OCaml 5
    domains with a work-stealing chunked scheduler.

    Determinism contract: for a pure per-index function [f],
    [init engine n f] returns exactly [Array.init n f] under every
    engine — results land in their own slot, so scheduling order is
    invisible. The pipeline relies on this to make parallel analyses
    byte-identical to sequential ones. *)

type t =
  | Sequential
  | Parallel of { domains : int }  (** total domains, including the caller *)

val sequential : t

(** [parallel ?domains ()] — [domains] defaults to
    {!Domain.recommended_domain_count} (capped at 16). Raises
    [Invalid_argument] if [domains < 1]; [Parallel {domains = 1}]
    degrades to sequential execution. *)
val parallel : ?domains:int -> unit -> t

(** 128, OCaml 5's default limit on live domains. *)
val max_domains : int

(** [of_jobs n] — the CLI's [--jobs] semantics: [1] is [Sequential],
    [n > 1] is [Parallel {domains = n}], and [n <= 0] auto-detects like
    {!parallel}. [n > max_domains] is an [Error]. *)
val of_jobs : int -> (t, string) result

(** [domains t] — 1 for [Sequential]. *)
val domains : t -> int

(** ["sequential"] or ["parallel:N"]. *)
val to_string : t -> string

(** Accepts ["sequential"]/["seq"], ["parallel"]/["par"] (auto domain
    count) and ["parallel:N"]/["par:N"] with [1 <= N <= max_domains];
    anything else is [Error "Engine.of_string: S"] (S lowercased). *)
val of_string : string -> (t, string) result

(** [init t n f] = [Array.init n f], scheduled by the engine. [f] must
    be safe to call from any domain and, for determinism, should not
    depend on evaluation order. If [f] raises, the first (lowest-index)
    exception is re-raised after all workers drain. *)
val init : t -> int -> (int -> 'a) -> 'a array

(** [map t f arr] = [Array.map f arr], scheduled by the engine. *)
val map : t -> ('a -> 'b) -> 'a array -> 'b array

(** [runner t] — [{ run = init t }]: the engine as the
    {!Difftrace_util.Runner.t} that libraries below the core (archive
    loads, frontends, event-DB builds) accept, so they can fan
    independent work over an engine without depending on it. Same
    contract as {!init}. *)
val runner : t -> Difftrace_util.Runner.t
