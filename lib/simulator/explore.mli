(** Schedule exploration.

    The DOE correctness report the paper builds on (§I, ref [3])
    classifies "nondeterminism control" as one of the six debugging
    method types. The simulator's scheduler is a pure function of its
    seed, which makes the simplest form of it trivial: run the same
    program under many schedules and report how the outcome varies —
    does a potential deadlock actually fire, does a racy update change
    the result, how many distinct trace shapes exist? *)

type verdict = {
  seed : int;
  deadlocked : bool;
  timed_out : bool;
  races : int;
  fingerprint : int;
      (** hash of all decoded traces: schedules with equal fingerprints
          produced identical executions *)
}

type summary = {
  verdicts : verdict list;       (** one per seed, in seed order *)
  deadlock_seeds : int list;     (** seeds whose run hung *)
  timeout_seeds : int list;
      (** seeds whose run exhausted the step budget; their trace shape
          is an artifact of where the budget cut them, so they are
          excluded from [distinct_outcomes] *)
  distinct_outcomes : int;
      (** number of distinct fingerprints among runs that did not time
          out *)
}

(** [summarize verdicts] — aggregate a verdict list (however produced:
    {!run}, a campaign driver, the CLI's per-workload loop) into a
    summary. Timed-out verdicts land in [timeout_seeds] and do not
    count toward [distinct_outcomes]. *)
val summarize : verdict list -> summary

(** [classify ~seed o] — the verdict of [o], an executed run of
    [seed] (for drivers that execute runs themselves). *)
val classify : seed:int -> Runtime.outcome -> verdict

(** [verdict_of ?np ?eager_limit ?max_steps ~seed program] — execute
    one seed and classify it ([max_steps] is the step budget standing
    in for the cluster job time limit). *)
val verdict_of :
  ?np:int ->
  ?eager_limit:int ->
  ?max_steps:int ->
  seed:int ->
  (Runtime.env -> unit) ->
  verdict

(** [run ?np ?eager_limit ?max_steps ?on_verdict ~seeds program] —
    execute [program] once per seed. [on_verdict] is invoked with each
    verdict as soon as its run finishes — the streaming hook campaign
    drivers use for progress and early abort decisions. *)
val run :
  ?np:int ->
  ?eager_limit:int ->
  ?max_steps:int ->
  ?on_verdict:(verdict -> unit) ->
  seeds:int list ->
  (Runtime.env -> unit) ->
  summary

(** [render s] — a compact report table. *)
val render : summary -> string

(** [fingerprint_of ts] — the full-content trace digest used in
    verdicts (exposed for external drivers). *)
val fingerprint_of : Difftrace_trace.Trace_set.t -> int
