(** Configuration sweeps: the ranking tables (paper Tables VI–IX) and
    the automated refinement loop (paper Fig. 1 and §II-F: the user
    "can alter the linkage method, the FCA attributes, adjust the NLR
    constants and/or the front-end filters" when one pass fails to
    localize a bug — inspired by the systematic search of Zeller's
    delta debugging, which the paper cites as an influence).

    Both come from one sweep: every configuration of the filter ×
    attribute × K × linkage grid runs one {!Pipeline.compare_runs} over
    a (normal, faulty) run pair and yields one {!row}. The sweep owns
    its summary cache — the store's memo when [?store] is given,
    otherwise one fresh {!Memo.t} — so grid points that re-filter to
    the same call sequences with the same NLR constants reuse every
    summary. Results never depend on the cache. *)

type row = {
  config : Config.t;
  bscore : float;
  concentration : float;
      (** the top suspect's share of the total JSM_D row change, ∈ [0, 1];
          0 when nothing changed *)
  top_processes : int list;
  top_threads : string list;
  top_suspect : string option;
}

type sweep = {
  rows : row list;
      (** ascending B-score (ties keep grid order): the configurations
          under which the fault restructured the execution most come
          first, which is how the paper's tables are ordered *)
  cache : Memo.stats;  (** summary-cache hits/misses of this sweep *)
}

(** [sweep ?store ?engine ?filters ?attrs ?ks ?linkages ~normal ~faulty
    ()] — one row per configuration of the cross product, in the
    nesting order filters, attrs, K, linkage. Defaults: MPI-all +
    everything filters, all six Table V attribute specs, K ∈ {10},
    ward linkage, sequential engine. With [store] the sweep is warmed
    from disk and persists its summaries, and [cache]
    reports the disk-backed reuse too.

    An empty axis or a K below 1 is request data, not a bug: it returns
    [Error (Session.Invalid _)] (naming every empty axis, or the bad K
    with {!Config.check_k}'s message) instead of raising, so a caller
    sweeping a user-supplied grid can report it and live. *)
val sweep :
  ?store:Store.t ->
  ?engine:Engine.t ->
  ?filters:Difftrace_filter.Filter.t list ->
  ?attrs:Difftrace_fca.Attributes.spec list ->
  ?ks:int list ->
  ?linkages:Difftrace_cluster.Linkage.method_ list ->
  normal:Difftrace_trace.Trace_set.t ->
  faulty:Difftrace_trace.Trace_set.t ->
  unit ->
  (sweep, Session.error) result

(** [refine rows] — the refinement loop's order: ascending B-score
    (most restructured clustering), ties broken by descending
    concentration (a configuration that points at one thread beats one
    that points everywhere). Stable, so equal rows keep their order;
    the head is the configuration to drill into. *)
val refine : row list -> row list

(** [render ?max_rows rows] — the paper-style table: filter,
    attributes, B-score, top processes, top threads. *)
val render : ?max_rows:int -> row list -> string

(** [render_refined rows] — configuration, B-score, concentration and
    top suspect per row (pass {!refine}'s order). *)
val render_refined : row list -> string
