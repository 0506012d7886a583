(** One point in DiffTrace's parameter space (the dashed box of the
    paper's Fig. 1): front-end filter × FCA attributes × NLR constant ×
    linkage method. Ranking tables sweep grids of these.

    The [engine] field selects how the pipeline executes — it never
    changes analysis results (see {!Engine}), so it is not part of the
    configuration's {!name}. *)

(** How the JSM is built. [Exact] (the default) evaluates every class
    pair and pins today's byte-identical output; [Sketch] masks the
    same computation with the MinHash/LSH tier
    ({!Difftrace_cluster.Sketch}, see {!candidates}): only LSH
    candidate class pairs are evaluated exactly, pruned pairs read 0.0
    — near-linear instead of quadratic on corpora of many distinct,
    mostly dissimilar traces. *)
type mode = Exact | Sketch

(** ["exact"] / ["sketch"]. *)
val mode_name : mode -> string

(** Inverse of {!mode_name}; anything else is an [Error] naming the
    offending string. *)
val mode_of_string : string -> (mode, string) result

type t = {
  filter : Difftrace_filter.Filter.t;
  attrs : Difftrace_fca.Attributes.spec;
  k : int;            (** NLR constant K *)
  repeats : int;      (** NLR loop-creation threshold *)
  linkage : Difftrace_cluster.Linkage.method_;
  engine : Engine.t;  (** execution engine for the hot stages *)
  mode : mode;        (** exact or sketch JSM construction *)
}

(** [make ?filter ?attrs ?k ?repeats ?linkage ?engine ?mode ()] —
    defaults: MPI-all filter, single/noFreq attributes, K=10,
    repeats=2, ward, sequential engine, exact mode. *)
val make :
  ?filter:Difftrace_filter.Filter.t ->
  ?attrs:Difftrace_fca.Attributes.spec ->
  ?k:int ->
  ?repeats:int ->
  ?linkage:Difftrace_cluster.Linkage.method_ ->
  ?engine:Engine.t ->
  ?mode:mode ->
  unit ->
  t

(** [default] = [make ()]. *)
val default : t

(** {2 With-style builders}

    Functional updates for deriving configurations, in pipeline order:
    [Config.default |> Config.with_k 50 |> Config.with_linkage Average].
    Grid construction ({!Ranking}) and the CLI build their
    configurations this way instead of rebuilding records by hand. *)

val with_filter : Difftrace_filter.Filter.t -> t -> t
val with_attrs : Difftrace_fca.Attributes.spec -> t -> t

(** [check_k k] — [Error] naming [k] when [k < 1]; request parsing
    calls it, so a bad [-k] never reaches a campaign cell. *)
val check_k : int -> (unit, string) result

val with_k : int -> t -> t

val with_repeats : int -> t -> t
val with_linkage : Difftrace_cluster.Linkage.method_ -> t -> t
val with_engine : Engine.t -> t -> t
val with_mode : mode -> t -> t

(** [foreign t] — [t] for foreign-format traces (frontend ingests,
    corpus campaign cells): they carry no [MPI_*] calls, so the default
    MPI-all filter, which would empty them, becomes keep-everything
    (["11.all"]); any other filter is kept. The one home of that rule:
    the daemon applies it to requests whose every source is a file,
    [Campaign] to corpus kinds. *)
val foreign : t -> t

(** [filter_name t] — e.g. ["11.mpiall.cust.K10"] (the paper's filter
    column, K folded in). *)
val filter_name : t -> string

(** [attrs_name t] — e.g. ["sing.noFreq"]. *)
val attrs_name : t -> string

(** [name t] — full label including the linkage; sketch mode appends
    [" [sketch]"], exact mode renders exactly as it always has. *)
val name : t -> string

(** [candidates t ctx] — the JSM mask of [t]'s mode over [ctx]: [None]
    in exact mode, the class candidate adjacency
    ({!Difftrace_cluster.Sketch.class_candidates}) in sketch mode. The
    one argument by which {!Difftrace_cluster.Jsm.compute} tells the
    two modes apart; every analysis, with or without a store, builds
    its JSM as [Jsm.compute ?candidates:(candidates t ctx)]. *)
val candidates :
  t -> Difftrace_fca.Context.t -> Difftrace_util.Bitset.t array option

(** The configuration as a JSON object (filter/attrs/k/repeats/linkage
    by name plus the engine, plus ["mode"] when it is not the exact
    default) — embedded in [--profile-json] reports and bench
    artifacts so a recorded run names its parameters. *)
val to_json : t -> Difftrace_obs.Telemetry.Json.t
