(** The session API: every operation a DiffTrace frontend serves —
    one-shot CLI subcommand or resident daemon request — as a plain
    [Config.t -> request -> (response, error) result] function over a
    warm {!t}.

    A session owns the state that makes repeated analysis cheap: an
    optional persistent {!Store} (whose memo it adopts), otherwise a
    fresh {!Memo}, plus a table of named in-memory runs registered by
    {!record}. Two frontends driving the same session API over the same
    inputs produce byte-identical [output] strings — that is the
    contract the daemon's protocol responses and the one-shot CLI are
    both built on (see test/serve.t).

    Every response carries its CLI rendering in an [output] field next
    to the structured data, so frontends never re-implement (and never
    drift from) the report formats pinned in test/cli.t. *)

(** {2 One coherent error type}

    Everything that can go wrong across the pipeline, the archives, the
    store and the serve protocol, under one sum — frontends match on
    the constructor, the wire encodes {!error_kind}. *)

type error =
  | Invalid of string  (** malformed request parameters *)
  | Unknown_workload of { name : string; known : string list }
  | Unknown_frontend of { name : string; known : string list }
  | Unknown_run of { name : string; known : string list }
  | Unknown_label of Pipeline.lookup_error
      (** a trace label that exists in neither run *)
  | Archive_failed of Difftrace_parlot.Archive.error
  | Frontend_failed of Difftrace_frontend.Frontend.error
      (** a foreign-format ingestion rejected its input *)
  | Store_failed of string
  | Run_failed of string  (** the workload itself raised *)
  | Protocol of string
      (** malformed, oversized or version-incompatible protocol input *)
  | Internal of string  (** a bug: an exception escaped a request *)

(** Stable kebab-case tag for the wire ("invalid-params",
    "unknown-run", "archive-error", ...). *)
val error_kind : error -> string

val error_to_string : error -> string

(** The largest rank count a workload may ask for: 1024. The
    simulator's per-rank vector clocks take np² words, 8 MB at the
    cap. *)
val max_np : int

(** [check_np ~workload np] — [Invalid] naming [np] when [np < 1],
    [np > max_np] or [np] is above workload [workload]'s own limit
    ({!Difftrace_workloads.Catalog.max_np}; ilcs runs at most 64
    ranks): the one wording of a bad rank count, for the runner and
    campaigns. A name that is not a bundled workload has no limit of
    its own. *)
val check_np : workload:string -> int -> (unit, error) result

(** The most runs one [vdiff] request may align: 64. *)
val max_vdiff_runs : int

(** [check_vdiff_runs n] — [Invalid] when [n > max_vdiff_runs]. A
    request path calls it before it resolves any run source, because a
    workload source executes. *)
val check_vdiff_runs : int -> (unit, error) result

(** {2 Sessions} *)

type t

(** [create ?store ()] — a fresh session. With [store], the session
    analyzes through it (adopting its memo, so a warm store means zero
    summarizations from the first request); without, it uses a fresh
    in-process memo. Either way it keeps the event DBs its queries open,
    least recently used first out, within {!eventdb_budget} events. *)
val create : ?store:Store.t -> unit -> t

val store : t -> Store.t option
val memo : t -> Memo.t

(** [flush t] persists the store, if any (no-op when storeless or
    fully warm). *)
val flush : t -> (unit, error) result

(** {2 Sources}

    Where an operation's traces come from. Frontends that execute
    workloads themselves (the CLI, the daemon's workload-backed
    requests) inject the outcome as [Traces]. *)

type source =
  | Traces of Difftrace_trace.Trace_set.t
  | Archive of { dir : string; salvage : bool }
      (** load (streaming, chunk-at-a-time) from an on-disk archive;
          [salvage] recovers the checksum-valid prefix of damaged
          traces — including the partially-written archive of a run
          that is {e still executing} *)
  | Run of string  (** a run registered in this session by {!record} *)
  | Ingest of { path : string; frontend : string }
      (** a foreign-format file (CI log, strace capture, ...) ingested
          through the named {!Difftrace_frontend.Registry} frontend. A
          store-backed session digests the file once per request and
          ingests each distinct (frontend name, frontend version,
          source bytes) once: the set is kept as a v2 archive under
          [<store>/ingest/<key>/] and loaded on a repeat
          ([frontend.cache_hits]); an entry that fails to load is
          ingested afresh and replaced ([frontend.cache_damaged]), never
          an error. Storeless sessions ingest every time. *)

(** [remove_orphan_ingests store] — delete every
    [<store>/ingest/<key>.tmp<pid>] directory whose writer [pid] no
    longer runs on this host, and return how many went. A writer builds
    an ingest-cache entry under that name and renames it into place, so
    such a directory is what a process killed mid-write leaves behind;
    one whose writer still runs is left alone. [store gc] calls it. *)
val remove_orphan_ingests : Store.t -> int

(** [remove_orphan_temps store] — delete every [<name>.tmp<pid>] file
    in the store directory and in [<store>/eventdb/] whose writer [pid]
    no longer runs on this host, and return how many went: the
    temporary a writer killed inside {!Difftrace_util.Framed.write_atomic}
    leaves behind. One whose writer still runs is left alone. [store
    gc] calls it. *)
val remove_orphan_temps : Store.t -> int

(** [resolve t ~engine source] — the trace set plus any salvage
    outcomes (always [[]] for [Traces]/[Run]/[Ingest]). Archive loads
    and frontend ingestion fan per-thread work over [engine]. *)
val resolve :
  t ->
  engine:Engine.t ->
  source ->
  (Difftrace_trace.Trace_set.t * Difftrace_parlot.Archive.salvage list, error)
  result

(** {2 Record} *)

type record_request = {
  rc_name : string option;  (** register the run in-memory under this name *)
  rc_dir : string option;  (** archive it to this directory (v2 format) *)
}

type record_response = {
  rc_files : int;  (** trace files archived (0 without [rc_dir]) *)
  rc_traces : int;
  rc_events : int;
  rc_hung : int;  (** threads that never terminated *)
  rc_output : string;
}

(** [record t ~outcome req] archives and/or registers one executed
    run. When both [rc_name] and [rc_dir] are given, the registered
    set is re-ingested from the archive through the checksummed
    streaming decoder ({!Difftrace_parlot.Tracer.stream}) — the
    daemon's chunk-at-a-time ingestion path — rather than adopted from
    memory, so what later requests analyze is exactly what a separate
    process would load. *)
val record :
  t ->
  outcome:Difftrace_simulator.Runtime.outcome ->
  record_request ->
  (record_response, error) result

(** [run_names t] — registered runs, sorted. *)
val run_names : t -> (string * int) list

(** {2 Ingest}

    Pull a foreign-format file through a registered frontend once and
    report its size and digest, optionally keeping the result as an
    on-disk (v2) archive — after which every other operation (compare,
    triage, query, vdiff) consumes it like any simulator run. Ingest
    touches no session state, so it takes no {!t}. *)

type ingest_request = {
  ig_path : string;
  ig_frontend : string;
  ig_dir : string option;  (** archive it to this directory *)
}

type ingest_response = {
  ig_traces : int;
  ig_events : int;
  ig_files : int;  (** trace files archived (0 without [ig_dir]) *)
  ig_digest : string;
      (** the canonical {!Difftrace_frontend.Frontend.digest} — equal
          digests mean the analysis pipeline cannot tell the sets
          apart *)
  ig_output : string;
}

val ingest : Config.t -> ingest_request -> (ingest_response, error) result

(** {2 Compare / analyze} *)

type compare_request = {
  cp_normal : source;
  cp_faulty : source;
  cp_diffnlr : string option;  (** trace to diff; default: top suspect *)
}

type compare_response = {
  cp_bscore : float;
  cp_top_processes : int list;
  cp_top_threads : string list;
  cp_suspects : (string * float) array;
  cp_salvaged : Difftrace_parlot.Archive.salvage list;
  cp_comparison : Pipeline.comparison;  (** for programmatic drill-down *)
  cp_output : string;
}

(** [compare t config req] — the relative-debugging loop; [cp_output]
    is byte-identical to [difftrace compare]'s report.

    An [Archive] source without [salvage] whose manifest has stream
    digests is not loaded whole. With a store, each thread whose source
    key ({!Store.source_key} of its manifest's stream digest) the store
    knows has its checksums verified
    ({!Difftrace_parlot.Archive.check_thread}) and its summary taken
    from the memo. With or without a store, each thread whose digest an
    earlier thread of the manifest has is verified too, its event count
    held to that thread's, and takes that thread's summary. The others
    are decoded, and with a store the pipeline files their sources.
    Only the trace the diffNLR footer names is then decoded in each
    run. A damaged archive gives the error [Archive.load] gives, and
    files no source. With [salvage], and for v1 archives or manifests
    without digests the archive is loaded whole. *)
val compare :
  t -> Config.t -> compare_request -> (compare_response, error) result

(** [analyze t config req] — same computation, rendered like
    [difftrace analyze] (salvage lines first, no process/thread
    ranking). *)
val analyze :
  t -> Config.t -> compare_request -> (compare_response, error) result

(** [diffnlr_section ~normal ~faulty c label] — the diffNLR of trace
    [label] (default: [c]'s top suspect) followed by its event-DB
    footer, the first raw-event divergence of that trace; the tail of
    every compare/analyze report. [Ok None] when [label] is [None] and
    the runs have no trace in common; [Unknown_label] when [label] is
    in neither run. *)
val diffnlr_section :
  normal:Difftrace_trace.Trace_set.t ->
  faulty:Difftrace_trace.Trace_set.t ->
  Pipeline.comparison ->
  string option ->
  (string option, error) result

(** {2 Triage} *)

type triage_request = {
  tg_subject : source;
  tg_limit : int;  (** rows shown in the outlier/progress tables *)
}

type triage_response = {
  tg_entries : Pipeline.triage_entry array;
  tg_output : string;
}

(** [triage ?outcome t config req] — single-run outlier analysis.
    With [outcome] (a frontend that just executed the run), the output
    additionally carries the HUNG banner and the logical-clock
    progress section, matching [difftrace triage] exactly; archive- or
    run-sourced triage omits those two outcome-only sections. *)
val triage :
  ?outcome:Difftrace_simulator.Runtime.outcome ->
  t ->
  Config.t ->
  triage_request ->
  (triage_response, error) result

(** {2 Query}

    The drill-down query language over the indexed event database
    (see {!Difftrace_eventdb.Query} for the grammar). *)

type query_request = {
  qy_text : string;  (** one query line, e.g. ["count MPI_Send on 3"] *)
  qy_source : source;
  qy_against : source option;
      (** the second (faulty) run, required by [diverge] *)
}

type query_response = {
  qy_kind : string;  (** stable result-shape tag ("count", "list", ...) *)
  qy_size : int;  (** headline match/row count *)
  qy_warm : bool;
      (** every index came from the session's cache or off disk; no
          build *)
  qy_output : string;
}

(** [query t config req] parses and evaluates one query. The session
    keeps each index it opens, keyed by its content digest, so a repeat
    takes it from memory (counting [eventdb.cache_hits]); a store-backed
    archive query still checks every trace's checksums first. With a
    store, indexes persist under [<store>/eventdb/<digest>.edb] and warm
    reruns load instead of rebuilding ([qy_warm]); index builds fan
    per-thread work over [config]'s engine. Malformed queries are
    [Invalid]; an unknown thread label is [Unknown_label] listing the
    labels the database actually has. *)
val query : t -> Config.t -> query_request -> (query_response, error) result

(** {2 Variational diff}

    The n-way generalization of {!compare}: k runs merged into one
    conditioned variational NLR (see {!Difftrace_variational}). *)

type vdiff_run = {
  vdr_name : string;  (** display name, e.g. a campaign cell label *)
  vdr_source : source;
  vdr_axes : (string * string) list;
      (** condition axes, e.g. [[("fault", "f2"); ("seed", "3")]] *)
  vdr_bad : bool;  (** verdict label: this run went wrong *)
}

type vdiff_request = {
  vd_runs : vdiff_run list;  (** at least two *)
  vd_trace : string option;
      (** trace label to align; default: the first label (in run 0's
          order) common to every run *)
}

type vdiff_response = {
  vd_nruns : int;
  vd_columns : int;  (** merged alignment width *)
  vd_regions : int;
  vd_warm : bool;  (** the alignment replayed from the store *)
  vd_condition : string option;
      (** the bad set's minimal discriminating condition; [None] when
          no run — or every run — is bad *)
  vd_output : string;
}

(** [vdiff t config req] — align one trace label across every run and
    render the conditioned variational NLR: regions annotated with
    their minimal presence condition, ranked suspect regions, the bad
    set's discriminating condition, and an event-DB footer pinning each
    suspect to its first raw-event divergence. All runs analyze against
    the session's shared tables. With a store, the merged alignment
    persists keyed by a digest of the aligned sequences, so a warm
    rerun ([vd_warm]) skips the k-way re-alignment entirely. *)
val vdiff : t -> Config.t -> vdiff_request -> (vdiff_response, error) result

(** {2 Status} *)

type status = {
  st_runs : (string * int) list;  (** registered runs: name, traces *)
  st_summaries : int;  (** cached NLR summaries (memo) *)
  st_memo : Memo.stats;
  st_store : Store.stats option;
  st_output : string;
}

val status : t -> status

(**/**)

(** The most events the event DBs a session keeps may hold: 2^18,
    about 11 MB. A session reads it when it is created. Tests lower it
    to force evictions; nothing else writes it. *)
val eventdb_budget : int ref
