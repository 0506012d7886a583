(** Crash-isolated fault campaigns.

    The paper validates DiffTrace one planted fault at a time (§II-G,
    §IV, §V): a single normal/faulty pair per experiment. A campaign
    sweeps the whole fault × scheduler-seed matrix of a workload in one
    invocation, feeds every completed cell through the existing
    pipeline (JSM diff → B-score → suspect ranking), and produces a
    ranked cross-fault triage report — the "compare many executions at
    once" workflow of Variational Traces and CiDiff, on DiffTrace's
    substrate.

    Two properties make campaigns production-grade rather than a shell
    loop:

    {b Crash isolation.} A cell that deadlocks or exhausts its step
    budget is recorded as [Hung]; a cell whose workload or analysis
    raises is recorded as [Failed] with the exception and backtrace.
    Neither aborts the campaign — the remaining cells always run.

    {b Resumability.} Campaign state persists incrementally under one
    state directory: a CRC-checked manifest (rewritten atomically after
    every cell) plus one checksummed v2 trace archive per executed
    cell and per fault-free reference run. Re-running over the same
    directory skips every cell already in the manifest ([resumed] in
    its result, counted by the [campaign.resumed] telemetry counter);
    cells whose archive survived an interrupted run but never reached
    the manifest are re-analyzed from disk — salvage-loaded, so even a
    damaged archive contributes its checksum-valid prefix instead of
    forcing a re-execution.

    Cell simulations and archive loads are fanned over the configured
    {!Difftrace_core.Engine.t}; the analysis stage runs sequentially
    against one shared {!Difftrace_core.Memo.t}, so the per-seed
    reference run is summarized once however many faults share it.

    Telemetry counters: [campaign.cells] (cells executed this run),
    [campaign.failed] ([Hung] + [Failed] verdicts among them),
    [campaign.resumed] (cells skipped via the manifest),
    [campaign.manifest_salvaged] (unreadable manifest lines dropped on
    load — each costs at most the cell it recorded, which reruns). *)

(** {1 Errors}

    Everything {!run} and {!status} can refuse with, as data: a
    resident daemon passes campaign parameters straight from the wire,
    so no parameter — however bad — may surface as an exception. *)

type error =
  | State_dir of string  (** the state directory is unusable on disk *)
  | Wrong_campaign of { dir : string; what : string }
      (** the directory holds a {e different} campaign; [what] names
          the first mismatched field ("kind", "np", "seeds", "faults",
          "step budget", "configuration") *)
  | Manifest_damaged of { dir : string; reason : string }
      (** the manifest survives but salvage could not recover what the
          operation needs *)
  | No_manifest of string  (** [status] on a directory with no manifest *)
  | Unknown_kind of string
      (** the matrix names a cell kind absent from the registry — a
          custom kind not re-registered before resuming, or a typo; the
          rendering lists the registered kinds. {!status} still reads
          such a campaign (inspection needs no runner), only {!run}
          refuses. *)
  | Io of string  (** the initial manifest write failed *)
  | Bad_matrix of string  (** {!matrix} refused its arguments *)

val error_to_string : error -> string

(** {1 Cell kinds}

    A {e kind} names the program a cell executes. A name resolves, in
    order, to a registered kind — "selftest", a diagnostics kind that
    delegates to the odd/even sort but interprets
    [Skip_function {func = "raise"}] as an injected exception and
    [Skip_function {func = "spin"}] as a forced step-budget timeout, so
    campaign crash isolation can be exercised end to end from the CLI,
    plus any {!register_kind} added — then to a bundled workload of
    {!Difftrace_workloads.Catalog} ("oddeven", "ilcs", "lulesh",
    "heat", "heat2d"). See EXTENDING.md for adding kinds.

    One kind family is parameterized rather than registered:
    ["corpus:FRONTEND:DIR"] cells execute nothing — each ingests a
    checked-in foreign-format file of [DIR] through the named
    {!Difftrace_frontend.Registry} frontend. The fault-free reference
    ingests the first file (sorted); a cell with seed [s] ingests file
    [s mod n], so one sweep ranks every corpus member against the
    baseline. {!matrix} rejects an unregistered frontend and a [DIR]
    without a file; an ingestion failure at run time surfaces as a
    [Failed] verdict through the campaign's crash isolation. *)

(** [corpus_frontend kind] — [Some "FRONTEND"] for a
    ["corpus:FRONTEND:DIR"] kind, [None] for every other kind. *)
val corpus_frontend : string -> string option

(** [config_for ~kind config] — the analysis configuration cells of
    [kind] run under: {!Difftrace_core.Config.foreign} [config] for a
    corpus kind (foreign traces have no MPI calls to keep), [config]
    otherwise. {!run}, {!top_cell_diffnlr} and {!variational} apply it
    themselves; a manifest's [config] line names its result. *)
val config_for :
  kind:string -> Difftrace_core.Config.t -> Difftrace_core.Config.t

(** [run ~np ~seed ~max_steps ~fault] — execute one cell program.
    [max_steps] is the campaign's per-cell step budget (None = the
    runtime default); implementations should thread it through to
    {!Difftrace_simulator.Runtime.run} so hung cells time out instead
    of burning the whole budget. May raise: the campaign runner
    records the exception as a [Failed] verdict. *)
type kind_fn =
  np:int ->
  seed:int ->
  max_steps:int option ->
  fault:Difftrace_simulator.Fault.t ->
  Difftrace_simulator.Runtime.outcome

(** [register_kind name fn] — add (or replace) a cell kind; a
    registered kind shadows a bundled workload of the same name. *)
val register_kind : string -> kind_fn -> unit

(** Registered kinds and bundled workload names, sorted, without
    duplicates. *)
val kinds : unit -> string list

(** {1 The matrix} *)

type matrix = private {
  kind : string;
  np : int;
  faults : Difftrace_simulator.Fault.t list;  (** in declaration order *)
  seeds : int list;                           (** sorted, deduplicated *)
  max_steps : int option;                     (** per-cell step budget *)
}

(** [matrix ?max_steps ~kind ~np ~faults ~seeds ()] — validate and
    build. [Bad_matrix] names the first of: an unknown kind, a corpus
    kind whose frontend is unregistered (the message lists the known
    frontends) or whose [DIR] holds no file, a rank count the kind
    refuses (in {!Difftrace_core.Session.check_np}'s words), an empty fault or seed
    list, or [max_steps < 1]. Cells are the cross product
    faults × seeds, numbered fault-major from 0. *)
val matrix :
  ?max_steps:int ->
  kind:string ->
  np:int ->
  faults:Difftrace_simulator.Fault.t list ->
  seeds:int list ->
  unit ->
  (matrix, error) result

type cell = { index : int; fault : Difftrace_simulator.Fault.t; seed : int }

(** The matrix's cells, in index order. *)
val cells : matrix -> cell list

(** ["dlBug(rank=1,after=0)@s2"] — the cell's stable human label. *)
val cell_label : cell -> string

(** {1 Results} *)

type verdict =
  | Completed  (** clean termination, analysis done *)
  | Hung of { deadlocked : int; timed_out : bool }
      (** the run ended abnormally — [deadlocked] threads blocked
          and/or the step budget ran out; the truncated traces were
          still analyzed (that is DiffTrace's specialty) *)
  | Failed of { error : string; backtrace : string }
      (** the workload or its analysis raised; [backtrace] may be
          empty *)

val verdict_to_string : verdict -> string

type cell_result = {
  cell : cell;
  verdict : verdict;
  bscore : float option;
      (** B-score of the cell vs. its fault-free reference run; [None]
          when the cell failed before analysis *)
  suspects : (string * float) list;
      (** top suspicious traces (label, JSM_D row change), descending *)
  salvaged : int;  (** traces recovered by archive salvage on reuse *)
  resumed : bool;  (** skipped via the manifest, not executed *)
}

type outcome = {
  matrix : matrix;
  results : cell_result list;  (** in cell-index order *)
  executed : int;              (** cells run (or re-analyzed) this call *)
  resumed_cells : int;         (** cells skipped via the manifest *)
}

(** {1 Running} *)

(** [run ?config ?on_cell ?store ~dir m] — execute every cell of [m]
    not already recorded in [dir]'s manifest, persisting state as it
    goes. [config] (default {!Difftrace_core.Config.default}) selects
    the analysis parameters and the engine; [on_cell] streams each
    non-resumed cell's result as its analysis finishes. [store]
    replaces the campaign's per-run memo with a persistent
    {!Difftrace_core.Store}: a resumed campaign re-adopts its cached
    summaries, and the store is flushed after every analyzed
    cell (best-effort, like cell archives).

    Errors (as [Error _], never an exception): the state directory
    holds a {e different} campaign (kind, np, faults, seeds, config or
    step budget changed), or it is unusable on disk. A {e damaged}
    manifest is salvaged line by line: readable cell records still
    resume, unreadable ones are dropped with a stderr warning (their
    cells rerun, re-adopting any surviving archives) and counted by
    [campaign.manifest_salvaged], and the campaign's first manifest
    rewrite replaces the damaged file with a clean checksummed one. *)
val run :
  ?config:Difftrace_core.Config.t ->
  ?on_cell:(cell_result -> unit) ->
  ?store:Difftrace_core.Store.t ->
  dir:string ->
  matrix ->
  (outcome, error) result

(** [status ~dir] — the campaign recorded in [dir]'s manifest, without
    executing anything: every recorded cell appears as a [resumed]
    result, unrecorded cells are absent. Damage is salvaged as in
    {!run} (best-effort: status is only as complete as the readable
    records); [Error] when there is no manifest at all, or salvage
    lost the header fields the matrix needs. *)
val status : dir:string -> (outcome, error) result

(** {1 Reporting} *)

(** [render o] — the ranked cross-fault triage table: failed cells
    first (they crashed — maximally suspicious), then analyzable cells
    by ascending B-score (the paper's ordering: low B-score = the
    fault restructured the execution most), with a failure-detail
    section beneath. *)
val render : outcome -> string

(** [top_cell_diffnlr ?config ?store ~dir o] — re-load the archives of the
    best-ranked cell with a suspicious trace (failing that, of the
    best-ranked analyzable cell) and render the diffNLR of its top
    suspect against the reference run (the drill-down step of the
    triage loop), with the event-DB divergence footer pinning the
    suspect to a raw-event position. The trace is picked the way
    [compare] picks it ({!Difftrace_core.Session.diffnlr_section}), so a
    cell whose traces all score 0 still shows its top trace; a cell
    sharing no trace with its reference says so. [Error] when no cell
    is analyzable or the archives are gone. *)
val top_cell_diffnlr :
  ?config:Difftrace_core.Config.t ->
  ?store:Difftrace_core.Store.t ->
  dir:string ->
  outcome ->
  (string, string) result

(** [variational ?config ?store ~dir o] — the n-way drill-down
    ([campaign report --variational]): re-load {e every} archived run
    of the campaign — the per-seed fault-free references plus each
    recorded cell (Failed cells crashed before archiving and are
    skipped) — and render one conditioned variational NLR
    ({!Difftrace_core.Session.vdiff}) with [fault] and [seed] as the
    condition axes and each cell's verdict as its bad/good label. The
    report annotates every structural region with the minimal condition
    selecting the runs it appears in, and names the minimal
    discriminating condition of the bad set — e.g. [fault=f2] when the
    divergent region tracks one injected fault exactly. [Error] when
    fewer than two archived runs remain or an archive is unreadable. *)
val variational :
  ?config:Difftrace_core.Config.t ->
  ?store:Difftrace_core.Store.t ->
  dir:string ->
  outcome ->
  (string, string) result
