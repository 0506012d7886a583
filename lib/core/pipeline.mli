(** The DiffTrace pipeline (paper Fig. 1).

    [analyze] takes one execution's decoded traces through
    decompress → filter → NLR → FCA attributes → formal context →
    concept lattice → JSM. [compare_runs] runs it for a normal and a
    faulty execution against a *shared* symbol table and loop table (so
    L-ids mean the same thing in both), then computes JSM_D, the
    B-score between the two hierarchical clusterings, and the
    suspicious-trace ranking.

    The two hot stages — per-trace NLR summarization and the O(n²)
    JSM — execute under the configuration's {!Engine.t}; parallel
    engines produce byte-identical results to the sequential one.
    Passing a {!Memo.t} additionally caches NLR summaries across calls,
    which is what {!Ranking}'s grid sweep relies on.

    A run reaches the pipeline as a {!run}: its traces in (pid, tid)
    order, each either decoded or already summarized. {!analyze} and
    {!compare_runs} take decoded trace sets; a store-backed
    archive compare ({!Session.compare}) hands {!compare_slots} the
    traces whose summaries its store found by source key
    ({!Store.source_key}) as [Summarized], and those skip the filter,
    the re-interning and {!Memo.key}. *)

type analysis = {
  config : Config.t;
  symtab : Difftrace_trace.Symtab.t;  (** shared, unified symbol table *)
  loop_table : Difftrace_nlr.Nlr.Loop_table.t;  (** shared loop table *)
  labels : string array;
  nlrs : (Difftrace_nlr.Nlr.t * bool) array;
      (** per trace: summary + truncation flag, indexed like [labels] *)
  context : Difftrace_fca.Context.t;
  lattice : Difftrace_fca.Lattice.t Lazy.t;
      (** built incrementally (Godin) on demand *)
  jsm : Difftrace_cluster.Jsm.t;
}

(** A failed label lookup: the label that was asked for, plus every
    label the analysis actually has. *)
type lookup_error = { unknown : string; known : string array }

val lookup_error_to_string : lookup_error -> string

(** [summarize ~engine ?memo ~symtab ~table ~k ~repeats ts] — the NLR
    stage of {!analyze}: every trace of the (filtered) set [ts], its
    call IDs re-interned into the shared [symtab], summarized against
    the shared loop [table], in trace order. Each distinct call
    sequence is reduced once per call; a repeat gets its first copy's
    summary. When [memo] is given, [symtab] and [table] must be its
    own tables; every trace probes it (one hit or miss each) and every
    miss is added to it. The result is independent of [engine]. *)
val summarize :
  engine:Engine.t ->
  ?memo:Memo.t ->
  symtab:Difftrace_trace.Symtab.t ->
  table:Difftrace_nlr.Nlr.Loop_table.t ->
  k:int ->
  repeats:int ->
  Difftrace_trace.Trace_set.t ->
  Difftrace_nlr.Nlr.t array

(** One trace of a run. *)
type slot =
  | Decoded of { trace : Difftrace_trace.Trace.t; source : string option }
      (** filtered, re-keyed and summarized (or found in the memo).
          With [source] (a {!Store.source_key}) and a store, the
          analysis files the summary's memo key under it. *)
  | Summarized of { header : Difftrace_trace.Trace.t; key : Memo.key }
      (** a trace whose summary the memo holds under [key]; [header]
          carries its pid, tid and truncation flag, and no events *)

(** A run: the symbol table of its decoded traces' IDs, and its traces
    in (pid, tid) order. *)
type run = { run_symtab : Difftrace_trace.Symtab.t; run_slots : slot array }

(** [slot_trace s] — the decoded trace, or the summarized one's header. *)
val slot_trace : slot -> Difftrace_trace.Trace.t

(** [run_of_set ts] — every trace of [ts], [Decoded] without a source. *)
val run_of_set : Difftrace_trace.Trace_set.t -> run

(** [analyze ?memo ?store config ts] — without [memo], the analysis
    interns into fresh shared tables. When [memo] is given it provides
    the shared tables itself and NLR summaries are looked up in /
    added to its cache. When [store] is given it provides the memo,
    {!Store.memo} (passing [?memo] too raises [Invalid_argument]);
    results are bit-identical either way. The JSM is always
    [Jsm.compute ?candidates:(Config.candidates config ctx)]. The
    caller owns {!Store.flush}. *)
val analyze :
  ?memo:Memo.t ->
  ?store:Store.t ->
  Config.t ->
  Difftrace_trace.Trace_set.t ->
  analysis

(** [find_nlr analysis label] — that trace's summary and truncation
    flag, or a {!lookup_error} listing the known labels. *)
val find_nlr :
  analysis -> string -> (Difftrace_nlr.Nlr.t * bool, lookup_error) result

(** The NLR stage of one run, which {!analyze} builds its FCA context
    and JSM on. *)
type run_summary = {
  rs_symtab : Difftrace_trace.Symtab.t;  (** shared, unified symbol table *)
  rs_loop_table : Difftrace_nlr.Nlr.Loop_table.t;  (** shared loop table *)
  rs_labels : string array;
  rs_nlrs : (Difftrace_nlr.Nlr.t * bool) array;
      (** per trace: summary + truncation flag, indexed like [rs_labels] *)
}

(** [summarize_run ?memo ?store config run] — filter and summarize
    every trace of [run] exactly as {!compare_slots} does (same memo
    and store rules, same shared tables, same sources filed), and stop
    there: no attributes, context, JSM or clustering. What a caller
    that needs a run's summaries and nothing else ({!Session.vdiff})
    runs. @raise Invalid_argument as {!compare_slots} does. *)
val summarize_run : ?memo:Memo.t -> ?store:Store.t -> Config.t -> run -> run_summary

(** [find_summary rs label] — {!find_nlr} on a {!run_summary}. *)
val find_summary :
  run_summary -> string -> (Difftrace_nlr.Nlr.t * bool, lookup_error) result


type comparison = {
  cmp_config : Config.t;
  normal : analysis;
  faulty : analysis;
  jsm_d : Difftrace_cluster.Jsm.t;
  bscore : float;
      (** Fowlkes–Mallows agreement of the two clusterings; low =
          the fault restructured the similarity relation *)
  suspects : (string * float) array;
      (** every common trace with its JSM_D row change, descending *)
  only_normal : string list;  (** labels present only in the normal run *)
  only_faulty : string list;
}

(** [compare_runs ?memo ?store config ~normal ~faulty] — when [memo] is
    given, both analyses share its tables and summary cache (so a
    repeated comparison, or one inside a grid sweep, reuses every
    summary whose filtered input and NLR constants are unchanged).
    [store] does the same with a {!Store}'s memo, so summaries persist
    across processes. Results are
    independent of [memo], [store], and the configuration's engine. *)
val compare_runs :
  ?memo:Memo.t ->
  ?store:Store.t ->
  Config.t ->
  normal:Difftrace_trace.Trace_set.t ->
  faulty:Difftrace_trace.Trace_set.t ->
  comparison

(** [compare_slots ?memo ?store config ~normal ~faulty] —
    {!compare_runs} over {!run}s; [compare_runs] is [compare_slots]
    over {!run_of_set}. A [Summarized] slot needs the memo (or the
    store's) that holds its key, and yields exactly what decoding,
    filtering and summarizing that trace would: its summary and its
    place in the shared tables were fixed when the key was filed.
    @raise Invalid_argument when the memo lacks a [Summarized] key. *)
val compare_slots :
  ?memo:Memo.t ->
  ?store:Store.t ->
  Config.t ->
  normal:run ->
  faulty:run ->
  comparison

(** [top_processes ?limit c] — pids ranked by their most-changed
    master/thread row (descending), zero-change pids dropped. *)
val top_processes : ?limit:int -> comparison -> int list

(** [top_threads ?limit c] — worker-thread labels ("p.t", t ≥ 1)
    ranked by row change, zero-change threads dropped. *)
val top_threads : ?limit:int -> comparison -> string list

(** [find_diffnlr c label] — the diffNLR of that thread between the two
    runs (paper Figs. 5–7). *)
val find_diffnlr :
  comparison -> string -> (Difftrace_diff.Diffnlr.t, lookup_error) result


(** {2 Single-run triage}

    §II-A: "many types of faults may be apparent just by analyzing
    JSM_faulty: for instance, processes whose execution got truncated
    will look highly dissimilar to those that terminated normally."
    Triage ranks the traces of a {e single} run by how much they stand
    out from the rest — no reference run required. *)

type triage_entry = {
  tr_label : string;
  tr_score : float;  (** 1 − mean similarity to every other trace *)
  tr_truncated : bool;
}

(** [triage a] — entries sorted by descending outlier score;
    truncated traces break score ties first. *)
val triage : analysis -> triage_entry array

(** [render_triage entries] — a small report table. *)
val render_triage : triage_entry array -> string

(** [dendrogram a] — ASCII dendrogram of the analysis's hierarchical
    clustering (1 − JSM distances, the analysis's linkage method). *)
val dendrogram : analysis -> string

(** [find_phasediff c label] — phase-aware diff of that thread's
    filtered call sequences (phases cut at MPI collectives; see
    {!Difftrace_diff.Phasediff}). *)
val find_phasediff :
  comparison -> string -> (Difftrace_diff.Phasediff.t, lookup_error) result
