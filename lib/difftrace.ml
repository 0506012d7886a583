(** The DiffTrace umbrella: one module re-exporting the whole toolkit.

    [open Difftrace] gives every layer of the system its short name —
    examples and the CLI write [Pipeline.compare_runs], [Trace_set.traces]
    or [Fault.of_string] instead of [Difftrace_core.Pipeline]-style
    dotted paths. The aliases are plain module bindings, so all types
    are interchangeable with the underlying libraries'. *)

(* Observability: spans, counters, profile reports. *)
module Telemetry = Difftrace_obs.Telemetry

(* Analysis toolkit (lib/core). *)
module Config = Difftrace_core.Config
module Engine = Difftrace_core.Engine
module Memo = Difftrace_core.Memo
module Store = Difftrace_core.Store
module Pipeline = Difftrace_core.Pipeline
module Session = Difftrace_core.Session
module Ranking = Difftrace_core.Ranking
module Report = Difftrace_core.Report

(* Traces and symbols. *)
module Event = Difftrace_trace.Event
module Symtab = Difftrace_trace.Symtab
module Trace = Difftrace_trace.Trace
module Trace_set = Difftrace_trace.Trace_set

(* Capture (ParLOT-style) and archives. *)
module Tracer = Difftrace_parlot.Tracer
module Capture = Difftrace_parlot.Capture
module Archive = Difftrace_parlot.Archive
module Lzw = Difftrace_parlot.Lzw

(* The MPI/OpenMP simulator and its faults. *)
module Runtime = Difftrace_simulator.Runtime
module Api = Difftrace_simulator.Api
module Fault = Difftrace_simulator.Fault
module Explore = Difftrace_simulator.Explore
module Vclock = Difftrace_simulator.Vclock

(* Front-end filtering and summarization. *)
module Filter = Difftrace_filter.Filter
module Nlr = Difftrace_nlr.Nlr

(* Formal concept analysis. *)
module Attributes = Difftrace_fca.Attributes
module Context = Difftrace_fca.Context
module Lattice = Difftrace_fca.Lattice

(* Clustering. *)
module Jsm = Difftrace_cluster.Jsm
module Sketch = Difftrace_cluster.Sketch
module Linkage = Difftrace_cluster.Linkage
module Bscore = Difftrace_cluster.Bscore
module Dendrogram = Difftrace_cluster.Dendrogram

(* Fault campaigns (crash-isolated, resumable fault x seed sweeps). *)
module Campaign = Difftrace_campaign.Campaign

(* The resident analysis daemon and its difftrace-rpc/1 protocol
   (lib/serve), grouped under the library name: [Serve.Protocol],
   [Serve.Daemon], [Serve.Client]. *)
module Serve = Difftrace_serve

(* The indexed event database and its drill-down query language. *)
module Eventdb = Difftrace_eventdb.Eventdb
module Query = Difftrace_eventdb.Query

(* Diffing. *)
module Diffnlr = Difftrace_diff.Diffnlr
module Phasediff = Difftrace_diff.Phasediff
module Myers = Difftrace_diff.Myers

(* N-way variational diffing: k runs merged into one conditioned NLR. *)
module Variational = Difftrace_variational.Variational

(* Structural and temporal views. *)
module Stacktree = Difftrace_stacktree.Stacktree
module Cct = Difftrace_stacktree.Cct
module Otf2 = Difftrace_temporal.Otf2
module Progress = Difftrace_temporal.Progress

(* Bundled workloads, the SMM baseline and the bug classifier, grouped
   under their library names (e.g. [Workloads.Odd_even.run]);
   [Workloads.Catalog] maps a bundled workload name to its program. *)
module Workloads = Difftrace_workloads
module Baseline = Difftrace_baseline
module Classify = Difftrace_classify
