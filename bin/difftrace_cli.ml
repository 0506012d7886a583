(* difftrace — command-line front end.

   Subcommands:
     run       execute a workload (optionally fault-injected), print the
               capture statistics and decoded traces
     compare   run a workload twice (normal vs. fault), print B-score,
               suspicious traces and a diffNLR
     table     sweep a filter/attribute grid and print the paper-style
               ranking table
     filters   print the Table I filter catalog
     serve     resident analysis daemon speaking difftrace-rpc/1
     client    send protocol request lines to a running daemon

   The CLI parses flags; every decision past that is the library's.
   record/compare/analyze/triage/query/vdiff build one protocol call
   from their flags and run it through the daemon's own handler
   (Serve.Daemon.handle), so their reports are the daemon's responses
   byte for byte; run/export/explore/table/autotune/report execute
   workloads through the daemon's runner (Serve.Daemon.run_workload). *)

open Cmdliner
open Difftrace
module R = Difftrace_simulator.Runtime
module Fault = Difftrace_simulator.Fault
module Capture = Difftrace_parlot.Capture
module Trace = Difftrace_trace.Trace
module Trace_set = Difftrace_trace.Trace_set
module F = Difftrace_filter.Filter
module P = Serve.Protocol

(* every error exit: "difftrace: MESSAGE" on stderr, then exit [code] *)
let die ?(code = 1) fmt =
  Printf.ksprintf
    (fun m ->
      Printf.eprintf "difftrace: %s\n" m;
      exit code)
    fmt

let or_die to_string = function Ok v -> v | Error e -> die "%s" (to_string e)

(* a session error; [hint e] is appended to its message *)
let fail_with ?(hint = fun _ -> "") e =
  die "%s%s" (Session.error_to_string e) (hint e)

let workload_conv =
  let parse s =
    if List.mem s Workloads.Catalog.names then Ok s
    else Error (`Msg ("unknown workload: " ^ s))
  in
  Arg.conv (parse, Format.pp_print_string)

(* a flag converter over a library parser: its error is the usage
   error *)
let parsed_conv parse print =
  Arg.conv ((fun s -> Result.map_error (fun m -> `Msg m) (parse s)), print)

let fault_conv = parsed_conv Fault.of_string Fault.pp

(* an int flag in lo..hi (unbounded above without [hi]); anything else
   is a usage error naming the flag *)
let int_in ?hi lo =
  let expected =
    match hi with
    | Some hi -> Printf.sprintf "%d..%d" lo hi
    | None -> Printf.sprintf "an integer >= %d" lo
  in
  let parse s =
    match int_of_string_opt s with
    | Some n when n >= lo && Option.fold hi ~none:true ~some:(( <= ) n) -> Ok n
    | _ ->
      Error (`Msg (Printf.sprintf "invalid value '%s', expected %s" s expected))
  in
  Arg.conv (parse, Format.pp_print_int)

(* common options; their defaults are the protocol's *)
let d_workload = P.default_workload "oddeven"
let d_config = P.default_config

let workload_t =
  Arg.(
    value
    & opt workload_conv d_workload.P.ws_workload
    & info [ "w"; "workload" ] ~docv:"WORKLOAD"
        ~doc:"Workload to execute: oddeven, ilcs, lulesh, heat or heat2d.")

let np_t =
  Arg.(
    value
    & opt int d_workload.P.ws_np
    & info [ "np" ] ~docv:"N" ~doc:"Number of MPI ranks.")

let seed_t =
  Arg.(
    value
    & opt int d_workload.P.ws_seed
    & info [ "seed" ] ~docv:"SEED" ~doc:"Scheduler seed.")

let fault_t =
  Arg.(
    value
    & opt fault_conv Fault.No_fault
    & info [ "f"; "fault" ] ~docv:"FAULT"
        ~doc:
          "Fault to inject, e.g. 'swapBug(rank=5,after=7)', \
           'dlBug(rank=5,after=7)', 'wrongSize(rank=2)', 'wrongOp(rank=0)', \
           'noCritical(rank=6,thread=4)', \
           'skipFunction(rank=2,func=LagrangeLeapFrog)' or 'none'.")

let all_images_t =
  Arg.(
    value & flag
    & info [ "all-images" ]
        ~doc:"Capture library-level frames too (ParLOT all-images mode).")

let filter_t =
  Arg.(
    value
    & opt string d_config.P.pc_filter
    & info [ "filter" ] ~docv:"SPEC"
        ~doc:
          "Filter spec: two drop digits (returns, plt) then keep \
           categories, e.g. '11.mpiall', '01.mem.ompcrit', '11.all'.")

let custom_t =
  Arg.(
    value
    & opt_all string []
    & info [ "custom" ] ~docv:"REGEX"
        ~doc:"Regex bound to each 'cust' component of the filter spec.")

let attrs_t =
  Arg.(
    value
    & opt string d_config.P.pc_attrs
    & info [ "attrs" ] ~docv:"SPEC"
        ~doc:"FCA attributes: sing|doub . actual|log10|noFreq.")

let k_t =
  Arg.(
    value & opt int d_config.P.pc_k & info [ "k" ] ~docv:"K" ~doc:"NLR constant K.")

let print_engine ppf e = Format.pp_print_string ppf (Engine.to_string e)

(* --jobs N: an int flag that [Engine.of_jobs] bounds *)
let jobs =
  let of_int n = Result.map_error (fun m -> `Msg m) (Engine.of_jobs n) in
  Arg.conv
    ((fun s -> Result.bind (Arg.conv_parser Arg.int s) of_int), print_engine)

(* --engine names an engine explicitly; --jobs N is shorthand for
   parallel:N (0 = auto-detect) and wins when both are given. *)
let engine_t =
  let engine =
    Arg.(
      value
      & opt (parsed_conv Engine.of_string print_engine) Engine.Sequential
      & info [ "engine" ] ~docv:"ENGINE"
          ~doc:
            "Execution engine for the analysis pipeline: 'sequential' \
             (default) or 'parallel[:N]' (N domains, at most 128, \
             auto-detected when omitted). Results are byte-identical \
             across engines.")
  in
  let jobs =
    Arg.(
      value
      & opt (some jobs) None
      & info [ "j"; "jobs" ] ~docv:"N"
          ~doc:
            "Run the NLR and JSM stages on N domains (0 = auto-detect); \
             shorthand for --engine=parallel:N.")
  in
  Term.(const (fun engine jobs -> Option.value jobs ~default:engine)
        $ engine $ jobs)

let linkage_t =
  Arg.(
    value
    & opt string d_config.P.pc_linkage
    & info [ "linkage" ] ~docv:"METHOD"
        ~doc:"Linkage: single, complete, average, weighted, centroid, median, ward.")

(* --sketch routes the JSM through the MinHash/LSH tier; --exact (the
   default) pins today's byte-identical output and wins when both are
   given, so scripts can append --exact to force the pinned path. *)
let mode_t =
  let sketch =
    Arg.(
      value & flag
      & info [ "sketch" ]
          ~doc:
            "Build the JSM through the MinHash/LSH sketch tier: only LSH \
             candidate pairs get exact Jaccard evaluations, pruned pairs \
             read 0.0 — near-linear instead of quadratic on corpora whose \
             similar pairs are sparse.")
  in
  let exact =
    Arg.(
      value & flag
      & info [ "exact" ]
          ~doc:
            "Evaluate every trace pair exactly (the default). Wins over \
             $(b,--sketch), pinning byte-identical output.")
  in
  let combine sketch exact =
    if sketch && not exact then Config.Sketch else Config.Exact
  in
  Term.(const combine $ sketch $ exact)

(* --- ingestion frontends -------------------------------------------- *)

module Frontend = Difftrace_frontend.Frontend
module Frontend_registry = Difftrace_frontend.Registry
module Conformance = Difftrace_frontend.Conformance

let frontend_t =
  Arg.(
    value
    & opt (some string) None
    & info [ "frontend" ] ~docv:"NAME"
        ~doc:
          "Ingest foreign-format trace files (CI logs, strace captures) \
           through the named frontend instead of reading archives or \
           executing workloads. The default filter '11.mpiall' becomes \
           '11.all' here, also when given explicitly (foreign traces have \
           no MPI calls to keep); any other --filter is kept. See \
           $(b,difftrace frontend list).")

(* with --frontend a path names a foreign-format file, else an archive
   directory; the handler gives file sources the foreign default filter *)
let source_of ~frontend ~salvage path =
  match frontend with
  | Some frontend -> P.Src_ingest { path; frontend }
  | None -> P.Src_archive { dir = path; salvage }

let salvage_t =
  Arg.(
    value & flag
    & info [ "salvage" ]
        ~doc:
          "Recover damaged archives: keep the longest checksum-valid, \
           cleanly-decoding prefix of each corrupt trace (marked \
           truncated) instead of refusing the whole run.")

let diffnlr_t doc =
  Arg.(value & opt (some string) None & info [ "diffnlr" ] ~docv:"LABEL" ~doc)

(* --- the persistent analysis store ---------------------------------- *)

(* every analysis command takes --store DIR (reuse NLR summaries and
   vdiff alignments across invocations) and --no-store (wins over --store;
   for campaigns it disables the default per-campaign store). The raw
   pair is interpreted per command: [store_of] for commands where the
   store is opt-in, [campaign_store_of] for campaign run, which
   defaults to <campaign-dir>/store. *)
let store_flags_t =
  let store =
    Arg.(
      value
      & opt (some string) None
      & info [ "store" ] ~docv:"DIR"
          ~doc:
            "Persistent analysis store: reload cached NLR summaries and vdiff \
             alignments from $(docv) and save new ones back, so repeated \
             analyses skip recomputation. The JSM is recomputed every \
             time; it costs less than decoding a stored one. Results are \
             byte-identical with or without a store.")
  in
  let no_store =
    Arg.(
      value & flag
      & info [ "no-store" ]
          ~doc:
            "Disable the persistent analysis store (overrides --store and \
             the campaign default).")
  in
  Term.(const (fun s n -> (s, n)) $ store $ no_store)

let store_of (dir, no_store) = if no_store then None else dir

let campaign_store_of ~dir (sdir, no_store) =
  if no_store then None
  else Some (Option.value sdir ~default:(Filename.concat dir "store"))

(* a store that fails to open degrades to a cold run, it never blocks
   the analysis *)
let open_store = function
  | None -> None
  | Some dir -> (
    match Store.load ~dir with
    | Ok st -> Some st
    | Error e ->
      Printf.eprintf "difftrace: store disabled: %s\n%!"
        (Store.error_to_string e);
      None)

let flush_store = function
  | None -> ()
  | Some st -> (
    match Store.flush st with
    | Ok () -> ()
    | Error e ->
      Printf.eprintf "difftrace: could not flush store: %s\n%!"
        (Store.error_to_string e))

(* --- profiling ------------------------------------------------------ *)

(* every analysis command takes --profile (print the per-stage table
   after the normal output) and --profile-json FILE (write the
   difftrace-telemetry/1 report, plus the configuration when the
   command has a single one). Both record the whole command, workload
   execution and capture included. *)
let profile_t =
  let profile =
    Arg.(
      value & flag
      & info [ "profile" ]
          ~doc:
            "Record pipeline telemetry (stage timings, allocation, \
             counters) and print the per-stage tables after the normal \
             output.")
  in
  let profile_json =
    Arg.(
      value
      & opt (some string) None
      & info [ "profile-json" ] ~docv:"FILE"
          ~doc:
            "Record pipeline telemetry and write the machine-readable \
             report (schema difftrace-telemetry/1, documented in \
             MANUAL.md) to $(docv).")
  in
  Term.(const (fun p j -> (p, j)) $ profile $ profile_json)

let run_profiled (profile, profile_json) ?config f =
  if not (profile || profile_json <> None) then f ()
  else begin
    Telemetry.enable ();
    let finish () =
      let rep = Telemetry.report () in
      Telemetry.disable ();
      if profile then print_string (Telemetry.render rep);
      Option.iter
        (fun file ->
          let doc =
            match (Telemetry.report_to_json rep, config) with
            | Telemetry.Json.Obj kvs, Some c ->
              Telemetry.Json.Obj (kvs @ [ ("config", Config.to_json c) ])
            | j, _ -> j
          in
          let oc = open_out file in
          output_string oc (Telemetry.Json.to_string_pretty doc);
          close_out oc;
          Printf.eprintf "difftrace: wrote profile to %s\n%!" file)
        profile_json
    in
    Fun.protect ~finally:finish f
  end

(* --- the one request path ------------------------------------------- *)

(* the analysis-config flags as the wire carries them; the engine goes
   to the handler as its default instead *)
let config_params_t =
  let make pc_filter pc_custom pc_attrs pc_k pc_linkage mode =
    { P.pc_filter; pc_custom; pc_attrs; pc_k; pc_linkage; pc_engine = None;
      pc_mode = Config.mode_name mode }
  in
  Term.(const make $ filter_t $ custom_t $ attrs_t $ k_t $ linkage_t $ mode_t)

(* [seed] is a term so that explore, which sweeps seeds itself, can
   pin it *)
let workload_spec_of seed =
  let make ws_workload ws_np ws_seed fault ws_all_images =
    { P.ws_workload; ws_np; ws_seed; ws_fault = Fault.to_string fault;
      ws_all_images }
  in
  Term.(const make $ workload_t $ np_t $ seed $ fault_t $ all_images_t)

let workload_spec_t = workload_spec_of seed_t

let execute ws = or_die Session.error_to_string (Serve.Daemon.run_workload ws)
let normal_of ws = { ws with P.ws_fault = Fault.to_string Fault.No_fault }

(* the fault-free reference run of [ws], then [ws] itself *)
let execute_pair ws =
  let normal = execute (normal_of ws) in
  (normal, execute ws)

(* parsed exactly as the daemon parses a request's config, so a bad
   flag is the same typed error, never an exception; [foreign] gives
   it the default the handler gives file sources *)
let config_or_exit ?(foreign = false) ~engine params =
  let c =
    or_die Session.error_to_string
      (P.config_of_params ~default_engine:engine params)
  in
  if foreign then Config.foreign c else c

let salvage_hint ~salvage = function
  | Session.Archive_failed _ when not salvage ->
    "\nhint: --salvage recovers the checksum-valid prefix of damaged traces"
  | _ -> ""

(* one call through the daemon's handler, on a fresh daemon over the
   optional store; the report goes to stdout *)
let run_call ?store ?hint ~engine call =
  let store = open_store store in
  let d = Serve.Daemon.create ?store ~default_engine:engine () in
  let r = Serve.Daemon.handle d ~client:0 ~emit:ignore call in
  flush_store store;
  match r with
  | Ok p -> print_string (P.payload_output p)
  | Error e -> fail_with ?hint e

(* --- run ----------------------------------------------------------- *)

let run_cmd =
  let doc = "Execute a workload on the simulator and dump its traces." in
  let show_traces =
    Arg.(value & flag & info [ "traces" ] ~doc:"Print every decoded trace.")
  in
  let action ws show_traces =
    let outcome = execute ws in
    Format.printf "%a@." Capture.pp_stats outcome.R.stats;
    if outcome.R.deadlocked <> [] then
      Printf.printf "DEADLOCK: %s\n"
        (String.concat ", "
           (List.map (fun (p, t) -> Printf.sprintf "%d.%d" p t) outcome.R.deadlocked));
    (match outcome.R.collective_mismatch with
    | Some m -> Printf.printf "collective mismatch: %s\n" m
    | None -> ());
    List.iter
      (fun r ->
        Printf.printf "race: process %d cell %s threads %s\n" r.R.race_pid
          r.R.cell_name
          (String.concat "," (List.map string_of_int r.R.tids)))
      outcome.R.races;
    if show_traces then
      Array.iter
        (fun tr ->
          Printf.printf "--- T%s%s\n%s\n" (Trace.label tr)
            (if tr.Trace.truncated then " (truncated)" else "")
            (String.concat "\n"
               (Trace.to_strings (Trace_set.symtab outcome.R.traces) tr)))
        (Trace_set.traces outcome.R.traces)
  in
  Cmd.v (Cmd.info "run" ~doc) Term.(const action $ workload_spec_t $ show_traces)

(* --- compare ------------------------------------------------------- *)

let compare_cmd =
  let doc =
    "Run a workload normally and with a fault (or, with --frontend, ingest \
     two foreign-format trace files); print B-score, suspicious traces and \
     a diffNLR."
  in
  let files_t =
    Arg.(
      value & pos_all string []
      & info [] ~docv:"FILE"
          ~doc:
            "With $(b,--frontend): the normal and the faulty foreign-format \
             file, in that order.")
  in
  let action ws params engine store diffnlr frontend files prof =
    let config = config_or_exit ~foreign:(frontend <> None) ~engine params in
    let rq_normal, rq_faulty =
      match (frontend, files) with
      | Some _, [ a; b ] ->
        let source = source_of ~frontend ~salvage:false in
        (source a, source b)
      | Some _, _ ->
        die ~code:2
          "compare --frontend needs exactly two FILE arguments (normal faulty)"
      | None, _ :: _ ->
        die ~code:2 "positional FILE arguments require --frontend NAME"
      | None, [] ->
        if ws = normal_of ws then
          prerr_endline "warning: comparing a run against itself (--fault none)";
        (P.Src_workload (normal_of ws), P.Src_workload ws)
    in
    run_profiled prof ~config @@ fun () ->
    run_call ?store:(store_of store) ~engine
      (P.Compare
         { rq_normal; rq_faulty; rq_config = params; rq_diffnlr = diffnlr })
  in
  Cmd.v (Cmd.info "compare" ~doc)
    Term.(const action $ workload_spec_t $ config_params_t $ engine_t
          $ store_flags_t
          $ diffnlr_t "Trace to diff (e.g. '5' or '6.4'); default: top suspect."
          $ frontend_t $ files_t $ profile_t)

(* --- table --------------------------------------------------------- *)

let table_cmd =
  let doc = "Sweep filters x attributes and print the ranking table." in
  let filters_t =
    Arg.(
      value
      & opt_all string [ d_config.P.pc_filter ]
      & info [ "F"; "filter-spec" ] ~docv:"SPEC"
          ~doc:"Filter spec; repeatable for a multi-filter grid.")
  in
  let action ws filters custom k linkage engine store prof =
    (* one config per -F spec (never empty: it defaults to one spec) *)
    let configs =
      List.map
        (fun pc_filter ->
          config_or_exit ~engine
            { d_config with
              pc_filter; pc_custom = custom; pc_k = k; pc_linkage = linkage })
        filters
    in
    run_profiled prof @@ fun () ->
    let normal, faulty = execute_pair ws in
    let store = open_store (store_of store) in
    let r =
      Ranking.sweep ?store ~engine
        ~filters:(List.map (fun c -> c.Config.filter) configs)
        ~ks:[ k ] ~linkages:[ (List.hd configs).Config.linkage ]
        ~normal:normal.R.traces ~faulty:faulty.R.traces ()
    in
    flush_store store;
    print_string (Ranking.render (or_die Session.error_to_string r).Ranking.rows)
  in
  Cmd.v (Cmd.info "table" ~doc)
    Term.(const action $ workload_spec_t $ filters_t $ custom_t $ k_t
          $ linkage_t $ engine_t $ store_flags_t $ profile_t)

(* --- record / analyze: the offline archive workflow ----------------- *)

let record_cmd =
  let doc =
    "Execute a workload and archive its compressed traces to a directory \
     (record once, re-analyze offline with any filters)."
  in
  let out_t =
    Arg.(
      required
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"DIR" ~doc:"Archive directory to write.")
  in
  let action ws out =
    run_call ~engine:Engine.Sequential
      (P.Record { rq_workload = ws; rq_name = None; rq_out = Some out })
  in
  Cmd.v (Cmd.info "record" ~doc) Term.(const action $ workload_spec_t $ out_t)

let analyze_cmd =
  let doc =
    "Compare two recorded archives (normal vs. faulty) offline: B-score, \
     suspicious traces and a diffNLR — the paper's re-analysis loop."
  in
  let normal_t =
    Arg.(
      required
      & opt (some string) None
      & info [ "normal" ] ~docv:"DIR" ~doc:"Archive of the working run.")
  in
  let faulty_t =
    Arg.(
      required
      & opt (some string) None
      & info [ "faulty" ] ~docv:"DIR" ~doc:"Archive of the faulty run.")
  in
  let action normal faulty params engine store salvage diffnlr frontend prof =
    let config = config_or_exit ~foreign:(frontend <> None) ~engine params in
    let source = source_of ~frontend ~salvage in
    run_profiled prof ~config @@ fun () ->
    run_call ?store:(store_of store) ~hint:(salvage_hint ~salvage) ~engine
      (P.Analyze
         { rq_normal = source normal;
           rq_faulty = source faulty;
           rq_config = params;
           rq_diffnlr = diffnlr })
  in
  Cmd.v (Cmd.info "analyze" ~doc)
    Term.(const action $ normal_t $ faulty_t $ config_params_t $ engine_t
          $ store_flags_t $ salvage_t
          $ diffnlr_t "Trace to diff; default: top suspect."
          $ frontend_t $ profile_t)

(* --- vdiff: n-way variational diffing -------------------------------- *)

let vdiff_cmd =
  let doc =
    "Merge two or more recorded archives into one variational NLR: every \
     structural region annotated with the minimal condition (over the \
     declared axes) selecting the runs it appears in, ranked suspect \
     regions, and the condition discriminating the runs marked --bad."
  in
  let runs_t =
    Arg.(
      value
      & opt_all string []
      & info [ "r"; "run" ] ~docv:"NAME=DIR"
          ~doc:
            "A run to align: display name and archive directory. Repeat at \
             least twice; run order fixes the r0, r1, ... indices.")
  in
  let axes_t =
    Arg.(
      value
      & opt_all string []
      & info [ "axes" ] ~docv:"NAME:K=V[,K=V...]"
          ~doc:
            "Condition axes of run NAME, e.g. cell7:fault=f2,seed=3. Axes \
             missing on a run read as \"-\".")
  in
  let bad_t =
    Arg.(
      value
      & opt_all string []
      & info [ "bad" ] ~docv:"NAME"
          ~doc:
            "Mark run NAME as bad (its verdict label); repeatable. The \
             report names the minimal condition discriminating the bad \
             set.")
  in
  let trace_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "trace" ] ~docv:"LABEL"
          ~doc:
            "Trace label to align; default: the first label common to every \
             run.")
  in
  let split_once c s =
    match String.index_opt s c with
    | None -> None
    | Some i ->
      Some (String.sub s 0 i, String.sub s (i + 1) (String.length s - i - 1))
  in
  let action runs axes bad trace params engine store salvage frontend prof =
    let named =
      List.map
        (fun spec ->
          match split_once '=' spec with
          | Some (name, dir) when name <> "" && dir <> "" -> (name, dir)
          | _ -> die ~code:2 "--run %S: expected NAME=DIR" spec)
        runs
    in
    if List.length named < 2 then
      die ~code:2 "vdiff needs at least two --run NAME=DIR archives";
    (match
       List.find_opt
         (fun (n, _) -> List.length (List.filter (fun (m, _) -> m = n) named) > 1)
         named
     with
    | Some (n, _) -> die ~code:2 "duplicate run name %S" n
    | None -> ());
    let known n = List.mem_assoc n named in
    let axes_of =
      List.map
        (fun spec ->
          match split_once ':' spec with
          | None -> die ~code:2 "--axes %S: expected NAME:K=V[,K=V...]" spec
          | Some (name, kvs) ->
            if not (known name) then
              die ~code:2 "--axes %S: no --run named %S" spec name;
            let pairs =
              List.map
                (fun kv ->
                  match split_once '=' kv with
                  | Some (k, v) when k <> "" -> (k, v)
                  | _ -> die ~code:2 "--axes %S: malformed %S" spec kv)
                (String.split_on_char ',' kvs)
            in
            (name, pairs))
        axes
    in
    List.iter
      (fun n ->
        if not (known n) then die ~code:2 "--bad %S: no --run with that name" n)
      bad;
    let config = config_or_exit ~foreign:(frontend <> None) ~engine params in
    let rq_runs =
      List.map
        (fun (name, dir) ->
          { P.vs_name = name;
            vs_source = source_of ~frontend ~salvage dir;
            vs_axes =
              List.concat_map snd
                (List.filter (fun (n, _) -> n = name) axes_of);
            vs_bad = List.mem name bad })
        named
    in
    run_profiled prof ~config @@ fun () ->
    run_call ?store:(store_of store) ~hint:(salvage_hint ~salvage) ~engine
      (P.Vdiff { rq_runs; rq_trace = trace; rq_config = params })
  in
  Cmd.v (Cmd.info "vdiff" ~doc)
    Term.(const action $ runs_t $ axes_t $ bad_t $ trace_t $ config_params_t
          $ engine_t $ store_flags_t $ salvage_t $ frontend_t $ profile_t)

(* --- frontend: foreign-format ingestion ------------------------------ *)

let frontend_cmd =
  let doc = "Ingestion frontends: list, ingest, inspect and check them." in
  let file_t =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"FILE" ~doc:"Foreign-format trace file to ingest.")
  in
  let named_frontend_t =
    Arg.(
      required
      & opt (some string) None
      & info [ "F"; "frontend" ] ~docv:"NAME"
          ~doc:"Frontend to ingest through (see $(b,difftrace frontend list)).")
  in
  let list_cmd =
    let doc = "List the registered ingestion frontends." in
    let action () =
      print_string
        (Difftrace_util.Texttable.render ~headers:[ "Name"; "Description" ]
           (List.map
              (fun fe -> [ fe.Frontend.name; fe.Frontend.description ])
              (Frontend_registry.all ())))
    in
    Cmd.v (Cmd.info "list" ~doc) Term.(const action $ const ())
  in
  let ingest_cmd =
    let doc =
      "Ingest a foreign-format file and archive the result (after which \
       any analysis command consumes it like a recorded run)."
    in
    let out_t =
      Arg.(
        value
        & opt (some string) None
        & info [ "o"; "out" ] ~docv:"DIR" ~doc:"Archive directory to write.")
    in
    let action file fename out engine =
      let config = Config.default |> Config.with_engine engine in
      match
        Session.ingest config
          { Session.ig_path = file; ig_frontend = fename; ig_dir = out }
      with
      | Ok r ->
        print_string r.Session.ig_output;
        Printf.printf "digest: %s\n" r.Session.ig_digest
      | Error e -> fail_with e
    in
    Cmd.v (Cmd.info "ingest" ~doc)
      Term.(const action $ file_t $ named_frontend_t $ out_t $ engine_t)
  in
  let dfg_cmd =
    let doc =
      "Ingest a foreign-format file and print its directly-follows graph \
       (one edge per consecutive call pair on a thread)."
    in
    let action file fename engine =
      match
        Session.resolve (Session.create ()) ~engine
          (Session.Ingest { path = file; frontend = fename })
      with
      | Ok (ts, _) -> print_string (Frontend.render_dfg ts)
      | Error e -> fail_with e
    in
    Cmd.v (Cmd.info "dfg" ~doc)
      Term.(const action $ file_t $ named_frontend_t $ engine_t)
  in
  let check_cmd =
    let doc =
      "Run the frontend conformance suite (totality, determinism, runner \
       parity, round-trip fixed point, salvage compatibility) against one \
       input file. Exit 0 when conformant — a typed ingestion error is a \
       conforming outcome — and 1 when any property is violated."
    in
    let scratch_t =
      Arg.(
        value
        & opt (some string) None
        & info [ "scratch" ] ~docv:"DIR"
            ~doc:
              "Scratch directory for the salvage-compatibility property \
               (skipped when absent).")
    in
    let action file fename scratch =
      match Frontend_registry.find fename with
      | None ->
        fail_with
          (Session.Unknown_frontend
             { name = fename; known = Frontend_registry.known () })
      | Some fe -> (
        match Difftrace_util.Framed.read_file file with
        | Error m -> die "cannot read %s: %s" file m
        | Ok input -> (
          match Conformance.check ?scratch fe input with
          | [] ->
            (match fe.Frontend.ingest ~runner:Difftrace_util.Runner.sequential input with
            | Ok ts ->
              Printf.printf "ok: %d traces, %d events, digest %s\n"
                (Trace_set.cardinal ts)
                (Trace_set.total_events ts)
                (Frontend.digest ts)
            | Error e ->
              Printf.printf "ok (typed reject): %s\n"
                (Frontend.error_to_string e))
          | vs ->
            List.iter
              (fun v ->
                Printf.printf "violation %s\n"
                  (Conformance.violation_to_string v))
              vs;
            exit 1))
    in
    Cmd.v (Cmd.info "check" ~doc)
      Term.(const action $ file_t $ named_frontend_t $ scratch_t)
  in
  Cmd.group (Cmd.info "frontend" ~doc)
    [ list_cmd; ingest_cmd; dfg_cmd; check_cmd ]

(* --- archive: integrity tooling ------------------------------------- *)

let archive_cmd =
  let dir_t =
    Arg.(
      required
      & opt (some string) None
      & info [ "d"; "dir" ] ~docv:"DIR" ~doc:"Archive directory.")
  in
  let verify_cmd =
    let doc =
      "Scan an archive's checksummed chunks and event streams; print one \
       integrity row per trace. Exits 1 if any trace is damaged."
    in
    let action dir engine =
      let r =
        or_die Archive.error_to_string
          (Archive.verify ~runner:(Engine.runner engine) ~dir ())
      in
      print_string (Archive.render_report r);
      if not r.Archive.rp_ok then exit 1
    in
    Cmd.v (Cmd.info "verify" ~doc) Term.(const action $ dir_t $ engine_t)
  in
  let repair_cmd =
    let doc =
      "Salvage a damaged archive: recover the longest checksum-valid prefix \
       of every trace and rewrite a clean v2 archive."
    in
    let out_t =
      Arg.(
        required
        & opt (some string) None
        & info [ "o"; "out" ] ~docv:"DIR" ~doc:"Directory for the repaired archive.")
    in
    let action dir out engine =
      let l, files =
        or_die Archive.error_to_string
          (Archive.repair ~runner:(Engine.runner engine) ~src:dir ~dst:out ())
      in
      print_string (Archive.render_salvaged l.Archive.salvaged);
      Printf.printf "wrote %d repaired trace files to %s (%d salvaged)\n" files
        out
        (List.length l.Archive.salvaged)
    in
    Cmd.v (Cmd.info "repair" ~doc) Term.(const action $ dir_t $ out_t $ engine_t)
  in
  let doc = "Archive integrity tooling: verify checksums, repair damage." in
  Cmd.group (Cmd.info "archive" ~doc) [ verify_cmd; repair_cmd ]

(* --- triage (single-run analysis, no reference needed) ------------- *)

let triage_cmd =
  let doc =
    "Analyze a single (possibly faulty) run: JSM outliers, dendrogram, and \
     the least-progressed threads — no reference execution needed."
  in
  let action ws params engine store prof =
    let config = config_or_exit ~engine params in
    run_profiled prof ~config @@ fun () ->
    run_call ?store:(store_of store) ~engine
      (P.Triage
         { rq_subject = P.Src_workload ws;
           rq_config = params;
           rq_limit = P.default_limit })
  in
  Cmd.v (Cmd.info "triage" ~doc)
    Term.(const action $ workload_spec_t $ config_params_t $ engine_t
          $ store_flags_t $ profile_t)

(* --- export (OTF2-style archive) ------------------------------------ *)

let export_cmd =
  let doc =
    "Run a workload and export its logically-timestamped traces as an \
     OTF2-style text archive on stdout."
  in
  let action ws =
    print_string
      (Difftrace_temporal.Otf2.render
         (Difftrace_temporal.Otf2.of_outcome (execute ws)))
  in
  Cmd.v (Cmd.info "export" ~doc) Term.(const action $ workload_spec_t)

(* --- explore: schedule exploration ----------------------------------- *)

let explore_cmd =
  let doc =
    "Run one workload under many scheduler seeds and report how the \
     outcome varies (deadlock frequency, distinct trace shapes) — simple \
     nondeterminism control."
  in
  let seeds_t =
    Arg.(
      value
      & opt (int_in 1) 8
      & info [ "n"; "seeds" ] ~docv:"N" ~doc:"Number of seeds to explore (1..N).")
  in
  let action ws nseeds =
    let module E = Difftrace_simulator.Explore in
    let verdict seed = E.classify ~seed (execute { ws with P.ws_seed = seed }) in
    print_string
      (E.render
         (E.summarize (List.map verdict (List.init nseeds (fun i -> i + 1)))))
  in
  Cmd.v (Cmd.info "explore" ~doc)
    Term.(const action
          $ workload_spec_of (Term.const d_workload.P.ws_seed)
          $ seeds_t)

(* --- report: a complete markdown debugging report ------------------- *)

let report_cmd =
  let doc =
    "Run the full DiffTrace loop for one fault and write a markdown report: \
     configuration search, ranking, diffNLR, phase diff, calling-context \
     deltas and stack tree."
  in
  let out_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "o"; "out" ] ~docv:"FILE" ~doc:"Write to FILE (default stdout).")
  in
  let action ws engine out prof =
    run_profiled prof @@ fun () ->
    let normal, faulty = execute_pair ws in
    let report =
      Report.generate ~engine ~fault_label:ws.P.ws_fault ~normal ~faulty ()
    in
    match out with
    | None -> print_string report.Report.markdown
    | Some file ->
      let oc = open_out file in
      output_string oc report.Report.markdown;
      close_out oc;
      Printf.printf "wrote %s (%d bytes)\n" file
        (String.length report.Report.markdown)
  in
  Cmd.v (Cmd.info "report" ~doc)
    Term.(const action $ workload_spec_t $ engine_t $ out_t $ profile_t)

(* --- autotune: search the configuration grid ------------------------ *)

let autotune_cmd =
  let doc =
    "Search the filter/attribute/K/linkage grid for the configuration that \
     most sharply separates a faulty run from the normal one (the paper's \
     Fig. 1 refinement loop, automated)."
  in
  let ks_t =
    Arg.(
      value
      & opt_all int [ d_config.P.pc_k ]
      & info [ "K" ] ~docv:"K" ~doc:"NLR constants to sweep (repeatable).")
  in
  let action ws ks engine store prof =
    run_profiled prof @@ fun () ->
    let normal, faulty = execute_pair ws in
    let store = open_store (store_of store) in
    let r =
      Ranking.sweep ?store ~engine ~ks ~normal:normal.R.traces
        ~faulty:faulty.R.traces ()
    in
    flush_store store;
    let ranked = Ranking.refine (or_die Session.error_to_string r).Ranking.rows in
    let best = List.hd ranked in
    Printf.printf "evaluated %d configurations\n" (List.length ranked);
    print_string (Ranking.render_refined ranked);
    Printf.printf "best: %s (B-score %.3f, top suspect %s)\n"
      (Config.name best.Ranking.config) best.Ranking.bscore
      (Option.value ~default:"-" best.Ranking.top_suspect)
  in
  Cmd.v (Cmd.info "autotune" ~doc)
    Term.(const action $ workload_spec_t $ ks_t $ engine_t $ store_flags_t
          $ profile_t)

(* --- query: the event-DB drill-down language ------------------------- *)

let query_cmd =
  let doc =
    "Query the indexed event database of a recorded archive: count/list \
     calls, call sites under a loop or function, recognized loops, thread \
     and function inventories, and (with --against) the first raw-event \
     divergence of two runs."
  in
  let query_t =
    Arg.(
      required
      & pos 0 (some string) None
      & info [] ~docv:"QUERY"
          ~doc:
            "One query, e.g. 'count MPI_Send on 3', 'list MPI_Recv on 6.4 in \
             0..200 limit 5', 'sites MPI_Send under L0', 'loops', 'threads', \
             'funcs', 'diverge' (grammar in MANUAL.md).")
  in
  let archive_t =
    Arg.(
      required
      & opt (some string) None
      & info [ "archive" ] ~docv:"DIR" ~doc:"Archive of the run to query.")
  in
  let against_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "against" ] ~docv:"DIR"
          ~doc:
            "Second archive (the faulty run) for two-run queries like \
             'diverge'.")
  in
  let action query archive against salvage engine store prof =
    let config = config_or_exit ~engine d_config in
    run_profiled prof ~config @@ fun () ->
    run_call ?store:(store_of store) ~engine
      (P.Query
         { rq_q = query;
           rq_source = P.Src_archive { dir = archive; salvage };
           rq_against =
             Option.map (fun dir -> P.Src_archive { dir; salvage }) against;
           rq_config = d_config })
  in
  Cmd.v (Cmd.info "query" ~doc)
    Term.(const action $ query_t $ archive_t $ against_t $ salvage_t
          $ engine_t $ store_flags_t $ profile_t)

(* --- campaign: crash-isolated fault x seed sweeps -------------------- *)

let campaign_cmd =
  let module C = Campaign in
  let dir_t =
    Arg.(
      required
      & opt (some string) None
      & info [ "d"; "dir" ] ~docv:"DIR"
          ~doc:
            "Campaign state directory: the CRC-checked manifest plus one \
             trace archive per executed cell. Re-running over the same \
             directory resumes the campaign.")
  in
  let kind_t =
    Arg.(
      value
      & opt string "oddeven"
      & info [ "w"; "workload" ] ~docv:"KIND"
          ~doc:
            "Cell kind: oddeven, ilcs, lulesh, heat, heat2d, selftest \
             (odd/even plus injected crash/timeout faults for exercising \
             crash isolation), or corpus:FRONTEND:DIR (each cell ingests \
             a file of DIR through an ingestion frontend; the reference \
             run ingests the first file, seed s selects file s mod n).")
  in
  let faults_t =
    Arg.(
      value
      & opt_all fault_conv []
      & info [ "f"; "fault" ] ~docv:"FAULT"
          ~doc:"Fault to sweep; repeatable — the matrix is faults x seeds.")
  in
  let nseeds_t =
    Arg.(
      value
      & opt (int_in 1) 3
      & info [ "seeds" ] ~docv:"N" ~doc:"Scheduler seeds 1..N per fault.")
  in
  let max_steps_t =
    Arg.(
      value
      & opt (some int) None
      & info [ "max-steps" ] ~docv:"N"
          ~doc:
            "Per-cell step budget: a cell still running after N scheduler \
             steps is recorded as hung (with its truncated traces) instead \
             of blocking the campaign.")
  in
  let print_outcome o = print_string (C.render o) in
  let run_cmd =
    let doc =
      "Execute the fault x seed matrix, one archived cell at a time; crashes \
       and hangs become per-cell verdicts, never campaign aborts. Re-running \
       resumes from the manifest."
    in
    let action dir kind np faults nseeds max_steps params engine store prof =
      if faults = [] then
        die ~code:2 "campaign run needs at least one --fault (repeatable)";
      (* the runner's refusal, as run/table/report give it *)
      Result.iter_error fail_with (Session.check_np ~workload:kind np);
      let config = C.config_for ~kind (config_or_exit ~engine params) in
      run_profiled prof ~config @@ fun () ->
      (* campaigns persist analysis by default, beside their archives;
         a resumed campaign re-adopts the store like everything else *)
      let store = open_store (campaign_store_of ~dir store) in
      match
        C.matrix ?max_steps ~kind ~np ~faults
          ~seeds:(List.init nseeds (fun i -> i + 1))
          ()
      with
      | Error e -> die ~code:2 "%s" (C.error_to_string e)
      | Ok m ->
        let on_cell (r : C.cell_result) =
          Printf.printf "cell %d [%s]: %s%s\n%!" r.C.cell.C.index
            (C.cell_label r.C.cell)
            (C.verdict_to_string r.C.verdict)
            (match r.C.bscore with
            | Some b -> Printf.sprintf " (B-score %.3f)" b
            | None -> "")
        in
        let o = or_die C.error_to_string (C.run ~config ~on_cell ?store ~dir m) in
        flush_store store;
        Printf.printf "campaign: %d cells executed, %d resumed\n" o.C.executed
          o.C.resumed_cells;
        print_outcome o
    in
    Cmd.v (Cmd.info "run" ~doc)
      Term.(const action $ dir_t $ kind_t $ np_t $ faults_t $ nseeds_t
            $ max_steps_t $ config_params_t $ engine_t $ store_flags_t
            $ profile_t)
  in
  let status_cmd =
    let doc =
      "Print the recorded state of a campaign directory without executing \
       anything."
    in
    let action dir = print_outcome (or_die C.error_to_string (C.status ~dir)) in
    Cmd.v (Cmd.info "status" ~doc) Term.(const action $ dir_t)
  in
  let report_cmd =
    let doc =
      "Render the ranked cross-fault triage report from a campaign \
       directory; --diffnlr drills into the best-ranked cell's top suspect, \
       --variational merges every archived run into one conditioned \
       variational NLR."
    in
    let diffnlr_t =
      Arg.(
        value & flag
        & info [ "diffnlr" ]
            ~doc:
              "Also re-load the best-ranked cell's archives and print the \
               diffNLR of its top suspect against the reference run.")
    in
    let variational_t =
      Arg.(
        value & flag
        & info [ "variational" ]
            ~doc:
              "Also merge every archived run (references + recorded cells) \
               into one variational NLR conditioned on the fault and seed \
               axes, and name the minimal condition discriminating the bad \
               cells.")
    in
    let action dir diffnlr variational params engine store prof =
      let o = or_die C.error_to_string (C.status ~dir) in
      let config =
        C.config_for ~kind:o.C.matrix.C.kind (config_or_exit ~engine params)
      in
      run_profiled prof ~config @@ fun () ->
      print_outcome o;
      if diffnlr || variational then begin
        let store = open_store (campaign_store_of ~dir store) in
        if diffnlr then
          print_string (or_die Fun.id (C.top_cell_diffnlr ~config ?store ~dir o));
        if variational then
          print_string (or_die Fun.id (C.variational ~config ?store ~dir o));
        flush_store store
      end
    in
    Cmd.v (Cmd.info "report" ~doc)
      Term.(const action $ dir_t $ diffnlr_t $ variational_t $ config_params_t
            $ engine_t $ store_flags_t $ profile_t)
  in
  let doc =
    "Fault campaigns: run a declarative fault x scheduler-seed matrix with \
     per-cell crash isolation, checkpointed resume, and a ranked cross-fault \
     triage report."
  in
  Cmd.group (Cmd.info "campaign" ~doc) [ run_cmd; status_cmd; report_cmd ]

(* --- store: persistent analysis store tooling ------------------------ *)

let store_cmd =
  let dir_t =
    Arg.(
      required
      & opt (some string) None
      & info [ "d"; "dir" ] ~docv:"DIR" ~doc:"Analysis store directory.")
  in
  let or_exit r = or_die Store.error_to_string r in
  let stats_cmd =
    let doc =
      "Print what the store holds: NLR summaries, trace sources and vdiff \
       alignments (each of the last two when there are any), shared-table \
       sizes and the file size on disk."
    in
    let action dir =
      let st = or_exit (Store.load ~dir) in
      print_string (Store.render_stats (Store.stats st))
    in
    Cmd.v (Cmd.info "stats" ~doc) Term.(const action $ dir_t)
  in
  let gc_cmd =
    let doc =
      "Evict the oldest cached entries beyond the retention caps (trace \
       sources go with the summaries they name) and rewrite the store file; \
       remove ingest-cache directories left half-written by a process that \
       no longer runs."
    in
    (* one --keep-<kind> flag per record kind; [flush] re-applies the
       default caps, so a cap is taken only in 0..default *)
    let keep_flag (name, default, doc) =
      Arg.(
        value
        & opt (int_in ~hi:default 0) default
        & info [ "keep-" ^ name ] ~docv:"N"
            ~doc:("Keep at most $(docv) newest " ^ doc ^ "."))
      |> Term.map (fun n -> (name, n))
    in
    let keep_t =
      List.fold_right
        (fun k rest -> Term.(const List.cons $ keep_flag k $ rest))
        Store.kinds (Term.const [])
    in
    let action dir keep =
      let st = or_exit (Store.load ~dir) in
      let dropped = Store.gc ~keep st in
      or_exit (Store.flush st);
      print_string (Store.render_evicted dropped);
      (match Session.remove_orphan_ingests st with
      | 0 -> ()
      | n -> Printf.printf "removed %d orphaned ingest directories\n" n);
      match Session.remove_orphan_temps st with
      | 0 -> ()
      | n -> Printf.printf "removed %d orphaned temporary files\n" n
    in
    Cmd.v (Cmd.info "gc" ~doc) Term.(const action $ dir_t $ keep_t)
  in
  let verify_cmd =
    let doc =
      "Scan the store file's checksummed records without adopting anything; \
       exits 1 when damage is found (the damaged suffix is discarded on the \
       next load)."
    in
    let action dir =
      let c = or_exit (Store.verify ~dir) in
      print_string (Store.render_check c);
      if c.Store.c_damage <> None then exit 1
    in
    Cmd.v (Cmd.info "verify" ~doc) Term.(const action $ dir_t)
  in
  let doc =
    "Persistent analysis store tooling: stats, gc, integrity verification."
  in
  Cmd.group (Cmd.info "store" ~doc) [ stats_cmd; gc_cmd; verify_cmd ]

(* --- filters ------------------------------------------------------- *)

let filters_cmd =
  let doc = "Print the predefined filter catalog (paper Table I)." in
  let action () =
    Difftrace_util.Texttable.print
      ~headers:[ "Category"; "Sub-Category"; "Description" ]
      (List.map (fun (a, b, c) -> [ a; b; c ]) F.predefined)
  in
  Cmd.v (Cmd.info "filters" ~doc) Term.(const action $ const ())

(* --- serve / client: the resident daemon ----------------------------- *)

let serve_cmd =
  let doc =
    "Run the resident analysis daemon: one warm session (store, memo, \
     completed JSMs) multiplexed over many clients, speaking the \
     line-delimited difftrace-rpc/1 protocol (see the MANUAL) over a Unix \
     socket or stdio."
  in
  let socket_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH"
          ~doc:"Listen on the Unix-domain socket $(docv) (created; a stale \
                socket file is replaced).")
  in
  let stdio_t =
    Arg.(
      value & flag
      & info [ "stdio" ]
          ~doc:
            "Serve one session over stdin/stdout: one request line in, one \
             response line out. The transport of the protocol transcript \
             tests.")
  in
  let state_t =
    Arg.(
      value
      & opt (some string) None
      & info [ "state" ] ~docv:"DIR"
          ~doc:
            "State directory: 'record' requests that name no output \
             directory archive their run under $(docv)/runs/<name>.")
  in
  let action socket stdio store state engine prof =
    let store = open_store (store_of store) in
    run_profiled prof @@ fun () ->
    let d =
      Serve.Daemon.create ?store ?state_dir:state ~default_engine:engine ()
    in
    match (stdio, socket) with
    | true, _ -> Serve.Daemon.serve_stdio d
    | false, Some path ->
      Printf.eprintf "difftrace serve: listening on %s (difftrace-rpc/1)\n%!"
        path;
      Serve.Daemon.serve_socket d ~path
    | false, None -> die ~code:2 "serve needs --socket PATH or --stdio"
  in
  Cmd.v (Cmd.info "serve" ~doc)
    Term.(const action $ socket_t $ stdio_t $ store_flags_t $ state_t
          $ engine_t $ profile_t)

let client_cmd =
  let doc =
    "Send difftrace-rpc/1 request lines to a running daemon and print its \
     replies."
  in
  let socket_t =
    Arg.(
      required
      & opt (some string) None
      & info [ "socket" ] ~docv:"PATH" ~doc:"Daemon socket path.")
  in
  let exec_t =
    Arg.(
      value
      & opt_all string []
      & info [ "e"; "execute" ] ~docv:"JSON"
          ~doc:
            "Request line to send (repeatable, sent in order). Without \
             $(opt), request lines are read from stdin.")
  in
  let decode_t =
    Arg.(
      value & flag
      & info [ "decode" ]
          ~doc:
            "Print each ok response's output field verbatim (events as \
             'event: NAME' lines) instead of the raw JSON reply; error \
             responses go to stderr and make the client exit 1.")
  in
  let action socket lines decode =
    let conn = or_die Fun.id (Serve.Client.connect ~path:socket ()) in
    let failed = ref false in
    let on_event ev =
      if decode then Printf.printf "event: %s\n" ev.Serve.Protocol.ev_name
      else print_endline (Serve.Protocol.encode_event ev)
    in
    let send line =
      match Serve.Client.rpc conn line ~on_event with
      | Error m ->
        Printf.eprintf "difftrace: %s\n" m;
        failed := true
      | Ok r ->
        if decode then (
          match r.Serve.Protocol.rsp_body with
          | Ok p -> print_string (Serve.Protocol.payload_output p)
          | Error e ->
            Printf.eprintf "difftrace: error (%s): %s\n"
              e.Serve.Protocol.err_kind e.Serve.Protocol.err_message;
            failed := true)
        else print_endline (Serve.Protocol.encode_response r)
    in
    (match lines with
    | [] -> (
      try
        while true do
          send (input_line stdin)
        done
      with End_of_file -> ())
    | ls -> List.iter send ls);
    Serve.Client.close conn;
    if !failed then exit 1
  in
  Cmd.v (Cmd.info "client" ~doc)
    Term.(const action $ socket_t $ exec_t $ decode_t)

let () =
  let doc = "whole-program trace analysis and diffing for HPC debugging" in
  let info = Cmd.info "difftrace" ~version:"1.0.0" ~doc in
  (* an [internal] answer logs where the bug raised *)
  Printexc.record_backtrace true;
  exit
    (Cmd.eval
       (Cmd.group info
          [ run_cmd; compare_cmd; table_cmd; record_cmd; analyze_cmd;
            vdiff_cmd; frontend_cmd; archive_cmd; campaign_cmd; store_cmd;
            triage_cmd;
            autotune_cmd; query_cmd; report_cmd; explore_cmd; export_cmd;
            filters_cmd; serve_cmd; client_cmd ]))
