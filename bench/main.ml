(* Paper reproduction + micro-benchmarks.

   Default mode regenerates every table and figure of the paper's
   evaluation (§II walk-through, §IV ILCS Tables VI-VIII / Fig. 7,
   §V LULESH statistics and Table IX) and the DESIGN.md ablations,
   printing paper-style output.

   `--perf` instead runs the Bechamel micro-benchmarks: the codec,
   archive load, NLR, memo key, LULESH summarization,
   lattice-construction (Godin vs. NextClosure), JSM, Myers and linkage
   kernels, in ns/run. The default output is pinned in paper.expected
   and checked by `dune runtest`. End-to-end timings and their gate
   live in bench/e2e. *)

open Difftrace
module R = Difftrace_simulator.Runtime
module Fault = Difftrace_simulator.Fault
module Tracer = Difftrace_parlot.Tracer
module Capture = Difftrace_parlot.Capture
module Lzw = Difftrace_parlot.Lzw
module Trace = Difftrace_trace.Trace
module Trace_set = Difftrace_trace.Trace_set
module F = Difftrace_filter.Filter
module Nlr = Difftrace_nlr.Nlr
module A = Difftrace_fca.Attributes
module Context = Difftrace_fca.Context
module Lattice = Difftrace_fca.Lattice
module Jsm = Difftrace_cluster.Jsm
module Linkage = Difftrace_cluster.Linkage
module Bscore = Difftrace_cluster.Bscore
module Myers = Difftrace_diff.Myers
module Diffnlr = Difftrace_diff.Diffnlr
module Odd_even = Difftrace_workloads.Odd_even
module Ilcs = Difftrace_workloads.Ilcs
module Lulesh = Difftrace_workloads.Lulesh
module Tsp = Difftrace_workloads.Tsp

(* the bench grids are hard-coded and non-empty, so a sweep error is a bug *)
let rows_exn = function
  | Ok s -> s.Ranking.rows
  | Error e -> failwith (Session.error_to_string e)

let usage oc =
  output_string oc
    "usage: bench [--perf]\n\n\
    \  (no mode)    regenerate every paper table and figure\n\
    \  --perf       Bechamel micro-benchmarks only\n"

let perf_mode =
  let rec parse perf = function
    | [] -> perf
    | "--help" :: _ ->
      usage stdout;
      exit 0
    | "--perf" :: rest -> parse true rest
    | arg :: _ ->
      Printf.eprintf "bench: unrecognized argument %S\n" arg;
      usage stderr;
      exit 2
  in
  parse false (List.tl (Array.to_list Sys.argv))

let section id title =
  Printf.printf "\n==== %s %s %s\n" id title
    (String.make (max 1 (66 - String.length id - String.length title)) '=')

let spec g f = { A.granularity = g; freq_mode = f }

(* the benches always diff labels they just ranked; fail loudly otherwise *)
let diffnlr_exn c label =
  match Pipeline.find_diffnlr c label with
  | Ok d -> d
  | Error e -> failwith (Pipeline.lookup_error_to_string e)

(* ------------------------------------------------------------------ *)
(* §II: odd/even walk-through — Tables I-IV, Figs. 3-6                 *)
(* ------------------------------------------------------------------ *)

let mixed_sample_trace () =
  (* a small mixed-API run whose trace exercises every filter row *)
  let outcome =
    R.run ~np:2 ~level:Tracer.All_images (fun env ->
        Difftrace_simulator.Api.call env "main" (fun () ->
            Difftrace_simulator.Api.mpi_init env;
            Difftrace_simulator.Api.libc env "strlen";
            Difftrace_simulator.Api.libc env "memcpy";
            Difftrace_simulator.Api.parallel env ~num_threads:2 (fun tenv ->
                Difftrace_simulator.Api.critical tenv (fun () -> ()));
            (if R.pid env = 0 then
               Difftrace_simulator.Api.send env ~dst:1 [| 1 |]
             else ignore (Difftrace_simulator.Api.recv env ~src:0 ()));
            ignore (Difftrace_simulator.Api.allreduce env ~op:R.Op_sum [| 1 |]);
            Difftrace_simulator.Api.mpi_finalize env))
  in
  outcome.R.traces

let table_i () =
  section "T1" "Table I: predefined filters (+ match counts on a mixed trace)";
  let ts = mixed_sample_trace () in
  let tr = Trace_set.find_exn ts ~pid:0 ~tid:0 in
  let count filter =
    Array.length (F.apply filter (Trace_set.symtab ts) tr.Trace.events)
  in
  let total = Trace.length tr in
  let rows =
    List.map
      (fun (cat, sub, desc) ->
        let kept =
          match sub with
          | "Returns" -> count (F.make ~drop_returns:true ~drop_plt:false [])
          | "PLT" -> count (F.make ~drop_returns:false ~drop_plt:true [])
          | "MPI All" -> count (F.make ~drop_returns:false ~drop_plt:false [ F.Mpi_all ])
          | "MPI Collectives" ->
            count (F.make ~drop_returns:false ~drop_plt:false [ F.Mpi_collectives ])
          | "MPI Send/Recv" ->
            count (F.make ~drop_returns:false ~drop_plt:false [ F.Mpi_send_recv ])
          | "MPI Internal Library" ->
            count (F.make ~drop_returns:false ~drop_plt:false [ F.Mpi_internal ])
          | "OMP All" -> count (F.make ~drop_returns:false ~drop_plt:false [ F.Omp_all ])
          | "OMP Critical" ->
            count (F.make ~drop_returns:false ~drop_plt:false [ F.Omp_critical ])
          | "OMP Mutex" ->
            count (F.make ~drop_returns:false ~drop_plt:false [ F.Omp_mutex ])
          | "Memory" -> count (F.make ~drop_returns:false ~drop_plt:false [ F.Sys_memory ])
          | "Network" ->
            count (F.make ~drop_returns:false ~drop_plt:false [ F.Sys_network ])
          | "Poll" -> count (F.make ~drop_returns:false ~drop_plt:false [ F.Sys_poll ])
          | "String" -> count (F.make ~drop_returns:false ~drop_plt:false [ F.Sys_string ])
          | "Custom" ->
            count (F.make ~drop_returns:false ~drop_plt:false [ F.Custom "^main$" ])
          | "Everything" ->
            count (F.make ~drop_returns:false ~drop_plt:false [ F.Everything ])
          | _ -> -1
        in
        [ cat; sub; desc; Printf.sprintf "%d/%d" kept total ])
      F.predefined
  in
  Difftrace_util.Texttable.print
    ~headers:[ "Category"; "Sub-Category"; "Description"; "Kept (p0 trace)" ]
    rows

let odd_even_walkthrough () =
  let outcome, _ = Odd_even.run ~np:4 ~fault:Fault.No_fault () in
  let ts = outcome.R.traces in

  section "T2" "Table II: generated traces of odd/even sort, 4 processes";
  let show =
    F.make ~drop_returns:true [ F.Mpi_all; F.Custom "main|oddEvenSort|findPtr" ]
  in
  let shown = F.apply_set show ts in
  Array.iter
    (fun tr ->
      Printf.printf "T%s: %s\n"
        (Trace.label ~short:true tr)
        (String.concat " ; " (Trace.to_strings (Trace_set.symtab shown) tr)))
    (Trace_set.traces shown);

  section "T3" "Table III: NLR of the MPI-filtered traces (K=10)";
  let a = Pipeline.analyze (Config.make ()) ts in
  Array.iteri
    (fun i (nlr, _) ->
      Printf.printf "T%s: %s\n" a.Pipeline.labels.(i)
        (String.concat " ; " (Nlr.to_strings a.Pipeline.symtab nlr)))
    a.Pipeline.nlrs;
  for id = 0 to Nlr.Loop_table.size a.Pipeline.loop_table - 1 do
    Printf.printf "  %s = %s\n" (Nlr.Loop_table.label id)
      (Nlr.body_to_string ~table:a.Pipeline.loop_table a.Pipeline.symtab id)
  done;

  section "T4" "Table IV: formal context";
  print_string (Context.to_table a.Pipeline.context);

  section "F3" "Fig. 3: concept lattice (Godin incremental construction)";
  print_string (Lattice.to_string a.Pipeline.context (Lazy.force a.Pipeline.lattice));

  section "F4" "Fig. 4: pairwise Jaccard similarity matrix";
  print_string (Jsm.heatmap a.Pipeline.jsm)

let sec_iig () =
  let np = 16 in
  let normal = (fst (Odd_even.run ~np ~fault:Fault.No_fault ())).R.traces in
  let run_fault name fig fault attrs =
    section fig name;
    let faulty = (fst (Odd_even.run ~np ~fault ())).R.traces in
    let c = Pipeline.compare_runs (Config.make ~attrs ()) ~normal ~faulty in
    Printf.printf "B-score %.3f; top suspects: %s\n" c.Pipeline.bscore
      (String.concat ", "
         (Array.to_list c.Pipeline.suspects
         |> List.filteri (fun i _ -> i < 5)
         |> List.map (fun (l, s) -> Printf.sprintf "%s(%.2f)" l s)));
    let suspect = fst c.Pipeline.suspects.(0) in
    print_string
      (Diffnlr.render ~title:(Printf.sprintf "diffNLR(%s)" suspect)
         (diffnlr_exn c suspect))
  in
  run_fault "Fig. 5 + §II-G: swapBug (rank 5 after iteration 7), 16 ranks" "F5"
    (Fault.Swap_send_recv { rank = 5; after_iter = 7 })
    (spec A.Single A.No_freq);
  run_fault "Fig. 6 + §II-G: dlBug (actual deadlock in rank 5), 16 ranks" "F6"
    (Fault.Deadlock_recv { rank = 5; after_iter = 7 })
    (spec A.Single A.Log10)

(* ------------------------------------------------------------------ *)
(* §IV: ILCS — Tables VI-VIII, Fig. 7                                  *)
(* ------------------------------------------------------------------ *)

let ilcs_args = (8, 4)
let nc_rank, nc_thread = (6, 4)
let nc_label = Printf.sprintf "%d.%d" nc_rank nc_thread
let mid_rank_label = "4.0"

let ilcs_case_study () =
  let np, workers = ilcs_args in
  let normal = (fst (Ilcs.run ~np ~workers ~fault:Fault.No_fault ())).R.traces in

  let mem_filters =
    [ F.make [ F.Sys_memory; F.Omp_critical; F.Custom "CPU_Exec" ];
      F.make ~drop_plt:false [ F.Sys_memory; F.Custom "CPU_Exec" ] ]
  in
  let mpi_filters =
    [ F.make [ F.Mpi_collectives; F.Custom "CPU_Exec|CPU_Init|memcpy" ];
      F.make [ F.Mpi_all; F.Custom "CPU_Exec|CPU_Init|memcpy" ] ]
  in

  section "T6"
    (Printf.sprintf "Table VI: ranking — OpenMP bug (no critical in thread %s)"
       nc_label);
  let faulty_nc =
    (fst
       (Ilcs.run ~np ~workers
          ~fault:(Fault.No_critical { rank = nc_rank; thread = nc_thread })
          ()))
      .R.traces
  in
  print_string
    (Ranking.render ~max_rows:10
       (rows_exn (Ranking.sweep ~filters:mem_filters ~normal ~faulty:faulty_nc ())));

  section "F7a"
    (Printf.sprintf "Fig. 7a: diffNLR(%s) — the unprotected memcpy" nc_label);
  let c =
    Pipeline.compare_runs
      (Config.make ~filter:(List.hd mem_filters) ~attrs:(spec A.Double A.No_freq) ())
      ~normal ~faulty:faulty_nc
  in
  print_string
    (Diffnlr.render
       ~title:(Printf.sprintf "diffNLR(%s)" nc_label)
       (diffnlr_exn c nc_label));

  section "T7" "Table VII: ranking — MPI deadlock (wrong Allreduce size, rank 2)";
  let faulty_ws =
    (fst (Ilcs.run ~np ~workers ~fault:(Fault.Wrong_collective_size { rank = 2 }) ()))
      .R.traces
  in
  print_string
    (Ranking.render ~max_rows:10
       (rows_exn (Ranking.sweep ~filters:mpi_filters ~normal ~faulty:faulty_ws ())));

  section "F7b"
    (Printf.sprintf
       "Fig. 7b: diffNLR(%s) — identical until the hanging MPI_Allreduce"
       mid_rank_label);
  let c =
    Pipeline.compare_runs
      (Config.make ~filter:(List.nth mpi_filters 1) ())
      ~normal ~faulty:faulty_ws
  in
  print_string
    (Diffnlr.render
       ~title:(Printf.sprintf "diffNLR(%s)" mid_rank_label)
       (diffnlr_exn c mid_rank_label));

  section "T8" "Table VIII: ranking — wrong collective op (MAX for MIN, rank 0)";
  let faulty_wo =
    (fst (Ilcs.run ~np ~workers ~fault:(Fault.Wrong_collective_op { rank = 0 }) ()))
      .R.traces
  in
  print_string
    (Ranking.render ~max_rows:10
       (rows_exn (Ranking.sweep ~filters:mpi_filters ~normal ~faulty:faulty_wo ())));

  section "F7c" "Fig. 7c: diffNLR(5) — extra reduction/broadcast rounds";
  let c =
    Pipeline.compare_runs
      (Config.make ~filter:(List.nth mpi_filters 1) ~attrs:(spec A.Single A.Actual) ())
      ~normal ~faulty:faulty_wo
  in
  print_string
    (Diffnlr.render
       ~title:"diffNLR(5.0)" (diffnlr_exn c "5.0"))

(* ------------------------------------------------------------------ *)
(* §V: LULESH — statistics, K sweep, Table IX                          *)
(* ------------------------------------------------------------------ *)

let lulesh_args = (6, 2)

let lulesh_study () =
  let edge, cycles = lulesh_args in
  section "V-stats" "LULESH2 trace statistics (paper: 410 fns, 2.8 KB, 421503 calls)";
  let normal = Lulesh.run ~edge ~cycles ~fault:Fault.No_fault () in
  Format.printf "%a@." Capture.pp_stats normal.R.stats;

  section "V-K" "NLR reduction factor vs. K (paper: x1.92 @K=10, x16.74 @K=50)";
  let tr = Trace_set.find_exn normal.R.traces ~pid:0 ~tid:0 in
  let ids = Trace.call_ids tr in
  List.iter
    (fun k ->
      let table = Nlr.Loop_table.create () in
      let nlr = Nlr.of_ids ~table ~k ids in
      Printf.printf "K=%-3d %6d calls -> %5d elements (factor %.2f)\n" k
        (Array.length ids) (Nlr.length nlr) (Nlr.reduction_factor nlr))
    [ 2; 10; 50 ];

  section "T9" "Table IX: ranking — rank 2 skips LagrangeLeapFrog";
  let faulty =
    Lulesh.run ~edge ~cycles
      ~fault:(Fault.Skip_function { rank = 2; func = "LagrangeLeapFrog" })
      ()
  in
  Printf.printf "deadlocked: %d threads (the fault stalls every process)\n"
    (List.length faulty.R.deadlocked);
  print_string
    (Ranking.render
       (rows_exn
          (Ranking.sweep ~filters:[ F.make [ F.Everything ] ]
             ~normal:normal.R.traces ~faulty:faulty.R.traces ())))

(* ------------------------------------------------------------------ *)
(* Heat diffusion: a silent protocol bug end to end                    *)
(* ------------------------------------------------------------------ *)

let heat_study () =
  section "H1" "Heat stencil: silent halo-protocol flip (rank 3) + autotune";
  let module Heat = Difftrace_workloads.Heat in
  let normal, nres = Heat.run ~fault:Fault.No_fault () in
  let faulty, fres =
    Heat.run ~fault:(Fault.Swap_send_recv { rank = 3; after_iter = 2 }) ()
  in
  Printf.printf
    "both runs complete (normal: %d iters, residual %d; faulty: %d iters, \
     residual %d) — the bug is silent\n"
    nres.Heat.iterations nres.Heat.final_residual fres.Heat.iterations
    fres.Heat.final_residual;
  let ranked =
    Ranking.refine
      (rows_exn (Ranking.sweep ~normal:normal.R.traces ~faulty:faulty.R.traces ()))
  in
  let best = (List.hd ranked).Ranking.config in
  Printf.printf "autotune over %d configurations -> %s\n" (List.length ranked)
    (Config.name best);
  let c =
    Pipeline.compare_runs best ~normal:normal.R.traces ~faulty:faulty.R.traces
  in
  let suspect = fst c.Pipeline.suspects.(0) in
  Printf.printf "top suspect: %s\n" suspect;
  let d = diffnlr_exn c suspect in
  let lines = String.split_on_char '\n' (Diffnlr.render ~title:("diffNLR(" ^ suspect ^ ")") d) in
  List.iteri (fun i l -> if i < 18 then print_endline l) lines;
  (* CCT view: which calling contexts changed *)
  let module Cct = Difftrace_stacktree.Cct in
  let deltas =
    Cct.diff
      ~normal:(Cct.coalesce normal.R.traces)
      ~faulty:(Cct.coalesce faulty.R.traces)
  in
  print_endline "top calling-context deltas (CSTG view):";
  print_string
    (Cct.render_diff (List.filteri (fun i _ -> i < 6) deltas))

(* ------------------------------------------------------------------ *)
(* Ablations (DESIGN.md)                                               *)
(* ------------------------------------------------------------------ *)

let ablations () =
  section "A1" "Ablation: linkage functions on the swapBug comparison";
  let normal = (fst (Odd_even.run ~np:16 ~fault:Fault.No_fault ())).R.traces in
  let faulty =
    (fst (Odd_even.run ~np:16 ~fault:(Fault.Swap_send_recv { rank = 5; after_iter = 7 }) ()))
      .R.traces
  in
  let rows =
    List.map
      (fun meth ->
        let c =
          Pipeline.compare_runs (Config.make ~linkage:meth ()) ~normal ~faulty
        in
        [ Linkage.method_name meth;
          Printf.sprintf "%.3f" c.Pipeline.bscore;
          fst c.Pipeline.suspects.(0) ])
      Linkage.all_methods
  in
  Difftrace_util.Texttable.print ~headers:[ "Linkage"; "B-score"; "Top suspect" ] rows;

  section "A1b" "Fowlkes–Mallows B_k series for swapBug (ref [17]'s plot)";
  let cswap = Pipeline.compare_runs (Config.make ()) ~normal ~faulty in
  let jn, jf = Jsm.align cswap.Pipeline.normal.Pipeline.jsm
                 cswap.Pipeline.faulty.Pipeline.jsm in
  let dn = Linkage.of_similarity Linkage.Ward jn in
  let df = Linkage.of_similarity Linkage.Ward jf in
  List.iter
    (fun (k, bk) -> Printf.printf "  k=%-3d B_k=%.3f\n" k bk)
    (Bscore.series dn df);

  section "A2" "Ablation: attribute modes — lattice size on the ILCS normal run";
  let np, workers = ilcs_args in
  let ts = (fst (Ilcs.run ~np ~workers ~fault:Fault.No_fault ())).R.traces in
  let rich = F.make [ F.Mpi_all; F.Omp_all; F.Custom "CPU_Exec|CPU_Init|memcpy" ] in
  let rows =
    List.map
      (fun sp ->
        let a = Pipeline.analyze (Config.make ~filter:rich ~attrs:sp ()) ts in
        let lat = Lazy.force a.Pipeline.lattice in
        [ A.name sp;
          string_of_int (Context.n_attrs a.Pipeline.context);
          string_of_int (Lattice.size lat) ])
      A.all
  in
  Difftrace_util.Texttable.print ~headers:[ "Attributes"; "#attrs"; "#concepts" ] rows;

  section "A3" "Ablation: compression — incremental LZW vs. raw varint stream";
  let edge, cycles = lulesh_args in
  let outcome = Lulesh.run ~edge ~cycles ~fault:Fault.No_fault () in
  Printf.printf "LULESH whole-run compression ratio: %.2fx (%d events, %d bytes)\n"
    outcome.R.stats.Capture.compression_ratio outcome.R.stats.Capture.total_events
    outcome.R.stats.Capture.total_compressed_bytes;
  (* ratio grows with trace length: the ParLOT claim in §I *)
  List.iter
    (fun reps ->
      let s = String.concat "" (List.init reps (fun _ -> "MPI_Send;MPI_Recv;")) in
      Printf.printf "  synthetic loop x%-6d raw %7d B -> lzw %5d B (%.0fx)\n" reps
        (String.length s)
        (String.length (Lzw.compress s))
        (float_of_int (String.length s) /. float_of_int (String.length (Lzw.compress s))))
    [ 100; 1000; 10000 ]

(* ------------------------------------------------------------------ *)
(* NLR loop-creation threshold (Procedure 1 shows 3; we default to 2)  *)
(* ------------------------------------------------------------------ *)

let nlr_repeats_ablation () =
  section "A6" "Ablation: NLR loop-creation threshold (repeats 2 vs 3)";
  let outcome, _ = Odd_even.run ~np:4 ~fault:Fault.No_fault () in
  List.iter
    (fun repeats ->
      let a =
        Pipeline.analyze (Config.make ~repeats ()) outcome.R.traces
      in
      Printf.printf "repeats=%d: T0 = %s\n" repeats
        (String.concat ";"
           (Nlr.to_strings a.Pipeline.symtab (fst a.Pipeline.nlrs.(0)))))
    [ 2; 3 ];
  print_endline
    "(Procedure 1's literal threshold of 3 misses Table III's two-iteration\n\
    \ loops L0^2/L1^2 of the boundary ranks; the Ketterlin-Clauss default\n\
    \ of 2 reproduces the paper's table, which is why it is the default)"

(* ------------------------------------------------------------------ *)
(* Multi-seed ranking stability (systematic injection, §VII (3))       *)
(* ------------------------------------------------------------------ *)

let stability () =
  section "A5" "Ranking stability: swapBug top-1 hit rate across 6 seeds";
  let seeds = [ 1; 2; 3; 4; 5; 6 ] in
  let rows =
    List.map
      (fun attrs ->
        let hits =
          List.fold_left
            (fun acc seed ->
              let normal =
                (fst (Odd_even.run ~np:16 ~seed ~fault:Fault.No_fault ())).R.traces
              in
              let faulty =
                (fst
                   (Odd_even.run ~np:16 ~seed
                      ~fault:(Fault.Swap_send_recv { rank = 5; after_iter = 7 })
                      ()))
                  .R.traces
              in
              let c =
                Pipeline.compare_runs (Config.make ~attrs ()) ~normal ~faulty
              in
              if fst c.Pipeline.suspects.(0) = "5" then acc + 1 else acc)
            0 seeds
        in
        [ A.name attrs; Printf.sprintf "%d/%d" hits (List.length seeds) ])
      A.all
  in
  Difftrace_util.Texttable.print ~headers:[ "Attributes"; "top-1 = rank 5" ] rows

(* ------------------------------------------------------------------ *)
(* Baseline comparison: DiffTrace vs. AutomaDeD-style SMM (§VI)        *)
(* ------------------------------------------------------------------ *)

let baseline_comparison () =
  section "A4" "DiffTrace JSM_D ranking vs. AutomaDeD-style SMM baseline";
  let module Smm = Difftrace_baseline.Smm in
  let np, workers = ilcs_args in
  let mpi ts = F.apply_set (F.make [ F.Mpi_all ]) ts in
  let cases =
    [ ( "swapBug(5)",
        `Oddeven (Fault.Swap_send_recv { rank = 5; after_iter = 7 }),
        spec A.Single A.No_freq );
      ( "dlBug(5)",
        `Oddeven (Fault.Deadlock_recv { rank = 5; after_iter = 7 }),
        spec A.Single A.Log10 );
      ( "noCritical(6.4)",
        `Ilcs (Fault.No_critical { rank = 6; thread = 4 }),
        spec A.Single A.Actual );
      ( "wrongOp(0)",
        `Ilcs (Fault.Wrong_collective_op { rank = 0 }),
        spec A.Single A.Actual ) ]
  in
  let rows =
    List.map
      (fun (name, kind, attrs) ->
        let normal, faulty, config =
          match kind with
          | `Oddeven fault ->
            ( (fst (Odd_even.run ~np:16 ~fault:Fault.No_fault ())).R.traces,
              (fst (Odd_even.run ~np:16 ~fault ())).R.traces,
              Config.make ~attrs () )
          | `Ilcs fault ->
            ( (fst (Ilcs.run ~np ~workers ~fault:Fault.No_fault ())).R.traces,
              (fst (Ilcs.run ~np ~workers ~fault ())).R.traces,
              Config.make
                ~filter:
                  (F.make [ F.Mpi_all; F.Omp_critical; F.Custom "CPU_Exec|memcpy" ])
                ~attrs () )
        in
        let c = Pipeline.compare_runs config ~normal ~faulty in
        let dt_top =
          if Array.length c.Pipeline.suspects = 0 then "-"
          else fst c.Pipeline.suspects.(0)
        in
        let smm = Smm.rank_changes ~normal:(mpi normal) ~faulty:(mpi faulty) in
        let smm_top = if Array.length smm = 0 then "-" else fst smm.(0) in
        [ name; dt_top; smm_top ])
      cases
  in
  Difftrace_util.Texttable.print
    ~headers:[ "Fault"; "DiffTrace top suspect"; "SMM baseline top (MPI view)" ]
    rows;
  print_endline
    "(the SMM baseline sees control-flow transition changes; DiffTrace's\n\
    \ filters/attributes additionally expose OpenMP and frequency structure)"

(* ------------------------------------------------------------------ *)
(* Bug classification (paper future work (3))                          *)
(* ------------------------------------------------------------------ *)

let classification () =
  section "CLS"
    "Bug classification from lattice/loop features (future work (3))";
  let module Features = Difftrace_classify.Features in
  let module Classifier = Difftrace_classify.Classifier in
  let ilcs_cfg =
    Config.make
      ~filter:(F.make [ F.Mpi_all; F.Omp_critical; F.Custom "CPU_Exec|memcpy" ])
      ~attrs:(spec A.Single A.Actual) ()
  in
  let oe_cfg = Config.make ~attrs:(spec A.Single A.Actual) () in
  let example ~seed (label, kind) =
    match kind with
    | `Ilcs fault ->
      let normal, _ = Ilcs.run ~np:4 ~workers:2 ~seed ~fault:Fault.No_fault () in
      let faulty, _ = Ilcs.run ~np:4 ~workers:2 ~seed ~fault () in
      let c =
        Pipeline.compare_runs ilcs_cfg ~normal:normal.R.traces
          ~faulty:faulty.R.traces
      in
      (label, Features.to_vector (Features.extract c ~faulty_outcome:faulty))
    | `Oddeven fault ->
      let normal, _ = Odd_even.run ~np:8 ~seed ~fault:Fault.No_fault () in
      let faulty, _ = Odd_even.run ~np:8 ~seed ~fault () in
      let c =
        Pipeline.compare_runs oe_cfg ~normal:normal.R.traces
          ~faulty:faulty.R.traces
      in
      (label, Features.to_vector (Features.extract c ~faulty_outcome:faulty))
  in
  let classes =
    [ ("swapBug", `Oddeven (Fault.Swap_send_recv { rank = 5; after_iter = 3 }));
      ("dlBug", `Oddeven (Fault.Deadlock_recv { rank = 5; after_iter = 3 }));
      ("noCritical", `Ilcs (Fault.No_critical { rank = 2; thread = 1 }));
      ("wrongSize", `Ilcs (Fault.Wrong_collective_size { rank = 1 }));
      ("wrongOp", `Ilcs (Fault.Wrong_collective_op { rank = 0 })) ]
  in
  let dataset seeds =
    List.concat_map (fun seed -> List.map (example ~seed) classes) seeds
  in
  let train = dataset [ 1; 2; 3 ] in
  let test = dataset [ 4; 5 ] in
  let m = Classifier.train train in
  Printf.printf
    "5 bug classes x 3 training seeds, tested on 2 unseen seeds\n";
  Printf.printf "features: %s\n"
    (String.concat ", " (Array.to_list Features.names));
  print_string (Classifier.render_confusion (Classifier.confusion m test));
  Printf.printf "held-out accuracy: %.2f (chance: 0.20)\n"
    (Classifier.accuracy m test)

(* ------------------------------------------------------------------ *)
(* Bechamel perf benches                                               *)
(* ------------------------------------------------------------------ *)

let perf () =
  let open Bechamel in
  section "PERF" "Bechamel micro-benchmarks (ns/run, OLS estimate)";
  (* inputs prepared outside the timed closures *)
  let rng = Difftrace_util.Prng.create 17 in
  let ids =
    Array.init 20_000 (fun _ -> Difftrace_util.Prng.int rng 40)
  in
  let raw_bytes = String.init 60_000 (fun i -> Char.chr (Char.code 'a' + (i mod 7))) in
  let compressed = Lzw.compress raw_bytes in
  let ts = (fst (Odd_even.run ~np:16 ~fault:Fault.No_fault ())).R.traces in
  let analysis = Pipeline.analyze (Config.make ()) ts in
  let big_ctx =
    Context.of_attr_sets
      (List.init 40 (fun i ->
           ( Printf.sprintf "o%d" i,
             List.init 25 (fun j -> Printf.sprintf "a%d" ((i * 7 + j * 3) mod 60)) )))
  in
  let dist =
    let j = Jsm.of_context big_ctx in
    Jsm.rows (Jsm.to_distance j)
  in
  (* the ilcs-wide shape: 320 traces over 4 distinct attribute sets *)
  let ctx320 =
    Context.of_attr_sets
      (List.init 320 (fun i ->
           ( Printf.sprintf "%d.%d" (i / 5) (i mod 5),
             List.init (20 + (i mod 4)) (fun j -> Printf.sprintf "a%d" ((i mod 4) + j)) )))
  in
  let jsm320 = Jsm.of_context ctx320 in
  (* the same matrix with every trace its own class: the d = n sweep *)
  let jsm320_distinct = Jsm.of_dense ~labels:jsm320.Jsm.labels (Jsm.rows jsm320) in
  let seq_a = Array.init 600 (fun i -> (i * 37) mod 11) in
  let seq_b = Array.init 600 (fun i -> (i * 53) mod 11) in
  (* a hung run's shape: the normal trace against the short prefix the
     faulty one reached before it stopped *)
  let hung_a = Array.init 1700 (fun i -> (i * 37) mod 11) in
  let hung_b = Array.sub hung_a 0 11 in
  (* the same prefix, 14 long, whose last 3 calls left the normal path
     (P = 3) *)
  let nearhung_b =
    Array.mapi (fun i x -> if i >= 11 then 11 + x else x) (Array.sub hung_a 0 14)
  in
  (* the paper-scale LULESH suspect (edge=6, cycles=2): 5348 vs 11 *)
  let hung5k_a = Array.init 5348 (fun i -> (i * 37) mod 11) in
  let hung5k_b = Array.sub hung5k_a 0 11 in
  (* a LULESH normal run's length in call IDs, over its 410 functions *)
  let key_ids = Array.init 25_000 (fun _ -> Difftrace_util.Prng.int rng 410) in
  (* the lulesh-hang workload's normal run, filtered as it filters it *)
  let lulesh4 =
    F.apply_set (F.of_spec "11.all")
      (Lulesh.run ~edge:4 ~cycles:2 ~fault:Fault.No_fault ()).R.traces
  in
  let tsp = Tsp.make ~cities:40 ~seed:3 in
  let archive64 =
    Filename.concat (Filename.get_temp_dir_name ()) "difftrace_bench_archive64"
  in
  ignore
    (Difftrace_parlot.Archive.save ~dir:archive64
       (fst (Odd_even.run ~np:64 ~fault:Fault.No_fault ())).R.traces);
  let tests =
    [ Test.make ~name:"lzw.compress-60kB" (Staged.stage (fun () -> Lzw.compress raw_bytes));
      Test.make ~name:"lzw.decompress-60kB"
        (Staged.stage (fun () -> Lzw.decompress compressed));
      Test.make ~name:"archive.load-oddeven64"
        (Staged.stage (fun () -> Difftrace_parlot.Archive.load ~dir:archive64 ()));
      Test.make ~name:"nlr.k10-20k-calls"
        (Staged.stage (fun () ->
             let table = Nlr.Loop_table.create () in
             Nlr.of_ids ~table ~k:10 ids));
      Test.make ~name:"nlr.k50-20k-calls"
        (Staged.stage (fun () ->
             let table = Nlr.Loop_table.create () in
             Nlr.of_ids ~table ~k:50 ids));
      Test.make ~name:"memo.key-25k"
        (Staged.stage (fun () -> Memo.key ~ids:key_ids ~k:10 ~repeats:2));
      Test.make ~name:"pipeline.summarize-lulesh4"
        (Staged.stage (fun () ->
             let memo = Memo.create () in
             Pipeline.summarize ~engine:Engine.Sequential ~memo
               ~symtab:(Memo.symtab memo) ~table:(Memo.loop_table memo) ~k:10
               ~repeats:2 lulesh4));
      Test.make ~name:"lattice.godin-40x60"
        (Staged.stage (fun () -> Lattice.of_context_incremental big_ctx));
      Test.make ~name:"lattice.next-closure-40x60"
        (Staged.stage (fun () -> Lattice.of_context_batch big_ctx));
      Test.make ~name:"jsm.of-context-40"
        (Staged.stage (fun () -> Jsm.of_context big_ctx));
      Test.make ~name:"jsm.compute-320x4classes"
        (Staged.stage (fun () -> Jsm.compute ~init:Array.init ctx320));
      Test.make ~name:"myers.diff-600"
        (Staged.stage (fun () -> Myers.diff ~equal:Int.equal seq_a seq_b));
      Test.make ~name:"myers.diff-hung-1700x11"
        (Staged.stage (fun () -> Myers.diff ~equal:Int.equal hung_a hung_b));
      Test.make ~name:"myers.diff-nearhung-1700x14"
        (Staged.stage (fun () -> Myers.diff ~equal:Int.equal hung_a nearhung_b));
      Test.make ~name:"myers.diff-hung-5348x11"
        (Staged.stage (fun () -> Myers.diff ~equal:Int.equal hung5k_a hung5k_b));
      Test.make ~name:"linkage.ward-40"
        (Staged.stage (fun () -> Linkage.cluster Linkage.Ward dist));
      Test.make ~name:"linkage.single-40"
        (Staged.stage (fun () -> Linkage.cluster Linkage.Single dist));
      Test.make ~name:"linkage.ward-320"
        (Staged.stage (fun () -> Linkage.of_similarity Linkage.Ward jsm320));
      Test.make ~name:"linkage.ward-320-distinct"
        (Staged.stage (fun () -> Linkage.of_similarity Linkage.Ward jsm320_distinct));
      Test.make ~name:"tsp.2opt-40-cities"
        (Staged.stage (fun () -> Tsp.solve tsp ~seed:9));
      Test.make ~name:"pipeline.analyze-oddeven16"
        (Staged.stage (fun () -> Pipeline.analyze (Config.make ()) ts));
      Test.make ~name:"bscore.16"
        (Staged.stage (fun () ->
             let d = Linkage.of_similarity Linkage.Ward analysis.Pipeline.jsm in
             Bscore.score d d)) ]
  in
  let cfg = Benchmark.cfg ~limit:500 ~quota:(Time.second 0.5) ~kde:None () in
  let instance = Toolkit.Instance.monotonic_clock in
  List.iter
    (fun test ->
      let results = Benchmark.all cfg [ instance ] test in
      let ols =
        Analyze.all
          (Analyze.ols ~bootstrap:0 ~r_square:false ~predictors:[| Measure.run |])
          instance results
      in
      Hashtbl.iter
        (fun name result ->
          match Analyze.OLS.estimates result with
          | Some [ est ] -> Printf.printf "%-32s %12.0f ns/run\n" name est
          | _ -> Printf.printf "%-32s (no estimate)\n" name)
        ols)
    tests

let () =
  if perf_mode then perf ()
  else begin
    table_i ();
    odd_even_walkthrough ();
    sec_iig ();
    ilcs_case_study ();
    lulesh_study ();
    heat_study ();
    ablations ();
    nlr_repeats_ablation ();
    stability ();
    baseline_comparison ();
    classification ();
    print_newline ();
    print_endline "All reproduction sections completed.";
    print_endline "Run with --perf for Bechamel micro-benchmarks."
  end
