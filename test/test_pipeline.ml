open Difftrace
module R = Difftrace_simulator.Runtime
module Fault = Difftrace_simulator.Fault
module F = Difftrace_filter.Filter
module A = Difftrace_fca.Attributes
module Nlr = Difftrace_nlr.Nlr
module Odd_even = Difftrace_workloads.Odd_even
module Ilcs = Difftrace_workloads.Ilcs

(* Shared runs (computed once; the suites below reuse them). *)
let oe4 = lazy (fst (Odd_even.run ~np:4 ~fault:Fault.No_fault ())).R.traces

let oe16_normal = lazy (fst (Odd_even.run ~np:16 ~fault:Fault.No_fault ())).R.traces

let oe16_swap =
  lazy
    (fst (Odd_even.run ~np:16 ~fault:(Fault.Swap_send_recv { rank = 5; after_iter = 7 }) ()))
      .R.traces

let spec g f = { A.granularity = g; freq_mode = f }

let diffnlr_exn c label =
  match Pipeline.find_diffnlr c label with
  | Ok d -> d
  | Error e -> Alcotest.fail (Pipeline.lookup_error_to_string e)

(* ------------------------------------------------------------------ *)
(* Config                                                              *)
(* ------------------------------------------------------------------ *)

let test_config_names () =
  let c = Config.make () in
  Alcotest.(check string) "filter name" "11.mpiall.K10" (Config.filter_name c);
  Alcotest.(check string) "attrs name" "sing.noFreq" (Config.attrs_name c);
  let c2 =
    Config.make
      ~filter:(F.make [ F.Sys_memory; F.Omp_critical ])
      ~attrs:(spec A.Double A.Log10) ~k:50
      ~linkage:Difftrace_cluster.Linkage.Average ()
  in
  Alcotest.(check string) "full name" "11.mem.ompcrit.K50 / doub.log10 / average"
    (Config.name c2)

(* ------------------------------------------------------------------ *)
(* analyze on the paper's walk-through                                 *)
(* ------------------------------------------------------------------ *)

let test_analyze_table_iii () =
  let a = Pipeline.analyze (Config.make ()) (Lazy.force oe4) in
  let render i =
    String.concat ";" (Nlr.to_strings a.Pipeline.symtab (fst a.Pipeline.nlrs.(i)))
  in
  Alcotest.(check (array string)) "labels are short for single-threaded runs"
    [| "0"; "1"; "2"; "3" |] a.Pipeline.labels;
  Alcotest.(check string) "T0 (Table III)"
    "MPI_Init;MPI_Comm_rank;MPI_Comm_size;L0^2;MPI_Finalize" (render 0);
  Alcotest.(check string) "T1" "MPI_Init;MPI_Comm_rank;MPI_Comm_size;L1^4;MPI_Finalize"
    (render 1);
  Alcotest.(check string) "T2" "MPI_Init;MPI_Comm_rank;MPI_Comm_size;L0^4;MPI_Finalize"
    (render 2);
  Alcotest.(check string) "T3" "MPI_Init;MPI_Comm_rank;MPI_Comm_size;L1^2;MPI_Finalize"
    (render 3);
  Alcotest.(check string) "L0 body" "[MPI_Send-MPI_Recv]"
    (Nlr.body_to_string ~table:a.Pipeline.loop_table a.Pipeline.symtab 0);
  Alcotest.(check string) "L1 body" "[MPI_Recv-MPI_Send]"
    (Nlr.body_to_string ~table:a.Pipeline.loop_table a.Pipeline.symtab 1)

let test_analyze_context_table_iv () =
  let a = Pipeline.analyze (Config.make ()) (Lazy.force oe4) in
  let ctx = a.Pipeline.context in
  Alcotest.(check int) "4 objects" 4 (Difftrace_fca.Context.n_objects ctx);
  Alcotest.(check int) "6 attributes" 6 (Difftrace_fca.Context.n_attrs ctx)

let test_analyze_lattice_fig3 () =
  let a = Pipeline.analyze (Config.make ()) (Lazy.force oe4) in
  let lat = Lazy.force a.Pipeline.lattice in
  Alcotest.(check int) "diamond lattice (Fig. 3)" 4 (Difftrace_fca.Lattice.size lat)

let test_analyze_jsm_fig4 () =
  let a = Pipeline.analyze (Config.make ()) (Lazy.force oe4) in
  let j = a.Pipeline.jsm in
  Alcotest.(check (float 1e-9)) "even-even" 1.0 (Difftrace_cluster.Jsm.get j 0 2);
  Alcotest.(check (float 1e-9)) "odd-odd" 1.0 (Difftrace_cluster.Jsm.get j 1 3);
  Alcotest.(check (float 1e-3)) "even-odd 4/6" 0.667 (Difftrace_cluster.Jsm.get j 0 1)

let test_nlr_of_unknown_label () =
  let a = Pipeline.analyze (Config.make ()) (Lazy.force oe4) in
  match Pipeline.find_nlr a "99" with
  | Ok _ -> Alcotest.fail "lookup of label 99 should fail"
  | Error e ->
    Alcotest.(check string) "reports the unknown label" "99" e.Pipeline.unknown;
    Alcotest.(check (array string)) "error carries the known labels"
      [| "0"; "1"; "2"; "3" |] e.Pipeline.known

(* ------------------------------------------------------------------ *)
(* compare_runs on §II-G                                               *)
(* ------------------------------------------------------------------ *)

let test_swapbug_suspect_is_trace5 () =
  let c =
    Pipeline.compare_runs (Config.make ())
      ~normal:(Lazy.force oe16_normal) ~faulty:(Lazy.force oe16_swap)
  in
  let top, score = c.Pipeline.suspects.(0) in
  Alcotest.(check string) "paper §II-G: trace 5 is the most affected" "5" top;
  Alcotest.(check bool) "with a clearly positive score" true (score > 0.5);
  Alcotest.(check bool) "bscore below 1" true (c.Pipeline.bscore < 1.0);
  Alcotest.(check (list string)) "no label mismatches" [] c.Pipeline.only_normal

let test_swapbug_diffnlr_fig5 () =
  let c =
    Pipeline.compare_runs (Config.make ())
      ~normal:(Lazy.force oe16_normal) ~faulty:(Lazy.force oe16_swap)
  in
  let d = diffnlr_exn c "5" in
  let r = Difftrace_diff.Diffnlr.render d in
  let contains sub s =
    let n = String.length sub and h = String.length s in
    let rec go i = i + n <= h && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  (* Fig. 5: normal loops L^16; faulty flips after 7 iterations *)
  Alcotest.(check bool) "normal side L1^16" true (contains "L1^16" r);
  Alcotest.(check bool) "faulty side L1^7" true (contains "L1^7" r);
  Alcotest.(check bool) "faulty side L0^9" true (contains "L0^9" r);
  Alcotest.(check bool) "both reach MPI_Finalize" true (contains "= MPI_Finalize" r)

let test_identity_comparison () =
  let ts = Lazy.force oe16_normal in
  let c = Pipeline.compare_runs (Config.make ()) ~normal:ts ~faulty:ts in
  Alcotest.(check (float 1e-9)) "bscore of identical runs" 1.0 c.Pipeline.bscore;
  Alcotest.(check (list int)) "no suspicious processes" []
    (Pipeline.top_processes c)

let test_dlbug_truncation_visible () =
  let faulty =
    (fst (Odd_even.run ~np:16 ~fault:(Fault.Deadlock_recv { rank = 5; after_iter = 7 }) ()))
      .R.traces
  in
  let c =
    Pipeline.compare_runs (Config.make ()) ~normal:(Lazy.force oe16_normal) ~faulty
  in
  let d = diffnlr_exn c "5" in
  Alcotest.(check bool) "faulty truncated flag" true d.Difftrace_diff.Diffnlr.faulty_truncated;
  (* the deadlock neighbourhood {4,5,6} must surface under log10 *)
  let c' =
    Pipeline.compare_runs
      (Config.make ~attrs:(spec A.Single A.Log10) ())
      ~normal:(Lazy.force oe16_normal) ~faulty
  in
  let top4 =
    Array.to_list c'.Pipeline.suspects
    |> List.filteri (fun i _ -> i < 4)
    |> List.map fst
  in
  Alcotest.(check bool) "rank 5 or a direct neighbour leads" true
    (List.exists (fun l -> List.mem l [ "4"; "5"; "6" ]) top4)

(* ------------------------------------------------------------------ *)
(* ranking sweeps                                                      *)
(* ------------------------------------------------------------------ *)

let sweep_rows ?attrs ~filters ~normal ~faulty () =
  match Ranking.sweep ?attrs ~filters ~normal ~faulty () with
  | Ok s -> s.Ranking.rows
  | Error e -> Alcotest.fail (Session.error_to_string e)

let test_ranking_sorted_and_rendered () =
  let normal = Lazy.force oe16_normal and faulty = Lazy.force oe16_swap in
  let rows = sweep_rows ~filters:[ F.make [ F.Mpi_all ] ] ~normal ~faulty () in
  Alcotest.(check int) "six rows (6 attribute specs)" 6 (List.length rows);
  let scores = List.map (fun r -> r.Ranking.bscore) rows in
  Alcotest.(check bool) "ascending bscore" true
    (List.sort Float.compare scores = scores);
  let rendered = Ranking.render rows in
  Alcotest.(check bool) "renders a table" true (String.length rendered > 100)

let test_ranking_grid_size () =
  let normal = Lazy.force oe16_normal and faulty = Lazy.force oe16_swap in
  let rows =
    sweep_rows
      ~filters:[ F.make [ F.Mpi_all ]; F.make [ F.Sys_memory ] ]
      ~attrs:[ spec A.Single A.Actual ] ~normal ~faulty ()
  in
  Alcotest.(check int) "filters x attrs" 2 (List.length rows)

let test_ilcs_nocritical_top_thread () =
  let normal = (fst (Ilcs.run ~fault:Fault.No_fault ())).R.traces in
  let faulty =
    (fst (Ilcs.run ~fault:(Fault.No_critical { rank = 6; thread = 4 }) ())).R.traces
  in
  let filt = F.make [ F.Sys_memory; F.Omp_critical; F.Custom "CPU_Exec" ] in
  let rows = sweep_rows ~filters:[ filt ] ~normal ~faulty () in
  (* Table VI: thread 6.4 flagged first in every row *)
  List.iter
    (fun r ->
      match r.Ranking.top_threads with
      | top :: _ ->
        Alcotest.(check string)
          ("6.4 leads under " ^ Config.attrs_name r.Ranking.config)
          "6.4" top
      | [] -> Alcotest.fail "no threads ranked")
    rows

(* ------------------------------------------------------------------ *)
(* report generation                                                   *)
(* ------------------------------------------------------------------ *)

let test_report_generation () =
  let normal = fst (Odd_even.run ~np:8 ~fault:Fault.No_fault ()) in
  let faulty =
    fst (Odd_even.run ~np:8 ~fault:(Fault.Swap_send_recv { rank = 3; after_iter = 2 }) ())
  in
  let r =
    Report.generate ~fault_label:"swapBug(rank=3,after=2)" ~normal ~faulty ()
  in
  let contains sub =
    let s = r.Report.markdown in
    let n = String.length sub and h = String.length s in
    let rec go i = i + n <= h && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check (option string)) "suspect found" (Some "3") r.Report.top_suspect;
  List.iter
    (fun sec ->
      Alcotest.(check bool) ("has section " ^ sec) true (contains ("## " ^ sec)))
    [ "Configuration search"; "Comparison under"; "diffNLR(3)"; "Phase analysis";
      "Calling-context deltas"; "Where the faulty run stopped" ];
  Alcotest.(check bool) "mentions the fault" true
    (contains "swapBug(rank=3,after=2)")

let test_report_hung_run_has_progress () =
  let normal = fst (Odd_even.run ~np:8 ~fault:Fault.No_fault ()) in
  let faulty =
    fst (Odd_even.run ~np:8 ~fault:(Fault.Deadlock_recv { rank = 3; after_iter = 2 }) ())
  in
  let r = Report.generate ~fault_label:"dlBug" ~normal ~faulty () in
  let contains sub =
    let s = r.Report.markdown in
    let n = String.length sub and h = String.length s in
    let rec go i = i + n <= h && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "HUNG banner" true (contains "HUNG");
  Alcotest.(check bool) "progress section" true
    (contains "## Least-progressed threads")

let test_report_identical_runs () =
  let normal = fst (Odd_even.run ~np:4 ~fault:Fault.No_fault ()) in
  let r = Report.generate ~fault_label:"none" ~normal ~faulty:normal () in
  Alcotest.(check (option string)) "no suspect" None r.Report.top_suspect;
  Alcotest.(check bool) "still renders" true (String.length r.Report.markdown > 200)

(* ------------------------------------------------------------------ *)
(* single-run triage                                                   *)
(* ------------------------------------------------------------------ *)

let test_triage_flags_truncated () =
  (* §II-A: truncated traces stand out in JSM_faulty alone *)
  let faulty =
    (fst (Odd_even.run ~np:8 ~fault:(Fault.Deadlock_recv { rank = 5; after_iter = 3 }) ()))
      .R.traces
  in
  let a =
    Pipeline.analyze
      (Config.make ~attrs:(spec A.Single A.Actual) ())
      faulty
  in
  let entries = Pipeline.triage a in
  Alcotest.(check int) "one entry per trace" 8 (Array.length entries);
  (* some truncated trace must appear in the top three outliers *)
  let top3 = Array.sub entries 0 3 in
  Alcotest.(check bool) "a truncated trace is a top outlier" true
    (Array.exists (fun e -> e.Pipeline.tr_truncated) top3);
  (* scores are sorted descending and within [0, 1] *)
  Array.iteri
    (fun i e ->
      if i > 0 then
        Alcotest.(check bool) "descending" true
          (entries.(i - 1).Pipeline.tr_score >= e.Pipeline.tr_score);
      Alcotest.(check bool) "bounded" true
        (e.Pipeline.tr_score >= -1e-9 && e.Pipeline.tr_score <= 1.0))
    entries

let test_triage_clean_run_uniform () =
  let a = Pipeline.analyze (Config.make ()) (Lazy.force oe4) in
  let entries = Pipeline.triage a in
  (* the 4-rank odd/even run has two symmetric groups: everyone's
     outlier score is identical *)
  let scores = Array.map (fun e -> e.Pipeline.tr_score) entries in
  Array.iter
    (fun s -> Alcotest.(check (float 1e-9)) "uniform" scores.(0) s)
    scores;
  Alcotest.(check bool) "renders" true
    (String.length (Pipeline.render_triage entries) > 50)

let test_pipeline_dendrogram () =
  let a = Pipeline.analyze (Config.make ()) (Lazy.force oe4) in
  let s = Pipeline.dendrogram a in
  Alcotest.(check bool) "renders all labels" true
    (String.length s > 20)

let () =
  Alcotest.run "pipeline"
    [ ( "config",
        [ Alcotest.test_case "names" `Quick test_config_names ] );
      ( "analyze",
        [ Alcotest.test_case "Table III NLRs" `Quick test_analyze_table_iii;
          Alcotest.test_case "Table IV context" `Quick test_analyze_context_table_iv;
          Alcotest.test_case "Fig. 3 lattice" `Quick test_analyze_lattice_fig3;
          Alcotest.test_case "Fig. 4 JSM" `Quick test_analyze_jsm_fig4;
          Alcotest.test_case "unknown label" `Quick test_nlr_of_unknown_label ] );
      ( "compare",
        [ Alcotest.test_case "swapBug flags trace 5 (§II-G)" `Quick
            test_swapbug_suspect_is_trace5;
          Alcotest.test_case "swapBug diffNLR (Fig. 5)" `Quick test_swapbug_diffnlr_fig5;
          Alcotest.test_case "identity comparison" `Quick test_identity_comparison;
          Alcotest.test_case "dlBug truncation (Fig. 6)" `Quick
            test_dlbug_truncation_visible ] );
      ( "report",
        [ Alcotest.test_case "full report" `Quick test_report_generation;
          Alcotest.test_case "hung run progress" `Quick
            test_report_hung_run_has_progress;
          Alcotest.test_case "identical runs" `Quick test_report_identical_runs ] );
      ( "triage",
        [ Alcotest.test_case "flags truncated traces" `Quick
            test_triage_flags_truncated;
          Alcotest.test_case "clean run uniform" `Quick test_triage_clean_run_uniform;
          Alcotest.test_case "dendrogram" `Quick test_pipeline_dendrogram ] );
      ( "ranking",
        [ Alcotest.test_case "sorted + rendered" `Quick test_ranking_sorted_and_rendered;
          Alcotest.test_case "grid size" `Quick test_ranking_grid_size;
          Alcotest.test_case "ILCS noCritical: 6.4 tops Table VI" `Quick
            test_ilcs_nocritical_top_thread ] ) ]
