open Difftrace
module R = Difftrace_simulator.Runtime
module Fault = Difftrace_simulator.Fault
module Heat = Difftrace_workloads.Heat
module Cct = Difftrace_stacktree.Cct
module Trace_set = Difftrace_trace.Trace_set
module F = Difftrace_filter.Filter
module A = Difftrace_fca.Attributes

let spec g f = { A.granularity = g; freq_mode = f }

(* ------------------------------------------------------------------ *)
(* Heat workload                                                       *)
(* ------------------------------------------------------------------ *)

let test_heat_normal () =
  let outcome, r = Heat.run ~max_iters:50 ~fault:Fault.No_fault () in
  Alcotest.(check (list (pair int int))) "clean" [] outcome.R.deadlocked;
  Alcotest.(check int) "full field gathered" (8 * 24) (Array.length r.Heat.field);
  Alcotest.(check bool) "ran some iterations" true (r.Heat.iterations > 3);
  (* diffusion keeps the field non-negative and bounded by the source *)
  Array.iter
    (fun v ->
      if v < 0 || v > 1_000_000 then Alcotest.fail "field out of bounds")
    r.Heat.field;
  (* heat spreads away from the hot spot: neighbours of the peak warm *)
  let mid = Array.length r.Heat.field / 2 in
  Alcotest.(check bool) "heat diffused" true (r.Heat.field.(mid - 1) > 0)

let test_heat_residual_decreases () =
  let _, r5 = Heat.run ~max_iters:5 ~fault:Fault.No_fault () in
  let _, r25 = Heat.run ~max_iters:25 ~fault:Fault.No_fault () in
  Alcotest.(check bool) "residual shrinks with more iterations" true
    (r25.Heat.final_residual < r5.Heat.final_residual)

let test_heat_deterministic () =
  let _, a = Heat.run ~seed:9 ~fault:Fault.No_fault () in
  let _, b = Heat.run ~seed:9 ~fault:Fault.No_fault () in
  Alcotest.(check (array int)) "same field" a.Heat.field b.Heat.field;
  Alcotest.(check int) "same iterations" a.Heat.iterations b.Heat.iterations

let test_heat_skip_fault_hangs () =
  let outcome, _ =
    Heat.run ~fault:(Fault.Skip_function { rank = 2; func = "ExchangeHalo" }) ()
  in
  Alcotest.(check bool) "neighbours hang" true (outcome.R.deadlocked <> [])

let test_heat_wrong_size_hangs_all () =
  let outcome, _ = Heat.run ~fault:(Fault.Wrong_collective_size { rank = 1 }) () in
  Alcotest.(check int) "all masters hung" 8 (List.length outcome.R.deadlocked);
  Alcotest.(check bool) "diagnosed" true (outcome.R.collective_mismatch <> None)

let test_heat_nocritical_flagged () =
  let outcome, _ = Heat.run ~fault:(Fault.No_critical { rank = 5; thread = 2 }) () in
  match outcome.R.races with
  | [ race ] ->
    Alcotest.(check int) "process" 5 race.R.race_pid;
    Alcotest.(check string) "cell" "residual" race.R.cell_name;
    Alcotest.(check (list int)) "thread" [ 2 ] race.R.tids
  | l -> Alcotest.fail (Printf.sprintf "expected 1 violation, got %d" (List.length l))

let test_heat_swap_visible_in_diffnlr () =
  (* the protocol flip is a silent bug: the run completes but the trace
     shape changes from Irecv/Wait to blocking Recv *)
  let normal, _ = Heat.run ~fault:Fault.No_fault () in
  let faulty, _ =
    Heat.run ~fault:(Fault.Swap_send_recv { rank = 3; after_iter = 2 }) ()
  in
  Alcotest.(check (list (pair int int))) "completes" [] faulty.R.deadlocked;
  let c =
    Pipeline.compare_runs
      (Config.make ~attrs:(spec A.Single A.Actual) ())
      ~normal:normal.R.traces ~faulty:faulty.R.traces
  in
  let top, score = c.Pipeline.suspects.(0) in
  Alcotest.(check string) "rank 3 flagged" "3.0" top;
  Alcotest.(check bool) "positive score" true (score > 0.1)

(* ------------------------------------------------------------------ *)
(* CCT on heat                                                         *)
(* ------------------------------------------------------------------ *)

let test_cct_structure () =
  let outcome, _ = Heat.run ~np:2 ~workers:2 ~max_iters:4 ~fault:Fault.No_fault () in
  let cct = Cct.coalesce outcome.R.traces in
  (* masters root at main; worker threads root at their region frames *)
  (match List.find_opt (fun n -> n.Cct.frame = "main") cct.Cct.roots with
  | Some root ->
    Alcotest.(check int) "main called once per master" 2 root.Cct.calls;
    Alcotest.(check int) "two masters contribute" 2 (List.length root.Cct.by)
  | None -> Alcotest.fail "main root missing");
  (* the kernel context exists with full path *)
  match Cct.find cct [ "main"; "JacobiSweep"; "GOMP_parallel_start" ] with
  | Some _ -> ()
  | None -> (
    (* the kernel is under the master's JacobiSweep; workers' frames
       are their own roots? no — workers trace from the region body *)
    match Cct.find cct [ "main"; "JacobiSweep" ] with
    | Some n ->
      Alcotest.(check bool) "sweep called every iteration" true (n.Cct.calls >= 4)
    | None -> Alcotest.fail "JacobiSweep context missing")

let test_cct_total_calls_counts_events () =
  let outcome, _ = Heat.run ~np:2 ~workers:2 ~max_iters:3 ~fault:Fault.No_fault () in
  let cct = Cct.coalesce outcome.R.traces in
  (* every Call event lands in exactly one context *)
  let calls =
    Array.fold_left
      (fun acc tr ->
        acc + Array.length (Difftrace_trace.Trace.call_ids tr))
      0
      (Trace_set.traces outcome.R.traces)
  in
  Alcotest.(check int) "total calls preserved" calls (Cct.total_calls cct)

let test_cct_diff_localizes_skip () =
  let normal, _ = Heat.run ~np:4 ~max_iters:5 ~fault:Fault.No_fault () in
  let faulty, _ =
    Heat.run ~np:4 ~max_iters:5
      ~fault:(Fault.Skip_function { rank = 2; func = "ExchangeHalo" })
      ()
  in
  let dn = Cct.coalesce normal.R.traces and df = Cct.coalesce faulty.R.traces in
  let deltas = Cct.diff ~normal:dn ~faulty:df in
  Alcotest.(check bool) "changes found" true (deltas <> []);
  (* the ExchangeHalo context must be among the drops *)
  let halo_drop =
    List.exists
      (fun d ->
        List.mem "ExchangeHalo" d.Cct.path
        && d.Cct.faulty_calls < d.Cct.normal_calls)
      deltas
  in
  Alcotest.(check bool) "ExchangeHalo context dropped calls" true halo_drop;
  Alcotest.(check bool) "renders" true
    (String.length (Cct.render_diff deltas) > 50)

let test_cct_diff_identical_empty () =
  let a, _ = Heat.run ~np:2 ~max_iters:3 ~fault:Fault.No_fault () in
  let b, _ = Heat.run ~np:2 ~max_iters:3 ~fault:Fault.No_fault () in
  let da = Cct.coalesce a.R.traces and db = Cct.coalesce b.R.traces in
  Alcotest.(check int) "no deltas between identical runs" 0
    (List.length (Cct.diff ~normal:da ~faulty:db))

let test_cct_to_dot () =
  let outcome, _ = Heat.run ~np:2 ~workers:2 ~max_iters:2 ~fault:Fault.No_fault () in
  let dot = Cct.to_dot (Cct.coalesce outcome.R.traces) in
  let contains sub =
    let n = String.length sub and h = String.length dot in
    let rec go i = i + n <= h && (String.sub dot i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "digraph" true (contains "digraph cct");
  Alcotest.(check bool) "main node" true (contains "main");
  Alcotest.(check bool) "edges" true (contains "->")

let test_cct_render () =
  let outcome, _ = Heat.run ~np:2 ~workers:2 ~max_iters:2 ~fault:Fault.No_fault () in
  let cct = Cct.coalesce outcome.R.traces in
  let shallow = Cct.render ~max_depth:2 cct in
  let deep = Cct.render cct in
  Alcotest.(check bool) "depth limit shrinks output" true
    (String.length shallow < String.length deep)

(* ------------------------------------------------------------------ *)
(* Autotune: the sweep in refinement order                             *)
(* ------------------------------------------------------------------ *)

let refined ?ks ?linkages ~normal ~faulty () =
  Result.map
    (fun s -> Ranking.refine s.Ranking.rows)
    (Ranking.sweep ?ks ?linkages ~normal ~faulty ())

let test_autotune_finds_discriminating_config () =
  let normal, _ = Heat.run ~fault:Fault.No_fault () in
  let faulty, _ =
    Heat.run ~fault:(Fault.Swap_send_recv { rank = 3; after_iter = 2 }) ()
  in
  let ranked =
    match refined ~normal:normal.R.traces ~faulty:faulty.R.traces () with
    | Ok r -> r
    | Error e -> Alcotest.fail (Session.error_to_string e)
  in
  Alcotest.(check int) "2 filters x 6 attrs" 12 (List.length ranked);
  let best = List.hd ranked in
  Alcotest.(check bool) "best config separates the runs" true
    (best.Ranking.bscore < 1.0);
  Alcotest.(check (option string)) "and points at rank 3" (Some "3.0")
    best.Ranking.top_suspect;
  (* ranked list is sorted by the (bscore, -concentration) objective *)
  let rec sorted = function
    | a :: (b :: _ as rest) ->
      (a.Ranking.bscore < b.Ranking.bscore
      || (a.Ranking.bscore = b.Ranking.bscore
         && a.Ranking.concentration >= b.Ranking.concentration))
      && sorted rest
    | _ -> true
  in
  Alcotest.(check bool) "ranked order" true (sorted ranked);
  Alcotest.(check bool) "renders" true
    (String.length (Ranking.render_refined ranked) > 100)

let test_autotune_identity_runs () =
  let normal, _ = Heat.run ~max_iters:5 ~fault:Fault.No_fault () in
  let best =
    match refined ~normal:normal.R.traces ~faulty:normal.R.traces () with
    | Ok (best :: _) -> best
    | Ok [] -> Alcotest.fail "empty sweep"
    | Error e -> Alcotest.fail (Session.error_to_string e)
  in
  Alcotest.(check (float 1e-9)) "identical runs: best bscore 1" 1.0
    best.Ranking.bscore;
  Alcotest.(check (option string)) "no suspect" None best.Ranking.top_suspect

let test_autotune_empty_axis () =
  let normal, _ = Heat.run ~np:2 ~max_iters:2 ~fault:Fault.No_fault () in
  let error ?ks ?linkages () =
    match refined ?ks ?linkages ~normal:normal.R.traces ~faulty:normal.R.traces () with
    | Ok _ -> Alcotest.fail "expected Error"
    | Error e -> Session.error_to_string e
  in
  (* an empty sweep is request data, not a bug: a typed error, not a raise *)
  Alcotest.(check string) "empty ks"
    "autotune: empty parameter axis (K): nothing to sweep" (error ~ks:[] ());
  Alcotest.(check string) "names every empty axis"
    "autotune: empty parameter axis (K, linkages): nothing to sweep"
    (error ~ks:[] ~linkages:[] ());
  (* so is a K below 1: the message a parsed config gives *)
  Alcotest.(check string) "K below 1"
    "config: NLR constant K must be >= 1, got 0" (error ~ks:[ 10; 0 ] ())

let () =
  Alcotest.run "heat+cct+autotune"
    [ ( "heat",
        [ Alcotest.test_case "normal run" `Quick test_heat_normal;
          Alcotest.test_case "residual decreases" `Quick test_heat_residual_decreases;
          Alcotest.test_case "deterministic" `Quick test_heat_deterministic;
          Alcotest.test_case "skip fault hangs" `Quick test_heat_skip_fault_hangs;
          Alcotest.test_case "wrong size hangs" `Quick test_heat_wrong_size_hangs_all;
          Alcotest.test_case "noCritical flagged" `Quick test_heat_nocritical_flagged;
          Alcotest.test_case "swap visible to diffNLR" `Quick
            test_heat_swap_visible_in_diffnlr ] );
      ( "cct",
        [ Alcotest.test_case "structure" `Quick test_cct_structure;
          Alcotest.test_case "counts preserved" `Quick test_cct_total_calls_counts_events;
          Alcotest.test_case "diff localizes skip" `Quick test_cct_diff_localizes_skip;
          Alcotest.test_case "identical -> empty diff" `Quick test_cct_diff_identical_empty;
          Alcotest.test_case "render depth" `Quick test_cct_render;
          Alcotest.test_case "to_dot" `Quick test_cct_to_dot ] );
      ( "autotune",
        [ Alcotest.test_case "finds discriminating config" `Quick
            test_autotune_finds_discriminating_config;
          Alcotest.test_case "identity runs" `Quick test_autotune_identity_runs;
          Alcotest.test_case "empty axis" `Quick test_autotune_empty_axis ] ) ]
