open Difftrace_simulator
open Difftrace_workloads
module R = Runtime
module Trace = Difftrace_trace.Trace
module Trace_set = Difftrace_trace.Trace_set

let qtest ?(count = 30) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let is_sorted a =
  let ok = ref true in
  for i = 0 to Array.length a - 2 do
    if a.(i) > a.(i + 1) then ok := false
  done;
  !ok

(* ------------------------------------------------------------------ *)
(* TSP                                                                 *)
(* ------------------------------------------------------------------ *)

let test_tsp_tour_length () =
  let t = Tsp.make ~cities:5 ~seed:1 in
  let tour = Array.init 5 (fun i -> i) in
  Alcotest.(check bool) "positive length" true (Tsp.tour_length t tour > 0);
  Alcotest.check_raises "wrong size" (Invalid_argument "Tsp.tour_length: wrong tour size")
    (fun () -> ignore (Tsp.tour_length t [| 0; 1 |]))

let test_tsp_two_opt_improves () =
  let t = Tsp.make ~cities:15 ~seed:7 in
  let tour = Tsp.random_tour t ~seed:3 in
  let before = Tsp.tour_length t tour in
  let after, exchanges = Tsp.two_opt t tour in
  Alcotest.(check bool) "not worse" true (after <= before);
  Alcotest.(check bool) "made some exchanges" true (exchanges > 0);
  (* tour is still a permutation *)
  let sorted = Array.copy tour in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "permutation" (Array.init 15 (fun i -> i)) sorted;
  Alcotest.(check int) "reported length is real" after (Tsp.tour_length t tour)

let prop_tsp_solve_deterministic =
  qtest "TSP solve is a pure function of seeds"
    QCheck2.Gen.(pair (int_range 0 100) (int_range 0 100))
    (fun (inst_seed, tour_seed) ->
      let t1 = Tsp.make ~cities:10 ~seed:inst_seed in
      let t2 = Tsp.make ~cities:10 ~seed:inst_seed in
      Tsp.solve t1 ~seed:tour_seed = Tsp.solve t2 ~seed:tour_seed)

let test_tsp_validation () =
  Alcotest.check_raises "too few cities"
    (Invalid_argument "Tsp.make: need at least 3 cities") (fun () ->
      ignore (Tsp.make ~cities:2 ~seed:1))

(* ------------------------------------------------------------------ *)
(* Odd/even sort                                                       *)
(* ------------------------------------------------------------------ *)

let test_find_ptr_matches_paper () =
  (* np=4: pairing of Table II *)
  let p phase rank = Odd_even.find_ptr ~np:4 ~phase ~rank in
  Alcotest.(check (option int)) "phase0 rank0" (Some 1) (p 0 0);
  Alcotest.(check (option int)) "phase0 rank3" (Some 2) (p 0 3);
  Alcotest.(check (option int)) "phase1 rank0 idle" None (p 1 0);
  Alcotest.(check (option int)) "phase1 rank3 idle" None (p 1 3);
  Alcotest.(check (option int)) "phase1 rank1" (Some 2) (p 1 1);
  Alcotest.(check (option int)) "phase1 rank2" (Some 1) (p 1 2)

let test_find_ptr_symmetric () =
  for np = 2 to 9 do
    for phase = 0 to np - 1 do
      for rank = 0 to np - 1 do
        match Odd_even.find_ptr ~np ~phase ~rank with
        | None -> ()
        | Some p ->
          if Odd_even.find_ptr ~np ~phase ~rank:p <> Some rank then
            Alcotest.fail
              (Printf.sprintf "asymmetric pairing np=%d phase=%d rank=%d" np phase
                 rank)
      done
    done
  done

let test_odd_even_sorts () =
  let outcome, blocks = Odd_even.run ~np:8 ~block:4 ~fault:Fault.No_fault () in
  Alcotest.(check (list (pair int int))) "clean" [] outcome.R.deadlocked;
  let all = Odd_even.sorted_concat blocks in
  Alcotest.(check bool) "globally sorted" true (is_sorted all);
  Alcotest.(check int) "all values present" 32 (Array.length all)

let prop_odd_even_sorts_any_np =
  qtest "odd/even sorts for any np/block/seed"
    QCheck2.Gen.(triple (int_range 2 10) (int_range 1 5) (int_range 0 1000))
    (fun (np, block, seed) ->
      let outcome, blocks = Odd_even.run ~np ~block ~seed ~fault:Fault.No_fault () in
      outcome.R.deadlocked = [] && is_sorted (Odd_even.sorted_concat blocks))

let test_swap_bug_completes_under_eager () =
  (* the paper's swapBug: only a *potential* deadlock; with small eager
     messages the run completes but the loop body flips *)
  let outcome, _ =
    Odd_even.run ~np:16
      ~fault:(Fault.Swap_send_recv { rank = 5; after_iter = 7 })
      ()
  in
  Alcotest.(check (list (pair int int))) "completes" [] outcome.R.deadlocked

let test_swap_bug_deadlocks_under_rendezvous () =
  (* with blocks above the eager limit the same bug is a real deadlock *)
  let outcome, _ =
    Odd_even.run ~np:16 ~block:8 ~eager_limit:4
      ~fault:(Fault.Swap_send_recv { rank = 5; after_iter = 7 })
      ()
  in
  Alcotest.(check bool) "deadlocks" true (outcome.R.deadlocked <> [])

let test_dl_bug_truncates_rank5 () =
  let outcome, _ =
    Odd_even.run ~np:16 ~fault:(Fault.Deadlock_recv { rank = 5; after_iter = 7 }) ()
  in
  Alcotest.(check bool) "rank 5 hung" true (List.mem (5, 0) outcome.R.deadlocked);
  let tr = Trace_set.find_exn outcome.R.traces ~pid:5 ~tid:0 in
  Alcotest.(check bool) "trace truncated" true tr.Trace.truncated

(* ------------------------------------------------------------------ *)
(* ILCS                                                                *)
(* ------------------------------------------------------------------ *)

let test_ilcs_normal_terminates () =
  let outcome, result = Ilcs.run ~fault:Fault.No_fault () in
  Alcotest.(check (list (pair int int))) "clean" [] outcome.R.deadlocked;
  Alcotest.(check bool) "no timeout" false outcome.R.timed_out;
  Alcotest.(check int) "no races" 0 (List.length outcome.R.races);
  Alcotest.(check bool) "found a champion" true
    (result.Ilcs.global_champion < max_int);
  (* all masters execute the same number of rounds — the collective
     matching invariant *)
  let r0 = result.Ilcs.rounds.(0) in
  Array.iter (fun r -> Alcotest.(check int) "uniform rounds" r0 r) result.Ilcs.rounds;
  Alcotest.(check int) "8 ranks x (1 master + 4 workers)" 40
    (Trace_set.cardinal outcome.R.traces)

let test_ilcs_champion_is_true_min () =
  (* the champion must be the minimum over every seed any worker
     evaluated... at least not larger than a re-solve of some seed *)
  let _, result = Ilcs.run ~np:2 ~workers:2 ~fault:Fault.No_fault () in
  let tsp = Tsp.make ~cities:12 ~seed:4242 in
  let some_seed_result = Tsp.solve tsp ~seed:((0 * 7919) + (1 * 104729) + 1) in
  Alcotest.(check bool) "champion <= first worker seed" true
    (result.Ilcs.global_champion <= some_seed_result)

let test_ilcs_no_critical_flags_exact_thread () =
  let outcome, _ = Ilcs.run ~fault:(Fault.No_critical { rank = 6; thread = 4 }) () in
  match outcome.R.races with
  | [ r ] ->
    Alcotest.(check int) "process 6" 6 r.R.race_pid;
    Alcotest.(check string) "champ cell" "champ[4]" r.R.cell_name;
    Alcotest.(check (list int)) "thread 4" [ 4 ] r.R.tids
  | l -> Alcotest.fail (Printf.sprintf "expected 1 violation, got %d" (List.length l))

let test_ilcs_no_critical_trace_lacks_gomp () =
  let outcome, _ = Ilcs.run ~fault:(Fault.No_critical { rank = 6; thread = 4 }) () in
  let ts = outcome.R.traces in
  let has_critical pid tid =
    let tr = Trace_set.find_exn ts ~pid ~tid in
    List.mem "GOMP_critical_start" (Trace.to_strings (Trace_set.symtab ts) tr)
  in
  Alcotest.(check bool) "faulty thread has no critical" false (has_critical 6 4);
  Alcotest.(check bool) "sibling thread still has critical" true (has_critical 6 3)

let test_ilcs_wrong_size_deadlocks_masters () =
  let outcome, _ = Ilcs.run ~fault:(Fault.Wrong_collective_size { rank = 2 }) () in
  Alcotest.(check (list (pair int int))) "all 8 masters hung"
    (List.init 8 (fun p -> (p, 0)))
    outcome.R.deadlocked;
  Alcotest.(check bool) "diagnosed" true (outcome.R.collective_mismatch <> None);
  let tr = Trace_set.find_exn outcome.R.traces ~pid:2 ~tid:0 in
  let strs = Trace.to_strings (Trace_set.symtab outcome.R.traces) tr in
  Alcotest.(check string) "last entry is the unreturned Allreduce" "MPI_Allreduce"
    (List.nth strs (List.length strs - 1))

let test_ilcs_wrong_op_changes_rounds () =
  let _, normal = Ilcs.run ~fault:Fault.No_fault () in
  let outcome, faulty = Ilcs.run ~fault:(Fault.Wrong_collective_op { rank = 0 }) () in
  Alcotest.(check (list (pair int int))) "still terminates" [] outcome.R.deadlocked;
  Alcotest.(check bool) "silent bug: round count changed" true
    (faulty.Ilcs.rounds.(0) <> normal.Ilcs.rounds.(0))

(* ------------------------------------------------------------------ *)
(* LULESH                                                              *)
(* ------------------------------------------------------------------ *)

let test_lulesh_normal_clean () =
  let outcome = Lulesh.run ~fault:Fault.No_fault () in
  Alcotest.(check (list (pair int int))) "clean" [] outcome.R.deadlocked;
  Alcotest.(check int) "8 x 4 traces" 32 (Trace_set.cardinal outcome.R.traces);
  (* every rank calls the leapfrog *)
  let st = Trace_set.symtab outcome.R.traces in
  Array.iter
    (fun tr ->
      if tr.Trace.tid = 0 then
        Alcotest.(check bool) "has LagrangeLeapFrog" true
          (List.mem "LagrangeLeapFrog" (Trace.to_strings st tr)))
    (Trace_set.traces outcome.R.traces)

let test_lulesh_skip_fault_blocks_neighbours () =
  let outcome =
    Lulesh.run ~fault:(Fault.Skip_function { rank = 2; func = "LagrangeLeapFrog" }) ()
  in
  Alcotest.(check bool) "run hangs" true (outcome.R.deadlocked <> []);
  let st = Trace_set.symtab outcome.R.traces in
  let tr2 = Trace_set.find_exn outcome.R.traces ~pid:2 ~tid:0 in
  Alcotest.(check bool) "rank 2 skipped the phase" false
    (List.mem "LagrangeLeapFrog" (Trace.to_strings st tr2));
  let tr1 = Trace_set.find_exn outcome.R.traces ~pid:1 ~tid:0 in
  Alcotest.(check bool) "neighbour still entered it" true
    (List.mem "LagrangeLeapFrog" (Trace.to_strings st tr1))

let test_lulesh_hydro_physics () =
  (* the mini-app now solves a real Sedov-style problem *)
  let _, h2 = Lulesh.simulate ~edge:4 ~cycles:2 ~fault:Fault.No_fault () in
  let _, h20 = Lulesh.simulate ~edge:4 ~cycles:20 ~fault:Fault.No_fault () in
  let etot h =
    h.Lulesh.total_internal_energy +. h.Lulesh.total_kinetic_energy
  in
  (* total energy is conserved up to artificial-viscosity dissipation *)
  Alcotest.(check bool) "energy within 2% of the deposit" true
    (Float.abs (etot h2 -. 3.0) < 0.06 && Float.abs (etot h20 -. 3.0) < 0.06);
  Alcotest.(check bool) "dissipation is monotone" true (etot h20 <= etot h2);
  (* the blast converts internal energy into kinetic energy *)
  Alcotest.(check bool) "kinetic energy grows" true
    (h20.Lulesh.total_kinetic_energy > h2.Lulesh.total_kinetic_energy);
  (* the peak pressure decays as the blast expands *)
  Alcotest.(check bool) "pressure decays" true
    (h20.Lulesh.max_pressure < h2.Lulesh.max_pressure);
  Alcotest.(check bool) "positive stable dt" true (h20.Lulesh.final_dt > 0.0)

let test_lulesh_hydro_shock_moves () =
  let _, early = Lulesh.simulate ~edge:4 ~cycles:5 ~fault:Fault.No_fault () in
  let _, late = Lulesh.simulate ~edge:4 ~cycles:60 ~fault:Fault.No_fault () in
  Alcotest.(check bool) "shock front advances" true
    (late.Lulesh.shock_cell > early.Lulesh.shock_cell)

let test_lulesh_hydro_deterministic () =
  let _, a = Lulesh.simulate ~cycles:6 ~fault:Fault.No_fault () in
  let _, b = Lulesh.simulate ~cycles:6 ~fault:Fault.No_fault () in
  Alcotest.(check bool) "identical physics" true (a = b)

let test_lulesh_k_sweep_shape () =
  let outcome = Lulesh.run ~np:2 ~cycles:1 ~fault:Fault.No_fault () in
  let tr = Trace_set.find_exn outcome.R.traces ~pid:0 ~tid:0 in
  let ids = Trace.call_ids tr in
  let factor k =
    let table = Difftrace_nlr.Nlr.Loop_table.create () in
    Difftrace_nlr.Nlr.reduction_factor (Difftrace_nlr.Nlr.of_ids ~table ~k ids)
  in
  let f10 = factor 10 and f50 = factor 50 in
  Alcotest.(check bool) "K=50 compresses much more than K=10 (paper §V)" true
    (f50 > 4.0 *. f10)

(* ------------------------------------------------------------------ *)
(* Fault parsing                                                       *)
(* ------------------------------------------------------------------ *)

let test_fault_roundtrip () =
  let faults =
    [ Fault.No_fault;
      Fault.Swap_send_recv { rank = 5; after_iter = 7 };
      Fault.Deadlock_recv { rank = 5; after_iter = 7 };
      Fault.Wrong_collective_size { rank = 2 };
      Fault.Wrong_collective_op { rank = 0 };
      Fault.No_critical { rank = 6; thread = 4 };
      Fault.Skip_function { rank = 2; func = "LagrangeLeapFrog" } ]
  in
  List.iter
    (fun f ->
      Alcotest.(check bool)
        ("roundtrip " ^ Fault.to_string f)
        true
        (Fault.of_string (Fault.to_string f) = Ok f))
    faults;
  Alcotest.(check bool) "bad fault" true
    (Fault.of_string "bogus" = Error "Fault.of_string: bogus")

let () =
  Alcotest.run "workloads"
    [ ( "tsp",
        [ Alcotest.test_case "tour length" `Quick test_tsp_tour_length;
          Alcotest.test_case "2-opt improves" `Quick test_tsp_two_opt_improves;
          prop_tsp_solve_deterministic;
          Alcotest.test_case "validation" `Quick test_tsp_validation ] );
      ( "odd_even",
        [ Alcotest.test_case "find_ptr (paper pairing)" `Quick
            test_find_ptr_matches_paper;
          Alcotest.test_case "find_ptr symmetric" `Quick test_find_ptr_symmetric;
          Alcotest.test_case "sorts" `Quick test_odd_even_sorts;
          prop_odd_even_sorts_any_np;
          Alcotest.test_case "swapBug completes (eager)" `Quick
            test_swap_bug_completes_under_eager;
          Alcotest.test_case "swapBug deadlocks (rendezvous)" `Quick
            test_swap_bug_deadlocks_under_rendezvous;
          Alcotest.test_case "dlBug truncates rank 5" `Quick test_dl_bug_truncates_rank5 ] );
      ( "ilcs",
        [ Alcotest.test_case "normal terminates" `Quick test_ilcs_normal_terminates;
          Alcotest.test_case "champion sanity" `Quick test_ilcs_champion_is_true_min;
          Alcotest.test_case "noCritical flags 6.4" `Quick
            test_ilcs_no_critical_flags_exact_thread;
          Alcotest.test_case "noCritical trace shape" `Quick
            test_ilcs_no_critical_trace_lacks_gomp;
          Alcotest.test_case "wrongSize deadlocks masters" `Quick
            test_ilcs_wrong_size_deadlocks_masters;
          Alcotest.test_case "wrongOp changes rounds" `Quick
            test_ilcs_wrong_op_changes_rounds ] );
      ( "lulesh",
        [ Alcotest.test_case "normal clean" `Quick test_lulesh_normal_clean;
          Alcotest.test_case "skip fault hangs job" `Quick
            test_lulesh_skip_fault_blocks_neighbours;
          Alcotest.test_case "hydro physics" `Quick test_lulesh_hydro_physics;
          Alcotest.test_case "shock moves" `Quick test_lulesh_hydro_shock_moves;
          Alcotest.test_case "hydro deterministic" `Quick
            test_lulesh_hydro_deterministic;
          Alcotest.test_case "K sweep shape" `Quick test_lulesh_k_sweep_shape ] );
      ( "fault",
        [ Alcotest.test_case "to_string/of_string" `Quick test_fault_roundtrip ] ) ]
