(* ILCS case study (paper §IV): TSP-on-ILCS with 8 MPI ranks × 4 OpenMP
   workers, three injected faults, and the corresponding ranking tables
   (Tables VI-VIII) and diffNLRs (Fig. 7). *)

open Difftrace
module R = Runtime
module Ilcs = Workloads.Ilcs
module F = Filter
module A = Attributes

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let print_ranking ?max_rows = function
  | Ok s -> print_string (Ranking.render ?max_rows s.Ranking.rows)
  | Error e -> prerr_endline (Session.error_to_string e)

let render_diffnlr ~title c label =
  match Pipeline.find_diffnlr c label with
  | Ok d -> print_string (Diffnlr.render ~title d)
  | Error e -> prerr_endline (Pipeline.lookup_error_to_string e)

let () =
  let normal_outcome, normal_result = Ilcs.run ~fault:Fault.No_fault () in
  let normal = normal_outcome.R.traces in
  section "Fault-free ILCS-TSP (8 ranks x 4 workers)";
  Printf.printf "global champion tour length: %d\n"
    normal_result.Ilcs.global_champion;
  Printf.printf "master rounds per rank: %s\n"
    (String.concat ","
       (Array.to_list (Array.map string_of_int normal_result.Ilcs.rounds)));

  (* --- Table VI: unprotected shared-memory access in thread 6.4 ----- *)
  section "OpenMP bug: no critical section in thread 4 of process 6 (Table VI)";
  let faulty_outcome, _ =
    Ilcs.run ~fault:(Fault.No_critical { rank = 6; thread = 4 }) ()
  in
  let faulty = faulty_outcome.R.traces in
  List.iter
    (fun r ->
      Printf.printf
        "detected discipline violation: process %d, cell %s, thread %s\n"
        r.R.race_pid r.R.cell_name
        (String.concat "," (List.map string_of_int r.R.tids)))
    faulty_outcome.R.races;
  let mem_filter = F.make [ F.Sys_memory; F.Omp_critical; F.Custom "CPU_Exec" ] in
  let plt_filter = F.make ~drop_plt:false [ F.Sys_memory; F.Custom "CPU_Exec" ] in
  print_ranking ~max_rows:10
    (Ranking.sweep ~filters:[ mem_filter; plt_filter ] ~normal ~faulty ());
  let c =
    Pipeline.compare_runs
      (Config.default
      |> Config.with_filter mem_filter
      |> Config.with_attrs { A.granularity = A.Double; freq_mode = A.No_freq })
      ~normal ~faulty
  in
  render_diffnlr ~title:"diffNLR(6.4) — Fig. 7a" c "6.4";

  (* --- Table VII: wrong collective size in process 2 ---------------- *)
  section "MPI bug: wrong Allreduce size in process 2 — deadlock (Table VII)";
  let faulty_outcome, _ =
    Ilcs.run ~fault:(Fault.Wrong_collective_size { rank = 2 }) ()
  in
  let faulty = faulty_outcome.R.traces in
  Printf.printf "deadlocked threads: %s\n"
    (String.concat ", "
       (List.map
          (fun (p, t) -> Printf.sprintf "%d.%d" p t)
          faulty_outcome.R.deadlocked));
  (match faulty_outcome.R.collective_mismatch with
  | Some msg -> Printf.printf "collective diagnostic: %s\n" msg
  | None -> ());
  let mpi_filters =
    [ F.make [ F.Mpi_collectives; F.Custom "CPU_Exec|CPU_Init|memcpy" ];
      F.make [ F.Mpi_all; F.Custom "CPU_Exec|CPU_Init|memcpy" ] ]
  in
  print_ranking ~max_rows:10 (Ranking.sweep ~filters:mpi_filters ~normal ~faulty ());
  let c =
    Pipeline.compare_runs
      (Config.default |> Config.with_filter (List.nth mpi_filters 1))
      ~normal ~faulty
  in
  render_diffnlr ~title:"diffNLR(4.0) — Fig. 7b" c "4.0";

  (* --- Table VIII: wrong collective operation in process 0 ---------- *)
  section "MPI bug: MPI_MAX instead of MPI_MIN in process 0 (Table VIII)";
  let faulty_outcome, faulty_result =
    Ilcs.run ~fault:(Fault.Wrong_collective_op { rank = 0 }) ()
  in
  let faulty = faulty_outcome.R.traces in
  Printf.printf
    "run terminates but computes the WORST answer; rounds per rank: %s\n"
    (String.concat ","
       (Array.to_list (Array.map string_of_int faulty_result.Ilcs.rounds)));
  print_ranking ~max_rows:10 (Ranking.sweep ~filters:mpi_filters ~normal ~faulty ());
  let c =
    Pipeline.compare_runs
      (Config.default
      |> Config.with_filter (List.nth mpi_filters 1)
      |> Config.with_attrs { A.granularity = A.Single; freq_mode = A.Actual })
      ~normal ~faulty
  in
  render_diffnlr ~title:"diffNLR(5.0) — Fig. 7c" c "5.0"
