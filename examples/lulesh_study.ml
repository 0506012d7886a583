(* LULESH2 study (paper §V): trace statistics of the fault-free run,
   the NLR-constant sweep, and Table IX's ranking for the injected
   skipped-LagrangeLeapFrog fault in rank 2. *)

open Difftrace
module R = Runtime
module Lulesh = Workloads.Lulesh
module F = Filter

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let () =
  section "Fault-free LULESH2 (8 ranks x 4 OMP threads)";
  let normal, hydro = Lulesh.simulate ~edge:6 ~cycles:2 ~fault:Fault.No_fault () in
  Format.printf "%a@." Capture.pp_stats normal.R.stats;
  Printf.printf
    "physics: E_int %.4f + E_kin %.4f = %.4f (deposit 3.0), peak pressure \
     %.3f at cell %d, dt %.3f\n"
    hydro.Lulesh.total_internal_energy hydro.Lulesh.total_kinetic_energy
    (hydro.Lulesh.total_internal_energy +. hydro.Lulesh.total_kinetic_energy)
    hydro.Lulesh.max_pressure hydro.Lulesh.shock_cell hydro.Lulesh.final_dt;

  section "NLR summarization vs. the constant K (paper: x1.92 @K=10, x16.74 @K=50)";
  let tr = Trace_set.find_exn normal.R.traces ~pid:0 ~tid:0 in
  let ids = Trace.call_ids tr in
  List.iter
    (fun k ->
      let table = Nlr.Loop_table.create () in
      let nlr = Nlr.of_ids ~table ~k ids in
      Printf.printf "K=%-3d  %6d calls -> %5d NLR elements  (factor %.2f)\n" k
        (Array.length ids) (Nlr.length nlr) (Nlr.reduction_factor nlr))
    [ 2; 10; 50 ];

  section "Fault: rank 2 never calls LagrangeLeapFrog (Table IX)";
  let faulty =
    Lulesh.run ~edge:6 ~cycles:2
      ~fault:(Fault.Skip_function { rank = 2; func = "LagrangeLeapFrog" })
      ()
  in
  Printf.printf "deadlocked threads: %s\n"
    (String.concat ", "
       (List.map (fun (p, t) -> Printf.sprintf "%d.%d" p t) faulty.R.deadlocked));
  (match
     Ranking.sweep ~filters:[ F.make [ F.Everything ] ] ~normal:normal.R.traces
       ~faulty:faulty.R.traces ()
   with
  | Ok s -> print_string (Ranking.render s.Ranking.rows)
  | Error e -> prerr_endline (Session.error_to_string e));

  section "diffNLR of the skipped rank's master thread";
  let c =
    Pipeline.compare_runs
      (Config.default |> Config.with_filter (F.make [ F.Everything ]))
      ~normal:normal.R.traces ~faulty:faulty.R.traces
  in
  match Pipeline.find_diffnlr c "2.0" with
  | Error e -> prerr_endline (Pipeline.lookup_error_to_string e)
  | Ok d ->
    Printf.printf "common elements: %d, differing elements: %d\n"
      (Diffnlr.common_length d)
      (Diffnlr.changed_length d);
    (* the full figure is large; show the first lines *)
    let rendered = Diffnlr.render ~title:"diffNLR(2.0)" d in
    let lines = String.split_on_char '\n' rendered in
    List.iteri (fun i l -> if i < 28 then print_endline l) lines
