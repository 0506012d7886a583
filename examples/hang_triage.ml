(* Hung-job triage without a reference run.

   The paper's §II-A observes that "many types of faults may be
   apparent just by analyzing JSM_faulty: processes whose execution got
   truncated will look highly dissimilar to those that terminated
   normally". This example drives that workflow end to end on a
   deadlocked LULESH job:

     1. the job hangs (rank 2 silently skips LagrangeLeapFrog);
     2. the STAT-style stack tree shows where every thread is stuck;
     3. the logical-clock progress report names the least-progressed
        threads (PRODOMETER-style);
     4. JSM triage ranks single-run outliers;
     5. the traces are archived to disk and exported as an OTF2-style
        archive for downstream tooling. *)

open Difftrace
module R = Runtime
module F = Filter
module A = Attributes

let section title =
  Printf.printf "\n%s\n%s\n" title (String.make (String.length title) '=')

let () =
  section "A LULESH job hangs in production (rank 2 skips LagrangeLeapFrog)";
  let outcome =
    Workloads.Lulesh.run ~edge:4 ~cycles:2
      ~fault:(Fault.Skip_function { rank = 2; func = "LagrangeLeapFrog" })
      ()
  in
  Printf.printf "job state: %d of %d threads never terminated\n"
    (List.length outcome.R.deadlocked)
    (Trace_set.cardinal outcome.R.traces);

  section "1. Where is everyone? (STAT-style stack prefix tree)";
  let tree = Stacktree.build outcome.R.traces in
  print_string (Stacktree.render tree);
  Printf.printf "equivalence classes: %d\n"
    (List.length (Stacktree.equivalence_classes tree));

  section "2. Who stopped making progress first? (logical clocks)";
  let entries = Progress.least_progressed outcome in
  print_string (Progress.render (List.filteri (fun i _ -> i < 10) entries));
  (match entries with
  | e :: _ ->
    Printf.printf
      "-> thread %d.%d stalled earliest (Lamport %d): start reading there\n"
      e.Progress.pid e.Progress.tid e.Progress.last_lamport
  | [] -> ());

  section "3. Which traces look unlike the others? (single-run JSM triage)";
  (* the same session API the CLI and the daemon serve; the structured
     entries let the example keep its own compact rendering *)
  let ses = Session.create () in
  let config =
    Config.default
    |> Config.with_filter (F.make [ F.Everything ])
    |> Config.with_attrs { A.granularity = A.Single; freq_mode = A.Actual }
  in
  (match
     Session.triage ses config
       { Session.tg_subject = Session.Traces outcome.R.traces; tg_limit = 8 }
   with
  | Error e -> prerr_endline (Session.error_to_string e)
  | Ok r ->
    print_string
      (Pipeline.render_triage
         (Array.sub r.Session.tg_entries 0
            (min 8 (Array.length r.Session.tg_entries)))));

  section "4. Preserve the evidence";
  let dir = Filename.concat (Filename.get_temp_dir_name ()) "lulesh_hang" in
  (match
     Session.record ses ~outcome { Session.rc_name = None; rc_dir = Some dir }
   with
  | Error e -> prerr_endline (Session.error_to_string e)
  | Ok r ->
    Printf.printf "archived %d compressed trace files to %s\n" r.Session.rc_files
      dir);
  let otf2 = Otf2.render (Otf2.of_outcome outcome) in
  Printf.printf "OTF2-style archive: %d bytes (%d sync records)\n"
    (String.length otf2)
    (List.length (Otf2.sync_points (Otf2.of_outcome outcome)));

  section "Verdict";
  print_endline
    "The stack tree shows rank 2's master idle while every other rank waits\n\
     inside halo receives or the TimeIncrement Allreduce; the progress report\n\
     and the outlier table both point at process 2 — the rank whose upgrade\n\
     dropped the LagrangeLeapFrog call."
