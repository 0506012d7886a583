module R = Difftrace_simulator.Runtime
module Diffnlr = Difftrace_diff.Diffnlr
module Phasediff = Difftrace_diff.Phasediff
module Cct = Difftrace_stacktree.Cct
module Stacktree = Difftrace_stacktree.Stacktree

type t = {
  markdown : string;
  best_config : Config.t;
  top_suspect : string option;
}

let generate ?(engine = Engine.Sequential) ~fault_label ~(normal : R.outcome)
    ~(faulty : R.outcome) () =
  let buf = Buffer.create 8192 in
  let pf fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  pf "# DiffTrace report\n\n";
  pf "- fault: `%s`\n" fault_label;
  pf "- faulty run: %s\n"
    (if faulty.R.deadlocked <> [] then
       Printf.sprintf "HUNG (%d threads truncated)" (List.length faulty.R.deadlocked)
     else "completed");
  (match faulty.R.collective_mismatch with
  | Some m -> pf "- collective diagnostic: %s\n" m
  | None -> ());
  List.iter
    (fun r ->
      pf "- locking-discipline violation: process %d, cell `%s`, thread %s\n"
        r.R.race_pid r.R.cell_name
        (String.concat "," (List.map string_of_int r.R.tids)))
    faulty.R.races;
  let ranked =
    match
      Ranking.sweep ~engine ~normal:normal.R.traces ~faulty:faulty.R.traces ()
    with
    | Ok s -> Ranking.refine s.Ranking.rows
    | Error e ->
      (* unreachable: the default axes are non-empty *)
      invalid_arg (Session.error_to_string e)
  in
  let best = List.hd ranked in
  pf "\n## Configuration search (%d evaluated)\n\n```\n%s```\n"
    (List.length ranked) (Ranking.render_refined ranked);
  (* the final comparison runs against fresh tables (no memo) so the
     rendered diffNLR gets pristine L-ids *)
  let c =
    Pipeline.compare_runs best.Ranking.config ~normal:normal.R.traces
      ~faulty:faulty.R.traces
  in
  pf "\n## Comparison under `%s`\n\n" (Config.name best.Ranking.config);
  pf "B-score: %.3f\n\nSuspicious traces:\n\n```\n" c.Pipeline.bscore;
  Array.iteri
    (fun i (l, s) -> if i < 8 && s > 1e-9 then pf "%-6s %.3f\n" l s)
    c.Pipeline.suspects;
  pf "```\n";
  (* the sweep's row came from the same comparison: results never
     depend on its cache *)
  let top_suspect = best.Ranking.top_suspect in
  (match top_suspect with
  | Some suspect ->
    (match Pipeline.find_diffnlr c suspect with
    | Ok d -> pf "\n## diffNLR(%s)\n\n```\n%s```\n" suspect (Diffnlr.render d)
    | Error e ->
      pf "\n## diffNLR(%s)\n\n%s\n" suspect (Pipeline.lookup_error_to_string e));
    (match Pipeline.find_phasediff c suspect with
    | Ok { Phasediff.first_divergent = Some i; total_phases; _ } ->
      pf "\n## Phase analysis\n\nfirst divergent phase: %d of %d\n" i total_phases
    | Ok _ | Error _ ->
      pf "\n## Phase analysis\n\nno phase-level divergence for %s\n" suspect)
  | None ->
    pf "\n## diffNLR\n\nno suspicious trace (the runs are indistinguishable)\n";
    pf "\n## Phase analysis\n\nnot applicable\n");
  let deltas =
    Cct.diff ~normal:(Cct.coalesce normal.R.traces)
      ~faulty:(Cct.coalesce faulty.R.traces)
  in
  pf "\n## Calling-context deltas (top 8)\n\n```\n%s```\n"
    (Cct.render_diff (List.filteri (fun i _ -> i < 8) deltas));
  pf "\n## Where the faulty run stopped (stack tree)\n\n```\n%s```\n"
    (Stacktree.render (Stacktree.build faulty.R.traces));
  if faulty.R.deadlocked <> [] then begin
    (* PRODOMETER-style progress: only meaningful when something hung *)
    let entries = Difftrace_temporal.Progress.least_progressed faulty in
    pf "\n## Least-progressed threads (logical clocks)\n\n```\n%s```\n"
      (Difftrace_temporal.Progress.render (List.filteri (fun i _ -> i < 8) entries))
  end;
  { markdown = Buffer.contents buf; best_config = best.Ranking.config; top_suspect }
