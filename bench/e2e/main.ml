(* difftrace end-to-end benchmark.

   main.exe --workload W --seed N --seconds S --trace 0|1 [--out FILE]
       One workload in this process. --trace 0 runs the plain closed
       loop for S seconds and reports the end-to-end metrics; --trace 1
       runs the traced replay and reports the per-layer metrics. Prints
       every metric by name and unit, then one JSON line with the
       metrics BENCHMARK.json declares; exits 1 if any output was wrong.
   main.exe all [--seed N] [--seconds S] [--runs R] [--out FILE] [--host TEXT]
       Every workload, plain then traced, each in a fresh process, R
       times; writes one result document with medians and quartiles
       and, for R >= 2, the verdict of the first half of the runs
       against the second (--host: a description of the machine,
       recorded in it). Exits 1 on a wrong output or a regression.
   main.exe diff A.json B.json
       Judge result document B against A, one row per metric.
   main.exe --quick
       Correctness pass at tiny sizes: every oracle, the result JSON,
       and counts identical across two in-process repetitions.

   Common options: --bench FILE (default BENCHMARK.json), --work DIR
   (scratch space for generated inputs, default bench/e2e/_work). *)

module Json = Difftrace.Telemetry.Json

let die fmt =
  Printf.ksprintf
    (fun m ->
      prerr_endline ("e2e: " ^ m);
      exit 2)
    fmt

type opts = {
  mutable workload : string option;
  mutable seed : int;
  mutable seconds : float;
  mutable trace : bool;
  mutable out : string option;
  mutable work : string;
  mutable bench : string;
  mutable runs : int;
  mutable dir : string option;
  mutable quick : bool;
  mutable host : string;
  mutable files : string list;
}

let parse args =
  let o =
    { workload = None; seed = 1; seconds = 20.0; trace = false; out = None;
      work = Filename.concat "bench" (Filename.concat "e2e" "_work");
      bench = "BENCHMARK.json"; runs = 1; dir = None; quick = false; host = "";
      files = [] }
  in
  let int_ k v =
    match int_of_string_opt v with Some n -> n | None -> die "%s: integer expected" k
  in
  let rec go = function
    | [] -> ()
    | "--quick" :: rest ->
      o.quick <- true;
      go rest
    | k :: v :: rest when String.length k > 2 && String.sub k 0 2 = "--" ->
      (match k with
      | "--workload" -> o.workload <- Some v
      | "--seed" -> o.seed <- int_ k v
      | "--seconds" -> (
        match float_of_string_opt v with
        | Some s -> o.seconds <- s
        | None -> die "--seconds: number expected")
      | "--trace" -> o.trace <- int_ k v <> 0
      | "--out" -> o.out <- Some v
      | "--work" -> o.work <- v
      | "--bench" -> o.bench <- v
      | "--runs" -> o.runs <- int_ k v
      | "--dir" -> o.dir <- Some v
      | "--host" -> o.host <- v
      | _ -> die "unknown option %s" k);
      go rest
    | f :: rest when String.length f > 0 && f.[0] <> '-' ->
      o.files <- o.files @ [ f ];
      go rest
    | a :: _ -> die "bad argument %s" a
  in
  go args;
  o

let workload_of o =
  let known = String.concat ", " (List.map Inputs.name Inputs.all) in
  match o.workload with
  | None -> die "--workload is required (%s)" known
  | Some w -> (
    match Inputs.of_name w with
    | Some w -> w
    | None -> die "unknown workload %s (%s)" w known)

let scale o = if o.quick then Inputs.Quick else Inputs.Full

(* span files and the default [all] result *)
let out_dir = Filename.concat "bench" (Filename.concat "e2e" "_out")

(* a private scratch directory under [--work], removed at exit (after
   stopping a child that may still be writing into it) *)
let scratch o tag =
  let dir = Filename.concat o.work (Printf.sprintf "%s-%d" tag (Unix.getpid ())) in
  Run.rm_rf dir;
  Run.mkdir_p dir;
  at_exit (fun () ->
      Run.stop_child ();
      Run.rm_rf dir);
  dir

let print_metrics metrics =
  List.iter
    (fun (x : Report.metric) ->
      Printf.printf "  %-24s %16.9g %s\n" x.Report.name x.Report.value x.Report.unit_)
    metrics

let write_json file j =
  Run.mkdir_p (Filename.dirname file);
  Out_channel.with_open_bin file (fun oc -> output_string oc (Json.to_string_pretty j))

(* --- one workload ---------------------------------------------------------- *)

let run o =
  let bench = Report.load_bench o.bench in
  let workload = workload_of o in
  let name = Inputs.name workload in
  let work = scratch o name in
  let reps = if o.quick then 1 else 5 in
  let setup_times, inputs, ops =
    Run.setup workload ~scale:(scale o) ~seed:o.seed ~work ~reps
  in
  Printf.printf "%s (seed %d): %s\n" name o.seed inputs.Inputs.size;
  Printf.printf "  why: %s\n%!" (Report.why bench workload);
  let metrics, attempted, failed, correct, declared =
    if not o.trace then begin
      let results = Run.plain_loop ops ~seconds:o.seconds in
      let failed = List.length (List.filter (fun r -> not r.Run.ok) results) in
      ( Report.end_to_end ~setup_times results,
        List.length results, failed, failed = 0, bench.Report.end_to_end )
    end
    else begin
      let passes = Run.trace_loop ops ~seconds:o.seconds ~min_passes:2 in
      let metrics, repeat = Report.per_layer ~pass_ops:ops.Run.pass_ops passes in
      let all = List.concat_map (fun p -> p.Run.plain_ops @ p.Run.traced_ops) passes in
      let failed = List.length (List.filter (fun r -> not r.Run.ok) all) in
      if not repeat then
        print_endline "  ERROR: layer counts differ between replay passes";
      let spans = Filename.concat out_dir ("spans-" ^ name ^ ".jsonl") in
      Run.mkdir_p (Filename.dirname spans);
      Spans.write spans;
      Printf.printf "  %d replay passes of %d ops; spans in %s\n" (List.length passes)
        ops.Run.pass_ops spans;
      (metrics, List.length all, failed, failed = 0 && repeat, bench.Report.per_layer)
    end
  in
  let metrics = metrics @ Report.host () in
  print_metrics metrics;
  Printf.printf "  ops %d, failed %d\n" attempted failed;
  Option.iter
    (fun f ->
      write_json f
        (Report.run_doc inputs ~seconds:o.seconds ~trace:o.trace ~attempted ~failed
           ~correct metrics))
    o.out;
  print_endline (Report.final_line ~correct ~attempted ~failed ~declared metrics);
  exit (if correct then 0 else 1)

(* --- every workload, each in a fresh process -------------------------------- *)

let load_doc file = Json.of_string (In_channel.with_open_bin file In_channel.input_all)

let workloads_of_doc doc =
  List.map
    (fun w ->
      let metrics =
        match Report.field "metrics" w with
        | Json.Obj kvs -> List.map (fun (k, s) -> (k, Report.summary_of_json s)) kvs
        | _ -> invalid_arg "metrics: object expected"
      in
      (Report.str "name" w, metrics))
    (Report.list "workloads" doc)

let verdict bench a b =
  List.concat_map
    (fun (name, ma) ->
      match List.assoc_opt name b with
      | Some mb -> Report.judge bench ~workload:name ma mb
      | None -> [])
    a

let all o =
  let bench = Report.load_bench o.bench in
  let work = scratch o "all" in
  let ok = ref true in
  (* per workload, per repetition: the plain and the traced run's docs *)
  let runs =
    List.map
      (fun w ->
        let name = Inputs.name w in
        ( w,
          List.init o.runs (fun r ->
              List.filter_map
                (fun trace ->
                  let out =
                    Filename.concat work (Printf.sprintf "%s-%d-%b.json" name r trace)
                  in
                  let args =
                    [ "--workload"; name; "--seed"; string_of_int o.seed;
                      "--seconds"; Printf.sprintf "%g" o.seconds;
                      "--trace"; (if trace then "1" else "0"); "--out"; out;
                      "--bench"; o.bench; "--work"; o.work ]
                    @ if o.quick then [ "--quick" ] else []
                  in
                  if not (Run.spawn ~stdout:Unix.stdout args) then ok := false;
                  if Sys.file_exists out then Some (load_doc out) else None)
                [ false; true ]) ))
      Inputs.all
  in
  let doc_of ws =
    List.map
      (fun (w, docs) ->
        let size =
          match docs with d :: _ -> Report.str "size" d | [] -> ""
        in
        (w, size, Report.combine docs))
      ws
  in
  let workload_json (w, size, summaries) =
    Json.Obj
      [ ("name", Json.String (Inputs.name w));
        ("why", Json.String (Report.why bench w));
        ("size", Json.String size);
        ( "metrics",
          Json.Obj (List.map (fun (k, s) -> (k, Report.summary_json s)) summaries) ) ]
  in
  let combined = doc_of (List.map (fun (w, rs) -> (w, List.concat rs)) runs) in
  (* the first half of the runs against the second, as two result
     documents would be judged *)
  let rows =
    if o.runs < 2 then []
    else
      let half lo hi =
        List.map
          (fun (w, _, s) -> (Inputs.name w, s))
          (doc_of
             (List.map
                (fun (w, rs) -> (w, List.concat (List.filteri (fun r _ -> r >= lo && r < hi) rs)))
                runs))
      in
      verdict bench (half 0 (o.runs / 2)) (half (o.runs / 2) o.runs)
  in
  let doc =
    Json.Obj
      ([ ("schema", Json.String (Report.schema ^ "-runs"));
         ("seed", Json.Int o.seed);
         ("seconds", Json.Float o.seconds);
         ("runs", Json.Int o.runs);
         ("host", Json.String o.host);
         ("domains", Json.Int (Domain.recommended_domain_count ()));
         ("ocaml", Json.String Sys.ocaml_version);
         ("workloads", Json.List (List.map workload_json combined)) ]
      @
      if rows = [] then []
      else [ ("verdict_first_vs_second_half", Json.List (List.map Report.row_json rows)) ])
  in
  let out =
    Option.value o.out ~default:(Filename.concat out_dir "results.json")
  in
  write_json out doc;
  print_newline ();
  List.iter
    (fun (w, size, summaries) ->
      Printf.printf "%s: %s\n" (Inputs.name w) size;
      List.iter
        (fun (k, s) ->
          Printf.printf "  %-24s %14.6g %s  [q1 %.6g, q3 %.6g]\n" k s.Report.median
            s.Report.s_unit s.Report.q1 s.Report.q3)
        summaries)
    combined;
  let regressed = List.exists (fun r -> r.Report.verdict = Report.Regressed) rows in
  if rows <> [] then begin
    Printf.printf "\nruns 1-%d vs runs %d-%d:\n" (o.runs / 2) ((o.runs / 2) + 1) o.runs;
    Report.print_rows rows
  end;
  Printf.printf "wrote %s\n" out;
  exit (if !ok && not regressed then 0 else 1)

let diff o =
  let bench = Report.load_bench o.bench in
  match o.files with
  | [ a; b ] ->
    let doc f = workloads_of_doc (load_doc f) in
    let rows = verdict bench (doc a) (doc b) in
    Report.print_rows rows;
    let regressed = List.exists (fun r -> r.Report.verdict = Report.Regressed) rows in
    exit (if regressed then 1 else 0)
  | _ -> die "diff takes two result files"

(* --- the correctness pass ---------------------------------------------------- *)

let quick o =
  let bench = Report.load_bench o.bench in
  let work = scratch o "quick" in
  let failures = ref [] in
  let fail fmt = Printf.ksprintf (fun m -> failures := m :: !failures) fmt in
  List.iter
    (fun w ->
      let name = Inputs.name w in
      let setup_times, inputs, ops =
        Run.setup w ~scale:Inputs.Quick ~seed:1 ~work:(Filename.concat work name)
          ~reps:1
      in
      let plain = Run.plain_loop ops ~seconds:0.0 in
      let passes = Run.trace_loop ops ~seconds:0.0 ~min_passes:2 in
      let layers, repeat = Report.per_layer ~pass_ops:ops.Run.pass_ops passes in
      let all =
        plain @ List.concat_map (fun p -> p.Run.plain_ops @ p.Run.traced_ops) passes
      in
      let failed = List.length (List.filter (fun r -> not r.Run.ok) all) in
      if failed > 0 then
        fail "%s: %d of %d outputs wrong" name failed (List.length all);
      if not repeat then fail "%s: layer counts differ between two replay passes" name;
      let metrics = Report.end_to_end ~setup_times plain @ layers @ Report.host () in
      let doc =
        Report.run_doc inputs ~seconds:0.0 ~trace:true ~attempted:(List.length all)
          ~failed
          ~correct:(failed = 0 && repeat) metrics
      in
      (match Json.of_string (Json.to_string_pretty doc) with
      | parsed ->
        let summaries = Report.combine [ parsed ] in
        if List.length summaries <> List.length metrics then
          fail "%s: result JSON lost metrics" name;
        if List.exists (fun r -> r.Report.verdict = Report.Regressed)
             (Report.judge bench ~workload:name summaries summaries)
        then fail "%s: a result regresses against itself" name
      | exception Json.Parse_error m ->
        fail "%s: result JSON does not parse: %s" name m);
      (match
         Json.of_string
           (Report.final_line ~correct:true ~attempted:1 ~failed:0
              ~declared:(bench.Report.end_to_end @ bench.Report.per_layer) metrics)
       with
      | _ -> ()
      | exception (Invalid_argument m | Json.Parse_error m) -> fail "%s: %s" name m);
      Printf.printf "%-14s %3d ops checked, counts repeat: %b  (%s)\n%!" name
        (List.length all) repeat inputs.Inputs.size)
    Inputs.all;
  match List.rev !failures with
  | [] ->
    print_endline "quick: every oracle passed";
    exit 0
  | l ->
    List.iter (fun m -> prerr_endline ("quick: " ^ m)) l;
    exit 1

let () =
  (* a stopped run still removes its scratch directory (at_exit) *)
  List.iter
    (fun signal -> Sys.set_signal signal (Sys.Signal_handle (fun _ -> exit 130)))
    [ Sys.sigint; Sys.sigterm ];
  let args = List.tl (Array.to_list Sys.argv) in
  let cmd, rest =
    match args with
    | ("setup" | "all" | "diff") as c :: rest -> (c, rest)
    | rest -> ("run", rest)
  in
  let o = parse rest in
  match cmd with
  | "setup" -> (
    match o.dir with
    | None -> die "setup needs --dir"
    | Some dir -> Inputs.generate (workload_of o) ~scale:(scale o) ~seed:o.seed ~dir)
  | "all" -> all o
  | "diff" -> diff o
  | _ when o.quick && o.workload = None -> quick o
  | _ -> run o
