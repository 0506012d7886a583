(* Metrics, result documents and the diff verdict.

   BENCHMARK.json at the repository root is the one place that names
   the end-to-end metrics (with their regression bounds) and the
   per-layer metrics the final JSON line carries; this module computes
   every metric the harness knows, and reads BENCHMARK.json to pick and
   judge them. *)

module Json = Difftrace.Telemetry.Json

(* [samples]: the measurements [value] is the median of, when one run
   takes several (set-up); [] otherwise *)
type metric = { name : string; value : float; unit_ : string; samples : float list }

let m name unit_ value = { name; value; unit_; samples = [] }

(* --- end-to-end ---------------------------------------------------------- *)

let mb_of_words w = float_of_int w *. float_of_int (Sys.word_size / 8) /. 1e6

(* how fast the host ran: the kernel's typical wall time; a run reports
   it beside its end-to-end or per-layer metrics *)
let host () = [ m "host_kernel_s" "s" (Run.host_kernel ()) ]

(* Times are in reference seconds (Run.scaled). [setup_times] pairs
   each set-up's wall time with the kernel time around it. *)
let end_to_end ~setup_times (ops : Run.result list) =
  let scaled = List.map (fun r -> Run.scaled r.Run.wall ~kernel:r.Run.kernel) ops in
  let n = List.length ops in
  let failed = List.length (List.filter (fun r -> not r.Run.ok) ops) in
  let setups = List.map (fun (t, kernel) -> Run.scaled t ~kernel) setup_times in
  [ { (m "setup_s" "s" (Stats.median setups)) with samples = setups };
    m "latency_p50_s" "s" (Stats.median scaled);
    m "latency_p90_s" "s" (Stats.percentile 0.9 scaled);
    m "ops_per_s" "1/s" (float_of_int n /. List.fold_left ( +. ) 0.0 scaled);
    m "peak_heap_mb" "MB" (mb_of_words (Gc.quick_stat ()).Gc.top_heap_words);
    m "failed_ratio" "ratio" (float_of_int failed /. float_of_int n) ]

(* --- per layer ----------------------------------------------------------- *)

(* every span the replay records besides the root; metric = name ^ "_s" *)
let layers =
  [ "parlot.load"; "frontend.ingest"; "filter.apply"; "nlr.summarize";
    "fca.context"; "jsm.compute"; "linkage.cluster"; "bscore.score";
    "diffnlr.make"; "eventdb.note"; "eventdb.open"; "eventdb.eval";
    "store.load"; "store.flush"; "variational.merge"; "serve.decode";
    "serve.encode"; "session.compare"; "session.query"; "session.vdiff";
    "session.status" ]

(* the layer metrics that count work rather than time it: they repeat
   exactly from run to run, so [diff] requires them to be equal *)
let counts =
  [ "parlot.events"; "frontend.lines"; "filter.kept_ratio"; "nlr.summaries";
    "nlr.memo_hit_ratio"; "nlr.reduction"; "fca.attrs"; "jsm.pairs";
    "diffnlr.edits"; "eventdb.warm_ratio";
    "store.hit_ratio"; "store.file_bytes" ]

let ratio a b = if b = 0.0 then 0.0 else a /. b

(* the counts of one replay pass, per op *)
let pass_counts ops =
  let sum name = List.fold_left (fun acc op -> acc +. Spans.counter ~op name) 0.0 ops in
  let per_op name = sum name /. float_of_int (List.length ops) in
  [ m "parlot.events" "count" (per_op "parlot.events");
    m "frontend.lines" "count" (per_op "frontend.lines");
    m "filter.kept_ratio" "ratio"
      (ratio (sum "filter.events_kept") (sum "filter.events_in"));
    m "nlr.summaries" "count" (per_op "nlr.summaries");
    m "nlr.memo_hit_ratio" "ratio" (ratio (sum "nlr.hits") (sum "nlr.lookups"));
    m "nlr.reduction" "ratio" (ratio (sum "nlr.input") (sum "nlr.elems"));
    m "fca.attrs" "count" (per_op "fca.attrs");
    m "jsm.pairs" "count" (per_op "jsm.pairs");
    m "diffnlr.edits" "count" (per_op "diffnlr.edits");
    m "eventdb.warm_ratio" "ratio" (ratio (sum "eventdb.warm") (sum "eventdb.queries"));
    m "store.hit_ratio" "ratio"
      (ratio (sum "store.matrix_hits") (sum "store.matrix_lookups"));
    m "store.file_bytes" "bytes"
      (List.fold_left
         (fun acc op -> Float.max acc (Spans.counter ~op "store.file_bytes"))
         0.0 ops) ]

(* Each layer time is the op-mean of the layer's self time (scaled like
   the op's wall time) within one replay pass, then the median over
   passes; the op-mean keeps the layers additive, so they and
   [unattributed_s] sum to the traced op time. Returns the metrics and
   whether every pass counted the same work. *)
let per_layer ~pass_ops (passes : Run.pass list) =
  let selfs = Spans.self_times () in
  let self op name =
    match Hashtbl.find_opt selfs op with
    | None -> 0.0
    | Some t -> Option.value ~default:0.0 (Hashtbl.find_opt t name)
  in
  Hashtbl.iter
    (fun _ t ->
      Hashtbl.iter
        (fun name _ ->
          if name <> Spans.root_name && not (List.mem name layers) then
            invalid_arg ("Report.per_layer: unlisted span " ^ name))
        t)
    selfs;
  let op_kernel = Hashtbl.create 64 in
  List.iter
    (fun (p : Run.pass) ->
      List.iteri
        (fun i r -> Hashtbl.replace op_kernel (p.Run.first_op + i) r.Run.kernel)
        p.Run.traced_ops)
    passes;
  let ops_of (p : Run.pass) = List.init pass_ops (fun i -> p.Run.first_op + i) in
  let median_of_pass_means f =
    Stats.median
      (List.map
         (fun p ->
           List.fold_left (fun acc op -> acc +. f op) 0.0 (ops_of p)
           /. float_of_int pass_ops)
         passes)
  in
  let layer_time span =
    median_of_pass_means (fun op ->
        Run.scaled (self op span) ~kernel:(Hashtbl.find op_kernel op))
  in
  let times = List.map (fun l -> m (l ^ "_s") "s" (layer_time l)) layers in
  (* allocation is measured, not counted: it moves with when the GC runs *)
  let alloc =
    median_of_pass_means (fun op -> Spans.counter ~op "diffnlr.alloc_bytes") /. 1e6
  in
  let counts = List.map (fun p -> pass_counts (ops_of p)) passes in
  let repeat = List.for_all (fun c -> c = List.hd counts) counts in
  let walls f =
    List.concat_map
      (fun (p : Run.pass) ->
        List.map (fun r -> Run.scaled r.Run.wall ~kernel:r.Run.kernel) (f p))
      passes
  in
  let overhead =
    (Stats.median (walls (fun p -> p.Run.traced_ops))
    /. Stats.median (walls (fun p -> p.Run.plain_ops)))
    -. 1.0
  in
  ( times
    @ [ m "unattributed_s" "s" (layer_time Spans.root_name);
        m "trace_overhead_ratio" "ratio" overhead;
        m "diffnlr.alloc_mb" "MB" alloc ]
    @ List.hd counts,
    repeat )

(* --- BENCHMARK.json ------------------------------------------------------- *)

type declared = {
  d_name : string;
  d_unit : string;
  d_lower : bool;  (** lower is better *)
  d_bound : float option;
}

type bench = {
  whys : (string * string) list;  (** workload -> why it is in the benchmark *)
  end_to_end : declared list;
  per_layer : declared list;
}

let number = function
  | Json.Int i -> float_of_int i
  | Json.Float f -> f
  | _ -> invalid_arg "number expected"

let field k j =
  match Json.member k j with Some v -> v | None -> invalid_arg ("missing " ^ k)

let str k j =
  match field k j with Json.String s -> s | _ -> invalid_arg (k ^ ": string expected")

let list k j =
  match field k j with Json.List l -> l | _ -> invalid_arg (k ^ ": list expected")

let load_bench file =
  let j = Json.of_string (In_channel.with_open_bin file In_channel.input_all) in
  let decl d =
    { d_name = str "name" d;
      d_unit = str "unit" d;
      d_lower = str "better" d = "lower";
      d_bound = Option.map number (Json.member "bound" d) }
  in
  { whys = List.map (fun w -> (str "name" w, str "why" w)) (list "workloads" j);
    end_to_end = List.map decl (list "end_to_end" j);
    per_layer = List.map decl (list "per_layer" j) }

let why bench w = Option.value ~default:"" (List.assoc_opt (Inputs.name w) bench.whys)

(* --- documents ------------------------------------------------------------ *)

let fields x = [ ("value", Json.Float x.value); ("unit", Json.String x.unit_) ]
let metric_json x = Json.Obj (fields x)

(* in a run document a metric also keeps its samples *)
let metric_doc_json x =
  if x.samples = [] then metric_json x
  else
    Json.Obj
      (fields x @ [ ("samples", Json.List (List.map (fun v -> Json.Float v) x.samples)) ])

(* the last stdout line: the declared metrics only *)
let final_line ~correct ~attempted ~failed ~declared metrics =
  let pick d =
    match List.find_opt (fun x -> x.name = d.d_name) metrics with
    | Some x when x.unit_ = d.d_unit -> (x.name, metric_json x)
    | Some x ->
      invalid_arg
        (Printf.sprintf "%s: unit %s, BENCHMARK.json says %s" x.name x.unit_ d.d_unit)
    | None -> invalid_arg ("BENCHMARK.json names an unknown metric " ^ d.d_name)
  in
  Json.to_string
    (Json.Obj
       [ ("correct", Json.Bool correct);
         ("attempted", Json.Int attempted);
         ("failed", Json.Int failed);
         ("metrics", Json.Obj (List.map pick declared)) ])

let schema = "difftrace-e2e/1"

(* one process's result: one workload, plain or traced *)
let run_doc (inputs : Inputs.t) ~seconds ~trace ~attempted ~failed ~correct metrics =
  Json.Obj
    [ ("schema", Json.String schema);
      ("workload", Json.String (Inputs.name inputs.Inputs.workload));
      ("seed", Json.Int inputs.Inputs.seed);
      ("seconds", Json.Float seconds);
      ("trace", Json.Bool trace);
      ("size", Json.String inputs.Inputs.size);
      ("attempted", Json.Int attempted);
      ("failed", Json.Int failed);
      ("correct", Json.Bool correct);
      ("metrics", Json.Obj (List.map (fun x -> (x.name, metric_doc_json x)) metrics)) ]

type summary = {
  s_unit : string;
  values : float list;
  median : float;
  q1 : float;
  q3 : float;
}

let summarize unit_ values =
  match Stats.quantiles values with
  | [ q1; _; q3 ] -> { s_unit = unit_; values; median = Stats.median values; q1; q3 }
  | _ -> assert false

let summary_json s =
  Json.Obj
    [ ("unit", Json.String s.s_unit);
      ("values", Json.List (List.map (fun v -> Json.Float v) s.values));
      ("median", Json.Float s.median);
      ("q1", Json.Float s.q1);
      ("q3", Json.Float s.q3) ]

let summary_of_json j =
  let f k = number (field k j) in
  { s_unit = str "unit" j;
    values = List.map number (list "values" j);
    median = f "median";
    q1 = f "q1";
    q3 = f "q3" }

(* [combine docs] — the run documents of one workload (any mix of plain
   and traced, any number of repetitions) as one per-metric summary: a
   metric's values are one per run, or every sample of every run when
   the runs kept their samples *)
let combine docs =
  let names = ref [] in
  let values = Hashtbl.create 64 in
  List.iter
    (fun doc ->
      match field "metrics" doc with
      | Json.Obj kvs ->
        List.iter
          (fun (name, x) ->
            if not (Hashtbl.mem values name) then names := name :: !names;
            let prev = Option.value ~default:("", []) (Hashtbl.find_opt values name) in
            let vs =
              match Json.member "samples" x with
              | Some (Json.List l) -> List.map number l
              | _ -> [ number (field "value" x) ]
            in
            Hashtbl.replace values name (str "unit" x, snd prev @ vs))
          kvs
      | _ -> invalid_arg "metrics: object expected")
    docs;
  List.rev_map
    (fun name ->
      let u, vs = Hashtbl.find values name in
      (name, summarize u vs))
    !names

(* --- diff ----------------------------------------------------------------- *)

type verdict = Ok_ | Regressed | Unresolved

let verdict_name = function
  | Ok_ -> "ok"
  | Regressed -> "regressed"
  | Unresolved -> "unresolved"

type row = {
  workload : string;
  metric : string;
  a : float;
  b : float;
  verdict : verdict;
}

let spread s = if s.median = 0.0 then 0.0 else (s.q3 -. s.q1) /. Float.abs s.median

(* trace_overhead_ratio sits near 0, so its bound is absolute: the
   replay may not get slower than the program it copies by more than
   this share of an op *)
let overhead_bound = 0.05

(* Times measured while the kernel's typical wall time (host_kernel_s)
   differed by more than this share are not compared: a time in
   kernels is known to hold across that much drift on one host (a busy
   spell once took it from 2.13 to 3.06 ms with op times in kernels
   spreading by 5.6%), but not across hosts, whose ops and kernel may
   not scale alike. *)
let host_tolerance = 0.25

(* Judge B against A. A metric with fewer than two values on a side
   has no spread to judge by and is unresolved. An end-to-end metric
   regresses when B's median is worse than A's by more than its bound,
   and is unresolved when either side's spread exceeds the bound, or,
   for a time, when A and B ran on hosts of different speed.
   trace_overhead_ratio is judged the same way on [overhead_bound].
   Counts must be equal, failed_ratio may not rise; layer times are not
   judged. *)
let judge bench ~workload (a : (string * summary) list) (b : (string * summary) list) =
  let host_differs =
    match (List.assoc_opt "host_kernel_s" a, List.assoc_opt "host_kernel_s" b) with
    | Some ha, Some hb -> Float.abs ((hb.median /. ha.median) -. 1.0) > host_tolerance
    | _ -> true
  in
  List.filter_map
    (fun (name, sa) ->
      match List.assoc_opt name b with
      | None -> None
      | Some sb ->
        let row verdict =
          Some { workload; metric = name; a = sa.median; b = sb.median; verdict }
        in
        let too_few = List.length sa.values < 2 || List.length sb.values < 2 in
        match List.find_opt (fun d -> d.d_name = name) bench.end_to_end with
        | Some d ->
          let bound = Option.value ~default:0.0 d.d_bound in
          let worse =
            if sa.median = 0.0 then 0.0
            else if d.d_lower then (sb.median -. sa.median) /. sa.median
            else (sa.median -. sb.median) /. sa.median
          in
          let timed = d.d_unit = "s" || d.d_unit = "1/s" in
          if too_few || (timed && host_differs)
             || Float.max (spread sa) (spread sb) > bound
          then row Unresolved
          else if worse > bound then row Regressed
          else row Ok_
        | None ->
          if name = "failed_ratio" then
            row (if sb.median > sa.median then Regressed else Ok_)
          else if name = "trace_overhead_ratio" then
            if too_few || Float.max (sa.q3 -. sa.q1) (sb.q3 -. sb.q1) > overhead_bound
            then row Unresolved
            else if sb.median -. sa.median > overhead_bound then row Regressed
            else row Ok_
          else if List.mem name counts then
            row (if sa.median = sb.median then Ok_ else Regressed)
          else None)
    a

let row_json r =
  Json.Obj
    [ ("workload", Json.String r.workload);
      ("metric", Json.String r.metric);
      ("a", Json.Float r.a);
      ("b", Json.Float r.b);
      ("verdict", Json.String (verdict_name r.verdict)) ]

let print_rows rows =
  Printf.printf "%-14s %-22s %14s %14s %8s  %s\n" "workload" "metric" "A" "B"
    "change" "verdict";
  List.iter
    (fun r ->
      let change =
        if r.a = 0.0 then "-"
        else Printf.sprintf "%+.1f%%" (100.0 *. (r.b -. r.a) /. Float.abs r.a)
      in
      Printf.printf "%-14s %-22s %14.6g %14.6g %8s  %s\n" r.workload r.metric r.a
        r.b change (verdict_name r.verdict))
    rows
