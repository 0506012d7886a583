open Difftrace_trace
module Filter = Difftrace_filter.Filter
module Nlr = Difftrace_nlr.Nlr
module Attributes = Difftrace_fca.Attributes
module Context = Difftrace_fca.Context
module Lattice = Difftrace_fca.Lattice
module Jsm = Difftrace_cluster.Jsm
module Linkage = Difftrace_cluster.Linkage
module Bscore = Difftrace_cluster.Bscore
module Diffnlr = Difftrace_diff.Diffnlr
module Telemetry = Difftrace_obs.Telemetry
module Span = Telemetry.Span

let c_summaries = Telemetry.Counter.make "nlr.summaries"
let c_traces = Telemetry.Counter.make "pipeline.traces.analyzed"

type analysis = {
  config : Config.t;
  symtab : Symtab.t;
  loop_table : Nlr.Loop_table.t;
  labels : string array;
  nlrs : (Nlr.t * bool) array;
  context : Context.t;
  lattice : Lattice.t Lazy.t;
  jsm : Jsm.t;
}

type lookup_error = { unknown : string; known : string array }

let lookup_error_to_string e =
  Printf.sprintf "unknown trace label %S (known labels: %s)" e.unknown
    (String.concat ", " (Array.to_list e.known))

type slot =
  | Decoded of { trace : Trace.t; source : string option }
  | Summarized of { header : Trace.t; key : Memo.key }

type run = { run_symtab : Symtab.t; run_slots : slot array }

let run_of_set ts =
  { run_symtab = Trace_set.symtab ts;
    run_slots =
      Array.map (fun trace -> Decoded { trace; source = None }) (Trace_set.traces ts) }

let slot_trace = function
  | Decoded { trace; _ } -> trace
  | Summarized { header; _ } -> header

(* What the NLR stage gets of one trace: its filtered events, or the
   memo key of a summary the caller found by the trace's source. *)
type probe = Events of Event.t array | Known of Memo.key

(* The call IDs of every trace, re-interned into the shared symbol
   table so that the normal and faulty runs (separate captures) agree
   on IDs — a precondition for sharing the loop table across the two
   runs. [map] sends an own ID to its shared one and is filled on first
   sight, so [Symtab.intern] sees each name once, in the order of a
   per-event pass, and assigns the same IDs. A [Known] trace is skipped:
   its summary was made in these tables, so its names are interned
   already. *)
let remap_calls ~shared ~own probes =
  let map = Array.make (Symtab.size own) (-1) in
  Array.map
    (function
      | Known _ -> [||]
      | Events events ->
        let calls =
          Array.fold_left
            (fun n -> function Event.Call _ -> n + 1 | Event.Return _ -> n)
            0 events
        in
        let ids = Array.make calls 0 in
        let j = ref 0 in
        Array.iter
          (function
            | Event.Call id ->
              if map.(id) < 0 then map.(id) <- Symtab.intern shared (Symtab.name own id);
              ids.(!j) <- map.(id);
              incr j
            | Event.Return _ -> ())
          events;
        ids)
    probes

(* Summarize every trace, in three stages:
   1. key every trace and probe the memo cache (sequential);
   2. summarize the misses, one per distinct key — the first trace with
      it — each into its own private loop table; the engine may fan
      this out across domains;
   3. re-intern the private tables into the shared one in trace order
      (sequential), which assigns the exact IDs a sequential
      shared-table run would, and fill the cache.
   SPMD ranks and OpenMP workers often repeat a call sequence exactly;
   a repeat takes its first copy's shared summary, which is what its
   own reduction and re-interning would have produced (they would add
   no body). The output is byte-identical across engines and to the
   historical direct-interning implementation (see {!Nlr.reintern}).
   A [Known] trace arrives keyed, and the memo holds its summary. *)
let summarize_probes ~engine ?memo ~symtab ~table ~k ~repeats ~own probes =
  Span.with_ "summarize" @@ fun () ->
  let idss = remap_calls ~shared:symtab ~own probes in
  let n = Array.length idss in
  let keys =
    Array.mapi
      (fun i -> function
        | Known key -> key
        | Events _ -> Memo.key ~ids:idss.(i) ~k ~repeats)
      probes
  in
  (* first.(i): the lowest index whose ids equal trace i's; a [Known]
     trace shares by key alone, since the memo answers that key for
     every trace that has it *)
  let known i = match probes.(i) with Known _ -> true | Events _ -> false in
  let first = Array.init n Fun.id in
  let seen = Hashtbl.create n in
  Array.iteri
    (fun i key ->
      match Hashtbl.find_opt seen key with
      | Some j when known i || known j || idss.(j) = idss.(i) -> first.(i) <- j
      | Some _ -> () (* a digest collision: reduce it on its own *)
      | None -> Hashtbl.add seen key i)
    keys;
  let cached =
    match memo with
    | None -> Array.make n None
    | Some m -> Array.map (fun key -> Memo.find m key) keys
  in
  let fresh =
    Engine.init engine n (fun i ->
        match cached.(i) with
        | None when first.(i) = i ->
          if known i then invalid_arg "Pipeline: a summarized trace the memo lacks";
          let local = Nlr.Loop_table.create () in
          Some (local, Nlr.of_ids ~table:local ~k ~repeats idss.(i))
        | _ -> None)
  in
  Telemetry.Counter.add c_summaries
    (Array.fold_left
       (fun acc o -> match o with Some _ -> acc + 1 | None -> acc)
       0 fresh);
  let summaries = Array.make n { Nlr.elems = [||]; input_length = 0 } in
  for i = 0 to n - 1 do
    summaries.(i) <-
      (match cached.(i) with
      | Some nlr -> nlr
      | None ->
        let nlr =
          match fresh.(i) with
          | Some (local, nlr) -> Nlr.reintern ~from:local ~into:table nlr
          | None -> summaries.(first.(i))
        in
        Option.iter (fun m -> Memo.add m keys.(i) nlr) memo;
        nlr)
  done;
  (summaries, first, keys)

let summarize ~engine ?memo ~symtab ~table ~k ~repeats ts =
  let probes = Array.map (fun tr -> Events tr.Trace.events) (Trace_set.traces ts) in
  let summaries, _, _ =
    summarize_probes ~engine ?memo ~symtab ~table ~k ~repeats
      ~own:(Trace_set.symtab ts) probes
  in
  summaries

type run_summary = {
  rs_symtab : Symtab.t;
  rs_loop_table : Nlr.Loop_table.t;
  rs_labels : string array;
  rs_nlrs : (Nlr.t * bool) array;
}

(* The NLR stage of one run. [tables] are the shared symbol and loop
   tables to intern into when there is no memo; a memo (the store's,
   when there is one) carries its own. A store supplies only its memo,
   and files the summary key of every decoded trace that names its
   source. [first.(i)] is the first trace with trace i's summary. *)
let summarize_into ~tables ?memo ?store (config : Config.t) run =
  let memo =
    match store with
    | None -> memo
    | Some st ->
      if memo <> None then
        invalid_arg
          "Pipeline.analyze: ?store carries its own memo; do not also pass \
           ?memo";
      Some (Store.memo st)
  in
  let shared, table =
    match memo with
    | Some m -> (Memo.symtab m, Memo.loop_table m)
    | None -> tables
  in
  let slots = run.run_slots in
  let probes =
    Span.with_ "filter" @@ fun () ->
    let filter = Filter.compile config.Config.filter run.run_symtab in
    Array.map
      (function
        | Decoded { trace; _ } -> Events (filter trace.Trace.events)
        | Summarized { key; _ } -> Known key)
      slots
  in
  let traces = Array.map slot_trace slots in
  Telemetry.Counter.add c_traces (Array.length traces);
  (* single-threaded runs are labeled "5", hybrid runs "5.0"/"5.4",
     matching the paper's tables *)
  let short = Array.for_all (fun tr -> tr.Trace.tid = 0) traces in
  let labels = Array.map (fun tr -> Trace.label ~short tr) traces in
  let summaries, first, keys =
    summarize_probes ~engine:config.Config.engine ?memo ~symtab:shared ~table
      ~k:config.Config.k ~repeats:config.Config.repeats ~own:run.run_symtab probes
  in
  Option.iter
    (fun st ->
      Array.iteri
        (fun i -> function
          | Decoded { source = Some key; _ } -> Store.add_source st ~key keys.(i)
          | _ -> ())
        slots)
    store;
  ( { rs_symtab = shared;
      rs_loop_table = table;
      rs_labels = labels;
      rs_nlrs =
        Array.mapi (fun i nlr -> (nlr, traces.(i).Trace.truncated)) summaries },
    first )

let analyze_into ~tables ?memo ?store (config : Config.t) run =
  Span.with_ "analyze" @@ fun () ->
  let rs, first = summarize_into ~tables ?memo ?store config run in
  let shared = rs.rs_symtab in
  (* a repeated call sequence has its first copy's summary, hence its
     attributes *)
  let rows =
    Span.with_ "attributes" @@ fun () ->
    let attrs = Array.make (Array.length rs.rs_nlrs) [] in
    Array.iteri
      (fun i (nlr, _) ->
        attrs.(i) <-
          (if first.(i) = i then Attributes.of_nlr config.Config.attrs shared nlr
           else attrs.(first.(i))))
      rs.rs_nlrs;
    Array.to_list (Array.mapi (fun i a -> (rs.rs_labels.(i), a)) attrs)
  in
  let context = Span.with_ "context" (fun () -> Context.of_attr_sets rows) in
  { config;
    symtab = shared;
    loop_table = rs.rs_loop_table;
    labels = rs.rs_labels;
    nlrs = rs.rs_nlrs;
    context;
    lattice = lazy (Span.with_ "lattice" (fun () -> Lattice.of_context_incremental context));
    jsm =
      Span.with_ "jsm" (fun () ->
          Jsm.compute
            ?candidates:(Config.candidates config context)
            ~init:(Engine.init config.Config.engine) context) }

let fresh_tables () = (Symtab.create (), Nlr.Loop_table.create ())

let analyze ?memo ?store config ts =
  analyze_into ~tables:(fresh_tables ()) ?memo ?store config (run_of_set ts)

let summarize_run ?memo ?store config run =
  fst (summarize_into ~tables:(fresh_tables ()) ?memo ?store config run)

let lookup labels nlrs label =
  match Array.find_index (String.equal label) labels with
  | Some i -> Ok nlrs.(i)
  | None -> Error { unknown = label; known = labels }

let find_nlr analysis label = lookup analysis.labels analysis.nlrs label
let find_summary rs label = lookup rs.rs_labels rs.rs_nlrs label

type comparison = {
  cmp_config : Config.t;
  normal : analysis;
  faulty : analysis;
  jsm_d : Jsm.t;
  bscore : float;
  suspects : (string * float) array;
  only_normal : string list;
  only_faulty : string list;
}

let compare_slots ?memo ?store (config : Config.t) ~normal ~faulty =
  Span.with_ "compare_runs" @@ fun () ->
  (* without a memo, both runs still intern into one pair of tables,
     so their NLR element IDs mean the same thing *)
  let tables = fresh_tables () in
  let a_n = analyze_into ~tables ?memo ?store config normal in
  let a_f = analyze_into ~tables ?memo ?store config faulty in
  let jn, jf = Span.with_ "align" (fun () -> Jsm.align a_n.jsm a_f.jsm) in
  let jsm_d = Span.with_ "jsm_d" (fun () -> Jsm.diff_aligned jn jf) in
  let bscore =
    Span.with_ "cluster" @@ fun () ->
    if Jsm.size jsm_d < 2 then 1.0
    else
      let meth = config.Config.linkage in
      let dn = Linkage.of_similarity meth jn in
      let df = Linkage.of_similarity meth jf in
      Bscore.score dn df
  in
  let suspects =
    let change = Jsm.row_changes jsm_d in
    Array.mapi (fun i l -> (l, change.(i))) jsm_d.Jsm.labels
  in
  Array.sort (fun (_, a) (_, b) -> Float.compare b a) suspects;
  (* per label: 1 if the normal run has it, 2 if the faulty run has
     it, 3 if both do *)
  let sides = Hashtbl.create (Array.length a_n.labels) in
  let mark bit =
    Array.iter (fun l ->
        let s = Option.value ~default:0 (Hashtbl.find_opt sides l) in
        Hashtbl.replace sides l (s lor bit))
  in
  mark 1 a_n.labels;
  mark 2 a_f.labels;
  let only bit labels =
    List.filter (fun l -> Hashtbl.find sides l = bit) (Array.to_list labels)
  in
  { cmp_config = config;
    normal = a_n;
    faulty = a_f;
    jsm_d;
    bscore;
    suspects;
    only_normal = only 1 a_n.labels;
    only_faulty = only 2 a_f.labels }

let compare_runs ?memo ?store config ~normal ~faulty =
  compare_slots ?memo ?store config ~normal:(run_of_set normal)
    ~faulty:(run_of_set faulty)

let split_label l =
  match String.split_on_char '.' l with
  | [ p ] -> (int_of_string p, 0)
  | [ p; t ] -> (int_of_string p, int_of_string t)
  | _ -> invalid_arg ("Pipeline: bad trace label " ^ l)

let top_processes ?(limit = 6) c =
  let scores = Hashtbl.create 16 in
  Array.iter
    (fun (l, s) ->
      let p, _ = split_label l in
      let cur = Option.value ~default:0.0 (Hashtbl.find_opt scores p) in
      if s > cur then Hashtbl.replace scores p s)
    c.suspects;
  Hashtbl.fold (fun p s acc -> (p, s) :: acc) scores []
  |> List.filter (fun (_, s) -> s > 1e-9)
  |> List.sort (fun (pa, a) (pb, b) ->
         match Float.compare b a with 0 -> Int.compare pa pb | x -> x)
  |> List.filteri (fun i _ -> i < limit)
  |> List.map fst

let top_threads ?(limit = 6) c =
  Array.to_list c.suspects
  |> List.filter (fun (l, s) ->
         let _, t = split_label l in
         t >= 1 && s > 1e-9)
  |> List.filteri (fun i _ -> i < limit)
  |> List.map fst

let find_diffnlr c label =
  match (find_nlr c.normal label, find_nlr c.faulty label) with
  | Ok n, Ok f ->
    Ok
      (Span.with_ "diffnlr" (fun () ->
           Diffnlr.make c.normal.symtab ~normal:n ~faulty:f))
  | Error e, _ | _, Error e -> Error e

type triage_entry = { tr_label : string; tr_score : float; tr_truncated : bool }

let triage analysis =
  let j = analysis.jsm in
  let n = Jsm.size j in
  let entries =
    Array.mapi
      (fun i label ->
        let sum = ref 0.0 in
        for k = 0 to n - 1 do
          if k <> i then sum := !sum +. Jsm.get j i k
        done;
        let mean = if n <= 1 then 1.0 else !sum /. float_of_int (n - 1) in
        { tr_label = label;
          tr_score = 1.0 -. mean;
          tr_truncated = snd analysis.nlrs.(i) })
      j.Jsm.labels
  in
  Array.sort
    (fun a b ->
      match Float.compare b.tr_score a.tr_score with
      | 0 -> Bool.compare b.tr_truncated a.tr_truncated
      | c -> c)
    entries;
  entries

let render_triage entries =
  Difftrace_util.Texttable.render
    ~headers:[ "Trace"; "Outlier score"; "Truncated" ]
    (Array.to_list entries
    |> List.map (fun e ->
           [ e.tr_label;
             Printf.sprintf "%.3f" e.tr_score;
             (if e.tr_truncated then "yes" else "") ]))

let dendrogram analysis =
  if Jsm.size analysis.jsm < 2 then "(fewer than two traces)\n"
  else
    let t = Linkage.of_similarity analysis.config.Config.linkage analysis.jsm in
    Difftrace_cluster.Dendrogram.render ~labels:analysis.jsm.Jsm.labels t

let raw_calls analysis (nlr : Nlr.t) =
  Array.to_list
    (Array.map (Symtab.name analysis.symtab)
       (Nlr.expand ~table:analysis.loop_table nlr))

let find_phasediff c label =
  match (find_nlr c.normal label, find_nlr c.faulty label) with
  | Ok (n, _), Ok (f, _) ->
    Ok
      (Span.with_ "phasediff" (fun () ->
           Difftrace_diff.Phasediff.compare
             ~normal:(raw_calls c.normal n)
             ~faulty:(raw_calls c.faulty f)
             ()))
  | Error e, _ | _, Error e -> Error e
