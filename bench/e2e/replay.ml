(* The traced replay: one operation of a workload re-done by calling each
   layer's public functions from here, with a span around every call.

   It follows Session.compare -> Pipeline.compare_runs ->
   Pipeline.analyze call for call, and the daemon's dispatch of the
   requests daemon-mix sends, so the breakdown measures the program the
   plain loop measures. Run checks every replayed output against the
   same oracle as the plain loop, so a replay that drifted from the
   program would show as failed operations, not as a quietly different
   profile. Span names are the layer metrics' names without "_s". *)

open Difftrace
module P = Serve.Protocol
module Frontend = Difftrace_frontend.Frontend
module Registry = Difftrace_frontend.Registry

let ( let* ) = Result.bind
let span = Spans.with_
let count name n = Spans.count name (float_of_int n)

(* CI log path -> lines, for the frontend.lines count *)
let log_lines : (string, int) Hashtbl.t = Hashtbl.create 4

(* --- sources (Session.resolve) ------------------------------------------- *)

let resolve = function
  | Session.Traces ts -> Ok ts
  | Session.Archive { dir; salvage } ->
    span "parlot.load" (fun () ->
        match Archive.load ~salvage ~dir () with
        | Ok l ->
          count "parlot.events" (Trace_set.total_events l.Archive.set);
          Ok l.Archive.set
        | Error e -> Error (Session.Archive_failed e))
  | Session.Ingest { path; frontend } ->
    span "frontend.ingest" (fun () ->
        match Registry.find frontend with
        | None ->
          Error
            (Session.Unknown_frontend { name = frontend; known = Registry.known () })
        | Some fe -> (
          count "frontend.lines"
            (Option.value ~default:0 (Hashtbl.find_opt log_lines path));
          match Frontend.ingest_file fe path with
          | Ok ts -> Ok ts
          | Error e -> Error (Session.Frontend_failed e)))
  | Session.Run name -> Error (Session.Unknown_run { name; known = [] })

(* --- Pipeline.analyze ----------------------------------------------------- *)

let analyze ?store memo (config : Config.t) ts =
  if config.Config.mode <> Config.Exact then
    invalid_arg "Replay.analyze: the workloads use exact mode only";
  let shared = Memo.symtab memo and table = Memo.loop_table memo in
  let k = config.Config.k and repeats = config.Config.repeats in
  let init n f = Engine.init config.Config.engine n f in
  let filtered =
    span "filter.apply" (fun () -> Filter.apply_set config.Config.filter ts)
  in
  count "filter.events_in" (Trace_set.total_events ts);
  count "filter.events_kept" (Trace_set.total_events filtered);
  let own = Trace_set.symtab filtered in
  let traces = Trace_set.traces filtered in
  let short = Array.for_all (fun tr -> tr.Trace.tid = 0) traces in
  let labels = Array.map (fun tr -> Trace.label ~short tr) traces in
  (* probe the memo, summarize the misses into private loop tables, then
     re-intern them into the shared table in trace order *)
  let summaries, hits =
    span "nlr.summarize" @@ fun () ->
    let idss =
      Array.map
        (fun tr ->
          Array.map
            (fun id -> Symtab.intern shared (Symtab.name own id))
            (Trace.call_ids tr))
        traces
    in
    let keys = Array.map (fun ids -> Memo.key ~ids ~k ~repeats) idss in
    let cached = Array.map (Memo.find memo) keys in
    let fresh =
      init (Array.length idss) (fun i ->
          match cached.(i) with
          | Some _ -> None
          | None ->
            let local = Nlr.Loop_table.create () in
            Some (local, Nlr.of_ids ~table:local ~k ~repeats idss.(i)))
    in
    let summaries =
      Array.mapi
        (fun i -> function
          | None -> Option.get cached.(i)
          | Some (local, nlr) ->
            let nlr = Nlr.reintern ~from:local ~into:table nlr in
            Memo.add memo keys.(i) nlr;
            nlr)
        fresh
    in
    (summaries, Array.fold_left (fun n c -> if c = None then n else n + 1) 0 cached)
  in
  let n = Array.length summaries in
  count "nlr.lookups" n;
  count "nlr.hits" hits;
  count "nlr.summaries" (n - hits);
  Array.iter
    (fun nlr ->
      count "nlr.input" nlr.Nlr.input_length;
      count "nlr.elems" (Nlr.length nlr))
    summaries;
  let nlrs = Array.mapi (fun i nlr -> (nlr, traces.(i).Trace.truncated)) summaries in
  let context =
    span "fca.context" (fun () ->
        Context.of_attr_sets
          (Array.to_list
             (Array.mapi
                (fun i (nlr, _) ->
                  (labels.(i), Attributes.of_nlr config.Config.attrs shared nlr))
                nlrs)))
  in
  count "fca.attrs" (Context.n_attrs context);
  count "jsm.pairs" (n * (n - 1) / 2);
  let jsm =
    match store with
    | None -> span "jsm.compute" (fun () -> Jsm.compute ~init context)
    | Some st ->
      (* Store.jsm records a new matrix unless a cached one covered
         every object: a lookup the store answered alone *)
      let matrices () = (Store.stats st).Store.matrices in
      let before = matrices () in
      let jsm = span "jsm.compute" (fun () -> Store.jsm st ~config ~init context) in
      count "store.matrix_lookups" 1;
      if matrices () = before then count "store.matrix_hits" 1;
      jsm
  in
  { Pipeline.config;
    symtab = shared;
    loop_table = table;
    labels;
    nlrs;
    context;
    lattice = lazy (Lattice.of_context_incremental context);
    jsm }

(* --- Pipeline.compare_runs ------------------------------------------------ *)

let compare_runs ?store memo (config : Config.t) ~normal ~faulty =
  let a_n = analyze ?store memo config normal in
  let a_f = analyze ?store memo config faulty in
  let jn, jf, jsm_d =
    span "jsm.compute" (fun () ->
        let jn, jf = Jsm.align a_n.Pipeline.jsm a_f.Pipeline.jsm in
        (jn, jf, Jsm.diff a_n.Pipeline.jsm a_f.Pipeline.jsm))
  in
  let bscore =
    if Jsm.size jsm_d < 2 then 1.0
    else
      let cluster j =
        Linkage.cluster config.Config.linkage (Jsm.rows (Jsm.to_distance j))
      in
      let dn, df =
        span "linkage.cluster" (fun () ->
            let dn = cluster jn in
            (dn, cluster jf))
      in
      span "bscore.score" (fun () -> Bscore.score dn df)
  in
  let suspects =
    span "jsm.compute" (fun () ->
        let s = Array.mapi (fun i l -> (l, Jsm.row_change jsm_d i)) jsm_d.Jsm.labels in
        Array.sort (fun (_, a) (_, b) -> Float.compare b a) s;
        s)
  in
  let only a b =
    List.filter (fun l -> not (Array.exists (String.equal l) b)) (Array.to_list a)
  in
  { Pipeline.cmp_config = config;
    normal = a_n;
    faulty = a_f;
    jsm_d;
    bscore;
    suspects;
    only_normal = only a_n.Pipeline.labels a_f.Pipeline.labels;
    only_faulty = only a_f.Pipeline.labels a_n.Pipeline.labels }

(* --- Session.compare ------------------------------------------------------ *)

let diffnlr_section ~normal ~faulty (c : Pipeline.comparison) target =
  match (target, c.Pipeline.suspects) with
  | None, [||] -> Ok None
  | _ -> (
    let target =
      match target with Some l -> l | None -> fst c.Pipeline.suspects.(0)
    in
    let diff =
      span "diffnlr.make" (fun () ->
          let a0 = Gc.allocated_bytes () in
          let r =
            match Pipeline.find_diffnlr c target with
            | Ok d ->
              count "diffnlr.edits" (Diffnlr.changed_length d);
              Ok (Diffnlr.render ~title:(Printf.sprintf "diffNLR(%s)" target) d)
            | Error e -> Error (Session.Unknown_label e)
          in
          Spans.count "diffnlr.alloc_bytes" (Gc.allocated_bytes () -. a0);
          r)
    in
    let* rendered = diff in
    let note =
      span "eventdb.note" (fun () ->
          Eventdb.divergence_note ~normal ~faulty ~label:target)
    in
    Ok (Some (rendered ^ Option.value ~default:"" note)))

let compare ?store memo config (req : Session.compare_request) =
  span "session.compare" @@ fun () ->
  let* normal = resolve req.Session.cp_normal in
  let* faulty = resolve req.Session.cp_faulty in
  let c = compare_runs ?store memo config ~normal ~faulty in
  let* diff = diffnlr_section ~normal ~faulty c req.Session.cp_diffnlr in
  let top_processes = Pipeline.top_processes c in
  let top_threads = Pipeline.top_threads c in
  let buf = Buffer.create 512 in
  let add fmt = Printf.ksprintf (Buffer.add_string buf) fmt in
  add "configuration: %s\n" (Config.name config);
  add "B-score: %.3f\n" c.Pipeline.bscore;
  add "top processes: %s\n" (String.concat ", " (List.map string_of_int top_processes));
  add "top threads:   %s\n" (String.concat ", " top_threads);
  add "suspicious traces:\n";
  Array.iteri
    (fun i (l, s) -> if i < 8 && s > 1e-9 then add "  %-6s %.3f\n" l s)
    c.Pipeline.suspects;
  (match diff with
  | None -> add "  (none: the runs have no trace in common)\n"
  | Some d -> add "%s" d);
  Ok
    { Session.cp_bscore = c.Pipeline.bscore;
      cp_top_processes = top_processes;
      cp_top_threads = top_threads;
      cp_suspects = c.Pipeline.suspects;
      cp_salvaged = [];
      cp_comparison = c;
      cp_output = Buffer.contents buf }

let store_error e = Session.Store_failed (Store.error_to_string e)

let flush st =
  span "store.flush" (fun () ->
      let r = Store.flush st in
      count "store.file_bytes" (Store.stats st).Store.file_bytes;
      Result.map_error store_error r)

(* one oddeven-store op: the load, compare, flush round trip of a
   one-shot [--store] run *)
let store_compare ~dir config req =
  let* st =
    span "store.load" (fun () -> Result.map_error store_error (Store.load ~dir))
  in
  let* r = compare ~store:st (Store.memo st) config req in
  let* () = flush st in
  Ok r

(* --- the daemon's requests ----------------------------------------------- *)

type daemon = { session : Session.t; store : Store.t; mutable requests : int }

let daemon store = { session = Session.create ~store (); store; requests = 0 }

let query d (req : Session.query_request) =
  span "session.query" @@ fun () ->
  match Query.parse req.Session.qy_text with
  | Error m -> Error (Session.Invalid ("query: " ^ m))
  | Ok q -> (
    let dir = Filename.concat (Store.dir d.store) "eventdb" in
    let open_db src =
      let* ts = resolve src in
      Ok (span "eventdb.open" (fun () -> Eventdb.open_ ~dir ts))
    in
    let* db, how = open_db req.Session.qy_source in
    let* against =
      match req.Session.qy_against with
      | None -> Ok None
      | Some s -> Result.map Option.some (open_db s)
    in
    let warm =
      how = `Loaded && match against with None -> true | Some (_, h) -> h = `Loaded
    in
    count "eventdb.queries" 1;
    if warm then count "eventdb.warm" 1;
    span "eventdb.eval" @@ fun () ->
    match Query.eval db ?against:(Option.map fst against) q with
    | Error e -> Error (Session.Invalid ("query: " ^ Query.error_to_string e))
    | Ok r ->
      Ok
        { Session.qy_kind = Query.kind r;
          qy_size = Query.size r;
          qy_warm = warm;
          qy_output = Query.render r })

(* Session.vdiff's store key: a digest over the aligned label and every
   run's length-prefixed element sequence *)
let vdiff_key ~label runs =
  let b = Buffer.create 256 in
  Buffer.add_string b "difftrace-vdiff 1\n";
  Buffer.add_string b (Printf.sprintf "%d %s\n" (List.length runs) label);
  List.iter
    (fun r ->
      Buffer.add_string b (Printf.sprintf "%d\n" (List.length r.Variational.vr_elems));
      List.iter
        (fun e -> Buffer.add_string b (Printf.sprintf "%d:%s" (String.length e) e))
        r.Variational.vr_elems)
    runs;
  Digest.string (Buffer.contents b)

(* the event-DB footer under each conditioned suspect (Session.vdiff) *)
let vdiff_footers ~label ~trace_sets sps =
  let buf = Buffer.create 128 in
  let seen = Hashtbl.create 4 in
  let n = Array.length trace_sets in
  let first_where p =
    let rec go i = if i >= n then None else if p i then Some i else go (i + 1) in
    go 0
  in
  List.iter
    (fun (sp : Variational.suspect) ->
      let pres = sp.Variational.sp_region.Variational.rg_present in
      match
        ( first_where (fun i -> not (Difftrace_util.Bitset.mem pres i)),
          first_where (fun i -> Difftrace_util.Bitset.mem pres i) )
      with
      | Some without, Some with_ ->
        let normal_i, faulty_i =
          match sp.Variational.sp_polarity with
          | Variational.Present -> (without, with_)
          | Variational.Absent -> (with_, without)
        in
        Option.iter
          (fun note ->
            if not (Hashtbl.mem seen note) then begin
              Hashtbl.replace seen note ();
              Buffer.add_string buf note
            end)
          (span "eventdb.note" (fun () ->
               Eventdb.divergence_note ~normal:trace_sets.(normal_i)
                 ~faulty:trace_sets.(faulty_i) ~label))
      | _ -> ())
    sps;
  Buffer.contents buf

let vdiff d config (req : Session.vdiff_request) =
  span "session.vdiff" @@ fun () ->
  let n = List.length req.Session.vd_runs in
  let rec gather acc = function
    | [] -> Ok (List.rev acc)
    | r :: rest ->
      let* ts = resolve r.Session.vdr_source in
      let a = analyze ~store:d.store (Store.memo d.store) config ts in
      gather ((r, ts, a) :: acc) rest
  in
  let* resolved = gather [] req.Session.vd_runs in
  let* label =
    match (req.Session.vd_trace, resolved) with
    | Some l, _ -> Ok l
    | None, [] -> Error (Session.Invalid "vdiff: no runs")
    | None, (_, _, a0) :: _ -> (
      let common l =
        List.for_all
          (fun (_, _, a) -> Array.exists (String.equal l) a.Pipeline.labels)
          resolved
      in
      match Array.find_opt common a0.Pipeline.labels with
      | Some l -> Ok l
      | None -> Error (Session.Invalid "vdiff: the runs have no trace in common"))
  in
  let* runs =
    List.fold_right
      (fun (r, _, a) acc ->
        let* acc = acc in
        match Pipeline.find_nlr a label with
        | Error e -> Error (Session.Unknown_label e)
        | Ok (nlr, _) ->
          Ok
            ({ Variational.vr_name = r.Session.vdr_name;
               vr_elems = Nlr.to_strings a.Pipeline.symtab nlr;
               vr_axes = r.Session.vdr_axes;
               vr_bad = r.Session.vdr_bad }
            :: acc))
      resolved (Ok [])
  in
  let key = vdiff_key ~label runs in
  let v, warm, sps, rendered =
    span "variational.merge" @@ fun () ->
    let v, warm =
      match Store.find_vdiff d.store ~key with
      | Some cols -> (
        match Variational.of_columns runs cols with
        | v -> (v, true)
        | exception Invalid_argument _ -> (Variational.merge runs, false))
      | None ->
        let v = Variational.merge runs in
        Store.add_vdiff d.store ~key ~nruns:n (Variational.columns_repr v);
        (v, false)
    in
    let sps = Variational.suspects v in
    ( v, warm, sps,
      Variational.render
        ~title:(Printf.sprintf "variational NLR(%s): %d runs" label n)
        v )
  in
  let trace_sets = Array.of_list (List.map (fun (_, ts, _) -> ts) resolved) in
  let footers = vdiff_footers ~label ~trace_sets sps in
  Ok
    { Session.vd_nruns = n;
      vd_columns = Array.length v.Variational.columns;
      vd_regions = List.length (Variational.regions v);
      vd_warm = warm;
      vd_condition =
        Option.map Variational.condition_to_string (Variational.discriminating v);
      vd_output = rendered ^ footers }

let dispatch d call =
  let config params =
    P.config_of_params ~default_engine:Engine.sequential params
  in
  match call with
  | P.Compare { rq_normal; rq_faulty; rq_config; rq_diffnlr } ->
    let* config = config rq_config in
    let* r =
      compare ~store:d.store (Store.memo d.store) config
        { Session.cp_normal = Inputs.session_source rq_normal;
          cp_faulty = Inputs.session_source rq_faulty;
          cp_diffnlr = rq_diffnlr }
    in
    Ok
      (P.P_report
         { pr_style = `Compare;
           pr_bscore = r.Session.cp_bscore;
           pr_top_processes = r.Session.cp_top_processes;
           pr_top_threads = r.Session.cp_top_threads;
           pr_suspects = Array.to_list r.Session.cp_suspects;
           pr_output = r.Session.cp_output })
  | P.Query { rq_q; rq_source; rq_against; rq_config } ->
    let* _ = config rq_config in
    let* r =
      query d
        { Session.qy_text = rq_q;
          qy_source = Inputs.session_source rq_source;
          qy_against = Option.map Inputs.session_source rq_against }
    in
    Ok
      (P.P_query
         { pq_kind = r.Session.qy_kind;
           pq_size = r.Session.qy_size;
           pq_warm = r.Session.qy_warm;
           pq_output = r.Session.qy_output })
  | P.Vdiff { rq_runs; rq_trace; rq_config } ->
    let* config = config rq_config in
    let* r =
      vdiff d config
        { Session.vd_runs =
            List.map
              (fun (v : P.vdiff_run_spec) ->
                { Session.vdr_name = v.P.vs_name;
                  vdr_source = Inputs.session_source v.P.vs_source;
                  vdr_axes = v.P.vs_axes;
                  vdr_bad = v.P.vs_bad })
              rq_runs;
          vd_trace = rq_trace }
    in
    Ok
      (P.P_vdiff
         { pv_nruns = r.Session.vd_nruns;
           pv_columns = r.Session.vd_columns;
           pv_regions = r.Session.vd_regions;
           pv_warm = r.Session.vd_warm;
           pv_condition = r.Session.vd_condition;
           pv_output = r.Session.vd_output })
  | P.Status ->
    let s = span "session.status" (fun () -> Session.status d.session) in
    Ok
      (P.P_status
         { pr_requests = d.requests;
           pr_runs = s.Session.st_runs;
           pr_summaries = s.Session.st_summaries;
           pr_hits = s.Session.st_memo.Memo.hits;
           pr_misses = s.Session.st_memo.Memo.misses;
           pr_store =
             Option.map
               (fun (st : Store.stats) -> (st.Store.summaries, st.Store.matrices))
               s.Session.st_store;
           pr_output =
             Printf.sprintf "requests: %d\n" d.requests ^ s.Session.st_output })
  | P.Record _ | P.Analyze _ | P.Triage _ | P.Subscribe _ | P.Shutdown ->
    Error (Session.Invalid "daemon-mix sends compare, query, vdiff and status only")

(* one request line through Daemon.on_line's steps: decode, dispatch,
   encode, and the flush that follows a compare or vdiff *)
let daemon_request d line =
  match span "serve.decode" (fun () -> P.decode_request line) with
  | Error (id, e) ->
    span "serve.encode" (fun () -> P.encode_response (P.error_response ~id e))
  | Ok { P.req_id; req_call } ->
    d.requests <- d.requests + 1;
    let body =
      match dispatch d req_call with
      | r -> r
      | exception Invalid_argument m -> Error (Session.Invalid m)
    in
    let response =
      span "serve.encode" (fun () ->
          P.encode_response
            (match body with
            | Ok payload -> { P.rsp_id = Some req_id; rsp_body = Ok payload }
            | Error e -> P.error_response ~id:(Some req_id) e))
    in
    (match req_call with
    | P.Compare _ | P.Vdiff _ -> ignore (flush d.store)
    | _ -> ());
    response
