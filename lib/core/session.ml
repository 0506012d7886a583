(* The session API — the shared substance of every frontend command.
   See session.mli for the contract; the renderers here are the single
   source of the report formats pinned in test/cli.t and test/serve.t,
   so the one-shot CLI and the daemon cannot drift apart. *)

module Archive = Difftrace_parlot.Archive
module Trace = Difftrace_trace.Trace
module Trace_set = Difftrace_trace.Trace_set
module Runtime = Difftrace_simulator.Runtime
module Progress = Difftrace_temporal.Progress
module Stacktree = Difftrace_stacktree.Stacktree
module Diffnlr = Difftrace_diff.Diffnlr
module Eventdb = Difftrace_eventdb.Eventdb
module Equery = Difftrace_eventdb.Query
module Variational = Difftrace_variational.Variational
module Bitset = Difftrace_util.Bitset
module Frontend = Difftrace_frontend.Frontend
module Frontend_registry = Difftrace_frontend.Registry
module Telemetry = Difftrace_obs.Telemetry

let ( let* ) = Result.bind

type error =
  | Invalid of string
  | Unknown_workload of { name : string; known : string list }
  | Unknown_frontend of { name : string; known : string list }
  | Unknown_run of { name : string; known : string list }
  | Unknown_label of Pipeline.lookup_error
  | Archive_failed of Archive.error
  | Frontend_failed of Frontend.error
  | Store_failed of string
  | Run_failed of string
  | Protocol of string
  | Internal of string

let error_kind = function
  | Invalid _ -> "invalid-params"
  | Unknown_workload _ -> "unknown-workload"
  | Unknown_frontend _ -> "unknown-frontend"
  | Unknown_run _ -> "unknown-run"
  | Unknown_label _ -> "unknown-label"
  | Archive_failed _ -> "archive-error"
  | Frontend_failed _ -> "frontend-error"
  | Store_failed _ -> "store-error"
  | Run_failed _ -> "run-failed"
  | Protocol _ -> "invalid-request"
  | Internal _ -> "internal"

let error_to_string = function
  | Invalid m -> m
  | Unknown_workload { name; known } ->
    Printf.sprintf "unknown workload %S (known: %s)" name
      (String.concat ", " known)
  | Unknown_frontend { name; known } ->
    Printf.sprintf "unknown frontend %S (known: %s)" name
      (String.concat ", " known)
  | Unknown_run { name; known } ->
    Printf.sprintf "unknown run %S (registered: %s)" name
      (match known with [] -> "none" | l -> String.concat ", " l)
  | Unknown_label e -> Pipeline.lookup_error_to_string e
  | Archive_failed e -> Archive.error_to_string e
  | Frontend_failed e -> Frontend.error_to_string e
  | Store_failed m -> m
  | Run_failed m -> Printf.sprintf "workload failed: %s" m
  | Protocol m -> m
  | Internal m -> Printf.sprintf "internal error: %s" m

(* the simulator keeps one vector clock per rank, np words each, so a
   run holds np² words of clocks: 8 MB at the cap *)
let max_np = 1024

let check_np ~workload np =
  if np < 1 then
    Error (Invalid (Printf.sprintf "workload: np must be >= 1, got %d" np))
  else if np > max_np then
    Error
      (Invalid (Printf.sprintf "workload: np must be <= %d, got %d" max_np np))
  else
    match Difftrace_workloads.Catalog.max_np workload with
    | Some limit when np > limit ->
      Error
        (Invalid
           (Printf.sprintf "workload: np must be <= %d for %s, got %d" limit
              workload np))
    | Some _ | None -> Ok ()

let max_vdiff_runs = 64

let check_vdiff_runs n =
  if n <= max_vdiff_runs then Ok ()
  else
    Error
      (Invalid
         (Printf.sprintf "vdiff: at most %d runs can be aligned, got %d"
            max_vdiff_runs n))

(* about 5 words an event loaded: 2^18 events hold some 11 MB, ten of
   daemon-mix's 64-rank oddeven DBs *)
let eventdb_budget = ref (1 lsl 18)

type t = {
  ses_store : Store.t option;
  ses_memo : Memo.t;
  runs : (string, Trace_set.t) Hashtbl.t;
  eventdbs : Eventdb.t Difftrace_util.Lru.t;
      (* by content digest: equal digests name the same event streams,
         and queries only read a DB, so a kept one answers as a fresh
         load would *)
}

let create ?store () =
  let memo = match store with Some st -> Store.memo st | None -> Memo.create () in
  { ses_store = store;
    ses_memo = memo;
    runs = Hashtbl.create 8;
    eventdbs = Difftrace_util.Lru.create ~budget:!eventdb_budget }

let store t = t.ses_store
let memo t = t.ses_memo

let flush t =
  match t.ses_store with
  | None -> Ok ()
  | Some st -> (
    match Store.flush st with
    | Ok () -> Ok ()
    | Error e -> Error (Store_failed (Store.error_to_string e)))

type source =
  | Traces of Trace_set.t
  | Archive of { dir : string; salvage : bool }
  | Run of string
  | Ingest of { path : string; frontend : string }

(* the one place [Archive.save]'s documented exceptions become a typed
   error *)
let archive ~dir ts =
  match Archive.save ~dir ts with
  | n -> Ok n
  | exception (Invalid_argument m | Sys_error m) ->
    Error (Archive_failed { Archive.err_path = dir; err_reason = m })

(* a line naming the archive goes to [buf] *)
let save_archive buf ~dir ts =
  match dir with
  | None -> Ok 0
  | Some dir ->
    Result.map
      (fun n ->
        Buffer.add_string buf
          (Printf.sprintf "archived %d trace files to %s\n" n dir);
        n)
      (archive ~dir ts)

let run_names t =
  Hashtbl.fold (fun k ts acc -> (k, Trace_set.cardinal ts) :: acc) t.runs []
  |> List.sort compare

let c_cache_hits = Telemetry.Counter.make "frontend.cache_hits"
let c_cache_misses = Telemetry.Counter.make "frontend.cache_misses"
let c_cache_damaged = Telemetry.Counter.make "frontend.cache_damaged"

(* best effort: what cannot be removed stays for the next writer *)
let rec rm_rf path =
  try
    if Sys.is_directory path then (
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path)
    else Sys.remove path
  with Sys_error _ -> ()

(* <store>/ingest/<key>: the v2 archive of one ingested source. The key
   covers the frontend's name and version and the digest of the source
   bytes, so no entry can answer for other bytes or for another
   frontend's reading of them. *)
let ingest_entry st (fe : Frontend.t) source_digest =
  let key =
    Digest.to_hex
      (Digest.string
         (Printf.sprintf "difftrace-ingest 1\n%d:%s%d:%s%s"
            (String.length fe.name) fe.name (String.length fe.version)
            fe.version (Digest.to_hex source_digest)))
  in
  Filename.concat (Filename.concat (Store.dir st) "ingest") key

(* written under a temporary name and renamed into place, so a reader
   sees a whole entry or none; a failed write leaves no entry and the
   next request ingests again *)
let save_entry ~dir ts =
  let tmp = Printf.sprintf "%s.tmp%d" dir (Unix.getpid ()) in
  rm_rf tmp;
  match archive ~dir:tmp ts with
  | Error _ -> rm_rf tmp
  | Ok _ -> (
    rm_rf dir;
    try Sys.rename tmp dir with Sys_error _ -> rm_rf tmp)

(* "<name>.tmp<pid>" -> pid: an ingest entry [save_entry] or a file
   [Framed.write_atomic] was still writing *)
let writer_pid name =
  match String.rindex_opt name '.' with
  | Some dot when dot > 0 -> (
    let suffix = String.sub name (dot + 1) (String.length name - dot - 1) in
    match Scanf.sscanf_opt suffix "tmp%u%!" Fun.id with
    | Some pid when pid > 0 -> Some pid
    | _ -> None)
  | _ -> None

(* signal 0 sends nothing; EPERM means the pid runs as another user *)
let running pid =
  match Unix.kill pid 0 with
  | () -> true
  | exception Unix.Unix_error (Unix.ESRCH, _, _) -> false
  | exception Unix.Unix_error _ -> true

(* remove what a writer that no longer runs left in [dir] *)
let remove_orphans dir =
  match Sys.readdir dir with
  | exception Sys_error _ -> 0
  | names ->
    Array.fold_left
      (fun n name ->
        match writer_pid name with
        | Some pid when not (running pid) ->
          rm_rf (Filename.concat dir name);
          n + 1
        | _ -> n)
      0 names

let remove_orphan_ingests st =
  remove_orphans (Filename.concat (Store.dir st) "ingest")

let remove_orphan_temps st =
  let dir = Store.dir st in
  remove_orphans dir + remove_orphans (Filename.concat dir "eventdb")

(* A lookup digests the file as it streams past, so a hit never holds
   the source on the heap. A miss reads the bytes, ingests them and
   files the entry under the digest of those very bytes: if the file
   changed after the lookup, the entry still answers only for what was
   ingested. Every call that reads its source is one hit or one miss;
   [cache_damaged] counts the misses that found an entry which failed
   to load (and replaced it). [load dir] reads an existing entry. *)
let cached_ingest st fe ~runner ~load path =
  let cached =
    match Digest.file path with
    | exception Sys_error _ -> None
    | d -> (
      let dir = ingest_entry st fe d in
      if not (Sys.file_exists dir) then None
      else
        match load dir with
        | Ok v -> Some v
        | Error _ | (exception Sys_error _) ->
          Telemetry.Counter.incr c_cache_damaged;
          None)
  in
  match cached with
  | Some v ->
    Telemetry.Counter.incr c_cache_hits;
    Ok (`Entry v)
  | None ->
    let* bytes = Frontend.read_source fe path in
    Telemetry.Counter.incr c_cache_misses;
    let* ts = Frontend.ingest_string fe ~runner bytes in
    save_entry ~dir:(ingest_entry st fe (Digest.string bytes)) ts;
    Ok (`Ingested ts)

let find_frontend frontend =
  match Frontend_registry.find frontend with
  | None ->
    Error
      (Unknown_frontend { name = frontend; known = Frontend_registry.known () })
  | Some fe -> Ok fe

(* A store-backed session ingests each source once (see
   [cached_ingest]); a storeless one reads and ingests every time. *)
let ingest_source ?store ~engine ~path ~frontend () =
  let* fe = find_frontend frontend in
  let runner = Engine.runner engine in
  Result.map_error
    (fun e -> Frontend_failed e)
    (match store with
    | None -> Frontend.ingest_file fe ~runner path
    | Some st ->
      let load dir =
        Result.map
          (fun l -> l.Archive.set)
          (Archive.load ~runner ~salvage:false ~dir ())
      in
      Result.map
        (function `Entry ts | `Ingested ts -> ts)
        (cached_ingest st fe ~runner ~load path))

let resolve t ~engine = function
  | Traces ts -> Ok (ts, [])
  | Run name -> (
    match Hashtbl.find_opt t.runs name with
    | Some ts -> Ok (ts, [])
    | None ->
      Error (Unknown_run { name; known = List.map fst (run_names t) }))
  | Archive { dir; salvage } -> (
    match Archive.load ~runner:(Engine.runner engine) ~salvage ~dir () with
    | Ok l -> Ok (l.Archive.set, l.Archive.salvaged)
    | Error e -> Error (Archive_failed e))
  | Ingest { path; frontend } ->
    Result.map
      (fun ts -> (ts, []))
      (ingest_source ?store:t.ses_store ~engine ~path ~frontend ())

(* --- record --------------------------------------------------------- *)

type record_request = {
  rc_name : string option;
  rc_dir : string option;
}

type record_response = {
  rc_files : int;
  rc_traces : int;
  rc_events : int;
  rc_hung : int;
  rc_output : string;
}

let record t ~outcome req =
  if req.rc_name = None && req.rc_dir = None then
    Error (Invalid "record: need a run name and/or an output directory")
  else
    let ts = outcome.Runtime.traces in
    let hung = List.length outcome.Runtime.deadlocked in
    let buf = Buffer.create 128 in
    match save_archive buf ~dir:req.rc_dir ts with
    | Error e -> Error e
    | Ok files -> (
      (* what later requests see is what a separate process would
         load: when the run was archived, re-ingest it through the
         checksummed chunk-at-a-time streaming decoder *)
      let registered =
        match (req.rc_name, req.rc_dir) with
        | None, _ -> Ok ts
        | Some _, None -> Ok ts
        | Some _, Some dir -> (
          match Archive.load ~salvage:false ~dir () with
          | Ok l -> Ok l.Archive.set
          | Error e -> Error (Archive_failed e))
      in
      match registered with
      | Error e -> Error e
      | Ok reg ->
        Option.iter (fun name -> Hashtbl.replace t.runs name reg) req.rc_name;
        if hung > 0 then
          Buffer.add_string buf
            (Printf.sprintf "(the run was HUNG: %d threads truncated)\n" hung);
        Ok
          { rc_files = files;
            rc_traces = Trace_set.cardinal ts;
            rc_events = Trace_set.total_events ts;
            rc_hung = hung;
            rc_output = Buffer.contents buf })

(* --- ingest ---------------------------------------------------------- *)

type ingest_request = {
  ig_path : string;
  ig_frontend : string;
  ig_dir : string option;
}

type ingest_response = {
  ig_traces : int;
  ig_events : int;
  ig_files : int;
  ig_digest : string;
  ig_output : string;
}

let ingest config req =
  let engine = config.Config.engine in
  match
    ingest_source ~engine ~path:req.ig_path ~frontend:req.ig_frontend ()
  with
  | Error e -> Error e
  | Ok ts -> (
    let buf = Buffer.create 128 in
    Buffer.add_string buf
      (Printf.sprintf "ingested %s via %s: %d traces, %d events\n" req.ig_path
         req.ig_frontend (Trace_set.cardinal ts) (Trace_set.total_events ts));
    match save_archive buf ~dir:req.ig_dir ts with
    | Error e -> Error e
    | Ok files ->
      Ok
        { ig_traces = Trace_set.cardinal ts;
          ig_events = Trace_set.total_events ts;
          ig_files = files;
          ig_digest = Frontend.digest ts;
          ig_output = Buffer.contents buf })

(* --- compare / analyze ---------------------------------------------- *)

type compare_request = {
  cp_normal : source;
  cp_faulty : source;
  cp_diffnlr : string option;
}

type compare_response = {
  cp_bscore : float;
  cp_top_processes : int list;
  cp_top_threads : string list;
  cp_suspects : (string * float) array;
  cp_salvaged : Archive.salvage list;
  cp_comparison : Pipeline.comparison;
  cp_output : string;
}

let render_suspects buf (c : Pipeline.comparison) =
  Buffer.add_string buf "suspicious traces:\n";
  Array.iteri
    (fun i (l, s) ->
      if i < 8 && s > 1e-9 then
        Buffer.add_string buf (Printf.sprintf "  %-6s %.3f\n" l s))
    c.Pipeline.suspects

(* One side of a compare, as the pipeline takes it: the run, its
   salvage outcomes, and [note_set label], the trace set
   [Eventdb.divergence_note] reads for [label]. *)
type prepared = {
  pr_run : Pipeline.run;
  pr_salvaged : Archive.salvage list;
  pr_note_set : string -> (Trace_set.t, error) result;
}

let prepared_of_set (ts, salvaged) =
  { pr_run = Pipeline.run_of_set ts;
    pr_salvaged = salvaged;
    pr_note_set = (fun _ -> Ok ts) }

(* [save] writes threads in strict (pid, tid) order, the order of the
   pipeline's runs; a manifest in any other order is loaded whole *)
let strictly_sorted threads =
  let ok = ref true in
  for i = 1 to Array.length threads - 1 do
    let a = threads.(i - 1) and b = threads.(i) in
    if compare (a.Archive.th_pid, a.Archive.th_tid) (b.Archive.th_pid, b.Archive.th_tid) >= 0
    then ok := false
  done;
  !ok

(* An archive run whose manifest names its streams. A thread whose
   source key the store knows is checked, not decoded, and enters the
   run [Summarized]. A thread whose stream digest an earlier thread j of
   the manifest has is checked too, and enters it as [Same] as j: its
   manifest count must equal j's, which is the length j decodes to (or
   j's own error comes first). The rest are decoded, each with its
   source key when there is a store, for the pipeline to file. The
   first damaged thread in manifest order is the error, as for
   [Archive.load]. Only the one trace the diffNLR footer names is
   decoded later, on demand. *)
let prepare_indexed ?store config ~runner (ix : Archive.index) =
  let symtab = Archive.index_symtab ix in
  let threads = ix.Archive.ix_threads in
  let source_key = Store.source_key config in
  let firsts = Hashtbl.create 16 in
  let plan =
    Array.mapi
      (fun i (th : Archive.thread) ->
        match th.Archive.th_digest with
        | None -> `Decode None
        | Some stream -> (
          let summary, source =
            match store with
            | None -> (None, None)
            | Some st ->
              let key = source_key ~stream in
              (Store.find_source st ~key, Some key)
          in
          match (summary, Hashtbl.find_opt firsts stream) with
          | Some summary, _ -> `Check summary
          | None, Some j -> `Repeat j
          | None, None ->
            Hashtbl.add firsts stream i;
            `Decode source))
      threads
  in
  let header (th : Archive.thread) =
    Trace.make ~pid:th.Archive.th_pid ~tid:th.Archive.th_tid
      ~truncated:th.Archive.th_truncated [||]
  in
  let slots =
    runner.Difftrace_util.Runner.run (Array.length threads) (fun i ->
        let th = threads.(i) in
        match plan.(i) with
        | `Check key ->
          Result.map
            (fun () -> Pipeline.Summarized { header = header th; key })
            (Archive.check_thread ix th)
        | `Repeat first ->
          Result.map
            (fun () -> Pipeline.Same { header = header th; first })
            (Archive.check_thread ~events:threads.(first).Archive.th_length ix
               th)
        | `Decode source ->
          Result.map
            (fun trace -> Pipeline.Decoded { trace; source })
            (Archive.decode_thread ix th))
  in
  match Array.find_map (function Error e -> Some e | Ok _ -> None) slots with
  | Some e -> Error (Archive_failed e)
  | None ->
    let slots = Array.map Result.get_ok slots in
    (* the first trace [label] names, as [Eventdb]'s lookup finds it *)
    let note_set label =
      let named slot =
        let tr = Pipeline.slot_trace slot in
        Trace.label ~short:true tr = label || Trace.label tr = label
      in
      let set traces = Trace_set.create symtab traces in
      match Array.find_index named slots with
      | None -> Ok (set [])
      | Some i -> (
        match slots.(i) with
        | Pipeline.Decoded { trace; _ } -> Ok (set [ trace ])
        | Pipeline.Summarized _ | Pipeline.Same _ -> (
          match Archive.decode_thread ix threads.(i) with
          | Ok trace -> Ok (set [ trace ])
          | Error e -> Error (Archive_failed e)))
    in
    Ok
      { pr_run = { Pipeline.run_symtab = symtab; run_slots = slots };
        pr_salvaged = [];
        pr_note_set = note_set }

(* An archive without salvage whose v2 manifest has stream digests, in
   the pipeline's (pid, tid) order, takes the indexed path, with or
   without a store; everything else — salvage, v1 archives and
   manifests without a single digest — loads the whole run as
   [resolve] does. *)
let prepare_archive t config ~runner ~dir =
  Telemetry.Span.with_ "archive.load" @@ fun () ->
  let* ix =
    Result.map_error (fun e -> Archive_failed e) (Archive.open_index ~dir)
  in
  let threads = ix.Archive.ix_threads in
  if
    ix.Archive.ix_version = 2
    && Array.exists (fun th -> th.Archive.th_digest <> None) threads
    && strictly_sorted threads
  then prepare_indexed ?store:t.ses_store config ~runner ix
  else
    Result.map
      (fun l -> prepared_of_set (l.Archive.set, l.Archive.salvaged))
      (Result.map_error
         (fun e -> Archive_failed e)
         (Archive.load_index ~runner ~salvage:false ix))

(* A store-backed ingest source whose entry exists is that entry's
   archive, taken like any other: checked against the store's sources,
   not decoded. *)
let prepare t config source =
  let engine = config.Config.engine in
  let runner = Engine.runner engine in
  match (source, t.ses_store) with
  | Archive { dir; salvage = false }, _ -> prepare_archive t config ~runner ~dir
  | Ingest { path; frontend }, Some st -> (
    let* fe = find_frontend frontend in
    let load dir = prepare_archive t config ~runner ~dir in
    match cached_ingest st fe ~runner ~load path with
    | Ok (`Entry p) -> Ok p
    | Ok (`Ingested ts) -> Ok (prepared_of_set (ts, []))
    | Error e -> Error (Frontend_failed e))
  | _ -> Result.map prepared_of_set (resolve t ~engine source)

(* the diffNLR section shared by the compare and analyze renderings:
   the label it diffs, the diff and the label's footer; [Ok None] = the
   runs have no trace in common. The event-DB footer pins the suspect
   to a raw-event position so a ranked suspect is one [difftrace query]
   away from its events; [note label] renders it. *)
let diffnlr_parts ~note (c : Pipeline.comparison) diffnlr =
  match (diffnlr, c.Pipeline.suspects) with
  | None, [||] -> Ok None
  | _ -> (
    let target =
      match diffnlr with Some l -> l | None -> fst c.Pipeline.suspects.(0)
    in
    match Pipeline.find_diffnlr c target with
    | Ok d ->
      let* note = note target in
      Ok (Some (Printf.sprintf "diffNLR(%s)" target, d, note))
    | Error e -> Error (Unknown_label e))

let section_length (title, d, note) =
  Diffnlr.rendered_length ~title d
  + Option.fold ~none:0 ~some:String.length note

let add_section buf (title, d, note) =
  Diffnlr.render_to buf ~title d;
  Option.iter (Buffer.add_string buf) note

let diffnlr_section ~normal ~faulty c diffnlr =
  Result.map
    (Option.map (fun parts ->
         let buf = Buffer.create (section_length parts) in
         add_section buf parts;
         Buffer.contents buf))
    (diffnlr_parts c diffnlr ~note:(fun label ->
         Ok (Eventdb.divergence_note ~normal ~faulty ~label)))

let compare_common ~style t config req =
  match prepare t config req.cp_normal with
  | Error e -> Error e
  | Ok normal -> (
    match prepare t config req.cp_faulty with
    | Error e -> Error e
    | Ok faulty -> (
      (* the store's memo is the session's; passing the store also
         files the sources of the traces decoded here *)
      let memo = if Option.is_none t.ses_store then Some t.ses_memo else None in
      let c =
        Pipeline.compare_slots ?memo ?store:t.ses_store config
          ~normal:normal.pr_run ~faulty:faulty.pr_run
      in
      let note label =
        let* n = normal.pr_note_set label in
        let* f = faulty.pr_note_set label in
        Ok (Eventdb.divergence_note ~normal:n ~faulty:f ~label)
      in
      match diffnlr_parts ~note c req.cp_diffnlr with
      | Error e -> Error e
      | Ok diff -> (
        let salvaged = normal.pr_salvaged @ faulty.pr_salvaged in
        (* sized for the diffNLR section, the bulk of the report, plus
           room for the lines above it, so the section is not copied
           as the buffer grows *)
        let buf =
          Buffer.create (1024 + Option.fold ~none:0 ~some:section_length diff)
        in
        (match style with
        | `Analyze -> Buffer.add_string buf (Archive.render_salvaged salvaged)
        | `Compare -> ());
        Buffer.add_string buf
          (Printf.sprintf "configuration: %s\n" (Config.name config));
        Buffer.add_string buf
          (Printf.sprintf "B-score: %.3f\n" c.Pipeline.bscore);
        (match style with
        | `Compare ->
          Buffer.add_string buf
            (Printf.sprintf "top processes: %s\n"
               (String.concat ", "
                  (List.map string_of_int (Pipeline.top_processes c))));
          Buffer.add_string buf
            (Printf.sprintf "top threads:   %s\n"
               (String.concat ", " (Pipeline.top_threads c)))
        | `Analyze -> ());
        render_suspects buf c;
        (match diff with
        | None ->
          Buffer.add_string buf "  (none: the runs have no trace in common)\n"
        | Some parts -> add_section buf parts);
        Ok
          { cp_bscore = c.Pipeline.bscore;
            cp_top_processes = Pipeline.top_processes c;
            cp_top_threads = Pipeline.top_threads c;
            cp_suspects = c.Pipeline.suspects;
            cp_salvaged = salvaged;
            cp_comparison = c;
            cp_output = Buffer.contents buf })))

let compare t config req = compare_common ~style:`Compare t config req
let analyze t config req = compare_common ~style:`Analyze t config req

(* --- triage ---------------------------------------------------------- *)

type triage_request = { tg_subject : source; tg_limit : int }

type triage_response = {
  tg_entries : Pipeline.triage_entry array;
  tg_output : string;
}

let triage ?outcome t config req =
  match resolve t ~engine:config.Config.engine req.tg_subject with
  | Error e -> Error e
  | Ok (ts, _salvaged) ->
    let a = Pipeline.analyze ~memo:t.ses_memo config ts in
    let entries = Pipeline.triage a in
    let limit = max 0 req.tg_limit in
    let buf = Buffer.create 512 in
    (match outcome with
    | Some o when o.Runtime.deadlocked <> [] ->
      Buffer.add_string buf
        (Printf.sprintf "run is HUNG: %d threads never terminated\n"
           (List.length o.Runtime.deadlocked))
    | _ -> ());
    Buffer.add_string buf "JSM outliers (most dissimilar traces of this run):\n";
    Buffer.add_string buf
      (Pipeline.render_triage
         (Array.sub entries 0 (min limit (Array.length entries))));
    (match outcome with
    | Some o ->
      Buffer.add_string buf "least-progressed threads (logical clocks):\n";
      Buffer.add_string buf
        (Progress.render
           (List.filteri (fun i _ -> i < limit) (Progress.least_progressed o)))
    | None -> ());
    Buffer.add_string buf "dendrogram:\n";
    Buffer.add_string buf (Pipeline.dendrogram a);
    Buffer.add_string buf "STAT-style stack tree (where is everyone now):\n";
    Buffer.add_string buf (Stacktree.render (Stacktree.build ts));
    Ok { tg_entries = entries; tg_output = Buffer.contents buf }

(* --- query ----------------------------------------------------------- *)

type query_request = {
  qy_text : string;
  qy_source : source;
  qy_against : source option;
}

type query_response = {
  qy_kind : string;
  qy_size : int;
  qy_warm : bool;
  qy_output : string;
}

(* indexes persist under the session store so warm reruns skip the
   build; storeless sessions just build in memory *)
let eventdb_dir t =
  Option.map (fun st -> Filename.concat (Store.dir st) "eventdb") t.ses_store

(* [Eventdb.digest] of the set [ix] loads to, from its manifest alone:
   a v2 manifest with a stream digest on every thread, in the set's
   strict (pid, tid) order *)
let manifest_eventdb_digest (ix : Archive.index) =
  let threads = ix.Archive.ix_threads in
  if
    ix.Archive.ix_version = 2
    && Array.for_all (fun th -> th.Archive.th_digest <> None) threads
    && strictly_sorted threads
  then
    Some
      (Eventdb.digest_of ~symbols:ix.Archive.ix_symbols
         (Array.map
            (fun (th : Archive.thread) ->
              ( th.Archive.th_pid,
                th.Archive.th_tid,
                th.Archive.th_truncated,
                Option.get th.Archive.th_digest ))
            threads))
  else None

(* every thread's checksums, without decoding; the first damaged
   thread in manifest order is the error, as for [Archive.load] *)
let check_threads ~runner (ix : Archive.index) =
  let threads = ix.Archive.ix_threads in
  let checks =
    runner.Difftrace_util.Runner.run (Array.length threads) (fun i ->
        Archive.check_thread ix threads.(i))
  in
  match Array.find_map (function Error e -> Some e | Ok () -> None) checks with
  | Some e -> Error (Archive_failed e)
  | None -> Ok ()

let c_eventdb_hits = Telemetry.Counter.make "eventdb.cache_hits"

let remember t ((db : Eventdb.t), how) =
  let events =
    Array.fold_left
      (fun n th -> n + Array.length th.Eventdb.th_events)
      0 db.Eventdb.db_threads
  in
  Difftrace_util.Lru.add t.eventdbs db.Eventdb.db_digest ~weight:events db;
  (db, how)

let cache_hit db =
  Telemetry.Counter.incr c_eventdb_hits;
  (db, `Cached)

(* A store-backed query of an archive whose manifest names every
   stream knows its index's name before decoding anything: when the
   session holds that index or the store has it, the traces are
   checked, not decoded, and the index is taken from memory or loaded;
   a damaged file is read once, and the index is built from the decoded
   run under the same name. Everything else — no index yet, storeless
   sessions, salvage, v1 and digest-less manifests — loads the run and
   looks its digest up in the session's cache, then goes through
   [Eventdb.open_]. Every index opened stays in the cache, within its
   budget. *)
let open_eventdb t config source =
  let runner = Engine.runner config.Config.engine in
  let dir = eventdb_dir t in
  let of_set ts =
    let digest = Eventdb.digest ts in
    match Difftrace_util.Lru.find t.eventdbs digest with
    | Some db -> cache_hit db
    | None ->
      let db, how = Eventdb.open_ ~runner ?dir ~digest ts in
      remember t (db, (how :> [ `Built | `Cached | `Loaded ]))
  in
  match (dir, source) with
  | Some edb, Archive { dir = adir; salvage = false } -> (
    let decode ix =
      Result.map_error
        (fun e -> Archive_failed e)
        (Archive.load_index ~runner ~salvage:false ix)
    in
    let* found =
      Telemetry.Span.with_ "archive.load" @@ fun () ->
      let* ix =
        Result.map_error (fun e -> Archive_failed e) (Archive.open_index ~dir:adir)
      in
      match manifest_eventdb_digest ix with
      | Some digest -> (
        match Difftrace_util.Lru.find t.eventdbs digest with
        | Some db -> Result.map (fun () -> `Cached db) (check_threads ~runner ix)
        | None when Sys.file_exists (Eventdb.index_file ~dir:edb ~digest) ->
          Result.map (fun () -> `Indexed (ix, digest)) (check_threads ~runner ix)
        | None -> Result.map (fun l -> `Decoded l) (decode ix))
      | None -> Result.map (fun l -> `Decoded l) (decode ix)
    in
    match found with
    | `Cached db -> Ok (cache_hit db)
    | `Decoded l -> Ok (of_set l.Archive.set)
    | `Indexed (ix, digest) -> (
      match Eventdb.load ~dir:edb ~digest with
      | Ok db -> Ok (remember t (db, `Loaded))
      | Error _ ->
        Result.map
          (fun l ->
            let db = Eventdb.build ~runner ~digest l.Archive.set in
            (* best effort, as [Eventdb.open_] *)
            (match Eventdb.save ~dir:edb db with Ok () | Error _ -> ());
            remember t (db, `Built))
          (decode ix)))
  | _ ->
    Result.map
      (fun (ts, _salvaged) -> of_set ts)
      (resolve t ~engine:config.Config.engine source)

let db_labels (db : Eventdb.t) =
  Array.map Eventdb.label db.Eventdb.db_threads

let query t config req =
  match Equery.parse req.qy_text with
  | Error m -> Error (Invalid (Printf.sprintf "query: %s" m))
  | Ok q -> (
    if Equery.needs_against q && req.qy_against = None then
      Error
        (Invalid
           "query: this query compares two runs; provide a second source \
            (--against)")
    else
      let open_db = open_eventdb t config in
      match open_db req.qy_source with
      | Error e -> Error e
      | Ok (db, how) -> (
        let against =
          match req.qy_against with
          | None -> Ok None
          | Some s -> (
            match open_db s with
            | Error e -> Error e
            | Ok (adb, ahow) -> Ok (Some (adb, ahow)))
        in
        match against with
        | Error e -> Error e
        | Ok against -> (
          let adb = Option.map fst against in
          (* no index was built for this request *)
          let warm =
            how <> `Built
            && (match against with None -> true | Some (_, h) -> h <> `Built)
          in
          match Equery.eval db ?against:adb q with
          | Error (Equery.Unknown_thread l) ->
            let known =
              match adb with
              | None -> db_labels db
              | Some a -> Array.append (db_labels db) (db_labels a)
            in
            Error (Unknown_label { Pipeline.unknown = l; known })
          | Error (Equery.Unknown_loop l) ->
            Error
              (Invalid
                 (Printf.sprintf
                    "query: unknown loop %s (the database has %d loop \
                     bodies; see 'loops')"
                    l
                    (Difftrace_nlr.Nlr.Loop_table.size db.Eventdb.db_table)))
          | Error Equery.Needs_against ->
            Error (Invalid ("query: " ^ Equery.error_to_string Equery.Needs_against))
          | Ok r ->
            Ok
              { qy_kind = Equery.kind r;
                qy_size = Equery.size r;
                qy_warm = warm;
                qy_output = Equery.render r })))

(* --- vdiff ------------------------------------------------------------ *)

type vdiff_run = {
  vdr_name : string;
  vdr_source : source;
  vdr_axes : (string * string) list;
  vdr_bad : bool;
}

type vdiff_request = {
  vd_runs : vdiff_run list;
  vd_trace : string option;
}

type vdiff_response = {
  vd_nruns : int;
  vd_columns : int;
  vd_regions : int;
  vd_warm : bool;
  vd_condition : string option;
  vd_output : string;
}

(* the store key for a merged alignment: a digest over the aligned
   label and every run's element sequence in run order. Sequences are
   length-prefixed so no two distinct run sets concatenate to the same
   bytes. The merge is a pure function of exactly these inputs (names,
   axes and verdicts only annotate the result), so equal keys mean the
   persisted columns replay bit-identically. *)
let vdiff_key ~label runs =
  let b = Buffer.create 256 in
  Buffer.add_string b "difftrace-vdiff 1\n";
  Buffer.add_string b (Printf.sprintf "%d %s\n" (List.length runs) label);
  List.iter
    (fun r ->
      Buffer.add_string b
        (Printf.sprintf "%d\n" (List.length r.Variational.vr_elems));
      List.iter
        (fun e -> Buffer.add_string b (Printf.sprintf "%d:%s" (String.length e) e))
        r.Variational.vr_elems)
    runs;
  Digest.string (Buffer.contents b)

(* per-suspect event-DB footer: pin the region to the first raw-event
   divergence between a run that lacks it and one that has it, so a
   conditioned suspect is one [difftrace query] away from its events.
   [note_set i] is run i's trace set for [label], read only for the
   runs a footer compares. *)
let vdiff_footers ~label ~note_set ~nruns sps =
  let buf = Buffer.create 128 in
  let seen = Hashtbl.create 4 in
  let first_where p =
    let rec go i = if i >= nruns then None else if p i then Some i else go (i + 1) in
    go 0
  in
  let rec go = function
    | [] -> Ok (Buffer.contents buf)
    | (sp : Variational.suspect) :: rest -> (
      let pres = sp.Variational.sp_region.Variational.rg_present in
      match
        ( first_where (fun i -> not (Bitset.mem pres i)),
          first_where (fun i -> Bitset.mem pres i) )
      with
      | Some without, Some with_ ->
        (* orient so "normal" is the region's good side: a [Present]
           suspect tracks the bad runs, so the run with the region is
           the faulty one; an [Absent] suspect is the reverse *)
        let normal_i, faulty_i =
          match sp.Variational.sp_polarity with
          | Variational.Present -> (without, with_)
          | Variational.Absent -> (with_, without)
        in
        let* normal = note_set normal_i in
        let* faulty = note_set faulty_i in
        Option.iter
          (fun note ->
            if not (Hashtbl.mem seen note) then begin
              Hashtbl.replace seen note ();
              Buffer.add_string buf note
            end)
          (Eventdb.divergence_note ~normal ~faulty ~label);
        go rest
      | _ -> go rest)
  in
  go sps

let vdiff t config req =
  let n = List.length req.vd_runs in
  if n < 2 then
    Error (Invalid "vdiff: need at least two runs to align")
  else
    (* every run through [prepare] (a store-backed archive verifies the
       traces its store knows instead of decoding them) and only the
       NLR stage, against the session's shared tables (the store's memo
       when there is one), so NLR element strings mean the same thing
       across runs; the store files the sources of what was decoded *)
    let memo = if Option.is_none t.ses_store then Some t.ses_memo else None in
    let rec gather acc = function
      | [] -> Ok (List.rev acc)
      | r :: rest -> (
        match prepare t config r.vdr_source with
        | Error e -> Error e
        | Ok p ->
          let s = Pipeline.summarize_run ?memo ?store:t.ses_store config p.pr_run in
          gather ((r, p, s) :: acc) rest)
    in
    match gather [] req.vd_runs with
    | Error e -> Error e
    | Ok resolved -> (
      (* the trace to align: the request's, or the first label (in run
         0's order) common to every run *)
      let label_of =
        match req.vd_trace with
        | Some l -> Ok l
        | None -> (
          let _, _, s0 = List.hd resolved in
          let common l =
            List.for_all
              (fun (_, _, s) -> Array.exists (String.equal l) s.Pipeline.rs_labels)
              resolved
          in
          match Array.find_opt common s0.Pipeline.rs_labels with
          | Some l -> Ok l
          | None -> Error (Invalid "vdiff: the runs have no trace in common"))
      in
      match label_of with
      | Error e -> Error e
      | Ok label -> (
        let nlr_of (_, _, s) =
          match Pipeline.find_summary s label with
          | Ok (nlr, _truncated) ->
            Ok (Difftrace_nlr.Nlr.to_strings s.Pipeline.rs_symtab nlr)
          | Error e -> Error (Unknown_label e)
        in
        let rec elems acc = function
          | [] -> Ok (List.rev acc)
          | r :: rest -> (
            match nlr_of r with
            | Error e -> Error e
            | Ok es -> elems (es :: acc) rest)
        in
        match elems [] resolved with
        | Error e -> Error e
        | Ok elem_lists -> (
          let runs =
            List.map2
              (fun (r, _, _) es ->
                { Variational.vr_name = r.vdr_name;
                  vr_elems = es;
                  vr_axes = r.vdr_axes;
                  vr_bad = r.vdr_bad })
              resolved elem_lists
          in
          let key = vdiff_key ~label runs in
          (* warm path: replay the persisted alignment instead of
             re-running the k-way merge *)
          let v, warm =
            match
              Option.bind t.ses_store (fun st -> Store.find_vdiff st ~key)
            with
            | Some cols -> (
              match Variational.of_columns runs cols with
              | v -> (v, true)
              | exception Invalid_argument _ ->
                (* a damaged record: fall back to a fresh merge *)
                (Variational.merge runs, false))
            | None ->
              let v = Variational.merge runs in
              Option.iter
                (fun st ->
                  Store.add_vdiff st ~key ~nruns:n (Variational.columns_repr v))
                t.ses_store;
              (v, false)
          in
          (* each run's [label] trace, read at most once *)
          let note_sets =
            Array.of_list
              (List.map (fun (_, p, _) -> lazy (p.pr_note_set label)) resolved)
          in
          let note_set i = Lazy.force note_sets.(i) in
          match
            vdiff_footers ~label ~note_set ~nruns:n (Variational.suspects v)
          with
          | Error e -> Error e
          | Ok footers ->
            let buf = Buffer.create 1024 in
            Buffer.add_string buf
              (Variational.render
                 ~title:(Printf.sprintf "variational NLR(%s): %d runs" label n)
                 v);
            Buffer.add_string buf footers;
            Ok
              { vd_nruns = n;
                vd_columns = Array.length v.Variational.columns;
                vd_regions = List.length (Variational.regions v);
                vd_warm = warm;
                vd_condition =
                  Option.map Variational.condition_to_string
                    (Variational.discriminating v);
                vd_output = Buffer.contents buf })))

(* --- status ---------------------------------------------------------- *)

type status = {
  st_runs : (string * int) list;
  st_summaries : int;
  st_memo : Memo.stats;
  st_store : Store.stats option;
  st_output : string;
}

let status t =
  let runs = run_names t in
  let stats = Memo.stats t.ses_memo in
  let store_stats = Option.map Store.stats t.ses_store in
  let buf = Buffer.create 128 in
  Buffer.add_string buf
    (Printf.sprintf "runs: %s\n"
       (match runs with
       | [] -> "(none)"
       | l ->
         String.concat ", "
           (List.map (fun (n, c) -> Printf.sprintf "%s (%d traces)" n c) l)));
  Buffer.add_string buf
    (Printf.sprintf "memo: %d summaries, %d hits, %d misses\n"
       (Memo.length t.ses_memo) stats.Memo.hits stats.Memo.misses);
  (match (t.ses_store, store_stats) with
  | Some st, Some s ->
    Buffer.add_string buf
      (Printf.sprintf "store: %s — %d summaries\n" (Store.dir st)
         s.Store.summaries)
  | _ -> Buffer.add_string buf "store: (none)\n");
  { st_runs = runs;
    st_summaries = Memo.length t.ses_memo;
    st_memo = stats;
    st_store = store_stats;
    st_output = Buffer.contents buf }
