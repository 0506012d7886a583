module Config = Difftrace_core.Config
module Engine = Difftrace_core.Engine
module Memo = Difftrace_core.Memo
module Store = Difftrace_core.Store
module Pipeline = Difftrace_core.Pipeline
module Session = Difftrace_core.Session
module Fault = Difftrace_simulator.Fault
module Runtime = Difftrace_simulator.Runtime
module Archive = Difftrace_parlot.Archive
module Trace = Difftrace_trace.Trace
module Trace_set = Difftrace_trace.Trace_set
module Framed = Difftrace_util.Framed
module Runner = Difftrace_util.Runner
module Telemetry = Difftrace_obs.Telemetry
module Span = Telemetry.Span
module Odd_even = Difftrace_workloads.Odd_even
module Catalog = Difftrace_workloads.Catalog
module Frontend_registry = Difftrace_frontend.Registry

let c_cells = Telemetry.Counter.make "campaign.cells"
let c_failed = Telemetry.Counter.make "campaign.failed"
let c_resumed = Telemetry.Counter.make "campaign.resumed"
let c_manifest_salvaged = Telemetry.Counter.make "campaign.manifest_salvaged"

(* ------------------------------------------------------------------ *)
(* Errors                                                              *)
(* ------------------------------------------------------------------ *)

type error =
  | State_dir of string
  | Wrong_campaign of { dir : string; what : string }
  | Manifest_damaged of { dir : string; reason : string }
  | No_manifest of string
  | Unknown_kind of string
  | Io of string
  | Bad_matrix of string

(* ------------------------------------------------------------------ *)
(* Cell kinds                                                          *)
(* ------------------------------------------------------------------ *)

type kind_fn =
  np:int ->
  seed:int ->
  max_steps:int option ->
  fault:Fault.t ->
  Runtime.outcome

(* one obtained run: the traces plus how the run ended *)
type sim = {
  sm_set : Trace_set.t;
  sm_deadlocked : int;
  sm_timed_out : bool;
  sm_salvaged : int;
}

(* the registry is written only at module init and by [register_kind];
   campaign fan-out only reads it *)
let kind_tbl : (string, kind_fn) Hashtbl.t = Hashtbl.create 16

let register_kind name fn =
  if name = "" then invalid_arg "Campaign.register_kind: empty kind name";
  Hashtbl.replace kind_tbl name fn

let kinds () =
  Hashtbl.fold (fun k _ acc -> k :: acc) kind_tbl Catalog.names
  |> List.sort_uniq String.compare

(* a kind's run, reduced to what a cell keeps of it *)
let simulated (fn : kind_fn) ~np ~seed ~max_steps ~fault =
  let o = fn ~np ~seed ~max_steps ~fault in
  { sm_set = o.Runtime.traces;
    sm_deadlocked = List.length o.Runtime.deadlocked;
    sm_timed_out = o.Runtime.timed_out;
    sm_salvaged = 0 }

(* Frontend-backed corpus cells: the kind "corpus:FRONTEND:DIR" doesn't
   execute anything — it ingests checked-in foreign-format files (CI
   logs, strace captures) through a registered frontend. The fault-free
   reference run ingests the first file of DIR (sorted); a faulty cell
   with seed s ingests file s mod n, so one campaign sweep ranks every
   corpus member against the baseline. The fault axis only
   distinguishes reference from cell. *)
let corpus_prefix = "corpus:"

(* "corpus:FRONTEND:DIR" -> (FRONTEND, DIR) *)
let parse_corpus name =
  if not (String.starts_with ~prefix:corpus_prefix name) then None
  else
    let p = String.length corpus_prefix in
    let rest = String.sub name p (String.length name - p) in
    match String.index_opt rest ':' with
    | Some i when i > 0 && i < String.length rest - 1 ->
      Some
        ( String.sub rest 0 i,
          String.sub rest (i + 1) (String.length rest - i - 1) )
    | _ -> None

let corpus_frontend kind = Option.map fst (parse_corpus kind)

(* corpus cells hold foreign traces *)
let config_for ~kind config =
  if corpus_frontend kind = None then config else Config.foreign config

(* the corpus members, sorted; raises [Sys_error] on an unreadable DIR *)
let corpus_files dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> not (Sys.is_directory (Filename.concat dir f)))
  |> List.sort String.compare

(* cells already run inside the engine fan-out, so each ingests on the
   sequential engine; a failure raises into the campaign's crash
   isolation *)
let corpus_program ~frontend ~dir ~np:_ ~seed ~max_steps:_ ~fault =
  let files = corpus_files dir in
  let n = List.length files in
  if n = 0 then failwith ("corpus cell: no files in " ^ dir);
  let idx = if fault = Fault.No_fault then 0 else ((seed mod n) + n) mod n in
  let path = Filename.concat dir (List.nth files idx) in
  match
    Session.resolve (Session.create ()) ~engine:Engine.Sequential
      (Session.Ingest { path; frontend })
  with
  | Ok (ts, _) ->
    { sm_set = ts; sm_deadlocked = 0; sm_timed_out = false; sm_salvaged = 0 }
  | Error e -> failwith (Session.error_to_string e)

(* registered kinds first (selftest, user kinds), then the bundled
   workload table, then the parameterized corpus family *)
let find_kind name =
  match Hashtbl.find_opt kind_tbl name with
  | Some fn -> Some (simulated fn)
  | None when List.mem name Catalog.names ->
    Some
      (simulated (fun ~np ~seed ~max_steps ~fault ->
           Option.get (Catalog.run ?max_steps name ~np ~seed ~fault)))
  | None ->
    Option.map
      (fun (frontend, dir) -> corpus_program ~frontend ~dir)
      (parse_corpus name)

(* the diagnostics kind: odd/even plus two synthetic failure modes, so
   crash isolation is exercisable from the CLI and CI *)
let () =
  register_kind "selftest" (fun ~np ~seed ~max_steps ~fault ->
      let oddeven ?max_steps fault =
        fst (Odd_even.run ~np ~seed ?max_steps ~fault ())
      in
      match fault with
      | Fault.Skip_function { func = "raise"; _ } ->
        failwith "selftest: injected crash"
      | Fault.Skip_function { func = "spin"; _ } ->
        (* a budget small enough that the sort cannot finish: the
           deterministic stand-in for a livelocked cell *)
        oddeven ~max_steps:10 Fault.No_fault
      | fault -> oddeven ?max_steps fault)

let error_to_string = function
  | State_dir reason -> "campaign state dir: " ^ reason
  | Wrong_campaign { dir; what } ->
    Printf.sprintf
      "%s holds a different campaign (mismatched %s); use a fresh state \
       directory or delete it"
      dir what
  | Manifest_damaged { dir; reason } ->
    Printf.sprintf "campaign manifest in %s: %s" dir reason
  | No_manifest dir -> "no campaign manifest in " ^ dir
  | Unknown_kind kind ->
    Printf.sprintf
      "campaign cell kind %S is not registered (registered: %s); a custom \
       kind must be re-registered before resuming its campaign"
      kind
      (String.concat ", " (kinds ()))
  | Io reason | Bad_matrix reason -> reason

(* ------------------------------------------------------------------ *)
(* Matrix                                                              *)
(* ------------------------------------------------------------------ *)

type matrix = {
  kind : string;
  np : int;
  faults : Fault.t list;
  seeds : int list;
  max_steps : int option;
}

(* a corpus kind must name a registered frontend and a DIR with at
   least one file, so a typo fails before any cell runs *)
let check_corpus kind =
  match parse_corpus kind with
  | None -> Ok ()
  | Some (frontend, _) when Frontend_registry.find frontend = None ->
    Error
      (Session.error_to_string
         (Session.Unknown_frontend
            { name = frontend; known = Frontend_registry.known () }))
  | Some (_, dir) -> (
    match corpus_files dir with
    | [] -> Error (Printf.sprintf "no regular file in %s" dir)
    | _ :: _ -> Ok ()
    | exception Sys_error m -> Error m)

let matrix ?max_steps ~kind ~np ~faults ~seeds () =
  let fail m = Error (Bad_matrix ("Campaign.matrix: " ^ m)) in
  if Option.is_none (find_kind kind) then
    fail
      (Printf.sprintf "unknown cell kind %S (known: %s)" kind
         (String.concat ", " (kinds ())))
  else
    match (check_corpus kind, Session.check_np ~workload:kind np) with
    | Error m, _ -> fail (Printf.sprintf "corpus kind %S: %s" kind m)
    | Ok (), Error e -> Error (Bad_matrix (Session.error_to_string e))
    | Ok (), Ok () ->
      if faults = [] then fail "no faults"
      else if seeds = [] then fail "no seeds"
      else if Option.fold max_steps ~none:false ~some:(fun s -> s < 1) then
        fail "max_steps must be >= 1"
      else
        Ok
          { kind; np; faults; seeds = List.sort_uniq Int.compare seeds;
            max_steps }

type cell = { index : int; fault : Fault.t; seed : int }

let cells m =
  List.concat_map
    (fun (fi, fault) ->
      List.mapi
        (fun si seed -> { index = (fi * List.length m.seeds) + si; fault; seed })
        m.seeds)
    (List.mapi (fun i f -> (i, f)) m.faults)

let cell_label c = Printf.sprintf "%s@s%d" (Fault.to_string c.fault) c.seed

(* ------------------------------------------------------------------ *)
(* Results                                                             *)
(* ------------------------------------------------------------------ *)

type verdict =
  | Completed
  | Hung of { deadlocked : int; timed_out : bool }
  | Failed of { error : string; backtrace : string }

let verdict_to_string = function
  | Completed -> "ok"
  | Hung { deadlocked; timed_out } ->
    Printf.sprintf "HUNG(%d blocked%s)" deadlocked
      (if timed_out then ", timed out" else "")
  | Failed { error; _ } -> Printf.sprintf "FAILED: %s" error

let verdict_short = function
  | Completed -> "ok"
  | Hung _ -> "HUNG"
  | Failed _ -> "FAILED"

type cell_result = {
  cell : cell;
  verdict : verdict;
  bscore : float option;
  suspects : (string * float) list;
  salvaged : int;
  resumed : bool;
}

type outcome = {
  matrix : matrix;
  results : cell_result list;
  executed : int;
  resumed_cells : int;
}

(* ------------------------------------------------------------------ *)
(* State directory layout                                              *)
(* ------------------------------------------------------------------ *)

let manifest_file dir = Filename.concat dir "campaign.manifest"
let cell_dir dir index = Filename.concat dir (Printf.sprintf "cell_%d" index)
let normal_dir dir seed = Filename.concat dir (Printf.sprintf "normal_s%d" seed)
let meta_file adir = Filename.concat adir "cell.meta"

(* ------------------------------------------------------------------ *)
(* Per-cell run metadata (beside the cell's archive)                   *)
(* ------------------------------------------------------------------ *)

(* diagnostics the trace archive itself cannot carry: how the run
   ended. Written when a cell is first simulated; consulted when an
   interrupted campaign re-adopts the archive. *)
let write_meta adir ~deadlocked ~timed_out =
  Framed.write_atomic ~path:(meta_file adir)
    (Framed.seal
       (Printf.sprintf "deadlocked %d\ntimed_out %b\n" deadlocked timed_out))

(* damaged or missing metadata is [None]: the caller falls back to the
   traces' truncation flags *)
let read_meta adir =
  match Result.map Framed.unseal (Framed.read_file (meta_file adir)) with
  | Ok (Ok body) -> (
    try Scanf.sscanf body "deadlocked %d timed_out %b" (fun d t -> Some (d, t))
    with Scanf.Scan_failure _ | Failure _ | End_of_file -> None)
  | Ok (Error _) | Error _ -> None

(* ------------------------------------------------------------------ *)
(* Manifest                                                            *)
(* ------------------------------------------------------------------ *)

let manifest_magic = "difftrace-campaign 1"

(* absent field *)
let none_tok = "-"

let esc s = "!" ^ String.escaped s
let unesc s =
  if s = none_tok then ""
  else if String.starts_with ~prefix:"!" s then
    Scanf.unescaped (String.sub s 1 (String.length s - 1))
  else failwith "bad escaped field"

let encode_verdict = function
  | Completed -> "completed"
  | Hung { deadlocked; timed_out } ->
    Printf.sprintf "hung/%d/%d" deadlocked (if timed_out then 1 else 0)
  | Failed _ -> "failed"

let encode_cell_line r =
  let suspects =
    if r.suspects = [] then none_tok
    else
      String.concat ","
        (List.map (fun (l, s) -> Printf.sprintf "%s=%.6f" l s) r.suspects)
  in
  let error, backtrace =
    match r.verdict with
    | Failed { error; backtrace } -> (esc error, esc backtrace)
    | _ -> (none_tok, none_tok)
  in
  String.concat "\t"
    [ "cell";
      string_of_int r.cell.index;
      encode_verdict r.verdict;
      (match r.bscore with Some b -> Printf.sprintf "%.6f" b | None -> none_tok);
      string_of_int r.salvaged;
      suspects;
      error;
      backtrace ]

let manifest_body m ~config_name results =
  let buf = Buffer.create 1024 in
  Buffer.add_string buf (manifest_magic ^ "\n");
  Buffer.add_string buf (Printf.sprintf "kind %s\n" m.kind);
  Buffer.add_string buf (Printf.sprintf "np %d\n" m.np);
  Buffer.add_string buf
    (Printf.sprintf "seeds %s\n"
       (String.concat " " (List.map string_of_int m.seeds)));
  Buffer.add_string buf
    (Printf.sprintf "budget %s\n"
       (match m.max_steps with Some s -> string_of_int s | None -> none_tok));
  Buffer.add_string buf (Printf.sprintf "config %s\n" config_name);
  List.iter
    (fun f -> Buffer.add_string buf (Printf.sprintf "fault %s\n" (Fault.to_string f)))
    m.faults;
  List.iter
    (fun r -> Buffer.add_string buf (encode_cell_line r ^ "\n"))
    results;
  Buffer.contents buf

(* atomic replacement, so an interrupted campaign never leaves a
   half-written manifest (the CRC footer catches anything else) *)
let write_manifest ~dir m ~config_name results =
  Framed.write_atomic ~path:(manifest_file dir)
    (Framed.seal (manifest_body m ~config_name results))

(* what [status] and resume read back *)
type stored_cell = {
  st_index : int;
  st_verdict : verdict;
  st_bscore : float option;
  st_suspects : (string * float) list;
  st_salvaged : int;
}

(* header fields are options: a salvaged manifest may have lost any of
   them, and a lost field must read as "unknown", never as a default
   that could fake (or mask) a campaign mismatch *)
type loaded_manifest = {
  lm_kind : string option;
  lm_np : int option;
  lm_seeds : int list option;
  lm_faults : Fault.t list;
  lm_budget : int option option;  (** [None] = budget line lost *)
  lm_config : string option;
  lm_cells : stored_cell list;
  lm_salvaged : int;  (** unreadable lines dropped *)
  lm_intact : bool;  (** checksum valid and nothing dropped *)
}

let parse_cell_line_exn line =
  match String.split_on_char '\t' line with
  | [ "cell"; idx; verdict; bscore; salvaged; suspects; error; backtrace ] ->
    let idx = int_of_string idx in
    let bscore =
      if bscore = none_tok then None else Some (float_of_string bscore)
    in
    let suspects =
      if suspects = none_tok then []
      else
        List.map
          (fun kv ->
            match String.rindex_opt kv '=' with
            | Some i ->
              ( String.sub kv 0 i,
                float_of_string (String.sub kv (i + 1) (String.length kv - i - 1))
              )
            | None -> failwith "bad suspect entry")
          (String.split_on_char ',' suspects)
    in
    let verdict =
      match String.split_on_char '/' verdict with
      | [ "completed" ] -> Completed
      | [ "hung"; d; t ] ->
        Hung { deadlocked = int_of_string d; timed_out = t = "1" }
      | [ "failed" ] -> Failed { error = unesc error; backtrace = unesc backtrace }
      | _ -> failwith "bad verdict"
    in
    { st_index = idx;
      st_verdict = verdict;
      st_bscore = bscore;
      st_suspects = suspects;
      st_salvaged = int_of_string salvaged }
  | _ -> failwith "bad cell record"

(* Load whatever of the manifest is still readable; [None] = no
   manifest file. One flipped byte must cost at most the record it
   sits in — the damaged lines are dropped (their cells simply rerun)
   and counted into [lm_salvaged] and the [campaign.manifest_salvaged]
   counter, never raised: a corrupt manifest may not strand hours of
   completed cells behind a [failwith]. *)
let load_manifest ~dir =
  let path = manifest_file dir in
  if not (Sys.file_exists path) then None
  else begin
    let text = Result.value (Framed.read_file path) ~default:"" in
    (* with a valid footer, parse just the body; without one, parse
       everything we have (the stray footer line is then dropped and
       counted like any other unreadable line) *)
    let body, crc_ok =
      match Framed.unseal text with
      | Ok body -> (body, true)
      | Error _ -> (text, false)
    in
    let salvaged = ref 0 in
    let drop () = incr salvaged in
    let lm =
      ref
        { lm_kind = None;
          lm_np = None;
          lm_seeds = None;
          lm_faults = [];
          lm_budget = None;
          lm_config = None;
          lm_cells = [];
          lm_salvaged = 0;
          lm_intact = false }
    in
    let lines =
      String.split_on_char '\n' body |> List.filter (fun l -> l <> "")
    in
    List.iteri
      (fun i line ->
        if i = 0 && line = manifest_magic then ()
        else
          let field k =
            let p = k ^ " " in
            if
              String.length line > String.length p
              && String.sub line 0 (String.length p) = p
            then
              Some
                (String.sub line (String.length p)
                   (String.length line - String.length p))
            else None
          in
          try
            match field "kind" with
            | Some v -> lm := { !lm with lm_kind = Some v }
            | None ->
            match field "np" with
            | Some v -> lm := { !lm with lm_np = Some (int_of_string v) }
            | None ->
            match field "seeds" with
            | Some v ->
              lm :=
                { !lm with
                  lm_seeds =
                    Some
                      (String.split_on_char ' ' v
                      |> List.filter (( <> ) "")
                      |> List.map int_of_string) }
            | None ->
            match field "budget" with
            | Some v ->
              lm :=
                { !lm with
                  lm_budget =
                    Some
                      (if v = none_tok then None else Some (int_of_string v)) }
            | None ->
            match field "config" with
            | Some v -> lm := { !lm with lm_config = Some v }
            | None ->
            match field "fault" with
            | Some v -> (
              match Fault.of_string v with
              | Ok f -> lm := { !lm with lm_faults = !lm.lm_faults @ [ f ] }
              | Error _ -> drop ())
            | None ->
              if String.length line >= 5 && String.sub line 0 5 = "cell\t" then
                lm :=
                  { !lm with
                    lm_cells = !lm.lm_cells @ [ parse_cell_line_exn line ] }
              else failwith "unrecognized manifest line"
          with Failure _ | Scanf.Scan_failure _ | End_of_file -> drop ())
      lines;
    Telemetry.Counter.add c_manifest_salvaged !salvaged;
    Some
      { !lm with
        lm_salvaged = !salvaged;
        lm_intact = crc_ok && !salvaged = 0 }
  end

let rec is_subseq xs ys =
  match (xs, ys) with
  | [], _ -> true
  | _, [] -> false
  | x :: xt, y :: yt -> if x = y then is_subseq xt yt else is_subseq xs yt

(* the loaded manifest describes this very campaign? Lost fields
   cannot testify either way, so only surviving ones are compared; a
   salvaged manifest's fault lines need only be an in-order subset
   (some may have been dropped). *)
let manifest_matches m ~config_name lm =
  let mismatch what = Some what in
  let differs field v = match field with Some w -> w <> v | None -> false in
  if differs lm.lm_kind m.kind then mismatch "kind"
  else if differs lm.lm_np m.np then mismatch "np"
  else if differs lm.lm_seeds m.seeds then mismatch "seeds"
  else if
    if lm.lm_intact then lm.lm_faults <> m.faults
    else not (is_subseq lm.lm_faults m.faults)
  then mismatch "faults"
  else if differs lm.lm_budget m.max_steps then mismatch "step budget"
  else if differs lm.lm_config config_name then mismatch "configuration"
  else None

(* ------------------------------------------------------------------ *)
(* Cell execution                                                      *)
(* ------------------------------------------------------------------ *)

let count_truncated set =
  Array.fold_left
    (fun acc (tr : Trace.t) -> if tr.Trace.truncated then acc + 1 else acc)
    0 (Trace_set.traces set)

(* Obtain one run's traces: adopt a surviving archive from an earlier
   (interrupted) campaign when possible — salvage-loading it, so even
   a damaged archive contributes its checksum-valid prefix — otherwise
   execute the cell program and persist a fresh archive. All failure
   modes are captured as data; nothing escapes into the engine
   fan-out. *)
let obtain ~adir (execute : unit -> sim) : (sim, string * string) result =
  let simulate () =
    match execute () with
    | sim ->
      (* archive persistence is best-effort: the in-memory traces still
         feed the analysis, only resumability suffers *)
      let warn reason =
        Printf.eprintf "difftrace: could not archive %s: %s\n%!" adir reason
      in
      (match
         ignore (Archive.save ~dir:adir sim.sm_set : int);
         write_meta adir ~deadlocked:sim.sm_deadlocked
           ~timed_out:sim.sm_timed_out
       with
      | Ok () -> ()
      | Error reason -> warn reason
      | exception e -> warn (Printexc.to_string e));
      Ok sim
    | exception e ->
      Error (Printexc.to_string e, Printexc.get_backtrace ())
  in
  if Archive.is_archive adir then
    match Archive.load ~salvage:true ~dir:adir () with
    | Ok l ->
      let deadlocked, timed_out =
        match read_meta adir with
        | Some (d, t) -> (d, t)
        | None -> (count_truncated l.Archive.set, false)
      in
      Ok
        { sm_set = l.Archive.set;
          sm_deadlocked = deadlocked;
          sm_timed_out = timed_out;
          sm_salvaged = List.length l.Archive.salvaged }
    | Error _ -> simulate () (* even salvage refused it: re-execute *)
  else simulate ()

let max_suspects = 8

let analyze_cell ~memo ~config c ~normal ~faulty =
  match (faulty, normal) with
  | Error (error, backtrace), _ ->
    { cell = c;
      verdict = Failed { error = "cell run: " ^ error; backtrace };
      bscore = None;
      suspects = [];
      salvaged = 0;
      resumed = false }
  | Ok (sim : sim), Error (error, backtrace) ->
    { cell = c;
      verdict = Failed { error = "reference run: " ^ error; backtrace };
      bscore = None;
      suspects = [];
      salvaged = sim.sm_salvaged;
      resumed = false }
  | Ok sim, Ok (nsim : sim) -> (
    let run_verdict =
      if sim.sm_deadlocked > 0 || sim.sm_timed_out then
        Hung { deadlocked = sim.sm_deadlocked; timed_out = sim.sm_timed_out }
      else Completed
    in
    match
      Pipeline.compare_runs ~memo config ~normal:nsim.sm_set
        ~faulty:sim.sm_set
    with
    | cmp ->
      let suspects =
        Array.to_list cmp.Pipeline.suspects
        |> List.filter (fun (_, s) -> s > 1e-9)
        |> List.filteri (fun i _ -> i < max_suspects)
      in
      { cell = c;
        verdict = run_verdict;
        bscore = Some cmp.Pipeline.bscore;
        suspects;
        salvaged = sim.sm_salvaged + nsim.sm_salvaged;
        resumed = false }
    | exception e ->
      (* the pipeline choked on this cell's (possibly ragged) traces:
         that is a verdict about the cell, not about the campaign *)
      { cell = c;
        verdict =
          Failed
            { error = "analysis: " ^ Printexc.to_string e;
              backtrace = Printexc.get_backtrace () };
        bscore = None;
        suspects = [];
        salvaged = sim.sm_salvaged + nsim.sm_salvaged;
        resumed = false })

(* ------------------------------------------------------------------ *)
(* Running                                                             *)
(* ------------------------------------------------------------------ *)

let result_of_stored all_cells st =
  match List.find_opt (fun c -> c.index = st.st_index) all_cells with
  | None -> None (* stale record outside the matrix: drop *)
  | Some cell ->
    Some
      { cell;
        verdict = st.st_verdict;
        bscore = st.st_bscore;
        suspects = st.st_suspects;
        salvaged = st.st_salvaged;
        resumed = true }

let run ?(config = Config.default) ?on_cell ?store ~dir m =
  Span.with_ "campaign.run" @@ fun () ->
  Printexc.record_backtrace true;
  let config = config_for ~kind:m.kind config in
  let config_name = Config.name config in
  (* the kind must resolve before anything touches disk: a resumed
     matrix can name a kind that was never re-registered in this
     process (status reconstructs such matrices on purpose), and a
     fresh matrix can outlive its registration — both are a typed
     refusal, not a Not_found crash mid-campaign *)
  match find_kind m.kind with
  | None -> Error (Unknown_kind m.kind)
  | Some program -> (
  (* never raises: a bad [dir] parameter must surface as an [Error] a
     resident daemon can report, not as an exception that kills it *)
  match Framed.mkdir_p dir with
  | Error reason -> Error (State_dir reason)
  | Ok () -> (
    let stored =
      match load_manifest ~dir with
      | None -> Ok []
      | Some lm -> (
        match manifest_matches m ~config_name lm with
        | Some what -> Error (Wrong_campaign { dir; what })
        | None ->
          (* a damaged manifest must not strand the campaign: resume
             from every record that survived, rerun the rest *)
          if not lm.lm_intact then
            Printf.eprintf
              "difftrace: campaign manifest in %s is damaged (%d unreadable \
               line(s) dropped); cells they recorded will rerun\n%!"
              dir lm.lm_salvaged;
          Ok lm.lm_cells)
    in
    match stored with
    | Error _ as e -> e
    | Ok stored -> (
      let all = cells m in
      let prior = List.filter_map (result_of_stored all) stored in
      let done_idx = List.map (fun r -> r.cell.index) prior in
      let pending =
        List.filter (fun c -> not (List.mem c.index done_idx)) all
      in
      Telemetry.Counter.add c_resumed (List.length prior);
      (* record the campaign's identity (and any resumed results)
         before the first cell runs — also what rewrites a clean,
         checksummed manifest over a salvaged one *)
      match write_manifest ~dir m ~config_name prior with
      | Error reason -> Error (Io ("campaign manifest: " ^ reason))
      | Ok () ->
      let runner = Engine.runner config.Config.engine in
      (* fault-free reference runs, one per seed a pending cell needs *)
      let seeds_needed =
        Array.of_list
          (List.sort_uniq Int.compare (List.map (fun c -> c.seed) pending))
      in
      let normals =
        Span.with_ "campaign.reference" @@ fun () ->
        runner.Runner.run (Array.length seeds_needed) (fun i ->
            let seed = seeds_needed.(i) in
            ( seed,
              obtain ~adir:(normal_dir dir seed) (fun () ->
                  program ~np:m.np ~seed ~max_steps:m.max_steps
                    ~fault:Fault.No_fault) ))
      in
      let normal_for seed =
        match Array.find_opt (fun (s, _) -> s = seed) normals with
        | Some (_, r) -> r
        | None -> Error ("no reference run for seed " ^ string_of_int seed, "")
      in
      (* faulty cell runs, fanned over the engine; every failure mode
         is data, so one bad cell never aborts the fan-out *)
      let pending_arr = Array.of_list pending in
      let sims =
        Span.with_ "campaign.cells" @@ fun () ->
        runner.Runner.run (Array.length pending_arr) (fun i ->
            let c = pending_arr.(i) in
            obtain ~adir:(cell_dir dir c.index) (fun () ->
                program ~np:m.np ~seed:c.seed ~max_steps:m.max_steps
                  ~fault:c.fault))
      in
      (* analysis: sequential, one shared memo — every cell of a seed
         reuses the reference run's NLR summaries — with the manifest
         rewritten after each cell so an interruption loses at most
         the cell in flight. A store's memo replaces the throwaway one,
         so a resumed campaign re-adopts its summaries from disk;
         flushing after every cell keeps the store as current as the
         manifest. *)
      let memo =
        match store with Some st -> Store.memo st | None -> Memo.create ()
      in
      let completed = ref (List.rev prior) in
      Array.iteri
        (fun i c ->
          let res =
            Span.with_ "campaign.analyze" @@ fun () ->
            analyze_cell ~memo ~config c ~normal:(normal_for c.seed)
              ~faulty:sims.(i)
          in
          Telemetry.Counter.incr c_cells;
          (match res.verdict with
          | Completed -> ()
          | Hung _ | Failed _ -> Telemetry.Counter.incr c_failed);
          completed := res :: !completed;
          let snapshot =
            List.sort
              (fun a b -> Int.compare a.cell.index b.cell.index)
              !completed
          in
          (* per-cell persistence is best-effort, like cell archives:
             a full disk costs resumability, not the running sweep *)
          (match write_manifest ~dir m ~config_name snapshot with
          | Ok () -> ()
          | Error reason ->
            Printf.eprintf "difftrace: could not write campaign manifest: %s\n%!"
              reason);
          (match store with
          | Some st -> (
            match Store.flush st with
            | Ok () -> ()
            | Error e ->
              (* persistence is best-effort, like cell archives *)
              Printf.eprintf "difftrace: could not flush store: %s\n%!"
                (Store.error_to_string e))
          | None -> ());
          match on_cell with Some f -> f res | None -> ())
        pending_arr;
      let results =
        List.sort (fun a b -> Int.compare a.cell.index b.cell.index) !completed
      in
      Ok
        { matrix = m;
          results;
          executed = Array.length pending_arr;
          resumed_cells = List.length prior })))

(* ------------------------------------------------------------------ *)
(* Status                                                              *)
(* ------------------------------------------------------------------ *)

let status ~dir =
  match load_manifest ~dir with
  | None -> Error (No_manifest dir)
  | Some lm -> (
    match (lm.lm_kind, lm.lm_np, lm.lm_seeds, lm.lm_faults) with
    | Some kind, Some np, Some seeds, (_ :: _ as faults) ->
      (* reconstructed directly: [status] must work even when the
         manifest's kind is not registered in this process *)
      let m =
        { kind;
          np;
          faults;
          seeds;
          max_steps = Option.value lm.lm_budget ~default:None }
      in
      let all = cells m in
      let results = List.filter_map (result_of_stored all) lm.lm_cells in
      Ok
        { matrix = m;
          results;
          executed = 0;
          resumed_cells = List.length results }
    | _ ->
      Error
        (Manifest_damaged
           { dir;
             reason =
               Printf.sprintf
                 "header lost beyond salvage (%d unreadable line(s))"
                 lm.lm_salvaged }))

(* ------------------------------------------------------------------ *)
(* Reporting                                                           *)
(* ------------------------------------------------------------------ *)

(* failed cells first (they crashed — maximally suspicious), then by
   ascending B-score (the paper's ordering), index breaking ties *)
let rank results =
  List.stable_sort
    (fun a b ->
      match (a.bscore, b.bscore) with
      | None, None -> Int.compare a.cell.index b.cell.index
      | None, Some _ -> -1
      | Some _, None -> 1
      | Some x, Some y -> (
        match Float.compare x y with
        | 0 -> Int.compare a.cell.index b.cell.index
        | c -> c))
    results

let render o =
  let m = o.matrix in
  let total = List.length m.faults * List.length m.seeds in
  let count p = List.length (List.filter p o.results) in
  let completed = count (fun r -> r.verdict = Completed) in
  let hung = count (fun r -> match r.verdict with Hung _ -> true | _ -> false) in
  let failed =
    count (fun r -> match r.verdict with Failed _ -> true | _ -> false)
  in
  let buf = Buffer.create 1024 in
  Buffer.add_string buf
    (Printf.sprintf "campaign %s: np=%d, %d faults x %d seeds = %d cells\n"
       m.kind m.np (List.length m.faults) (List.length m.seeds) total);
  Buffer.add_string buf
    (Printf.sprintf
       "recorded %d/%d cells: %d completed, %d hung, %d failed (%d resumed)\n"
       (List.length o.results) total completed hung failed o.resumed_cells);
  let rows =
    List.map
      (fun r ->
        [ string_of_int r.cell.index;
          Fault.to_string r.cell.fault;
          string_of_int r.cell.seed;
          verdict_short r.verdict;
          (match r.bscore with Some b -> Printf.sprintf "%.3f" b | None -> "-");
          (match r.suspects with (l, s) :: _ -> Printf.sprintf "%s (%.3f)" l s | [] -> "-");
          (if r.salvaged > 0 then string_of_int r.salvaged else "") ])
      (rank o.results)
  in
  Buffer.add_string buf
    (Difftrace_util.Texttable.render
       ~headers:
         [ "Cell"; "Fault"; "Seed"; "Verdict"; "B-score"; "Top suspect"; "Salvaged" ]
       rows);
  let failures =
    List.filter
      (fun r -> match r.verdict with Failed _ -> true | _ -> false)
      o.results
  in
  if failures <> [] then begin
    Buffer.add_string buf "failures:\n";
    List.iter
      (fun r ->
        match r.verdict with
        | Failed { error; _ } ->
          Buffer.add_string buf
            (Printf.sprintf "  cell %d [%s]: %s\n" r.cell.index
               (cell_label r.cell) error)
        | _ -> ())
      failures
  end;
  let pending = total - List.length o.results in
  if pending > 0 then
    Buffer.add_string buf (Printf.sprintf "pending: %d cells not yet executed\n" pending);
  Buffer.contents buf

let top_cell_diffnlr ?(config = Config.default) ?store ~dir o =
  let config = config_for ~kind:o.matrix.kind config in
  (* the best cell with a suspicious trace; failing that the best
     analyzable one, drilled into the way [compare] picks its trace *)
  let analyzable = List.filter (fun r -> r.bscore <> None) (rank o.results) in
  match List.filter (fun r -> r.suspects <> []) analyzable @ analyzable with
  | [] -> Error "no analyzable cell"
  | top :: _ -> (
    let ses = Session.create () in
    let load adir =
      Session.resolve ses ~engine:config.Config.engine
        (Session.Archive { dir = adir; salvage = true })
    in
    match
      (load (normal_dir dir top.cell.seed), load (cell_dir dir top.cell.index))
    with
    | Error e, _ | _, Error e -> Error (Session.error_to_string e)
    | Ok (normal, _), Ok (faulty, _) -> (
      match Pipeline.compare_runs ?store config ~normal ~faulty with
      | exception e -> Error ("analysis: " ^ Printexc.to_string e)
      | cmp -> (
        let label = Option.map fst (List.nth_opt top.suspects 0) in
        match Session.diffnlr_section ~normal ~faulty cmp label with
        | Error e -> Error (Session.error_to_string e)
        | Ok section ->
          Ok
            (Printf.sprintf "cell %d [%s]:\n%s" top.cell.index
               (cell_label top.cell)
               (Option.value section
                  ~default:
                    "no diffNLR: the cell and its reference run have no \
                     trace in common\n")))))

(* the n-way drill-down: merge every archived run of the campaign —
   the per-seed fault-free references plus every recorded cell that
   left an archive (Failed cells crashed before archiving anything) —
   into one variational NLR conditioned on the fault and seed axes,
   with each cell's verdict as its bad/good label. *)
let variational ?(config = Config.default) ?store ~dir o =
  let config = config_for ~kind:o.matrix.kind config in
  let archived =
    List.filter
      (fun r -> match r.verdict with Failed _ -> false | _ -> true)
      o.results
  in
  let seeds =
    List.sort_uniq Int.compare (List.map (fun r -> r.cell.seed) archived)
  in
  let refs =
    List.map
      (fun seed ->
        { Session.vdr_name = Printf.sprintf "ref@s%d" seed;
          vdr_source =
            Session.Archive { dir = normal_dir dir seed; salvage = true };
          vdr_axes = [ ("fault", "none"); ("seed", string_of_int seed) ];
          vdr_bad = false })
      seeds
  in
  let cells =
    List.map
      (fun r ->
        { Session.vdr_name = cell_label r.cell;
          vdr_source =
            Session.Archive { dir = cell_dir dir r.cell.index; salvage = true };
          vdr_axes =
            [ ("fault", Fault.to_string r.cell.fault);
              ("seed", string_of_int r.cell.seed) ];
          vdr_bad = (match r.verdict with Completed -> false | _ -> true) })
      archived
  in
  let runs = refs @ cells in
  if List.length runs < 2 then
    Error "variational: fewer than two archived runs to align"
  else
    let ses = Session.create ?store () in
    match
      Session.vdiff ses config { Session.vd_runs = runs; vd_trace = None }
    with
    | Error e -> Error (Session.error_to_string e)
    | Ok r -> Ok r.Session.vd_output
