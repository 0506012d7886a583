(* The four workloads: their sizes, how their inputs are generated from
   a seed, and the oracles their outputs are checked against.

   [generate] runs in a child process (see main.ml), so the measured
   process only ever sees what it leaves on disk: trace archives, CI
   logs, a pre-warmed store, and the request lines and expected outputs
   marshalled into [inputs.bin]. *)

open Difftrace
module W = Difftrace_workloads
module P = Serve.Protocol

type workload = Ilcs_wide | Lulesh_hang | Oddeven_store | Daemon_mix

let all = [ Ilcs_wide; Lulesh_hang; Oddeven_store; Daemon_mix ]

let name = function
  | Ilcs_wide -> "ilcs-wide"
  | Lulesh_hang -> "lulesh-hang"
  | Oddeven_store -> "oddeven-store"
  | Daemon_mix -> "daemon-mix"

let of_name s = List.find_opt (fun w -> name w = s) all

type scale = Full | Quick

let ilcs_size = function Full -> (64, 4) | Quick -> (4, 2) (* np, workers *)
let lulesh_size = function Full -> (4, 2) | Quick -> (2, 1) (* edge, cycles *)

(* np, faulty variants *)
let oddeven_size = function Full -> (64, 48) | Quick -> (8, 4)

type daemon_size = {
  d_np : int;
  d_runs : int;  (** vdiff runs, the second half faulty *)
  d_steps : int;  (** cilog steps *)
  d_lines : int;  (** cilog lines per step *)
  d_diverge : int;  (** threads the diverge query rotates over *)
}

let daemon_size = function
  | Full -> { d_np = 64; d_runs = 8; d_steps = 64; d_lines = 200; d_diverge = 8 }
  | Quick -> { d_np = 8; d_runs = 4; d_steps = 4; d_lines = 20; d_diverge = 2 }

let ilcs_config =
  Config.make
    ~filter:
      (Filter.of_spec ~custom:[ "CPU_Exec|CPU_Init|memcpy" ] "11.mpiall.ompall.cust")
    ~attrs:(Attributes.of_name "doub.actual") ()

let lulesh_config = Config.make ~filter:(Filter.of_spec "11.all") ()

let config = function
  | Ilcs_wide -> ilcs_config
  | Lulesh_hang -> lulesh_config
  | Oddeven_store | Daemon_mix -> Config.default

(* The top suspect and B-score (printed to 4 places) that seed 1 must
   give at full size: a guard against the setup oracle and the measured
   path drifting together. *)
let pinned = function
  | Ilcs_wide -> Some ("1.0", "0.9254")
  | Lulesh_hang -> Some ("2.0", "0.6219")
  | Oddeven_store | Daemon_mix -> None

(* the condition the daemon-mix vdiff must name *)
let vdiff_condition = "fault=f1"

type compare_inputs = {
  normal : string;  (** archive directory *)
  faulty : string;
  output : string;  (** the storeless in-memory compare's report *)
  bscore : float;
  suspects : (string * float) array;
}

type store_inputs = {
  s_normal : string;
  snapshot : string;  (** store directory pre-warmed with the normal run *)
  variants : (string * string) array;
      (** faulty archive directory, expected report *)
}

(* [expect = None]: not checked ([status] counts requests, so no fresh
   session can answer it the same way) *)
type request = { call : P.call; expect : string option }

type daemon_inputs = {
  kinds : request array array;
      (** one cycle sends one request of each kind, rotating through
          the kind's variants *)
  logs : (string * int) list;  (** CI log files and their line counts *)
}

type body =
  | Compare of compare_inputs
  | Store of store_inputs
  | Daemon of daemon_inputs

type t = {
  workload : workload;
  seed : int;
  scale : scale;
  size : string;  (** the stated input size *)
  body : body;
}

(* --- oracles ------------------------------------------------------------- *)

let fail_on what = function
  | Ok v -> v
  | Error e -> failwith (Printf.sprintf "%s: %s" what (Session.error_to_string e))

(* the reference every compare workload is checked against: a fresh,
   storeless, sequential session over the in-memory traces, which were
   never archived *)
let storeless_compare config ~normal ~faulty =
  fail_on "oracle compare"
    (Session.compare (Session.create ()) config
       { Session.cp_normal = Session.Traces normal;
         cp_faulty = Session.Traces faulty;
         cp_diffnlr = None })

let session_source = function
  | P.Src_archive { dir; salvage } -> Session.Archive { dir; salvage }
  | P.Src_ingest { path; frontend } -> Session.Ingest { path; frontend }
  | P.Src_run _ | P.Src_workload _ ->
    invalid_arg "daemon-mix uses archive and file sources only"

let session_config params =
  fail_on "config"
    (P.config_of_params ~default_engine:Engine.sequential params)

(* a fresh one-shot session's answer to one daemon request *)
let fresh_answer call =
  let s = Session.create () in
  match call with
  | P.Compare { rq_normal; rq_faulty; rq_config; rq_diffnlr } ->
    let r =
      fail_on "oracle compare"
        (Session.compare s (session_config rq_config)
           { Session.cp_normal = session_source rq_normal;
             cp_faulty = session_source rq_faulty;
             cp_diffnlr = rq_diffnlr })
    in
    Some r.Session.cp_output
  | P.Query { rq_q; rq_source; rq_against; rq_config } ->
    let r =
      fail_on "oracle query"
        (Session.query s (session_config rq_config)
           { Session.qy_text = rq_q;
             qy_source = session_source rq_source;
             qy_against = Option.map session_source rq_against })
    in
    Some r.Session.qy_output
  | P.Vdiff { rq_runs; rq_trace; rq_config } ->
    let r =
      fail_on "oracle vdiff"
        (Session.vdiff s (session_config rq_config)
           { Session.vd_runs =
               List.map
                 (fun (v : P.vdiff_run_spec) ->
                   { Session.vdr_name = v.P.vs_name;
                     vdr_source = session_source v.P.vs_source;
                     vdr_axes = v.P.vs_axes;
                     vdr_bad = v.P.vs_bad })
                 rq_runs;
             vd_trace = rq_trace })
    in
    if r.Session.vd_condition <> Some vdiff_condition then
      failwith
        (Printf.sprintf "oracle vdiff: condition %s, expected %s"
           (Option.value ~default:"(none)" r.Session.vd_condition)
           vdiff_condition);
    Some r.Session.vd_output
  | P.Status -> None
  | P.Record _ | P.Analyze _ | P.Triage _ | P.Subscribe _ | P.Shutdown ->
    invalid_arg "daemon-mix sends compare, query, vdiff and status only"

(* [s] with every loop id (an "L<n>" token) renumbered in order of
   first appearance *)
let canonical_loops s =
  let ids = Hashtbl.create 8 in
  let b = Buffer.create (String.length s) in
  let n = String.length s in
  let is_digit c = c >= '0' && c <= '9' in
  let is_word = function
    | 'a' .. 'z' | 'A' .. 'Z' | '0' .. '9' | '_' -> true
    | _ -> false
  in
  let rec go i =
    if i < n then
      if
        s.[i] = 'L' && i + 1 < n && is_digit s.[i + 1]
        && (i = 0 || not (is_word s.[i - 1]))
      then begin
        let j = ref (i + 1) in
        while !j < n && is_digit s.[!j] do incr j done;
        let id = String.sub s (i + 1) (!j - i - 1) in
        if not (Hashtbl.mem ids id) then Hashtbl.replace ids id (Hashtbl.length ids);
        Buffer.add_string b (Printf.sprintf "L%d" (Hashtbl.find ids id));
        go !j
      end
      else begin
        Buffer.add_char b s.[i];
        go (i + 1)
      end
  in
  go 0;
  Buffer.contents b

(* [same_report a b] — equal reports up to loop ids. A warm memo's
   shared loop table numbers the loop bodies of earlier analyses first,
   so a store-backed or daemon session may print L2 where a fresh
   session prints L0 (the renumbering Memo documents as cosmetic);
   everything else must match byte for byte. *)
let same_report a b = a = b || canonical_loops a = canonical_loops b

(* --- generation ---------------------------------------------------------- *)

let save dir ts =
  ignore (Archive.save ~dir ts);
  dir

let events = Trace_set.total_events

let compare_inputs ~dir config ~normal ~faulty =
  let r = storeless_compare config ~normal ~faulty in
  { normal = save (Filename.concat dir "normal") normal;
    faulty = save (Filename.concat dir "faulty") faulty;
    output = r.Session.cp_output;
    bscore = r.Session.cp_bscore;
    suspects = r.Session.cp_suspects }

let gen_ilcs ~scale ~seed ~dir =
  let np, workers = ilcs_size scale in
  let run fault = (fst (W.Ilcs.run ~np ~workers ~seed ~fault ())).Runtime.traces in
  let normal = run Fault.No_fault in
  let faulty = run (Fault.Wrong_collective_size { rank = 2 }) in
  ( Printf.sprintf "ILCS np=%d x %d workers (%d threads), %d + %d events" np
      workers
      (np * (workers + 1))
      (events normal) (events faulty),
    Compare (compare_inputs ~dir ilcs_config ~normal ~faulty) )

let gen_lulesh ~scale ~seed ~dir =
  let edge, cycles = lulesh_size scale in
  let run fault = (W.Lulesh.run ~edge ~cycles ~seed ~fault ()).Runtime.traces in
  let normal = run Fault.No_fault in
  let faulty =
    run (Fault.Skip_function { rank = 2; func = "LagrangeLeapFrog" })
  in
  ( Printf.sprintf "LULESH edge=%d cycles=%d, %d + %d traces, %d + %d events"
      edge cycles (Trace_set.cardinal normal) (Trace_set.cardinal faulty)
      (events normal) (events faulty),
    Compare (compare_inputs ~dir lulesh_config ~normal ~faulty) )

let oddeven ~np ~seed fault =
  (fst (W.Odd_even.run ~np ~seed ~fault ())).Runtime.traces

(* the [k]th of a family of swapBugs inside the sort: rank 1..np-2,
   after phase 1..8 *)
let swap_bug ~np k =
  Fault.Swap_send_recv
    { rank = 1 + (k mod (np - 2)); after_iter = 1 + (k mod min 8 (np / 2)) }

(* The seed picks each run's data and schedule, not where its bug sits:
   the bug's rank parity and phase decide how much of a run changes, so
   keeping them fixed keeps the cost of an op the same from seed to
   seed. *)
let gen_oddeven_store ~scale ~seed ~dir =
  let np, nv = oddeven_size scale in
  let normal = oddeven ~np ~seed Fault.No_fault in
  let variants =
    Array.init nv (fun v ->
        let faulty = oddeven ~np ~seed:((seed * 1000) + v) (swap_bug ~np (5 * v)) in
        let r = storeless_compare Config.default ~normal ~faulty in
        ( save (Filename.concat dir (Printf.sprintf "faulty%d" v)) faulty,
          r.Session.cp_output ))
  in
  let snapshot = Filename.concat dir "store" in
  (match Store.load ~dir:snapshot with
  | Error e -> failwith ("store: " ^ Store.error_to_string e)
  | Ok st -> (
    ignore (Pipeline.analyze ~store:st Config.default normal);
    match Store.flush st with
    | Ok () -> ()
    | Error e -> failwith ("store flush: " ^ Store.error_to_string e)));
  ( Printf.sprintf "odd/even np=%d: 1 normal + %d faulty runs, %d events each"
      np nv (events normal),
    Store
      { s_normal = save (Filename.concat dir "normal") normal; snapshot; variants }
  )

(* a GitHub-Actions-style build log: [steps] ##[group] blocks of
   [lines] lines carrying the tokens the cilog normalizer folds
   (clocks, paths, counters, hex ids, all drawn from the seed); the
   failing log breaks in the middle step *)
let cilog ~seed ~steps ~lines ~fail =
  let broken = steps / 2 in
  let b = Buffer.create (steps * lines * 56) in
  for s = 0 to steps - 1 do
    let ts l = Printf.sprintf "10:%02d:%02d" (s mod 60) (l mod 60) in
    Buffer.add_string b (Printf.sprintf "%s ##[group]phase %d\n" (ts 0) s);
    for l = 1 to lines do
      if fail && s = broken && l = lines / 2 then
        Buffer.add_string b
          (Printf.sprintf "%s ERROR /src/mod%d.ml build failed\n" (ts l) l)
      else
        Buffer.add_string b
          (Printf.sprintf "%s compiled /src/mod%d.ml in %d ms id %08x\n" (ts l)
             l ((l * seed) mod 97) (0xbeef0000 + l + seed))
    done;
    Buffer.add_string b (Printf.sprintf "%s ##[endgroup]\n" (ts 61))
  done;
  Buffer.contents b

(* as for oddeven-store, the seed picks data, schedules and log tokens,
   while the bug's place and the failing log step stay fixed *)
let gen_daemon ~scale ~seed ~dir =
  let s = daemon_size scale in
  let np = s.d_np in
  let bug_rank = (np / 2) - 1 in
  let bug = Fault.Swap_send_recv { rank = bug_rank; after_iter = 3 } in
  let archive name ts =
    P.Src_archive { dir = save (Filename.concat dir name) ts; salvage = false }
  in
  let normal = archive "normal" (oddeven ~np ~seed Fault.No_fault) in
  let runs =
    List.init s.d_runs (fun i ->
        let bad = i >= s.d_runs / 2 in
        let fault = if bad then bug else Fault.No_fault in
        ( i, bad,
          archive (Printf.sprintf "run%d" i)
            (oddeven ~np ~seed:((seed * 100) + i) fault) ))
  in
  let faulty =
    List.filter_map (fun (_, bad, src) -> if bad then Some src else None) runs
  in
  let log name ~fail =
    let text = cilog ~seed ~steps:s.d_steps ~lines:s.d_lines ~fail in
    let path = Filename.concat dir name in
    Out_channel.with_open_bin path (fun oc -> output_string oc text);
    (path, String.fold_left (fun n c -> if c = '\n' then n + 1 else n) 0 text)
  in
  let ((pass, _) as pass_log) = log "pass.log" ~fail:false in
  let ((fail, _) as fail_log) = log "fail.log" ~fail:true in
  let cfg = P.default_config in
  let query ?against q =
    P.Query { rq_q = q; rq_source = normal; rq_against = against; rq_config = cfg }
  in
  let kinds =
    [| [| P.Compare
            { rq_normal = P.Src_ingest { path = pass; frontend = "cilog" };
              rq_faulty = P.Src_ingest { path = fail; frontend = "cilog" };
              rq_config = { cfg with P.pc_filter = "11.all" };
              rq_diffnlr = None } |];
       Array.of_list
         (List.map
            (fun f ->
              P.Compare
                { rq_normal = normal; rq_faulty = f; rq_config = cfg;
                  rq_diffnlr = None })
            faulty);
       [| query "count MPI_Send" |];
       [| query (Printf.sprintf "list MPI_Recv on %d limit 5" bug_rank) |];
       Array.init s.d_diverge (fun j ->
           query ~against:(List.hd faulty)
             (Printf.sprintf "diverge on %d" ((bug_rank + j) mod np)));
       [| P.Vdiff
            { rq_runs =
                List.map
                  (fun (i, bad, src) ->
                    { P.vs_name = Printf.sprintf "run%d" i;
                      vs_source = src;
                      vs_axes =
                        [ ("fault", if bad then "f1" else "none");
                          ("seed", string_of_int i) ];
                      vs_bad = bad })
                  runs;
              rq_trace = Some (string_of_int bug_rank);
              rq_config = cfg } |];
       [| P.Status |] |]
  in
  ( Printf.sprintf
      "odd/even np=%d: 1 normal + %d vdiff runs (%d faulty); cilog %d steps x \
       %d lines (%d lines per log)"
      np s.d_runs (List.length faulty) s.d_steps s.d_lines (snd pass_log),
    Daemon
      { kinds =
          Array.map (Array.map (fun call -> { call; expect = fresh_answer call })) kinds;
        logs = [ pass_log; fail_log ] } )

let file dir = Filename.concat dir "inputs.bin"

(* [generate workload ~scale ~seed ~dir] writes the workload's inputs
   under [dir] (which must not exist yet) and marshals their
   description to [file dir]. *)
let generate workload ~scale ~seed ~dir =
  Sys.mkdir dir 0o755;
  let gen =
    match workload with
    | Ilcs_wide -> gen_ilcs
    | Lulesh_hang -> gen_lulesh
    | Oddeven_store -> gen_oddeven_store
    | Daemon_mix -> gen_daemon
  in
  let size, body = gen ~scale ~seed ~dir in
  Out_channel.with_open_bin (file dir) (fun oc ->
      Marshal.to_channel oc { workload; seed; scale; size; body } [])

let load dir : t = In_channel.with_open_bin (file dir) Marshal.from_channel
