(* The resident daemon: one warm Session multiplexed over many
   clients, one request at a time. The protocol core (on_line) is
   transport-free so tests can interleave clients without sockets;
   serve_stdio/serve_socket are thin transports over it. *)

module Session = Difftrace_core.Session
module Pipeline = Difftrace_core.Pipeline
module Store = Difftrace_core.Store
module Memo = Difftrace_core.Memo
module Engine = Difftrace_core.Engine
module Config = Difftrace_core.Config
module Tracer = Difftrace_parlot.Tracer
module Fault = Difftrace_simulator.Fault
module Runtime = Difftrace_simulator.Runtime
module Catalog = Difftrace_workloads.Catalog
module Telemetry = Difftrace_obs.Telemetry
module Span = Telemetry.Span
module Json = Telemetry.Json
module P = Protocol

let ( let* ) = Result.bind
let c_requests = Telemetry.Counter.make "rpc.requests"
let c_errors = Telemetry.Counter.make "rpc.errors"
let c_accept_errors = Telemetry.Counter.make "rpc.accept_errors"

type t = {
  dm_session : Session.t;
  state_dir : string option;
  default_engine : Engine.t;
  subscribers : (int, unit) Hashtbl.t;
  mutable requests : int;
}

let create ?store ?state_dir ~default_engine () =
  { dm_session = Session.create ?store ();
    state_dir;
    default_engine;
    subscribers = Hashtbl.create 4;
    requests = 0 }

let session t = t.dm_session
let requests_served t = t.requests

type directive = Send of { client : int; line : string }

let on_disconnect t ~client = Hashtbl.remove t.subscribers client

(* broadcast in client order, so event interleaving is deterministic *)
let broadcast t ~emit ev =
  let line = P.encode_event ev in
  Hashtbl.fold (fun c () acc -> c :: acc) t.subscribers []
  |> List.sort compare
  |> List.iter (fun client -> emit (Send { client; line }))

let flush_warn t =
  match Session.flush t.dm_session with
  | Ok () -> ()
  | Error e ->
    Printf.eprintf "difftrace serve: %s\n%!" (Session.error_to_string e)

(* --- request dispatch ------------------------------------------------- *)

let run_workload (ws : P.workload_spec) =
  let* fault =
    Result.map_error (fun m -> Session.Invalid m) (Fault.of_string ws.P.ws_fault)
  in
  let* () = Session.check_np ~workload:ws.P.ws_workload ws.P.ws_np in
  let level =
    if ws.P.ws_all_images then Tracer.All_images else Tracer.Main_image
  in
  let name = ws.P.ws_workload in
  match Catalog.run ~level name ~np:ws.P.ws_np ~seed:ws.P.ws_seed ~fault with
  | Some outcome -> Ok outcome
  | None -> Error (Session.Unknown_workload { name; known = Catalog.names })
  | exception exn -> Error (Session.Run_failed (Printexc.to_string exn))

(* a workload source carries its outcome out, so triage can render the
   outcome-only sections (HUNG banner, logical clocks) exactly like the
   one-shot CLI that just executed the run *)
let source_of_spec = function
  | P.Src_run name -> Ok (Session.Run name, None)
  | P.Src_archive { dir; salvage } -> Ok (Session.Archive { dir; salvage }, None)
  | P.Src_workload ws ->
    let* o = run_workload ws in
    Ok (Session.Traces o.Runtime.traces, Some o)
  | P.Src_ingest { path; frontend } ->
    Ok (Session.Ingest { path; frontend }, None)

let record_dir t ~name ~out =
  match out with
  | Some d -> Some d
  | None -> (
    match (name, t.state_dir) with
    | Some n, Some sd -> Some (Filename.concat (Filename.concat sd "runs") n)
    | _ -> None)

(* a request whose every source is a foreign-format file gets the
   foreign default filter, as [--frontend] does on the CLI *)
let config_of t params sources =
  let* config = P.config_of_params ~default_engine:t.default_engine params in
  let file = function P.Src_ingest _ -> true | _ -> false in
  Ok (if List.for_all file sources then Config.foreign config else config)

let dispatch t ~client ~emit call =
  match call with
  | P.Status ->
    let s = Session.status t.dm_session in
    Ok
      (P.P_status
         { pr_requests = t.requests;
           pr_runs = s.Session.st_runs;
           pr_summaries = s.Session.st_summaries;
           pr_hits = s.Session.st_memo.Memo.hits;
           pr_misses = s.Session.st_memo.Memo.misses;
           (* the wire keeps its matrices field; the store holds none *)
           pr_store =
             Option.map
               (fun (st : Store.stats) -> (st.Store.summaries, 0))
               s.Session.st_store;
           pr_output =
             Printf.sprintf "requests: %d\n" t.requests ^ s.Session.st_output })
  | P.Subscribe { rq_events } ->
    if rq_events then Hashtbl.replace t.subscribers client ()
    else Hashtbl.remove t.subscribers client;
    Ok
      (P.P_subscribe
         { pr_events = rq_events;
           pr_output =
             (if rq_events then "subscribed to events\n" else "unsubscribed\n")
         })
  | P.Shutdown -> Ok (P.P_shutdown { pr_output = "daemon stopping\n" })
  | P.Record { rq_workload; rq_name; rq_out } ->
    let* outcome = run_workload rq_workload in
    broadcast t ~emit
      { P.ev_name = "record.run";
        ev_fields =
          [ ("workload", Json.String rq_workload.P.ws_workload);
            ("fault", Json.String rq_workload.P.ws_fault) ] };
    let dir = record_dir t ~name:rq_name ~out:rq_out in
    let* r =
      Session.record t.dm_session ~outcome
        { Session.rc_name = rq_name; rc_dir = dir }
    in
    Ok
      (P.P_record
         { pr_files = r.Session.rc_files;
           pr_traces = r.Session.rc_traces;
           pr_events = r.Session.rc_events;
           pr_hung = r.Session.rc_hung;
           pr_run = rq_name;
           pr_output = r.Session.rc_output })
  | P.Compare { rq_normal; rq_faulty; rq_config; rq_diffnlr }
  | P.Analyze { rq_normal; rq_faulty; rq_config; rq_diffnlr } ->
    let style = match call with P.Compare _ -> `Compare | _ -> `Analyze in
    let* config = config_of t rq_config [ rq_normal; rq_faulty ] in
    let* src_n, _ = source_of_spec rq_normal in
    let* src_f, _ = source_of_spec rq_faulty in
    let req =
      { Session.cp_normal = src_n; cp_faulty = src_f; cp_diffnlr = rq_diffnlr }
    in
    let* r =
      (match style with `Compare -> Session.compare | `Analyze -> Session.analyze)
        t.dm_session config req
    in
    Ok
      (P.P_report
         { pr_style = style;
           pr_bscore = r.Session.cp_bscore;
           pr_top_processes = r.Session.cp_top_processes;
           pr_top_threads = r.Session.cp_top_threads;
           pr_suspects = Array.to_list r.Session.cp_suspects;
           pr_output = r.Session.cp_output })
  | P.Triage { rq_subject; rq_config; rq_limit } ->
    let* config = config_of t rq_config [ rq_subject ] in
    let* src, outcome = source_of_spec rq_subject in
    let* r =
      Session.triage ?outcome t.dm_session config
        { Session.tg_subject = src; tg_limit = rq_limit }
    in
    Ok
      (P.P_triage
         { pr_outliers =
             Array.to_list r.Session.tg_entries
             |> List.map (fun (e : Pipeline.triage_entry) ->
                    (e.Pipeline.tr_label, e.tr_score, e.tr_truncated));
           pr_output = r.Session.tg_output })
  | P.Query { rq_q; rq_source; rq_against; rq_config } ->
    let* config =
      config_of t rq_config (rq_source :: Option.to_list rq_against)
    in
    let* src, _ = source_of_spec rq_source in
    let* against =
      match rq_against with
      | None -> Ok None
      | Some spec ->
        let* s, _ = source_of_spec spec in
        Ok (Some s)
    in
    let* r =
      Session.query t.dm_session config
        { Session.qy_text = rq_q; qy_source = src; qy_against = against }
    in
    Ok
      (P.P_query
         { pq_kind = r.Session.qy_kind;
           pq_size = r.Session.qy_size;
           pq_warm = r.Session.qy_warm;
           pq_output = r.Session.qy_output })
  | P.Vdiff { rq_runs; rq_trace; rq_config } ->
    let* () = Session.check_vdiff_runs (List.length rq_runs) in
    let* config =
      config_of t rq_config (List.map (fun r -> r.P.vs_source) rq_runs)
    in
    let* vd_runs =
      List.fold_left
        (fun acc (r : P.vdiff_run_spec) ->
          let* acc = acc in
          let* src, _ = source_of_spec r.P.vs_source in
          Ok
            ({ Session.vdr_name = r.P.vs_name;
               vdr_source = src;
               vdr_axes = r.P.vs_axes;
               vdr_bad = r.P.vs_bad }
            :: acc))
        (Ok []) rq_runs
    in
    let* r =
      Session.vdiff t.dm_session config
        { Session.vd_runs = List.rev vd_runs; vd_trace = rq_trace }
    in
    Ok
      (P.P_vdiff
         { pv_nruns = r.Session.vd_nruns;
           pv_columns = r.Session.vd_columns;
           pv_regions = r.Session.vd_regions;
           pv_warm = r.Session.vd_warm;
           pv_condition = r.Session.vd_condition;
           pv_output = r.Session.vd_output })

(* the daemon must survive anything a request throws at it; bad input
   is typed before this point, so whatever arrives here is a bug *)
let handle t ~client ~emit call =
  match dispatch t ~client ~emit call with
  | r -> r
  | exception exn ->
    let bt = Printexc.get_raw_backtrace () in
    let m = Printexc.to_string exn in
    Printf.eprintf "difftrace serve: internal error: %s\n%s%!" m
      (Printexc.raw_backtrace_to_string bt);
    Error (Session.Internal m)

let on_line t ~client ~emit line =
  let reply r = emit (Send { client; line = P.encode_response r }) in
  match P.decode_request line with
  | Error (id, e) ->
    Telemetry.Counter.incr c_errors;
    reply (P.error_response ~id e);
    `Continue
  | Ok { P.req_id; req_call } ->
    t.requests <- t.requests + 1;
    Telemetry.Counter.incr c_requests;
    let meth = P.method_name req_call in
    broadcast t ~emit
      { P.ev_name = "request";
        ev_fields =
          [ ("id", Json.String req_id); ("method", Json.String meth) ] };
    (match
       Span.with_root ("rpc." ^ meth) (fun () ->
           handle t ~client ~emit req_call)
     with
    | Ok payload -> reply { P.rsp_id = Some req_id; rsp_body = Ok payload }
    | Error e ->
      Telemetry.Counter.incr c_errors;
      reply (P.error_response ~id:(Some req_id) e));
    (match req_call with
    | P.Shutdown ->
      broadcast t ~emit { P.ev_name = "shutdown"; ev_fields = [] };
      flush_warn t;
      `Shutdown
    | P.Record _ | P.Compare _ | P.Analyze _ | P.Triage _ | P.Vdiff _ ->
      (* persist what the request just computed, so a killed daemon
         restarts warm (see the kill-and-restart test) *)
      flush_warn t;
      `Continue
    | P.Query _ | P.Status | P.Subscribe _ ->
      (* query persists its own index files; nothing of the session's to flush *)
      `Continue)

(* --- transports ------------------------------------------------------- *)

let serve_stdio t =
  let emit (Send { line; _ }) =
    print_string line;
    print_char '\n';
    flush stdout
  in
  let rec loop () =
    match input_line stdin with
    | exception End_of_file -> flush_warn t
    | line -> (
      match on_line t ~client:0 ~emit line with
      | `Continue -> loop ()
      | `Shutdown -> ())
  in
  loop ()

type client_state = {
  cl_fd : Unix.file_descr;
  cl_id : int;
  cl_buf : Buffer.t;
  mutable cl_discarding : bool;
}

let write_all fd s =
  let b = Bytes.of_string s in
  let n = Bytes.length b in
  let rec go off =
    if off < n then
      match Unix.write fd b off (n - off) with
      | w -> go (off + w)
      | exception Unix.Unix_error ((Unix.EPIPE | Unix.ECONNRESET), _, _) -> ()
  in
  go 0

let serve_socket ?(accept = Unix.accept ?cloexec:None) t ~path =
  Sys.set_signal Sys.sigpipe Sys.Signal_ignore;
  if Sys.file_exists path then Sys.remove path;
  let listen_fd = Unix.socket Unix.PF_UNIX Unix.SOCK_STREAM 0 in
  Unix.bind listen_fd (Unix.ADDR_UNIX path);
  Unix.listen listen_fd 16;
  let clients : (int, client_state) Hashtbl.t = Hashtbl.create 8 in
  let next_id = ref 1 in
  let emit (Send { client; line }) =
    match Hashtbl.find_opt clients client with
    | Some c -> write_all c.cl_fd (line ^ "\n")
    | None -> ()
  in
  let drop c =
    on_disconnect t ~client:c.cl_id;
    Hashtbl.remove clients c.cl_id;
    try Unix.close c.cl_fd with Unix.Unix_error _ -> ()
  in
  let stopping = ref false in
  let chunk = Bytes.create 65536 in
  (* dispatch the complete lines accumulated in the client's buffer;
     an unterminated line past the protocol cap is answered with a
     structured error and discarded, never buffered without bound *)
  let rec drain c =
    let s = Buffer.contents c.cl_buf in
    match String.index_opt s '\n' with
    | Some i ->
      let line = String.sub s 0 i in
      let line =
        if line <> "" && line.[String.length line - 1] = '\r' then
          String.sub line 0 (String.length line - 1)
        else line
      in
      Buffer.clear c.cl_buf;
      Buffer.add_substring c.cl_buf s (i + 1) (String.length s - i - 1);
      if c.cl_discarding then begin
        c.cl_discarding <- false;
        drain c
      end
      else (
        match on_line t ~client:c.cl_id ~emit line with
        | `Continue -> drain c
        | `Shutdown -> stopping := true)
    | None ->
      if c.cl_discarding then Buffer.clear c.cl_buf
      else if Buffer.length c.cl_buf > P.max_line_bytes then begin
        let prefix = Buffer.sub c.cl_buf 0 (min 4096 (Buffer.length c.cl_buf)) in
        Telemetry.Counter.incr c_errors;
        emit
          (Send
             { client = c.cl_id;
               line =
                 P.encode_response
                   (P.error_response ~id:(P.scan_id prefix)
                      (Session.Protocol
                         (Printf.sprintf "request line exceeds %d bytes"
                            P.max_line_bytes))) });
        Buffer.clear c.cl_buf;
        c.cl_discarding <- true
      end
  in
  let client_of_fd fd =
    Hashtbl.fold
      (fun _ c acc -> if c.cl_fd = fd then Some c else acc)
      clients None
  in
  while not !stopping do
    let fds =
      listen_fd :: Hashtbl.fold (fun _ c acc -> c.cl_fd :: acc) clients []
    in
    match Unix.select fds [] [] (-1.0) with
    | exception Unix.Unix_error (Unix.EINTR, _, _) -> ()
    | readable, _, _ ->
      List.iter
        (fun fd ->
          if !stopping then ()
          else if fd = listen_fd then begin
            (* a failed accept is the peer's problem (aborted handshake)
               or a transient of ours (fd exhaustion, a signal): either
               way it must not take down the clients already connected *)
            match accept listen_fd with
            | cfd, _ ->
              let id = !next_id in
              incr next_id;
              Hashtbl.replace clients id
                { cl_fd = cfd;
                  cl_id = id;
                  cl_buf = Buffer.create 256;
                  cl_discarding = false }
            | exception Unix.Unix_error (_, _, _) ->
              Telemetry.Counter.incr c_accept_errors
          end
          else
            match client_of_fd fd with
            | None -> ()
            | Some c -> (
              match Unix.read c.cl_fd chunk 0 (Bytes.length chunk) with
              | 0 -> drop c
              | n ->
                Buffer.add_subbytes c.cl_buf chunk 0 n;
                drain c
              | exception
                  Unix.Unix_error ((Unix.ECONNRESET | Unix.EPIPE), _, _) ->
                drop c))
        readable
  done;
  Hashtbl.iter (fun _ c -> try Unix.close c.cl_fd with Unix.Unix_error _ -> ())
    clients;
  (try Unix.close listen_fd with Unix.Unix_error _ -> ());
  try Sys.remove path with Sys_error _ -> ()
