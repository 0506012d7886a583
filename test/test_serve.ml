(* The resident daemon and its difftrace-rpc/1 protocol.

   Four layers of guarantees:
     - protocol: total, round-tripping encode/decode; malformed,
       oversized and adversarial lines always yield a structured error
       carrying the best-effort request id (decoder hardening);
     - daemon core (transport-free on_line): responses byte-identical
       to driving the Session API directly, two interleaved clients
       multiplex over one warm session, a repeated compare performs
       zero fresh summarizations (the memo counters prove it);
     - kill-and-restart: a daemon dropped without ceremony after its
       per-request flush restarts on the same store fully warm;
     - a real Unix-socket round-trip over serve_socket/Client. *)

open Difftrace
module P = Serve.Protocol
module Daemon = Serve.Daemon
module R = Runtime

(* empties [dir] recursively: a rerun finds the archives an earlier
   run's [record] left under [<state>/runs/] *)
let rec rm_contents dir =
  Array.iter
    (fun f ->
      let p = Filename.concat dir f in
      if Sys.is_directory p then (rm_contents p; Sys.rmdir p) else Sys.remove p)
    (Sys.readdir dir)

let tmpdir name =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) ("difftrace_serve_" ^ name)
  in
  if Sys.file_exists dir then rm_contents dir;
  dir

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  n = 0 || go 0

let swap_fault = "swapBug(rank=3,after=2)"

let compare_req ?(id = "r") ?engine () =
  Printf.sprintf
    {|{"difftrace-rpc":1,"id":"%s","method":"compare","params":{"normal":{"workload":"oddeven","np":6},"faulty":{"workload":"oddeven","np":6,"fault":"%s"}%s}}|}
    id swap_fault
    (match engine with
    | None -> ""
    | Some e -> Printf.sprintf {|,"config":{"engine":"%s"}|} e)

(* drive a daemon core directly, collecting emitted lines per client *)
let drive d lines =
  let out = Hashtbl.create 4 in
  let emit (Daemon.Send { client; line }) =
    let prev = Option.value ~default:[] (Hashtbl.find_opt out client) in
    Hashtbl.replace out client (line :: prev)
  in
  let last =
    List.fold_left
      (fun _ (client, line) -> Daemon.on_line d ~client ~emit line)
      `Continue lines
  in
  (last, fun client ->
     List.rev (Option.value ~default:[] (Hashtbl.find_opt out client)))

let decode_ok line =
  match P.decode_response line with
  | Ok { P.rsp_body = Ok p; _ } -> p
  | Ok { P.rsp_body = Error e; _ } ->
    Alcotest.failf "error response: %s: %s" e.P.err_kind e.P.err_message
  | Error m -> Alcotest.failf "undecodable response: %s" m

let decode_err line =
  match P.decode_response line with
  | Ok { P.rsp_id; rsp_body = Error e } -> (rsp_id, e)
  | Ok { P.rsp_body = Ok _; _ } -> Alcotest.fail "expected an error response"
  | Error m -> Alcotest.failf "undecodable response: %s" m

let output_of line = P.payload_output (decode_ok line)
let misses d = (Memo.stats (Session.memo (Daemon.session d))).Memo.misses

(* what the one-shot CLI prints for the same compare, via the same
   session API the daemon serves *)
let oneshot_compare () =
  let normal, _ = Workloads.Odd_even.run ~np:6 ~fault:Fault.No_fault () in
  let faulty, _ =
    Workloads.Odd_even.run ~np:6 ~fault:(Result.get_ok (Fault.of_string swap_fault)) ()
  in
  let r =
    match
      Session.compare (Session.create ()) Config.default
        { Session.cp_normal = Session.Traces normal.R.traces;
          cp_faulty = Session.Traces faulty.R.traces;
          cp_diffnlr = None }
    with
    | Ok r -> r
    | Error e -> Alcotest.fail (Session.error_to_string e)
  in
  r.Session.cp_output

(* --- protocol: round-trip -------------------------------------------- *)

let sample_requests =
  [ { P.req_id = "a1";
      req_call =
        P.Record
          { rq_workload =
              { P.ws_workload = "oddeven"; ws_np = 4; ws_seed = 2;
                ws_fault = "none"; ws_all_images = false };
            rq_name = Some "normal";
            rq_out = Some "out/dir" } };
    { P.req_id = "a2";
      req_call =
        P.Compare
          { rq_normal = P.Src_run "normal";
            rq_faulty = P.Src_archive { dir = "x/y"; salvage = true };
            rq_config =
              { P.default_config with
                pc_k = 50;
                pc_custom = [ "main|solve" ];
                pc_engine = Some "parallel:2" };
            rq_diffnlr = Some "5.1" } };
    { P.req_id = "a3";
      req_call =
        P.Analyze
          { rq_normal = P.Src_archive { dir = "n"; salvage = false };
            rq_faulty = P.Src_run "f";
            rq_config = P.default_config;
            rq_diffnlr = None } };
    { P.req_id = "a4";
      req_call =
        P.Triage
          { rq_subject =
              P.Src_workload
                { P.ws_workload = "lulesh"; ws_np = 8; ws_seed = 1;
                  ws_fault = "skipFunction(rank=2,func=LagrangeLeapFrog)";
                  ws_all_images = true };
            rq_config = P.default_config;
            rq_limit = 4 } };
    { P.req_id = "a8";
      req_call =
        P.Query
          { rq_q = "count MPI_Send on 3";
            rq_source = P.Src_archive { dir = "n"; salvage = false };
            rq_against = None;
            rq_config = P.default_config } };
    { P.req_id = "a9";
      req_call =
        P.Query
          { rq_q = "diverge";
            rq_source = P.Src_run "normal";
            rq_against =
              Some (P.Src_ingest { path = "f.log"; frontend = "cilog" });
            rq_config =
              { P.default_config with pc_engine = Some "sequential" } } };
    { P.req_id = "a10";
      req_call =
        P.Vdiff
          { rq_runs =
              [ { P.vs_name = "r0"; vs_source = P.Src_run "normal";
                  vs_axes = []; vs_bad = false };
                { P.vs_name = "cell7";
                  vs_source = P.Src_archive { dir = "c7"; salvage = true };
                  vs_axes = [ ("fault", "f2"); ("seed", "3") ];
                  vs_bad = true } ];
            rq_trace = Some "1.0";
            rq_config = { P.default_config with pc_mode = "sketch" } } };
    { P.req_id = "a5"; req_call = P.Status };
    { P.req_id = "a6"; req_call = P.Subscribe { rq_events = false } };
    { P.req_id = "a7"; req_call = P.Shutdown } ]

let test_request_round_trip () =
  List.iter
    (fun r ->
      match P.decode_request (P.encode_request r) with
      | Ok r' -> Alcotest.(check bool) (P.method_name r.P.req_call) true (r = r')
      | Error (_, e) ->
        Alcotest.failf "decode failed for %s: %s" (P.method_name r.P.req_call)
          (Session.error_to_string e))
    sample_requests

let sample_payloads =
  [ P.P_record
      { pr_files = 8; pr_traces = 8; pr_events = 448; pr_hung = 0;
        pr_run = Some "normal"; pr_output = "archived 8 trace files to x\n" };
    P.P_report
      { pr_style = `Compare; pr_bscore = 0.794; pr_top_processes = [ 5; 0 ];
        pr_top_threads = [ "5.1" ];
        pr_suspects = [ ("5", 2.5); ("10", 0.125) ];
        pr_output = "B-score: 0.794\n" };
    P.P_report
      { pr_style = `Analyze; pr_bscore = 1.0; pr_top_processes = [];
        pr_top_threads = []; pr_suspects = []; pr_output = "" };
    P.P_triage
      { pr_outliers = [ ("2", 0.286, true); ("0", 0.0, false) ];
        pr_output = "JSM outliers\n" };
    P.P_query
      { pq_kind = "count"; pq_size = 12; pq_warm = true;
        pq_output = "calls of MPI_Send: 12\n" };
    P.P_vdiff
      { pv_nruns = 3; pv_columns = 17; pv_regions = 4; pv_warm = false;
        pv_condition = None; pv_output = "" };
    P.P_vdiff
      { pv_nruns = 2; pv_columns = 9; pv_regions = 2; pv_warm = true;
        pv_condition = Some "fault=f2"; pv_output = "variational NLR\n" };
    P.P_status
      { pr_requests = 3; pr_runs = [ ("normal", 8) ]; pr_summaries = 5;
        pr_hits = 47; pr_misses = 17; pr_store = Some (5, 2);
        pr_output = "requests: 3\n" };
    P.P_status
      { pr_requests = 0; pr_runs = []; pr_summaries = 0; pr_hits = 0;
        pr_misses = 0; pr_store = None; pr_output = "" };
    P.P_subscribe { pr_events = true; pr_output = "subscribed to events\n" };
    P.P_shutdown { pr_output = "daemon stopping\n" } ]

let test_response_round_trip () =
  List.iter
    (fun p ->
      let r = { P.rsp_id = Some "id-1"; rsp_body = Ok p } in
      match P.decode_response (P.encode_response r) with
      | Ok r' -> Alcotest.(check bool) "response" true (r = r')
      | Error m -> Alcotest.fail m)
    sample_payloads;
  let err =
    P.error_response ~id:None (Session.Protocol "bad line \"quoted\"\n")
  in
  match P.decode_response (P.encode_response err) with
  | Ok r' -> Alcotest.(check bool) "error response" true (err = r')
  | Error m -> Alcotest.fail m

(* the unknown-method error lists every method the codec knows *)
let test_unknown_method_lists_all () =
  match P.decode_request {|{"difftrace-rpc":1,"id":"u","method":"frob"}|} with
  | Error (_, Session.Protocol m) ->
    let listed =
      match String.index_opt m ':' with
      | Some i ->
        String.sub m (i + 2) (String.length m - i - 3)
        |> String.split_on_char ',' |> List.map String.trim
      | None -> Alcotest.failf "no method list in %S" m
    in
    List.iter
      (fun r ->
        let name = P.method_name r.P.req_call in
        Alcotest.(check bool) ("lists " ^ name) true (List.mem name listed))
      sample_requests
  | _ -> Alcotest.fail "expected a protocol error"

let test_event_round_trip () =
  let ev =
    { P.ev_name = "request";
      ev_fields =
        [ ("id", P.Json.String "r1"); ("method", P.Json.String "compare") ] }
  in
  match P.decode_message (P.encode_event ev) with
  | Ok (P.Event ev') -> Alcotest.(check bool) "event" true (ev = ev')
  | Ok (P.Response _) -> Alcotest.fail "expected an event"
  | Error m -> Alcotest.fail m

(* --- protocol: decoder hardening -------------------------------------- *)

let expect_err ~id line =
  match P.decode_request line with
  | Ok _ -> Alcotest.failf "accepted: %s" line
  | Error (got_id, e) ->
    Alcotest.(check (option string)) "recovered id" id got_id;
    e

let test_decoder_hardening () =
  (* malformed JSON still yields the offending request id *)
  (match expect_err ~id:(Some "r9") {|{"id":"r9", this is not json|} with
  | Session.Protocol _ -> ()
  | e -> Alcotest.failf "wrong error: %s" (Session.error_to_string e));
  (* id with escapes is recovered lexically *)
  (match expect_err ~id:(Some {|q"x|}) {|{"id":"q\"x", nope|} with
  | Session.Protocol _ -> ()
  | _ -> Alcotest.fail "wrong error");
  ignore (expect_err ~id:None "");
  ignore (expect_err ~id:None "[1,2,3]");
  ignore (expect_err ~id:None {|{"difftrace-rpc":1,"method":"status"}|});
  (* version checks *)
  (match
     expect_err ~id:(Some "v") {|{"difftrace-rpc":99,"id":"v","method":"status"}|}
   with
  | Session.Protocol m ->
    Alcotest.(check bool) "names the version" true (contains ~sub:"version" m)
  | _ -> Alcotest.fail "wrong error");
  ignore (expect_err ~id:(Some "nv") {|{"id":"nv","method":"status"}|});
  (* unknown method, bad params *)
  (match
     expect_err ~id:(Some "m") {|{"difftrace-rpc":1,"id":"m","method":"frob"}|}
   with
  | Session.Protocol _ -> ()
  | _ -> Alcotest.fail "wrong error");
  (match
     expect_err ~id:(Some "p")
       {|{"difftrace-rpc":1,"id":"p","method":"compare","params":{"normal":7,"faulty":"f"}}|}
   with
  | Session.Invalid _ -> ()
  | _ -> Alcotest.fail "wrong error");
  (* a numeric id is not a string id *)
  ignore (expect_err ~id:None {|{"difftrace-rpc":1,"id":7,"method":"status"}|})

let test_oversized_line () =
  let pad = String.make (P.max_line_bytes + 10) 'x' in
  let line =
    Printf.sprintf
      {|{"difftrace-rpc":1,"id":"big","method":"status","pad":"%s"}|} pad
  in
  match P.decode_request line with
  | Ok _ -> Alcotest.fail "oversized line accepted"
  | Error (id, Session.Protocol m) ->
    Alcotest.(check (option string)) "id survives the cap" (Some "big") id;
    Alcotest.(check bool) "message names the cap" true
      (contains ~sub:(string_of_int P.max_line_bytes) m)
  | Error (_, e) -> Alcotest.failf "wrong error: %s" (Session.error_to_string e)

(* the daemon answers garbage with errors and keeps serving *)
let test_daemon_survives_garbage () =
  let d = Daemon.create ~default_engine:Engine.Sequential () in
  let last, out =
    drive d
      [ (0, "not json at all");
        (0, {|{"difftrace-rpc":1,"id":"u","method":"frob"}|});
        (0, {|{"difftrace-rpc":1,"id":"w","method":"compare","params":{}}|});
        (0, {|{"difftrace-rpc":1,"id":"ok","method":"status"}|}) ]
  in
  Alcotest.(check bool) "still serving" true (last = `Continue);
  let lines = out 0 in
  Alcotest.(check int) "four replies" 4 (List.length lines);
  List.iteri
    (fun i (id, kind) ->
      let got_id, e = decode_err (List.nth lines i) in
      Alcotest.(check (option string)) "id echoed" id got_id;
      Alcotest.(check string) "error kind" kind e.P.err_kind)
    [ (None, "invalid-request"); (Some "u", "invalid-request");
      (Some "w", "invalid-params") ];
  (match P.decode_response (List.nth lines 3) with
  | Ok { P.rsp_id = Some "ok"; rsp_body = Ok (P.P_status _) } -> ()
  | _ -> Alcotest.fail "status after garbage should succeed")

(* --- daemon core: byte-identity and warm multiplexing ----------------- *)

let test_interleaved_clients_warm () =
  let expected = oneshot_compare () in
  let d = Daemon.create ~default_engine:Engine.Sequential () in
  let triage_line ~id =
    Printf.sprintf
      {|{"difftrace-rpc":1,"id":"%s","method":"triage","params":{"subject":{"workload":"oddeven","np":6,"fault":"%s"},"limit":4}}|}
      id swap_fault
  in
  (* two clients interleaved against one warm daemon *)
  let last, out =
    drive d
      [ (1, compare_req ~id:"c1" ());
        (2, compare_req ~id:"c2" ());
        (1, triage_line ~id:"t1");
        (2, triage_line ~id:"t2");
        (1, {|{"difftrace-rpc":1,"id":"s1","method":"status"}|}) ]
  in
  Alcotest.(check bool) "still serving" true (last = `Continue);
  let c1 = output_of (List.nth (out 1) 0) in
  let c2 = output_of (List.nth (out 2) 0) in
  Alcotest.(check string) "client 1 compare == one-shot CLI" expected c1;
  Alcotest.(check string) "client 2 compare == client 1" c1 c2;
  let t1 = output_of (List.nth (out 1) 1) in
  let t2 = output_of (List.nth (out 2) 1) in
  Alcotest.(check string) "interleaved triages agree" t1 t2;
  (* the status payload reports the one shared memo truthfully *)
  match P.decode_response (List.nth (out 1) 2) with
  | Ok { P.rsp_body = Ok (P.P_status { pr_requests; pr_misses; _ }); _ } ->
    Alcotest.(check int) "status counts every request (itself included)" 5
      pr_requests;
    Alcotest.(check int) "status reports the shared memo" (misses d) pr_misses
  | _ -> Alcotest.fail "status failed"

let test_repeat_compare_zero_summarizations () =
  let d = Daemon.create ~default_engine:Engine.Sequential () in
  let _, out1 = drive d [ (0, compare_req ~id:"c1" ()) ] in
  let first = output_of (List.nth (out1 0) 0) in
  let after_first = misses d in
  let _, out2 = drive d [ (0, compare_req ~id:"c2" ()) ] in
  let second = output_of (List.nth (out2 0) 0) in
  Alcotest.(check string) "warm repeat is byte-identical" first second;
  Alcotest.(check int) "zero summarizations on the warm repeat" after_first
    (misses d);
  Alcotest.(check bool) "the first compare did summarize" true (after_first > 0)

(* same requests under both engines: byte-identical response lines *)
let test_engine_identical_responses () =
  let run engine =
    let d = Daemon.create ~default_engine:Engine.Sequential () in
    let _, out =
      drive d
        [ (0, compare_req ~id:"e1" ~engine ());
          (0, {|{"difftrace-rpc":1,"id":"e2","method":"status"}|}) ]
    in
    out 0
  in
  List.iter2
    (fun a b -> Alcotest.(check string) "seq == par" a b)
    (run "sequential") (run "parallel:2")

(* --- record / subscribe / events -------------------------------------- *)

let test_record_subscribe_events () =
  let state = tmpdir "state" in
  let d = Daemon.create ~state_dir:state ~default_engine:Engine.Sequential () in
  let _, out =
    drive d
      [ (0, {|{"difftrace-rpc":1,"id":"sub","method":"subscribe"}|});
        ( 0,
          {|{"difftrace-rpc":1,"id":"rec","method":"record","params":{"workload":"oddeven","np":4,"name":"normal"}}|}
        );
        ( 0,
          {|{"difftrace-rpc":1,"id":"cmp","method":"compare","params":{"normal":"normal","faulty":{"run":"normal"}}}|}
        ) ]
  in
  let lines = out 0 in
  (match P.decode_response (List.hd lines) with
  | Ok { P.rsp_body = Ok (P.P_subscribe { pr_events = true; _ }); _ } -> ()
  | _ -> Alcotest.fail "subscribe failed");
  (* after subscribing: per-request events interleave with responses *)
  let events, responses =
    List.partition
      (fun l ->
        match P.decode_message l with Ok (P.Event _) -> true | _ -> false)
      (List.tl lines)
  in
  Alcotest.(check bool) "events were pushed" true (List.length events >= 2);
  (match P.decode_message (List.hd events) with
  | Ok (P.Event { ev_name = "request"; _ }) -> ()
  | _ -> Alcotest.fail "first event should be request");
  (match P.decode_response (List.hd responses) with
  | Ok { P.rsp_body = Ok (P.P_record { pr_files; pr_run; pr_output; _ }); _ } ->
    Alcotest.(check int) "archived files" 4 pr_files;
    Alcotest.(check (option string)) "registered" (Some "normal") pr_run;
    Alcotest.(check bool) "archived under the state dir" true
      (contains ~sub:"runs" pr_output)
  | _ -> Alcotest.fail "record failed");
  (* the run resolves, as bare-string and object source specs alike *)
  match P.decode_response (List.nth responses 1) with
  | Ok { P.rsp_body = Ok (P.P_report { pr_style = `Compare; _ }); _ } -> ()
  | _ -> Alcotest.fail "compare on the recorded run failed"

let test_unknown_run_error () =
  let d = Daemon.create ~default_engine:Engine.Sequential () in
  let _, out =
    drive d
      [ ( 0,
          {|{"difftrace-rpc":1,"id":"x","method":"triage","params":{"subject":"nope"}}|}
        ) ]
  in
  let id, e = decode_err (List.hd (out 0)) in
  Alcotest.(check (option string)) "id echoed" (Some "x") id;
  Alcotest.(check string) "kind" "unknown-run" e.P.err_kind

(* --- kill-and-restart: the store re-adopts warm ------------------------ *)

let test_kill_and_restart_warm () =
  let dir = tmpdir "restart" in
  let boot () =
    match Store.load ~dir with
    | Ok st -> Daemon.create ~store:st ~default_engine:Engine.Sequential ()
    | Error e -> Alcotest.fail (Store.error_to_string e)
  in
  let d1 = boot () in
  let _, out1 = drive d1 [ (0, compare_req ~id:"k1" ()) ] in
  let first = output_of (List.hd (out1 0)) in
  Alcotest.(check bool) "cold daemon summarized" true (misses d1 > 0);
  (* no shutdown, no explicit flush: the daemon is "killed" here; the
     per-request flush already persisted the store *)
  let d2 = boot () in
  let _, out2 = drive d2 [ (0, compare_req ~id:"k2" ()) ] in
  let second = output_of (List.hd (out2 0)) in
  Alcotest.(check string) "restarted daemon is byte-identical" first second;
  Alcotest.(check int) "restart is cold-start-free: zero summarizations" 0
    (misses d2)

(* --- shutdown ---------------------------------------------------------- *)

let test_shutdown () =
  let d = Daemon.create ~default_engine:Engine.Sequential () in
  let last, out =
    drive d [ (0, {|{"difftrace-rpc":1,"id":"bye","method":"shutdown"}|}) ]
  in
  Alcotest.(check bool) "stops" true (last = `Shutdown);
  match P.decode_response (List.hd (out 0)) with
  | Ok { P.rsp_id = Some "bye"; rsp_body = Ok (P.P_shutdown _) } -> ()
  | _ -> Alcotest.fail "shutdown response"

(* --- a real socket round-trip ------------------------------------------ *)

let test_socket_round_trip () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "difftrace_serve_%d.sock" (Unix.getpid ()))
  in
  if Sys.file_exists path then Sys.remove path;
  let d = Daemon.create ~default_engine:Engine.Sequential () in
  let th = Thread.create (fun () -> Daemon.serve_socket d ~path) () in
  let conn =
    match Serve.Client.connect ~path () with
    | Ok c -> c
    | Error m -> Alcotest.fail m
  in
  let rpc line =
    match Serve.Client.rpc conn line ~on_event:(fun _ -> ()) with
    | Ok r -> r
    | Error m -> Alcotest.fail m
  in
  (match rpc {|{"difftrace-rpc":1,"id":"s1","method":"status"}|} with
  | { P.rsp_id = Some "s1"; rsp_body = Ok (P.P_status _) } -> ()
  | _ -> Alcotest.fail "unexpected status reply");
  (match rpc {|{"difftrace-rpc":1,"id":"s2","method":"shutdown"}|} with
  | { P.rsp_body = Ok (P.P_shutdown _); _ } -> ()
  | _ -> Alcotest.fail "unexpected shutdown reply");
  Serve.Client.close conn;
  Thread.join th;
  Alcotest.(check bool) "socket removed" false (Sys.file_exists path)

(* a raising accept must cost one counter tick, never the daemon: the
   select loop used to die on the first transient ECONNABORTED *)
let test_accept_failure_survived () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ())
      (Printf.sprintf "difftrace_serve_acc_%d.sock" (Unix.getpid ()))
  in
  if Sys.file_exists path then Sys.remove path;
  let failures = ref 1 in
  let accept fd =
    if !failures > 0 then begin
      decr failures;
      raise (Unix.Unix_error (Unix.ECONNABORTED, "accept", ""))
    end
    else Unix.accept fd
  in
  let d = Daemon.create ~default_engine:Engine.Sequential () in
  Difftrace_obs.Telemetry.enable ();
  let th = Thread.create (fun () -> Daemon.serve_socket ~accept d ~path) () in
  (* the injected raise happens before the real accept, so the pending
     connection stays queued on the listen socket: the very same client
     is served once the loop survives and retries *)
  let rec connect tries =
    match Serve.Client.connect ~path () with
    | Ok c -> c
    | Error _ when tries > 0 ->
      Unix.sleepf 0.02;
      connect (tries - 1)
    | Error m -> Alcotest.fail m
  in
  let conn = connect 50 in
  let rpc line =
    match Serve.Client.rpc conn line ~on_event:(fun _ -> ()) with
    | Ok r -> r
    | Error m -> Alcotest.fail m
  in
  (match rpc {|{"difftrace-rpc":1,"id":"a1","method":"status"}|} with
  | { P.rsp_id = Some "a1"; rsp_body = Ok (P.P_status _) } -> ()
  | _ -> Alcotest.fail "daemon did not serve after the accept failure");
  (match rpc {|{"difftrace-rpc":1,"id":"a2","method":"shutdown"}|} with
  | { P.rsp_body = Ok (P.P_shutdown _); _ } -> ()
  | _ -> Alcotest.fail "unexpected shutdown reply");
  Serve.Client.close conn;
  Thread.join th;
  let rep = Difftrace_obs.Telemetry.report () in
  Difftrace_obs.Telemetry.disable ();
  let counter name =
    match List.assoc_opt name rep.Difftrace_obs.Telemetry.counters with
    | Some v -> v
    | None -> 0
  in
  Alcotest.(check int) "injected failure consumed" 0 !failures;
  Alcotest.(check int) "rpc.accept_errors counted" 1
    (counter "rpc.accept_errors")

let () =
  Alcotest.run "serve"
    [ ( "protocol",
        [ Alcotest.test_case "request round-trip" `Quick test_request_round_trip;
          Alcotest.test_case "response round-trip" `Quick
            test_response_round_trip;
          Alcotest.test_case "event round-trip" `Quick test_event_round_trip;
          Alcotest.test_case "unknown method lists every method" `Quick
            test_unknown_method_lists_all ] );
      ( "hardening",
        [ Alcotest.test_case "decoder never raises, ids recovered" `Quick
            test_decoder_hardening;
          Alcotest.test_case "oversized line" `Quick test_oversized_line;
          Alcotest.test_case "daemon survives garbage" `Quick
            test_daemon_survives_garbage ] );
      ( "daemon",
        [ Alcotest.test_case "interleaved clients, warm and byte-identical"
            `Quick test_interleaved_clients_warm;
          Alcotest.test_case "repeat compare: zero summarizations" `Quick
            test_repeat_compare_zero_summarizations;
          Alcotest.test_case "seq and par responses identical" `Quick
            test_engine_identical_responses;
          Alcotest.test_case "record registers, archives, events" `Quick
            test_record_subscribe_events;
          Alcotest.test_case "unknown run is a structured error" `Quick
            test_unknown_run_error;
          Alcotest.test_case "shutdown" `Quick test_shutdown ] );
      ( "restart",
        [ Alcotest.test_case "kill-and-restart re-adopts the store warm" `Quick
            test_kill_and_restart_warm ] );
      ( "socket",
        [ Alcotest.test_case "socket round-trip" `Quick test_socket_round_trip;
          Alcotest.test_case "accept failure survived" `Quick
            test_accept_failure_survived ] ) ]
