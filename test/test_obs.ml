(* Telemetry tests: span nesting and aggregation, the disabled fast
   path, counter determinism under the parallel engine and the
   stability of the difftrace-telemetry/1 JSON schema. *)

open Difftrace
module R = Difftrace_simulator.Runtime
module Fault = Difftrace_simulator.Fault
module Context = Difftrace_fca.Context
module Jsm = Difftrace_cluster.Jsm
module Odd_even = Difftrace_workloads.Odd_even

(* every test leaves telemetry exactly as it found it: off, real
   clock, allocation tracking on *)
let scrubbed f () =
  Fun.protect f ~finally:(fun () ->
      Telemetry.disable ();
      Telemetry.reset ();
      Telemetry.set_clock None;
      Telemetry.set_track_alloc true)

(* a hand-cranked clock: spans see exactly the seconds the test adds *)
let fake_clock () =
  let now = ref 0.0 in
  Telemetry.set_clock (Some (fun () -> !now));
  Telemetry.set_track_alloc false;
  fun s -> now := !now +. s

(* ------------------------------------------------------------------ *)
(* Spans                                                               *)
(* ------------------------------------------------------------------ *)

let test_span_nesting () =
  let advance = fake_clock () in
  Telemetry.enable ();
  Telemetry.Span.with_ "compare" (fun () ->
      advance 0.001;
      Telemetry.Span.with_ "analyze" (fun () -> advance 0.002);
      Telemetry.Span.with_ "analyze" (fun () -> advance 0.003));
  let r = Telemetry.report () in
  let paths = List.map (fun s -> s.Telemetry.path) r.Telemetry.spans in
  Alcotest.(check (list string))
    "child paths join with '/', equal paths aggregate"
    [ "compare"; "compare/analyze" ] paths;
  let find p = List.find (fun s -> s.Telemetry.path = p) r.Telemetry.spans in
  let outer = find "compare" and inner = find "compare/analyze" in
  Alcotest.(check int) "outer count" 1 outer.Telemetry.count;
  Alcotest.(check int) "inner count" 2 inner.Telemetry.count;
  Alcotest.(check int) "outer wall includes children" 6_000_000
    outer.Telemetry.wall_ns;
  Alcotest.(check int) "inner wall summed" 5_000_000 inner.Telemetry.wall_ns;
  Alcotest.(check int) "alloc tracking off" 0 outer.Telemetry.alloc_bytes

let test_span_root_and_current_path () =
  let _advance = fake_clock () in
  Telemetry.enable ();
  Telemetry.Span.with_ "outer" (fun () ->
      Telemetry.Span.with_ "inner" (fun () ->
          Alcotest.(check (option string))
            "current_path is the joined chain" (Some "outer/inner")
            (Telemetry.Span.current_path ()));
      (* engine-worker style spans anchor at the root *)
      Telemetry.Span.with_root "worker" (fun () ->
          Alcotest.(check (option string))
            "with_root ignores the enclosing stack" (Some "worker")
            (Telemetry.Span.current_path ())));
  let paths =
    List.map (fun s -> s.Telemetry.path) (Telemetry.report ()).Telemetry.spans
  in
  Alcotest.(check (list string))
    "root span is not nested under outer"
    [ "outer"; "outer/inner"; "worker" ]
    paths

let test_span_exception_safe () =
  let advance = fake_clock () in
  Telemetry.enable ();
  (try
     Telemetry.Span.with_ "boom" (fun () ->
         advance 0.004;
         failwith "kaboom")
   with Failure _ -> ());
  Alcotest.(check (option string))
    "stack popped after the raise" None
    (Telemetry.Span.current_path ());
  let r = Telemetry.report () in
  let s = List.find (fun s -> s.Telemetry.path = "boom") r.Telemetry.spans in
  Alcotest.(check int) "span still recorded" 4_000_000 s.Telemetry.wall_ns

(* ------------------------------------------------------------------ *)
(* Disabled fast path                                                  *)
(* ------------------------------------------------------------------ *)

let test_disabled_is_noop () =
  Telemetry.disable ();
  Telemetry.reset ();
  let c = Telemetry.Counter.make "test.disabled" in
  Telemetry.Counter.add c 42;
  Alcotest.(check int) "counter untouched while disabled" 0
    (Telemetry.Counter.value c);
  let v = Telemetry.Span.with_ "never" (fun () -> 17) in
  Alcotest.(check int) "span is transparent" 17 v;
  let r = Telemetry.report () in
  Alcotest.(check int) "no spans recorded" 0 (List.length r.Telemetry.spans);
  Alcotest.(check int) "no counters recorded" 0
    (List.length r.Telemetry.counters)

(* ------------------------------------------------------------------ *)
(* Counter determinism across engines                                  *)
(* ------------------------------------------------------------------ *)

let counters_for engine ~normal ~faulty =
  Telemetry.enable ();
  let memo = Memo.create () in
  let config = Config.default |> Config.with_engine engine in
  let _ = Pipeline.compare_runs ~memo config ~normal ~faulty in
  let r = Telemetry.report () in
  Telemetry.disable ();
  r.Telemetry.counters

let test_counters_engine_parity () =
  (* generate the traces before enabling so capture counters don't mix
     into the comparison *)
  let normal = (fst (Odd_even.run ~np:8 ~fault:Fault.No_fault ())).R.traces in
  let faulty =
    (fst
       (Odd_even.run ~np:8
          ~fault:(Fault.Swap_send_recv { rank = 3; after_iter = 3 })
          ()))
      .R.traces
  in
  let seq = counters_for Engine.sequential ~normal ~faulty in
  let par = counters_for (Engine.parallel ~domains:4 ()) ~normal ~faulty in
  Alcotest.(check (list (pair string int)))
    "logical-work counters identical under both engines" seq par;
  Alcotest.(check bool) "the pipeline counted something" true (seq <> [])

let test_jsm_cell_counter () =
  let n = 60 in
  let ctx =
    Context.of_attr_sets
      (List.init n (fun i ->
           ( Printf.sprintf "o%d" i,
             List.init 20 (fun j -> Printf.sprintf "a%d" ((i + j * 3) mod 80))
           )))
  in
  let cells engine =
    Telemetry.enable ();
    let _ = Jsm.compute ~init:(Engine.init engine) ctx in
    let v = List.assoc_opt "jsm.cells" (Telemetry.report ()).Telemetry.counters in
    Telemetry.disable ();
    v
  in
  Alcotest.(check (option int))
    "sequential counts every cell" (Some (n * n))
    (cells Engine.sequential);
  Alcotest.(check (option int))
    "parallel counts every cell exactly once" (Some (n * n))
    (cells (Engine.parallel ~domains:4 ()))

(* ------------------------------------------------------------------ *)
(* JSON schema                                                         *)
(* ------------------------------------------------------------------ *)

(* the exact wire format of difftrace-telemetry/1: an expect test, so
   any accidental schema drift fails loudly *)
let expected_json =
  "{\n\
  \  \"schema\": \"difftrace-telemetry/1\",\n\
  \  \"spans\": [\n\
  \    {\"path\":\"analyze\",\"count\":2,\"wall_ns\":1500000,\"alloc_bytes\":2048},\n\
  \    {\"path\":\"analyze/jsm\",\"count\":2,\"wall_ns\":500000,\"alloc_bytes\":1024}\n\
  \  ],\n\
  \  \"counters\": [\n\
  \    {\"name\":\"jsm.cells\",\"value\":16},\n\
  \    {\"name\":\"memo.hits\",\"value\":3}\n\
  \  ]\n\
   }\n"

let fixed_report =
  Telemetry.
    { spans =
        [ { path = "analyze"; count = 2; wall_ns = 1_500_000; alloc_bytes = 2048 };
          { path = "analyze/jsm"; count = 2; wall_ns = 500_000; alloc_bytes = 1024 }
        ];
      counters = [ ("jsm.cells", 16); ("memo.hits", 3) ] }

let test_json_schema_stability () =
  Alcotest.(check string)
    "serialized form is pinned" expected_json
    (Telemetry.to_json fixed_report);
  Alcotest.(check bool)
    "pinned form parses back to the same report" true
    (Telemetry.report_of_json expected_json = fixed_report)

let test_json_roundtrip_live () =
  let advance = fake_clock () in
  Telemetry.enable ();
  let c = Telemetry.Counter.make "test.roundtrip" in
  Telemetry.Span.with_ "outer" (fun () ->
      advance 0.0025;
      Telemetry.Counter.add c 7;
      Telemetry.Span.with_ "inner \"quoted\"" (fun () -> advance 0.001));
  let r = Telemetry.report () in
  Alcotest.(check bool)
    "report -> json -> report is the identity" true
    (Telemetry.report_of_json (Telemetry.to_json r) = r)

let test_json_rejects_wrong_schema () =
  Alcotest.(check bool)
    "foreign schema tag refused" true
    (try
       ignore
         (Telemetry.report_of_json
            "{\"schema\":\"difftrace-telemetry/999\",\"spans\":[],\"counters\":[]}");
       false
     with Telemetry.Json.Parse_error _ -> true)

(* ------------------------------------------------------------------ *)

let () =
  Alcotest.run "obs"
    [ ( "span",
        [ Alcotest.test_case "nesting" `Quick (scrubbed test_span_nesting);
          Alcotest.test_case "root + current_path" `Quick
            (scrubbed test_span_root_and_current_path);
          Alcotest.test_case "exception safety" `Quick
            (scrubbed test_span_exception_safe) ] );
      ( "switch",
        [ Alcotest.test_case "disabled is a no-op" `Quick
            (scrubbed test_disabled_is_noop) ] );
      ( "counters",
        [ Alcotest.test_case "engine parity (compare_runs)" `Quick
            (scrubbed test_counters_engine_parity);
          Alcotest.test_case "jsm cells exact" `Quick
            (scrubbed test_jsm_cell_counter) ] );
      ( "json",
        [ Alcotest.test_case "schema expect" `Quick
            (scrubbed test_json_schema_stability);
          Alcotest.test_case "live round-trip" `Quick
            (scrubbed test_json_roundtrip_live);
          Alcotest.test_case "wrong schema rejected" `Quick
            (scrubbed test_json_rejects_wrong_schema) ] ) ]
