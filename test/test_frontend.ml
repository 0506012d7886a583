(* The frontend conformance contract, enforced. Every property here is
   the one Conformance.check runs — against both shipped frontends
   (cilog, syscall) over the checked-in corpus and over qcheck-random
   bytes, and against a deliberately misbehaving frontend that the
   suite must catch (a conformance suite that cannot fail a bad
   frontend proves nothing). *)

module Fe = Difftrace_frontend.Frontend
module Cilog = Difftrace_frontend.Cilog
module Syscall = Difftrace_frontend.Syscall
module Conformance = Difftrace_frontend.Conformance
module Registry = Difftrace_frontend.Registry
module Engine = Difftrace_core.Engine
module Trace = Difftrace_trace.Trace
module Trace_set = Difftrace_trace.Trace_set
module Symtab = Difftrace_trace.Symtab
module Event = Difftrace_trace.Event

let qtest ?(count = 100) ?print name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ?print ~name gen prop)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let corpus =
  [ (Cilog.frontend, "corpus/cilog/build_pass.log");
    (Cilog.frontend, "corpus/cilog/build_fail.log");
    (Cilog.frontend, "corpus/cilog/ansi_interleaved.log");
    (Syscall.frontend, "corpus/syscall/normal.strace");
    (Syscall.frontend, "corpus/syscall/faulty.strace");
    (Syscall.frontend, "corpus/syscall/unfinished.strace") ]

let engine_runner = Engine.runner (Engine.parallel ~domains:3 ())

let ingest_exn fe input =
  match Fe.ingest_string fe input with
  | Ok ts -> ts
  | Error e -> Alcotest.failf "ingest failed: %s" (Fe.error_to_string e)

(* ---------------------------------------------------------------- *)
(* Conformance over the checked-in corpus                            *)
(* ---------------------------------------------------------------- *)

(* every corpus file passes every property, under the adversarial
   reversed runner AND under a real parallel engine runner, including
   the archive save/salvage round-trip *)
let test_corpus_conformant () =
  let scratch = Filename.temp_file "fe-conf" "" in
  Sys.remove scratch;
  Unix.mkdir scratch 0o755;
  List.iter
    (fun (fe, path) ->
      let input = read_file path in
      let violations = Conformance.check ~scratch fe input in
      if violations <> [] then
        Alcotest.failf "%s on %s: %s" fe.Fe.name path
          (String.concat "; "
             (List.map Conformance.violation_to_string violations));
      let violations =
        Conformance.check ~alt_runner:engine_runner fe input
      in
      if violations <> [] then
        Alcotest.failf "%s on %s (engine runner): %s" fe.Fe.name path
          (String.concat "; "
             (List.map Conformance.violation_to_string violations)))
    corpus

(* every corpus file actually ingests (the conformance properties are
   vacuous on typed rejects, so pin the corpus to the happy path) *)
let test_corpus_ingests () =
  List.iter
    (fun (fe, path) ->
      let ts = ingest_exn fe (read_file path) in
      Alcotest.(check bool)
        (path ^ " nonempty") true
        (Trace_set.cardinal ts > 0 && Trace_set.total_events ts > 0))
    corpus

(* ---------------------------------------------------------------- *)
(* The suite must catch a misbehaving frontend                       *)
(* ---------------------------------------------------------------- *)

(* chaos: raises on inputs starting with 'R', answers differently on
   every call (mutable counter), renders nothing *)
let chaos_counter = ref 0

let chaos : Fe.t =
  { name = "chaos";
    description = "deliberately nonconformant test frontend";
    ingest =
      (fun ~runner:_ input ->
        if String.length input > 0 && input.[0] = 'R' then
          failwith "chaos: told you so";
        incr chaos_counter;
        let sym = Symtab.create () in
        let id =
          Symtab.intern sym (Printf.sprintf "call%d" !chaos_counter)
        in
        let tr =
          Trace.make ~pid:0 ~tid:0 ~truncated:false
            [| Event.Call id; Event.Return id |]
        in
        Ok (Trace_set.create sym [ tr ]));
    render = (fun _ -> "") }

let props violations =
  List.map (fun v -> v.Conformance.vl_property) violations
  |> List.sort_uniq compare

let test_chaos_totality () =
  Alcotest.(check (list string))
    "raise caught" [ "totality" ]
    (props (Conformance.check chaos "Raise please"))

let test_chaos_determinism () =
  let vs = props (Conformance.check chaos "benign input") in
  Alcotest.(check bool) "determinism flagged" true
    (List.mem "determinism" vs);
  (* the empty render ingests to a different (fresh-counter) set, so
     the round-trip fixed point must fail too *)
  Alcotest.(check bool) "round-trip flagged" true (List.mem "round-trip" vs)

(* a frontend that only misbehaves under the alternate runner: it
   bakes the runner's completion order into a symbol name *)
let order_dependent : Fe.t =
  { name = "order-dependent";
    description = "bakes runner evaluation order into its output";
    ingest =
      (fun ~runner input ->
        let order = Buffer.create 8 in
        ignore
          (runner.Difftrace_util.Runner.run 4 (fun i ->
               Buffer.add_string order (string_of_int i);
               i));
        let sym = Symtab.create () in
        let id =
          Symtab.intern sym
            (if String.length input = 0 then "empty" else Buffer.contents order)
        in
        let tr =
          Trace.make ~pid:0 ~tid:0 ~truncated:false
            [| Event.Call id; Event.Return id |]
        in
        Ok (Trace_set.create sym [ tr ]));
    render = (fun _ -> "x") }

let test_order_dependence_caught () =
  Alcotest.(check bool) "parity flagged" true
    (List.mem "parity" (props (Conformance.check order_dependent "x")))

(* ---------------------------------------------------------------- *)
(* qcheck: the shipped frontends on arbitrary bytes                  *)
(* ---------------------------------------------------------------- *)

let bytes_gen = QCheck2.Gen.(string_size ~gen:(char_range '\000' '\255') (0 -- 2000))

(* lines that look vaguely like each format, to push random inputs
   past the first parse stages instead of dying at line 1 *)
let structured_gen =
  QCheck2.Gen.(
    let cilog_line =
      oneof
        [ map (fun s -> "10:04:33 " ^ s) (string_size (0 -- 40));
          map (fun n -> Printf.sprintf "##[group]phase %d" n) (0 -- 99);
          return "##[endgroup]";
          map (fun s -> "web | " ^ s) (string_size (0 -- 30)) ]
    in
    let strace_line =
      oneof
        [ map2
            (fun p s -> Printf.sprintf "[pid %d] call(%s) = 0" p s)
            (0 -- 5) (string_size (0 -- 20));
          map (fun p -> Printf.sprintf "[pid %d] +++ exited with 0 +++" p) (0 -- 5);
          map (fun p -> Printf.sprintf "[pid %d] futex( <unfinished ...>" p) (0 -- 5);
          map (fun p -> Printf.sprintf "[pid %d] <... futex resumed> ) = 0" p) (0 -- 5) ]
    in
    map (String.concat "\n") (list_size (0 -- 40) (oneof [ cilog_line; strace_line ])))

(* inputs print escaped, so a counterexample can be pasted back as a
   regression case *)
let never_violates fe gen label =
  qtest ~print:(Printf.sprintf "%S")
    (Printf.sprintf "%s conformant on %s input" fe.Fe.name label)
    gen
    (fun input ->
      match Conformance.check fe input with
      | [] -> true
      | vs ->
        QCheck2.Test.fail_reportf "%s"
          (String.concat "; " (List.map Conformance.violation_to_string vs)))

let prop_cilog_random = never_violates Cilog.frontend bytes_gen "random"
let prop_syscall_random = never_violates Syscall.frontend bytes_gen "random"
let prop_cilog_structured = never_violates Cilog.frontend structured_gen "structured"
let prop_syscall_structured = never_violates Syscall.frontend structured_gen "structured"

(* engine parity on structured inputs — the real parallel runner, not
   just the reversed one *)
let prop_engine_parity =
  qtest ~count:50 "engine runner parity on structured input" structured_gen
    (fun input ->
      List.for_all
        (fun fe ->
          Conformance.check ~alt_runner:engine_runner fe input
          |> List.for_all (fun v -> v.Conformance.vl_property <> "parity"))
        [ Cilog.frontend; Syscall.frontend ])

(* ---------------------------------------------------------------- *)
(* cilog specifics                                                   *)
(* ---------------------------------------------------------------- *)

let test_normalize_classes () =
  List.iter
    (fun (raw, want) ->
      Alcotest.(check string) raw want (Cilog.normalize raw))
    [ ("compiled /src/a.ml in 12 ms", "compiled <path> in <n> ms");
      ("10:04:33 starting", "<ts> starting");
      ("id deadbeef01", "id <hex>");
      ("took 98%", "took <n>");
      ("plain words stay", "plain words stay") ]

let prop_normalize_idempotent =
  qtest "cilog normalize is idempotent"
    QCheck2.Gen.(string_size ~gen:printable (0 -- 120))
    (fun s ->
      let once = Cilog.normalize s in
      Cilog.normalize once = once)

let test_cilog_streams_split () =
  let input = "web | a\ndb  | b\nweb | c\n" in
  let ts = ingest_exn Cilog.frontend input in
  Alcotest.(check int) "two streams" 2 (Trace_set.cardinal ts)

let test_cilog_ansi_invisible () =
  let plain = "10:00:00 hello world\n" in
  let colored = "10:00:00 \x1b[32mhello\x1b[0m world\n" in
  Alcotest.(check string) "ansi stripped before tokenizing"
    (Fe.digest (ingest_exn Cilog.frontend plain))
    (Fe.digest (ingest_exn Cilog.frontend colored))

let test_cilog_steps_are_calls () =
  let input = "##[group]Build\nmake\n##[endgroup]\n" in
  let ts = ingest_exn Cilog.frontend input in
  let tr = (Trace_set.traces ts).(0) in
  let names =
    Trace.call_ids tr |> Array.to_list
    |> List.map (Symtab.name (Trace_set.symtab ts))
  in
  Alcotest.(check (list string)) "step wraps body" [ "step:Build"; "make" ]
    names

(* ---------------------------------------------------------------- *)
(* syscall specifics                                                 *)
(* ---------------------------------------------------------------- *)

let test_syscall_pids_renumbered () =
  (* two captures of "the same program" under different kernel pids
     must produce digest-compatible thread identities *)
  let capture base =
    Printf.sprintf
      "[pid %d] read(3) = 1\n[pid %d] write(1) = 1\n[pid %d] futex(0) = 0\n"
      base base (base + 1)
  in
  let a = ingest_exn Syscall.frontend (capture 100)
  and b = ingest_exn Syscall.frontend (capture 9000) in
  Alcotest.(check string) "pid-independent digest" (Fe.digest a) (Fe.digest b)

let test_syscall_unfinished_truncates () =
  let ts =
    ingest_exn Syscall.frontend "[pid 1] nanosleep(1 <unfinished ...>\n"
  in
  let tr = (Trace_set.traces ts).(0) in
  Alcotest.(check bool) "pending call marks truncation" true
    tr.Trace.truncated

let test_syscall_signal_inside_window () =
  (* a signal delivery between unfinished and resumed must nest, not
     error *)
  let input =
    "[pid 1] nanosleep(1 <unfinished ...>\n\
     [pid 1] --- SIGINT {si_signo=SIGINT} ---\n\
     [pid 1] <... nanosleep resumed> ) = 0\n"
  in
  let ts = ingest_exn Syscall.frontend input in
  let tr = (Trace_set.traces ts).(0) in
  Alcotest.(check bool) "complete thread" false tr.Trace.truncated;
  let names =
    Trace.call_ids tr |> Array.to_list
    |> List.map (Symtab.name (Trace_set.symtab ts))
  in
  Alcotest.(check (list string))
    "signal nested in syscall window"
    [ "process"; "nanosleep"; "sig:SIGINT" ]
    names

let test_syscall_mismatched_resume_rejected () =
  match Fe.ingest_string Syscall.frontend "[pid 1] <... read resumed> ) = 0\n" with
  | Ok _ -> Alcotest.fail "resume without unfinished must be a typed error"
  | Error e ->
    Alcotest.(check (option int)) "line pinned" (Some 1) e.Fe.fe_line

(* a line blank after its pid and timestamp opened an empty process
   that render dropped, so re-ingesting was not a fixed point (the
   structured property found "10:04:33 " now and then) *)
let test_syscall_blank_lines_open_no_process () =
  List.iter
    (fun (input, traces) ->
      Alcotest.(check int)
        (Printf.sprintf "%S traces" input)
        traces
        (Trace_set.cardinal (ingest_exn Syscall.frontend input));
      Alcotest.(check (list string))
        (Printf.sprintf "%S conformant" input)
        []
        (List.map Conformance.violation_to_string
           (Conformance.check Syscall.frontend input)))
    [ ("\n", 0); ("10:04:33 ", 0); ("[pid 3] ", 0);
      ("[pid 2] read() = 0\n\n[pid 3] \n", 1) ]

(* a stray CR became a leaf named "\r" that render wrote before the
   newline, where line splitting stripped it, so the re-ingest came
   back empty and its digest differed (the random property found
   these two) *)
let test_cilog_stray_cr_round_trips () =
  List.iter
    (fun input ->
      Alcotest.(check (list string))
        (Printf.sprintf "%S conformant" input)
        []
        (List.map Conformance.violation_to_string
           (Conformance.check Cilog.frontend input)))
    [ "\r\027"; "\r\t" ]

(* ---------------------------------------------------------------- *)
(* registry                                                          *)
(* ---------------------------------------------------------------- *)

let test_registry_builtin () =
  Alcotest.(check (list string)) "builtins registered" [ "cilog"; "syscall" ]
    (List.filter
       (fun n -> n = "cilog" || n = "syscall")
       (Registry.known ()));
  Alcotest.(check bool) "find cilog" true (Registry.find "cilog" <> None);
  Alcotest.(check bool) "find nonsense" true (Registry.find "nonsense" = None)

let test_oversized_line_rejected () =
  let input = String.make (Fe.max_line_bytes + 1) 'a' in
  List.iter
    (fun fe ->
      match Fe.ingest_string fe input with
      | Ok _ -> Alcotest.failf "%s accepted an oversized line" fe.Fe.name
      | Error e ->
        Alcotest.(check bool)
          (fe.Fe.name ^ " names the guard")
          true
          (String.length e.Fe.fe_reason > 0))
    [ Cilog.frontend; Syscall.frontend ]

let () =
  Alcotest.run "frontend"
    [ ( "conformance",
        [ Alcotest.test_case "corpus conformant" `Quick test_corpus_conformant;
          Alcotest.test_case "corpus ingests" `Quick test_corpus_ingests;
          prop_cilog_random;
          prop_syscall_random;
          prop_cilog_structured;
          prop_syscall_structured;
          prop_engine_parity ] );
      ( "chaos-detection",
        [ Alcotest.test_case "totality caught" `Quick test_chaos_totality;
          Alcotest.test_case "determinism caught" `Quick
            test_chaos_determinism;
          Alcotest.test_case "order dependence caught" `Quick
            test_order_dependence_caught ] );
      ( "cilog",
        [ Alcotest.test_case "normalize classes" `Quick test_normalize_classes;
          prop_normalize_idempotent;
          Alcotest.test_case "streams split" `Quick test_cilog_streams_split;
          Alcotest.test_case "ansi invisible" `Quick test_cilog_ansi_invisible;
          Alcotest.test_case "steps are calls" `Quick
            test_cilog_steps_are_calls;
          Alcotest.test_case "stray CR round-trips" `Quick
            test_cilog_stray_cr_round_trips ] );
      ( "syscall",
        [ Alcotest.test_case "pids renumbered" `Quick
            test_syscall_pids_renumbered;
          Alcotest.test_case "unfinished truncates" `Quick
            test_syscall_unfinished_truncates;
          Alcotest.test_case "signal inside window" `Quick
            test_syscall_signal_inside_window;
          Alcotest.test_case "mismatched resume rejected" `Quick
            test_syscall_mismatched_resume_rejected;
          Alcotest.test_case "blank lines open no process" `Quick
            test_syscall_blank_lines_open_no_process ] );
      ( "registry",
        [ Alcotest.test_case "builtins" `Quick test_registry_builtin;
          Alcotest.test_case "oversized line" `Quick
            test_oversized_line_rejected ] ) ]
