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
module Session = Difftrace_core.Session
module Store = Difftrace_core.Store
module Archive = Difftrace_parlot.Archive
module Telemetry = Difftrace_obs.Telemetry

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
    version = "1";
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
    version = "1";
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

(* The list-based tokenizer [Cilog.normalize] replaced: three splits,
   a string per token, [String.concat]. The one-pass version must
   match it byte for byte, or every cached and archived digest moves. *)
module Naive = struct
  let is_digit c = c >= '0' && c <= '9'
  let is_hex c = is_digit c || (c >= 'a' && c <= 'f') || (c >= 'A' && c <= 'F')

  let has_clock tok =
    let n = String.length tok in
    let rec go i =
      i + 8 <= n
      && ((is_digit tok.[i] && is_digit tok.[i + 1] && tok.[i + 2] = ':'
          && is_digit tok.[i + 3] && is_digit tok.[i + 4] && tok.[i + 5] = ':'
          && is_digit tok.[i + 6] && is_digit tok.[i + 7])
         || go (i + 1))
    in
    go 0

  let is_numeric tok =
    String.length tok > 0
    && String.exists is_digit tok
    && String.for_all (fun c -> is_digit c || String.contains ".,%+-#()" c) tok

  let is_numeric_with_unit tok =
    let n = String.length tok in
    let rec core i =
      if i > 0 && n - i < 3
         && (let c = tok.[i - 1] in
             (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z'))
      then core (i - 1)
      else i
    in
    let i = core n in
    i < n && is_numeric (String.sub tok 0 i)

  let classify tok =
    if tok = "" then tok
    else if has_clock tok then "<ts>"
    else if String.length tok >= 8 && String.for_all is_hex tok then "<hex>"
    else if String.contains tok '/' || String.contains tok '\\' then "<path>"
    else if is_numeric tok || is_numeric_with_unit tok then "<n>"
    else tok

  let normalize line =
    String.split_on_char ' ' line
    |> List.concat_map (String.split_on_char '\t')
    |> List.concat_map (String.split_on_char '\r')
    |> List.filter (fun t -> t <> "")
    |> List.map classify
    |> String.concat " "
end

(* lines built from the bytes every class test looks at, so clocks,
   hex runs, paths, counters with units and separator runs all occur *)
let log_line_gen =
  QCheck2.Gen.(
    let piece =
      oneof
        [ oneofl
            [ " "; "  "; "\t"; "\r"; "/"; "\\"; ":"; "10:04:33"; "2024-01-02T10:04:33Z";
              "deadbeef01"; "DEADBEEF"; "abc"; "ms"; "GiB"; "3.2s"; "98%"; "(1)";
              "#12"; "+-"; "<ts>"; "<n>"; "x" ];
          string_size ~gen:(oneofl [ '0'; '9'; 'a'; 'f'; 'G'; 'z'; '.'; ','; '-'; ':' ])
            (1 -- 10);
          string_size ~gen:printable (0 -- 6) ]
    in
    map (String.concat "") (list_size (0 -- 12) piece))

let prop_normalize_matches_naive =
  qtest ~count:2000 ~print:(Printf.sprintf "%S")
    "cilog normalize matches the list-based oracle" log_line_gen (fun s ->
      Cilog.normalize s = Naive.normalize s)

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


(* ---------------------------------------------------------------- *)
(* the store-backed ingest cache                                     *)
(* ---------------------------------------------------------------- *)

let c_hits = Telemetry.Counter.make "frontend.cache_hits"
let c_misses = Telemetry.Counter.make "frontend.cache_misses"
let c_damaged = Telemetry.Counter.make "frontend.cache_damaged"

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

(* a fresh store-backed session in a temp dir, with telemetry counting *)
let with_cache f =
  let dir = Filename.temp_file "fe-cache" "" in
  Sys.remove dir;
  Sys.mkdir dir 0o755;
  let store =
    match Store.load ~dir with
    | Ok st -> st
    | Error e -> Alcotest.fail (Store.error_to_string e)
  in
  Telemetry.reset ();
  Telemetry.enable ();
  Fun.protect
    ~finally:(fun () ->
      Telemetry.disable ();
      Telemetry.reset ();
      rm_rf dir)
    (fun () -> f dir (Session.create ~store ()))

let entries dir =
  let d = Filename.concat dir "ingest" in
  if Sys.file_exists d then
    List.map (Filename.concat d) (List.sort compare (Array.to_list (Sys.readdir d)))
  else []

let resolve ses (fe : Fe.t) path =
  Session.resolve ses ~engine:Engine.sequential
    (Session.Ingest { path; frontend = fe.Fe.name })

let resolve_exn ses fe path =
  match resolve ses fe path with
  | Ok (ts, []) -> ts
  | Ok (_, _ :: _) -> Alcotest.fail "an ingest source reported salvage"
  | Error e -> Alcotest.failf "resolve: %s" (Session.error_to_string e)

(* [f] moves exactly these counters by these amounts *)
let counts label ~hits ~misses ~damaged f =
  let value = Telemetry.Counter.value in
  let h = value c_hits and m = value c_misses and d = value c_damaged in
  let r = f () in
  Alcotest.(check (list int))
    (label ^ ": hits, misses, damaged")
    [ hits; misses; damaged ]
    [ value c_hits - h; value c_misses - m; value c_damaged - d ];
  r

let fresh_digest fe path = Fe.digest (ingest_exn fe (read_file path))

let test_cache_hit_equals_fresh () =
  List.iter
    (fun (fe, path) ->
      with_cache (fun dir ses ->
          let want = fresh_digest fe path in
          let cold =
            counts path ~hits:0 ~misses:1 ~damaged:0 (fun () ->
                resolve_exn ses fe path)
          in
          Alcotest.(check string) (path ^ " cold") want (Fe.digest cold);
          Alcotest.(check int) (path ^ " one entry") 1 (List.length (entries dir));
          let warm =
            counts path ~hits:1 ~misses:0 ~damaged:0 (fun () ->
                resolve_exn ses fe path)
          in
          Alcotest.(check string) (path ^ " warm") want (Fe.digest warm)))
    corpus

let test_cache_changed_bytes_miss () =
  List.iter
    (fun (fe, path) ->
      with_cache (fun dir ses ->
          ignore (resolve_exn ses fe path);
          let copy = Filename.concat dir "changed" in
          write_file copy (read_file path ^ "\n");
          counts path ~hits:0 ~misses:1 ~damaged:0 (fun () ->
              ignore (resolve_exn ses fe copy));
          Alcotest.(check int) (path ^ " two entries") 2 (List.length (entries dir))))
    corpus

let test_cache_version_miss () =
  List.iter
    (fun (fe, path) ->
      with_cache (fun _dir ses ->
          ignore (resolve_exn ses fe path);
          Fe.register { fe with Fe.version = "2" };
          Fun.protect
            ~finally:(fun () -> Fe.register fe)
            (fun () ->
              counts path ~hits:0 ~misses:1 ~damaged:0 (fun () ->
                  ignore (resolve_exn ses fe path)))))
    corpus

let flip_middle s =
  let i = String.length s / 2 in
  String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor 0x41) else c) s

(* each damage: the next resolve ingests afresh without an error and
   rewrites the entry, which then loads clean and answers the next
   resolve *)
let damages =
  [ ( "flipped chunk byte",
      fun entry ->
        let f = Archive.trace_file entry ~pid:0 ~tid:0 in
        write_file f (flip_middle (read_file f)) );
    ( "truncated manifest",
      fun entry ->
        let f = Archive.manifest_file entry in
        let s = read_file f in
        write_file f (String.sub s 0 (String.length s / 2)) );
    ("deleted trace file", fun entry -> Sys.remove (Archive.trace_file entry ~pid:0 ~tid:0)) ]

let test_cache_damage_replaced () =
  List.iter
    (fun (fe, path) ->
      List.iter
        (fun (what, damage) ->
          with_cache (fun dir ses ->
              let want = fresh_digest fe path in
              ignore (resolve_exn ses fe path);
              let entry = List.hd (entries dir) in
              damage entry;
              let label = Printf.sprintf "%s, %s" path what in
              let ts =
                counts label ~hits:0 ~misses:1 ~damaged:1 (fun () ->
                    resolve_exn ses fe path)
              in
              Alcotest.(check string) (label ^ ": fresh ingest") want (Fe.digest ts);
              Alcotest.(check (list string)) (label ^ ": same entry") [ entry ]
                (entries dir);
              (match Archive.load ~salvage:false ~dir:entry () with
              | Ok l ->
                Alcotest.(check string) (label ^ ": rewritten") want
                  (Fe.digest l.Archive.set)
              | Error e -> Alcotest.failf "%s: %s" label (Archive.error_to_string e));
              counts label ~hits:1 ~misses:0 ~damaged:0 (fun () ->
                  ignore (resolve_exn ses fe path))))
        damages)
    corpus

let test_cache_failure_stores_nothing () =
  List.iter
    (fun fe ->
      with_cache (fun dir ses ->
          let bad = Filename.concat dir "oversized" in
          write_file bad (String.make (Fe.max_line_bytes + 1) 'a');
          (match resolve ses fe bad with
          | Error (Session.Frontend_failed _) -> ()
          | Ok _ -> Alcotest.failf "%s accepted an oversized line" fe.Fe.name
          | Error e -> Alcotest.failf "%s: %s" fe.Fe.name (Session.error_to_string e));
          Alcotest.(check (list string)) (fe.Fe.name ^ ": no entry") [] (entries dir)))
    [ Cilog.frontend; Syscall.frontend ]

(* a source that cannot be read answers what a storeless session
   answers, counts no lookup and stores nothing *)
let test_cache_unreadable_source () =
  List.iter
    (fun fe ->
      with_cache (fun dir ses ->
          List.iter
            (fun path ->
              let answer ses =
                match resolve ses fe path with
                | Ok _ -> Alcotest.failf "%s: %s resolved" fe.Fe.name path
                | Error e -> Session.error_to_string e
              in
              let label = fe.Fe.name ^ " " ^ Filename.basename path in
              let got =
                counts label ~hits:0 ~misses:0 ~damaged:0 (fun () -> answer ses)
              in
              Alcotest.(check string) label (answer (Session.create ())) got)
            [ Filename.concat dir "missing"; dir ];
          Alcotest.(check (list string)) (fe.Fe.name ^ ": no entry") [] (entries dir)))
    [ Cilog.frontend; Syscall.frontend ]

(* A store-backed compare takes an existing entry as an archive: once
   the store has its sources (filed by the first hit, which decodes),
   its traces are checked, not decoded, and every report is the
   storeless one. A damaged entry is ingested afresh, as for
   [resolve]. *)
let test_cache_compare_verifies () =
  let module Config = Difftrace_core.Config in
  let config =
    Config.make ~filter:(Difftrace_filter.Filter.of_spec "11.all") ()
  in
  let source path = Session.Ingest { path; frontend = "cilog" } in
  let req =
    { Session.cp_normal = source "corpus/cilog/build_pass.log";
      cp_faulty = source "corpus/cilog/build_fail.log";
      cp_diffnlr = None }
  in
  let report ses =
    match Session.compare ses config req with
    | Ok r -> r.Session.cp_output
    | Error e -> Alcotest.failf "compare: %s" (Session.error_to_string e)
  in
  let storeless = report (Session.create ()) in
  let value name = Telemetry.Counter.value (Telemetry.Counter.make name) in
  with_cache (fun dir ses ->
      Alcotest.(check string) "cold" storeless
        (counts "cold" ~hits:0 ~misses:2 ~damaged:0 (fun () -> report ses));
      (* the first hit decodes the entries and files their sources *)
      Alcotest.(check string) "warm" storeless
        (counts "warm" ~hits:2 ~misses:0 ~damaged:0 (fun () -> report ses));
      let decoded = value "parlot.traces.decoded" in
      let verified = value "parlot.traces.verified" in
      Alcotest.(check string) "warm again" storeless
        (counts "warm again" ~hits:2 ~misses:0 ~damaged:0 (fun () -> report ses));
      Alcotest.(check bool) "warm: at most the diffNLR trace decoded per side"
        true
        (value "parlot.traces.decoded" - decoded <= 2);
      Alcotest.(check bool) "warm: the entries' traces verified" true
        (value "parlot.traces.verified" > verified);
      let entry = List.hd (entries dir) in
      let f = Archive.trace_file entry ~pid:0 ~tid:0 in
      write_file f (flip_middle (read_file f));
      Alcotest.(check string) "damaged entry" storeless
        (counts "damaged entry" ~hits:1 ~misses:1 ~damaged:1 (fun () -> report ses));
      Alcotest.(check string) "rewritten entry" storeless
        (counts "rewritten entry" ~hits:2 ~misses:0 ~damaged:0 (fun () ->
             report ses)))

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
          prop_normalize_matches_naive;
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
            test_oversized_line_rejected ] );
      ( "cache",
        [ Alcotest.test_case "hit equals fresh" `Quick test_cache_hit_equals_fresh;
          Alcotest.test_case "changed bytes miss" `Quick
            test_cache_changed_bytes_miss;
          Alcotest.test_case "other version misses" `Quick test_cache_version_miss;
          Alcotest.test_case "damaged entry replaced" `Quick
            test_cache_damage_replaced;
          Alcotest.test_case "failed ingest stores nothing" `Quick
            test_cache_failure_stores_nothing;
          Alcotest.test_case "unreadable source" `Quick
            test_cache_unreadable_source;
          Alcotest.test_case "compare hits verify" `Quick
            test_cache_compare_verifies ] ) ]
