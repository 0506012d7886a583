(* The request path under generated and mutated input: difftrace-rpc/1
   lines through Daemon.on_line, one warm daemon for the whole run.
   Every line must get exactly one answer, and that answer is [ok] or
   a typed error; an [internal] answer (an exception that escaped a
   request) or an exception out of on_line fails the run.

   Sources are only the checked-in fixtures (fixtures/v1_oddeven4,
   corpus/cilog, corpus/syscall), damaged copies of them under a temp
   dir, and workloads at np 1..4 (and np <= 0, which is refused). Every
   archive the daemon writes lands under that temp dir. Accepted
   engines ask for at most two domains: the domain cap is the parser's
   to enforce, so larger counts appear only where they are refused.

   QCHECK_LONG=1 (make fuzz-smoke) runs ten times the default count. *)

open Difftrace
module P = Serve.Protocol
module Daemon = Serve.Daemon
module Json = Telemetry.Json
module G = QCheck2.Gen

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let tmp = Filename.concat (Filename.get_temp_dir_name ()) "difftrace_fuzz"
let under name = Filename.concat tmp name
let read path = In_channel.with_open_bin path In_channel.input_all

let write path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let flip s i =
  String.mapi (fun j c -> if j = i then Char.chr (Char.code c lxor 0x41) else c) s

let half s = String.sub s 0 (String.length s / 2)

(* --- damaged copies of the fixtures ----------------------------------- *)

let fixture_archive = Filename.concat "fixtures" "v1_oddeven4"

(* a copy of the fixture archive with one file rewritten *)
let damaged_archive name ~file damage =
  let dir = under name in
  Sys.mkdir dir 0o755;
  Array.iter
    (fun f ->
      let body = read (Filename.concat fixture_archive f) in
      write (Filename.concat dir f) (if f = file then damage body else body))
    (Sys.readdir fixture_archive);
  dir

let corpus sub = List.map (Filename.concat sub) (Array.to_list (Sys.readdir sub))

let setup () =
  rm_rf tmp;
  Sys.mkdir tmp 0o755;
  write (under "a_file") "not a directory\n";
  let archives =
    [ fixture_archive;
      damaged_archive "a_flip" ~file:"trace_1_0.lzw" (fun s ->
          flip s (String.length s / 2));
      damaged_archive "a_half" ~file:"trace_2_0.lzw" half;
      damaged_archive "a_empty" ~file:"trace_0_0.lzw" (fun _ -> "");
      damaged_archive "a_manifest" ~file:"manifest" (fun s -> flip s 3);
      under "no_such_archive";
      under "a_file";
      Filename.concat "corpus" "cilog" ]
  in
  let logs = corpus (Filename.concat "corpus" "cilog") in
  let straces = corpus (Filename.concat "corpus" "syscall") in
  let damaged =
    List.concat_map
      (fun path ->
        let base = under (Filename.basename path) in
        let body = read path in
        write (base ^ ".flip") (flip body (String.length body / 3));
        write (base ^ ".half") (half body);
        [ base ^ ".flip"; base ^ ".half" ])
      (logs @ straces)
  in
  write (under "empty.log") "";
  (archives, logs @ straces @ damaged @ [ under "empty.log"; tmp ])

(* --- generators ------------------------------------------------------- *)

(* Requests are generated well-formed; a [line] then corrupts one or
   two of its fields with the wild values of [wild], or damages its
   bytes. A field named "!k" is the required field "k". *)

let str l = G.map (fun s -> Json.String s) (G.oneofl l)
let int_in lo hi = G.map (fun i -> Json.Int i) (G.int_range lo hi)
let bool = G.map (fun b -> Json.Bool b) G.bool

(* an object holding a random subset of the fields, in order *)
let fields kvs =
  G.map
    (fun l -> Json.Obj (List.filter_map Fun.id l))
    (G.flatten_l
       (List.map
          (fun (k, g) ->
            let required = String.starts_with ~prefix:"!" k in
            let k = if required then String.sub k 1 (String.length k - 1) else k in
            G.opt ~ratio:(if required then 0.98 else 0.5) (G.map (fun v -> (k, v)) g))
          kvs))

let workload =
  fields
    [ ("!workload", str [ "oddeven"; "ilcs"; "heat"; "heat2d"; "lulesh" ]);
      ("np", int_in 1 4); ("seed", int_in 0 5);
      ( "fault",
        str
          [ "none"; "swapBug(rank=1,after=2)"; "dlBug(rank=1,after=0)";
            "wrongSize(rank=0)"; "wrongOp(rank=1)"; "noCritical(rank=0,thread=1)";
            "skipFunction(rank=0,func=LagrangeLeapFrog)" ] );
      ("all_images", bool) ]

(* the pristine fixture most of the time, else a damaged copy *)
let source (archives, files) =
  let pick l =
    G.frequencyl ((List.length l, List.hd l) :: List.map (fun y -> (1, y)) l)
  in
  G.frequency
    [ (4, workload);
      ( 3,
        G.map2
          (fun dir salvage ->
            Json.Obj [ ("archive", Json.String dir); ("salvage", Json.Bool salvage) ])
          (pick archives) G.bool );
      ( 3,
        G.map2
          (fun path frontend ->
            Json.Obj [ ("file", Json.String path); ("frontend", Json.String frontend) ])
          (pick files)
          (G.oneofl [ "cilog"; "syscall" ]) );
      ( 2,
        G.oneof
          [ str [ "r0"; "r1" ];
            G.map (fun s -> Json.Obj [ ("run", s) ]) (str [ "r0"; "r1" ]) ] ) ]

let config =
  fields
    [ ( "!filter",
        str
          [ "11.mpiall"; "11.all"; "01.mem.ompcrit"; "11.cust"; "11.cust.cust";
            "11.mpiall.cust"; "00.poll.str"; "11" ] );
      ( "!custom",
        G.map
          (fun l -> Json.List (List.map (fun s -> Json.String s) l))
          (G.oneofl [ []; [ "^CPU_" ]; [ "MPI_Send|MPI_Recv" ]; [ "[[:alpha:]]" ] ]) );
      ("attrs", str [ "sing.noFreq"; "doub.actual"; "sing.log10"; "doub.noFreq" ]);
      ("k", int_in 1 20);
      ("linkage", str (List.map Linkage.method_name Linkage.all_methods));
      ("engine", str [ "seq"; "sequential"; "par:2"; "parallel:1" ]);
      ("mode", str [ "exact"; "sketch" ]) ]

let label = str [ "0"; "1"; "1.0"; "0.0"; "3.0" ]

let query =
  str
    [ "count MPI_Send"; "count MPI_Send on 3"; "count MPI_Send on 0.0";
      "list MPI_Recv on 0 in 0..200 limit 5";
      "count MPI_Send between MPI_Init and MPI_Finalize";
      "sites MPI_Send under L0"; "sites MPI_Send under main"; "loops";
      "diverge"; "diverge on 1"; "threads"; "funcs"; "funcs limit 3" ]

let params srcs = function
  | "record" ->
    G.map2
      (fun (w : Json.t) extra ->
        match w with Json.Obj kvs -> Json.Obj (kvs @ extra) | w -> w)
      workload
      (fields
         [ ("name", str [ "r0"; "r1" ]);
           ( "out",
             G.map
               (fun i -> Json.String (under (Printf.sprintf "out%d" i)))
               (G.int_range 0 3) ) ]
      |> G.map (function Json.Obj kvs -> kvs | _ -> []))
  | "compare" | "analyze" ->
    fields
      [ ("!normal", source srcs); ("!faulty", source srcs); ("!config", config);
        ("diffnlr", label) ]
  | "triage" ->
    fields [ ("!subject", source srcs); ("!config", config); ("limit", int_in 0 10) ]
  | "query" ->
    fields
      [ ("!q", query); ("!source", source srcs); ("against", source srcs);
        ("!config", config) ]
  | "vdiff" ->
    let run =
      fields
        [ ("!name", str [ "a"; "b"; "c" ]); ("!source", source srcs);
          ("axes", G.oneofl [ Json.Obj [ ("fault", Json.String "swap") ]; Json.Obj [] ]);
          ("bad", bool) ]
    in
    fields
      [ ("!runs", G.map (fun l -> Json.List l) (G.list_size (G.int_range 2 3) run));
        ("trace", label); ("!config", config) ]
  | "subscribe" -> fields [ ("events", bool) ]
  | _ -> G.return (Json.Obj [])

let wild_int =
  G.map
    (fun i -> Json.Int i)
    (G.oneofl [ 0; -1; -7; max_int; min_int; 1 lsl 40; 1_000_000_000 ])

(* one more vdiff run than [Session.max_vdiff_runs]; refused before
   any of their sources runs *)
let too_many_runs =
  Json.List
    (List.init (Session.max_vdiff_runs + 1) (fun i ->
         Json.Obj
           [ ("name", Json.String (Printf.sprintf "r%d" i));
             ( "source",
               Json.Obj [ ("workload", Json.String "oddeven"); ("np", Json.Int 2) ] ) ]))

(* what a corrupted field of each name holds: bad specs, unknown enum
   values, huge and negative counts; [None] for the fields that only
   get the wrong JSON type. An [np] above [Session.max_np] is refused
   before the simulator runs. *)
let wild key =
  match key with
  | "np" ->
    Some
      (G.oneofl
         (List.map
            (fun i -> Json.Int i)
            [ -5; -1; 0; Session.max_np + 1; 100_000; 1 lsl 40; max_int ]))
  | "seed" | "k" | "limit" -> Some wild_int
  | "workload" -> Some (str [ "nope"; ""; "ODDEVEN" ])
  | "fault" ->
    Some
      (str
        [ "swapBug(rank=9,after=2)"; "swapBug(rank=-1,after=-1)"; "bogus";
          "swapBug(rank=1"; "dlBug(rank=x,after=1)"; ""; "none(rank=1)";
          "skipFunction(rank=0)"; "(" ])
  | "filter" -> Some (str [ ""; "2x.mpiall"; "11.nope"; "."; "111.all"; "11..all" ])
  | "custom" ->
    Some
      (G.oneofl
        (List.map
           (fun l -> Json.List (List.map (fun s -> Json.String s) l))
           [ [ "(" ]; [ "["; "a" ]; [ "*" ]; [ "a{2,1}" ]; [ "\\" ];
             [ "(?<x>a)" ]; [ "a"; "+" ] ]))
  | "attrs" -> Some (str [ "nope"; ""; "sing"; "doub.log10.x"; "Sing.noFreq" ])
  | "linkage" -> Some (str [ "bogus"; ""; "Ward" ])
  | "engine" ->
    Some
      (str
        [ "parallel:0"; "par:-3"; "parallel:129"; "parallel:100000";
          "par:4611686018427387903"; "parallel:x"; "bogus"; "" ])
  | "mode" -> Some (str [ "fast"; "" ])
  | "frontend" -> Some (str [ "nope"; "" ])
  | "run" | "name" ->
    Some (str [ "nope"; ""; "r0"; "."; ".."; "../../escaped"; "a/b"; "a\\b"; "a\000b" ])
  | "archive" | "file" | "out" ->
    Some
      (str [ under "no_such"; under "a_file"; under (Filename.concat "a_file" "x"); tmp ])
  | "q" ->
    Some
      (str
        [ "list MPI_Send limit 0"; "list MPI_Send limit 99999999999999";
          "list MPI_Send in 5..2"; "list MPI_Send in -1..4";
          "count MPI_Send in 0..99999999999999999999";
          "count MPI_Send between MPI_Send#0 and MPI_Send#999999999999";
          "sites MPI_Send under L99999999999"; "loops on 9.9";
          "funcs limit -3"; "funcs limit 4611686018427387903"; "total"; "";
          "count"; "list MPI_Send on"; "sites"; "count MPI_Send between" ])
  | "diffnlr" | "trace" -> Some (str [ "9.9"; "nope"; ""; "-1" ])
  | "axes" -> Some (G.oneofl [ Json.Obj [ ("k", Json.Int 1) ]; Json.String "x" ])
  | "runs" ->
    Some
      (G.oneofl [ Json.List []; Json.List [ Json.Obj [] ]; Json.Obj []; too_many_runs ])
  | "difftrace-rpc" -> Some (G.oneofl [ Json.Int 2; Json.Int 0; Json.String "1" ])
  | "id" -> Some (G.oneofl [ Json.Int 7; Json.Null; Json.String "" ])
  | "method" -> Some (str [ "bogus"; ""; "COMPARE" ])
  | _ -> None

(* the keys of every object in [j], depth first *)
let rec keys = function
  | Json.Obj kvs -> List.concat_map (fun (k, v) -> k :: keys v) kvs
  | Json.List l -> List.concat_map keys l
  | _ -> []

(* [j] with its [i]th key (in [keys] order) bound to [v] *)
let replace i v j =
  let n = ref i in
  let rec go = function
    | Json.Obj kvs ->
      Json.Obj
        (List.map
           (fun (k, x) ->
             decr n;
             if !n = -1 then (k, v) else (k, go x))
           kvs)
    | Json.List l -> Json.List (List.map go l)
    | x -> x
  in
  go j

(* a field with wild values of its own is four times as likely a pick *)
let corrupt j =
  let open G in
  let* i, key =
    frequencyl
      (List.mapi
         (fun i k -> ((if Option.is_none (wild k) then 1 else 4), (i, k)))
         (keys j))
  in
  let+ v =
    Option.value (wild key)
      ~default:
        (oneofl [ Json.Null; Json.Bool true; Json.Int 3; Json.List []; Json.Obj [] ])
  in
  replace i v j

let request srcs =
  let open G in
  let* meth =
    frequencyl
      [ (3, "compare"); (2, "analyze"); (2, "triage"); (2, "query");
        (2, "vdiff"); (2, "record"); (1, "status"); (1, "subscribe");
        (1, "shutdown") ]
  in
  let+ params = params srcs meth and+ id = int_range 0 99 in
  Json.Obj
    [ ("difftrace-rpc", Json.Int 1); ("id", Json.String (string_of_int id));
      ("method", Json.String meth); ("params", params) ]

(* a well-formed request, one with corrupted fields, or one whose
   bytes are cut short or damaged *)
let line srcs =
  let open G in
  let* r = request srcs in
  let* l =
    map Json.to_string
      (frequency
         [ (3, return r); (6, corrupt r); (1, bind (corrupt r) corrupt) ])
  in
  let n = String.length l in
  frequency
    [ (10, return l);
      (1, map (fun i -> String.sub l 0 i) (int_range 0 (n - 1)));
      (1, map (fun i -> flip l i) (int_range 0 (n - 1))) ]

(* --- the gate --------------------------------------------------------- *)

(* every response [d] sends for line [l], events skipped *)
let responses d l =
  let out = ref [] in
  let emit (Daemon.Send { line; _ }) = out := line :: !out in
  ignore (Daemon.on_line d ~client:0 ~emit l : [ `Continue | `Shutdown ]);
  List.filter_map
    (fun line ->
      match P.decode_message line with
      | Ok (P.Response r) -> Some r
      | Ok (P.Event _) -> None
      | Error m -> QCheck2.Test.fail_reportf "undecodable answer %S: %s" line m)
    !out

let answers_typed d l =
  match responses d l with
  | [ { P.rsp_body = Error { P.err_kind = "internal"; err_message }; _ } ] ->
    QCheck2.Test.fail_reportf "answered %s" err_message
  | [ _ ] -> true
  | rs -> QCheck2.Test.fail_reportf "%d answers" (List.length rs)

let test_request_path () =
  let srcs = setup () in
  let store =
    match Store.load ~dir:(under "store") with
    | Ok st -> st
    | Error e -> Alcotest.fail (Store.error_to_string e)
  in
  let d =
    Daemon.create ~store ~state_dir:(under "state")
      ~default_engine:Engine.sequential ()
  in
  QCheck2.Test.make ~count:2000 ~long_factor:10 ~name:"on_line answers typed"
    ~print:Fun.id (G.no_shrink (line srcs)) (answers_typed d)

(* --- pinned answers ------------------------------------------------- *)

(* the one answer [d] gives to [meth] with [params] *)
let answer d meth params =
  let line =
    Json.to_string
      (Json.Obj
         [ ("difftrace-rpc", Json.Int 1); ("id", Json.String "p");
           ("method", Json.String meth); ("params", Json.Obj params) ])
  in
  match responses d line with
  | [ r ] -> r.P.rsp_body
  | rs -> Alcotest.failf "%d answers" (List.length rs)

let error_of = function
  | Error { P.err_kind; err_message } -> (err_kind, err_message)
  | Ok _ -> Alcotest.fail "answered ok"

(* a record name is joined under STATE/runs/, so only one plain path
   component is accepted; nothing lands outside the state directory *)
let test_record_names_refused () =
  let state = under "pinned_state" in
  rm_rf state;
  let d = Daemon.create ~state_dir:state ~default_engine:Engine.sequential () in
  List.iter
    (fun name ->
      let kind, _ =
        error_of
          (answer d "record"
             [ ("workload", Json.String "oddeven"); ("np", Json.Int 2);
               ("name", Json.String name) ])
      in
      Alcotest.(check string) (Printf.sprintf "%S" name) "invalid-params" kind)
    [ ""; "."; ".."; "../../escaped"; "a/b"; "a\\b"; "a\000b" ];
  Alcotest.(check bool) "nothing written" false (Sys.file_exists state);
  match
    answer d "record"
      [ ("workload", Json.String "oddeven"); ("np", Json.Int 2);
        ("name", Json.String "plain") ]
  with
  | Ok _ ->
    Alcotest.(check bool) "plain name archived" true
      (Sys.file_exists (Filename.concat (Filename.concat state "runs") "plain"))
  | Error { P.err_message; _ } -> Alcotest.fail err_message

(* a rank count above the cap and a vdiff over too many runs are
   request errors; the runs' sources name an unknown workload, so
   resolving any of them would answer unknown-workload instead *)
let test_caps () =
  let d = Daemon.create ~default_engine:Engine.sequential () in
  let workload np =
    Json.Obj [ ("workload", Json.String "oddeven"); ("np", Json.Int np) ]
  in
  List.iter
    (fun np ->
      Alcotest.(check (pair string string))
        (Printf.sprintf "np %d" np)
        ("invalid-params", Printf.sprintf "workload: np must be <= 1024, got %d" np)
        (error_of (answer d "triage" [ ("subject", workload np) ])))
    [ Session.max_np + 1; 100_000; max_int ];
  let ilcs np =
    Json.Obj [ ("workload", Json.String "ilcs"); ("np", Json.Int np) ]
  in
  Alcotest.(check (pair string string))
    "ilcs np 65"
    ("invalid-params", "workload: np must be <= 64 for ilcs, got 65")
    (error_of (answer d "triage" [ ("subject", ilcs 65) ]));
  let run i =
    Json.Obj
      [ ("name", Json.String (Printf.sprintf "r%d" i));
        ("source", Json.Obj [ ("workload", Json.String "nope") ]) ]
  in
  Alcotest.(check (pair string string))
    "65 runs"
    ("invalid-params", "vdiff: at most 64 runs can be aligned, got 65")
    (error_of
       (answer d "vdiff"
          [ ("runs", Json.List (List.init 65 run)); ("config", Json.Obj []) ]))

let test_directory_source () =
  let d = Daemon.create ~default_engine:Engine.sequential () in
  let dir = Filename.concat "corpus" "cilog" in
  let src = Json.Obj [ ("file", Json.String dir); ("frontend", Json.String "cilog") ] in
  Alcotest.(check (pair string string))
    "answer" ("frontend-error",
      Printf.sprintf "frontend cilog: cannot read %s: %s: is a directory" dir dir)
    (error_of (answer d "triage" [ ("subject", src) ]))

let () =
  Alcotest.run "fuzz"
    [ ("request path", [ QCheck_alcotest.to_alcotest (test_request_path ()) ]);
      ( "pinned",
        [ Alcotest.test_case "record names refused" `Quick test_record_names_refused;
          Alcotest.test_case "directory source" `Quick test_directory_source;
          Alcotest.test_case "np and vdiff run count capped" `Quick test_caps ] ) ]
