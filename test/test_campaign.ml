(* Campaign runner: matrix construction, crash isolation, resume. *)

module C = Difftrace_campaign.Campaign
module Fault = Difftrace_simulator.Fault
module Telemetry = Difftrace_obs.Telemetry

let contains sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.sub s i n = sub || go (i + 1)) in
  go 0

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let tmpdir name =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) ("difftrace_camp_" ^ name)
  in
  rm_rf dir;
  dir

(* a well-formed matrix; the refusals are tested on [C.matrix] itself *)
let matrix ?max_steps ~kind ~np ~faults ~seeds () =
  match C.matrix ?max_steps ~kind ~np ~faults ~seeds () with
  | Ok m -> m
  | Error e -> Alcotest.failf "matrix refused: %s" (C.error_to_string e)

let dl_fault = Fault.Deadlock_recv { rank = 1; after_iter = 0 }
let crash_fault = Fault.Skip_function { rank = 0; func = "raise" }
let swap_fault = Fault.Swap_send_recv { rank = 1; after_iter = 0 }

(* the acceptance matrix: one deadlocking cell, one raising cell, one
   clean cell *)
let mixed_matrix () =
  matrix ~kind:"selftest" ~np:4 ~faults:[ dl_fault; crash_fault; swap_fault ]
    ~seeds:[ 1 ] ()

(* ------------------------------------------------------------------ *)
(* matrix construction                                                 *)
(* ------------------------------------------------------------------ *)

let expect_invalid name f =
  match f () with
  | Ok _ -> Alcotest.failf "%s: accepted" name
  | Error (C.Bad_matrix _) -> ()
  | Error e -> Alcotest.failf "%s: %s" name (C.error_to_string e)

let test_matrix_validation () =
  expect_invalid "unknown kind" (fun () ->
      C.matrix ~kind:"nope" ~np:2 ~faults:[ swap_fault ] ~seeds:[ 1 ] ());
  expect_invalid "no faults" (fun () ->
      C.matrix ~kind:"oddeven" ~np:2 ~faults:[] ~seeds:[ 1 ] ());
  expect_invalid "no seeds" (fun () ->
      C.matrix ~kind:"oddeven" ~np:2 ~faults:[ swap_fault ] ~seeds:[] ());
  (* np < 1, in the workload runner's words *)
  match C.matrix ~kind:"oddeven" ~np:0 ~faults:[ swap_fault ] ~seeds:[ 1 ] () with
  | Error (C.Bad_matrix m) ->
    Alcotest.(check string) "np < 1" "workload: np must be >= 1, got 0" m
  | _ -> Alcotest.fail "np < 1: accepted"

let test_matrix_cells () =
  let m =
    matrix ~kind:"oddeven" ~np:2 ~faults:[ dl_fault; swap_fault ]
      ~seeds:[ 3; 1; 3 ] ()
  in
  Alcotest.(check (list int)) "seeds sorted + deduped" [ 1; 3 ] m.C.seeds;
  let cs = C.cells m in
  Alcotest.(check int) "faults x seeds cells" 4 (List.length cs);
  Alcotest.(check (list int)) "fault-major numbering from 0" [ 0; 1; 2; 3 ]
    (List.map (fun c -> c.C.index) cs);
  let c1 = List.nth cs 1 in
  Alcotest.(check bool) "cell 1 = first fault, second seed" true
    (Fault.equal c1.C.fault dl_fault && c1.C.seed = 3);
  Alcotest.(check string) "label" "dlBug(rank=1,after=0)@s3" (C.cell_label c1)

let test_registered_kinds () =
  List.iter
    (fun k ->
      Alcotest.(check bool) (k ^ " registered") true (List.mem k (C.kinds ())))
    [ "oddeven"; "ilcs"; "lulesh"; "heat"; "heat2d"; "selftest" ]

(* ------------------------------------------------------------------ *)
(* crash isolation                                                     *)
(* ------------------------------------------------------------------ *)

let verdict_of o i =
  (List.find (fun r -> r.C.cell.C.index = i) o.C.results).C.verdict

let result_of o i = List.find (fun r -> r.C.cell.C.index = i) o.C.results

let test_run_isolates_failures () =
  let dir = tmpdir "isolate" in
  let streamed = ref [] in
  let on_cell r = streamed := r.C.cell.C.index :: !streamed in
  match C.run ~on_cell ~dir (mixed_matrix ()) with
  | Error e -> Alcotest.fail (C.error_to_string e)
  | Ok o ->
    Alcotest.(check int) "all cells executed" 3 o.C.executed;
    Alcotest.(check int) "nothing resumed" 0 o.C.resumed_cells;
    Alcotest.(check (list int)) "streamed in index order" [ 0; 1; 2 ]
      (List.rev !streamed);
    (match verdict_of o 0 with
    | C.Hung { deadlocked; timed_out } ->
      Alcotest.(check bool) "deadlocked threads recorded" true (deadlocked > 0);
      Alcotest.(check bool) "not a timeout" false timed_out
    | v -> Alcotest.failf "deadlock cell: %s" (C.verdict_to_string v));
    (* the hung cell's truncated traces were still analyzed *)
    Alcotest.(check bool) "hung cell has a B-score" true
      ((result_of o 0).C.bscore <> None);
    (match verdict_of o 1 with
    | C.Failed { error; backtrace = _ } ->
      Alcotest.(check bool) "exception captured" true
        (contains "injected crash" error)
    | v -> Alcotest.failf "raising cell: %s" (C.verdict_to_string v));
    (match verdict_of o 2 with
    | C.Completed -> ()
    | v -> Alcotest.failf "clean cell: %s" (C.verdict_to_string v));
    (match (result_of o 2).C.suspects with
    | (top, score) :: _ ->
      Alcotest.(check string) "swap fault blames rank 1" "1" top;
      Alcotest.(check bool) "positive score" true (score > 0.0)
    | [] -> Alcotest.fail "clean cell has no suspects")

let test_run_timeout_verdict () =
  let dir = tmpdir "timeout" in
  let m =
    matrix ~max_steps:40 ~kind:"selftest" ~np:4
      ~faults:[ Fault.Skip_function { rank = 0; func = "spin" } ]
      ~seeds:[ 1 ] ()
  in
  match C.run ~dir m with
  | Error e -> Alcotest.fail (C.error_to_string e)
  | Ok o -> (
    match verdict_of o 0 with
    | C.Hung { timed_out; _ } ->
      Alcotest.(check bool) "budget exhaustion recorded" true timed_out
    | v -> Alcotest.failf "spin cell: %s" (C.verdict_to_string v))

(* ------------------------------------------------------------------ *)
(* resume                                                              *)
(* ------------------------------------------------------------------ *)

let counter rep name =
  match List.assoc_opt name rep.Telemetry.counters with Some v -> v | None -> 0

let test_run_resumes () =
  let dir = tmpdir "resume" in
  (match C.run ~dir (mixed_matrix ()) with
  | Error e -> Alcotest.fail (C.error_to_string e)
  | Ok o -> Alcotest.(check int) "first pass executes" 3 o.C.executed);
  Telemetry.enable ();
  let second = C.run ~dir (mixed_matrix ()) in
  let rep = Telemetry.report () in
  Telemetry.disable ();
  match second with
  | Error e -> Alcotest.fail (C.error_to_string e)
  | Ok o ->
    Alcotest.(check int) "nothing re-executed" 0 o.C.executed;
    Alcotest.(check int) "all cells resumed" 3 o.C.resumed_cells;
    Alcotest.(check bool) "results marked resumed" true
      (List.for_all (fun r -> r.C.resumed) o.C.results);
    Alcotest.(check int) "campaign.resumed counter" 3
      (counter rep "campaign.resumed");
    Alcotest.(check int) "campaign.cells counter untouched" 0
      (counter rep "campaign.cells");
    (* the failed verdict (error text included) survived the round trip *)
    (match verdict_of o 1 with
    | C.Failed { error; _ } ->
      Alcotest.(check bool) "error persisted" true
        (contains "injected crash" error)
    | v -> Alcotest.failf "persisted verdict: %s" (C.verdict_to_string v))

let test_status_reads_back () =
  let dir = tmpdir "status" in
  (match C.run ~dir (mixed_matrix ()) with
  | Error e -> Alcotest.fail (C.error_to_string e)
  | Ok _ -> ());
  match C.status ~dir with
  | Error e -> Alcotest.fail (C.error_to_string e)
  | Ok o ->
    Alcotest.(check int) "status executes nothing" 0 o.C.executed;
    Alcotest.(check int) "three recorded cells" 3 (List.length o.C.results);
    Alcotest.(check bool) "faults round-tripped" true
      (List.map (fun f -> Fault.to_string f) o.C.matrix.C.faults
      = List.map Fault.to_string [ dl_fault; crash_fault; swap_fault ])

let test_corrupt_manifest_recovery () =
  let dir = tmpdir "corrupt" in
  (match C.run ~dir (mixed_matrix ()) with
  | Error e -> Alcotest.fail (C.error_to_string e)
  | Ok _ -> ());
  let manifest = Filename.concat dir "campaign.manifest" in
  let oc = open_out_gen [ Open_append ] 0o644 manifest in
  output_string oc "garbage";
  close_out oc;
  (* trailing garbage invalidates the CRC, but every record line is still
     readable: status salvages all three cells instead of refusing *)
  (match C.status ~dir with
  | Error e -> Alcotest.failf "status gave up on a salvageable manifest: %s"
                 (C.error_to_string e)
  | Ok o -> Alcotest.(check int) "status salvages the cells" 3
              (List.length o.C.results));
  (* run recovers: warns, resumes the readable records, rewrites clean *)
  match C.run ~dir (mixed_matrix ()) with
  | Error e -> Alcotest.fail (C.error_to_string e)
  | Ok o ->
    Alcotest.(check int) "recovered every cell" 3 (List.length o.C.results);
    Alcotest.(check int) "readable records resumed" 3 o.C.resumed_cells;
    (match verdict_of o 0 with
    | C.Hung _ -> ()
    | v -> Alcotest.failf "re-adopted verdict: %s" (C.verdict_to_string v));
    (* the damaged file was replaced by a clean checksummed manifest *)
    match C.status ~dir with
    | Error e -> Alcotest.fail (C.error_to_string e)
    | Ok o -> Alcotest.(check int) "manifest rewritten clean" 3
                (List.length o.C.results)

(* one flipped byte in the middle of the manifest must cost at most the
   record it hit, never the campaign *)
let test_flipped_byte_manifest_salvage () =
  let dir = tmpdir "flip" in
  (match C.run ~dir (mixed_matrix ()) with
  | Error e -> Alcotest.fail (C.error_to_string e)
  | Ok _ -> ());
  let manifest = Filename.concat dir "campaign.manifest" in
  let text =
    let ic = open_in_bin manifest in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  (* flip one byte of the second cell record's tag: that line (and the
     now-stale CRC footer) become unreadable, every other line survives *)
  let index_from sub i =
    let n = String.length sub in
    let rec go i =
      if i + n > String.length text then Alcotest.failf "no %S in manifest" sub
      else if String.sub text i n = sub then i
      else go (i + 1)
    in
    go i
  in
  let first = index_from "\ncell\t" 0 in
  let second = index_from "\ncell\t" (first + 1) in
  let flipped = Bytes.of_string text in
  Bytes.set flipped (second + 1) (Char.chr (Char.code 'c' lxor 1));
  let oc = open_out_bin manifest in
  output_bytes oc flipped;
  close_out oc;
  Telemetry.enable ();
  let second_run = C.run ~dir (mixed_matrix ()) in
  let rep = Telemetry.report () in
  Telemetry.disable ();
  (match second_run with
  | Error e -> Alcotest.fail (C.error_to_string e)
  | Ok o ->
    Alcotest.(check int) "every cell accounted for" 3 (List.length o.C.results);
    Alcotest.(check int) "intact records resumed" 2 o.C.resumed_cells;
    Alcotest.(check int) "only the lost cell reran" 1 o.C.executed;
    Alcotest.(check bool) "unreadable lines counted" true
      (counter rep "campaign.manifest_salvaged" > 0);
    (* the rerun cell (index 1, the raising one) reproduced its verdict *)
    match verdict_of o 1 with
    | C.Failed { error; _ } ->
      Alcotest.(check bool) "rerun reproduced the crash" true
        (contains "injected crash" error)
    | v -> Alcotest.failf "rerun verdict: %s" (C.verdict_to_string v));
  (* the rewrite healed the manifest: a third run salvages nothing *)
  Telemetry.enable ();
  let third = C.run ~dir (mixed_matrix ()) in
  let rep = Telemetry.report () in
  Telemetry.disable ();
  match third with
  | Error e -> Alcotest.fail (C.error_to_string e)
  | Ok o ->
    Alcotest.(check int) "all resumed after heal" 3 o.C.resumed_cells;
    Alcotest.(check int) "no salvage after heal" 0
      (counter rep "campaign.manifest_salvaged")

(* resuming a manifest that names a kind this process never registered
   must be a typed refusal, not the Not_found crash it used to be *)
let test_unknown_kind_refused () =
  let dir = tmpdir "unkind" in
  (match C.run ~dir (mixed_matrix ()) with
  | Error e -> Alcotest.fail (C.error_to_string e)
  | Ok _ -> ());
  (* rewrite the manifest's kind to something unregistered, keeping the
     CRC footer valid so the file reads as intact *)
  let manifest = Filename.concat dir "campaign.manifest" in
  let text =
    let ic = open_in_bin manifest in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let crc_len = String.length "crc 00000000\n" in
  let body = String.sub text 0 (String.length text - crc_len) in
  let body =
    String.split_on_char '\n' body
    |> List.map (fun l -> if l = "kind selftest" then "kind custom" else l)
    |> String.concat "\n"
  in
  let oc = open_out_bin manifest in
  output_string oc
    (body ^ Printf.sprintf "crc %08x\n" (Difftrace_util.Crc32.string body));
  close_out oc;
  (* status reconstructs the matrix without executing: still readable *)
  match C.status ~dir with
  | Error e -> Alcotest.failf "status refused a readable manifest: %s"
                 (C.error_to_string e)
  | Ok o ->
    Alcotest.(check string) "kind read back" "custom" o.C.matrix.C.kind;
    Alcotest.(check int) "cells still readable" 3 (List.length o.C.results);
    (* resuming that matrix must refuse with the typed error *)
    match C.run ~dir o.C.matrix with
    | Error (C.Unknown_kind k as e) ->
      Alcotest.(check string) "names the kind" "custom" k;
      Alcotest.(check bool) "lists registered kinds" true
        (contains "selftest" (C.error_to_string e))
    | Error e -> Alcotest.failf "wrong error: %s" (C.error_to_string e)
    | Ok _ -> Alcotest.fail "ran a campaign with an unregistered kind"

let test_mismatched_matrix_rejected () =
  let dir = tmpdir "mismatch" in
  (match C.run ~dir (mixed_matrix ()) with
  | Error e -> Alcotest.fail (C.error_to_string e)
  | Ok _ -> ());
  let other =
    matrix ~kind:"selftest" ~np:8 ~faults:[ dl_fault; crash_fault; swap_fault ]
      ~seeds:[ 1 ] ()
  in
  match C.run ~dir other with
  | Error (C.Wrong_campaign _ as e) ->
    Alcotest.(check bool) "names the mismatch" true
      (contains "np" (C.error_to_string e))
  | Error e -> Alcotest.failf "wrong error: %s" (C.error_to_string e)
  | Ok _ -> Alcotest.fail "accepted a different campaign in the same dir"

(* ------------------------------------------------------------------ *)
(* corpus cells                                                        *)
(* ------------------------------------------------------------------ *)

module Frontend = Difftrace_frontend.Frontend

let cilog_dir = "corpus/cilog"

(* the digest of [file] ingested straight through cilog *)
let cilog_digest file =
  let fe = Option.get (Difftrace_frontend.Registry.find "cilog") in
  match Frontend.ingest_file fe (Filename.concat cilog_dir file) with
  | Ok ts -> Frontend.digest ts
  | Error e -> Alcotest.fail (Frontend.error_to_string e)

let archive_digest adir =
  match Difftrace_parlot.Archive.load ~dir:adir () with
  | Ok l -> Frontend.digest l.Difftrace_parlot.Archive.set
  | Error e -> Alcotest.fail (Difftrace_parlot.Archive.error_to_string e)

(* the sorted corpus is ansi_interleaved, build_fail, build_pass: the
   reference ingests the first, seed s ingests file s mod 3 *)
let test_corpus_campaign () =
  let dir = tmpdir "corpus" in
  let config =
    Difftrace_core.Config.(
      with_filter (Difftrace_filter.Filter.of_spec "11.all") default)
  in
  let m =
    matrix ~kind:("corpus:cilog:" ^ cilog_dir) ~np:1 ~faults:[ swap_fault ]
      ~seeds:[ 1; 2; 3 ] ()
  in
  match C.run ~config ~dir m with
  | Error e -> Alcotest.fail (C.error_to_string e)
  | Ok o ->
    List.iter
      (fun i ->
        match verdict_of o i with
        | C.Completed -> ()
        | v -> Alcotest.failf "corpus cell %d: %s" i (C.verdict_to_string v))
      [ 0; 1; 2 ];
    let reference = cilog_digest "ansi_interleaved.log" in
    List.iter
      (fun seed ->
        Alcotest.(check string)
          (Printf.sprintf "reference s%d ingests the first file" seed)
          reference
          (archive_digest
             (Filename.concat dir (Printf.sprintf "normal_s%d" seed))))
      [ 1; 2; 3 ];
    List.iter
      (fun (index, file) ->
        Alcotest.(check string)
          (Printf.sprintf "cell %d ingests %s" index file)
          (cilog_digest file)
          (archive_digest
             (Filename.concat dir (Printf.sprintf "cell_%d" index))))
      [ (0, "build_fail.log"); (1, "build_pass.log"); (2, "ansi_interleaved.log") ]

(* a library caller with the default config gets the configuration
   `difftrace campaign run -w corpus:cilog:DIR` records: corpus cells
   hold foreign traces, so the MPI default filter gives way to 11.all *)
let test_corpus_default_config () =
  let dir = tmpdir "corpus_default" in
  let m =
    matrix ~kind:("corpus:cilog:" ^ cilog_dir) ~np:1 ~faults:[ swap_fault ]
      ~seeds:[ 1 ] ()
  in
  (match C.run ~config:Difftrace_core.Config.default ~dir m with
  | Error e -> Alcotest.fail (C.error_to_string e)
  | Ok _ -> ());
  let text =
    In_channel.with_open_bin (Filename.concat dir "campaign.manifest")
      In_channel.input_all
  in
  Alcotest.(check (list string))
    "manifest config line"
    [ "config 11.all.K10 / sing.noFreq / ward" ]
    (List.filter
       (String.starts_with ~prefix:"config ")
       (String.split_on_char '\n' text))

let invalid_message f =
  match f () with
  | Ok _ -> Alcotest.fail "matrix accepted"
  | Error e -> C.error_to_string e

let test_corpus_unknown_frontend () =
  let m =
    invalid_message (fun () ->
        C.matrix ~kind:("corpus:nope:" ^ cilog_dir) ~np:1 ~faults:[ swap_fault ]
          ~seeds:[ 1 ] ())
  in
  List.iter
    (fun known ->
      Alcotest.(check bool) ("names frontend " ^ known) true (contains known m))
    [ "\"nope\""; "cilog"; "syscall" ]

let test_corpus_empty_dir () =
  let dir = tmpdir "corpus_empty" in
  Sys.mkdir dir 0o755;
  (* a subdirectory is not a corpus member *)
  Sys.mkdir (Filename.concat dir "sub") 0o755;
  let m =
    invalid_message (fun () ->
        C.matrix ~kind:("corpus:cilog:" ^ dir) ~np:1 ~faults:[ swap_fault ]
          ~seeds:[ 1 ] ())
  in
  Alcotest.(check bool) "names the directory" true (contains dir m)

(* ------------------------------------------------------------------ *)
(* reporting                                                           *)
(* ------------------------------------------------------------------ *)

let test_render_ranks_failures_first () =
  let dir = tmpdir "render" in
  match C.run ~dir (mixed_matrix ()) with
  | Error e -> Alcotest.fail (C.error_to_string e)
  | Ok o ->
    let s = C.render o in
    Alcotest.(check bool) "header" true (contains "campaign selftest" s);
    Alcotest.(check bool) "failure detail" true (contains "injected crash" s);
    (* the FAILED row precedes every analyzable row *)
    let idx sub =
      let n = String.length sub in
      let rec go i =
        if i + n > String.length s then Alcotest.failf "missing %S" sub
        else if String.sub s i n = sub then i
        else go (i + 1)
      in
      go 0
    in
    Alcotest.(check bool) "failed row ranked first" true
      (idx "FAILED" < idx "HUNG" && idx "HUNG" < idx "ok")

let test_top_cell_diffnlr () =
  let dir = tmpdir "diffnlr" in
  match C.run ~dir (mixed_matrix ()) with
  | Error e -> Alcotest.fail (C.error_to_string e)
  | Ok o -> (
    match C.top_cell_diffnlr ~dir o with
    | Error e -> Alcotest.fail e
    | Ok s ->
      Alcotest.(check bool) "renders a diffNLR" true (contains "diffNLR" s))

let () =
  Alcotest.run "campaign"
    [ ( "matrix",
        [ Alcotest.test_case "validation" `Quick test_matrix_validation;
          Alcotest.test_case "cells" `Quick test_matrix_cells;
          Alcotest.test_case "registered kinds" `Quick test_registered_kinds ] );
      ( "isolation",
        [ Alcotest.test_case "deadlock/crash/clean" `Quick
            test_run_isolates_failures;
          Alcotest.test_case "step-budget timeout" `Quick
            test_run_timeout_verdict ] );
      ( "resume",
        [ Alcotest.test_case "second run skips" `Quick test_run_resumes;
          Alcotest.test_case "status" `Quick test_status_reads_back;
          Alcotest.test_case "corrupt manifest" `Quick
            test_corrupt_manifest_recovery;
          Alcotest.test_case "flipped-byte salvage" `Quick
            test_flipped_byte_manifest_salvage;
          Alcotest.test_case "unknown kind refused" `Quick
            test_unknown_kind_refused;
          Alcotest.test_case "mismatch rejected" `Quick
            test_mismatched_matrix_rejected ] );
      ( "corpus",
        [ Alcotest.test_case "cilog sweep picks files by seed" `Quick
            test_corpus_campaign;
          Alcotest.test_case "default config is the foreign one" `Quick
            test_corpus_default_config;
          Alcotest.test_case "unknown frontend rejected" `Quick
            test_corpus_unknown_frontend;
          Alcotest.test_case "empty directory rejected" `Quick
            test_corpus_empty_dir ] );
      ( "report",
        [ Alcotest.test_case "ranking" `Quick test_render_ranks_failures_first;
          Alcotest.test_case "top-cell diffNLR" `Quick test_top_cell_diffnlr ] ) ]
