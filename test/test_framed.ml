(* Golden on-disk bytes of every CRC-framed file format: the analysis
   store, the event-DB index, the v2 archive (manifest and one chunked
   trace file), the campaign manifest and a cell's run metadata. Each
   file is built from fixed, deterministic inputs and its MD5 compared
   with a recorded literal, so any change to framing, record order or
   footer layout — however well it round-trips — fails here. *)

open Difftrace
module Fault = Difftrace_simulator.Fault
module R = Difftrace_simulator.Runtime
module F = Difftrace_filter.Filter
module Odd_even = Difftrace_workloads.Odd_even
module Eventdb = Difftrace_eventdb.Eventdb
module Archive = Difftrace_parlot.Archive
module C = Difftrace_campaign.Campaign

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let fresh_dir name =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) ("difftrace_golden_" ^ name)
  in
  rm_rf dir;
  dir

let file_md5 path =
  Digest.to_hex (Digest.string (In_channel.with_open_bin path In_channel.input_all))

let traces () =
  let outcome, _ = Odd_even.run ~np:4 ~fault:Fault.No_fault () in
  outcome.R.traces

let check_md5 what expected path =
  Alcotest.(check string) what expected (file_md5 path)

let get = function Ok v -> v | Error e -> Alcotest.fail (Store.error_to_string e)

let sketch_config () =
  Config.with_mode Config.Sketch (Config.make ~filter:(F.make []) ())

let golden_vdiff_key = Digest.string "golden vdiff"

let golden_vdiff =
  [| ("MPI_Init", [ 0; 1; 2 ]); ("MPI_Send", [ 1 ]); ("MPI_Finalize", [ 0; 2 ]) |]

(* summaries, symbols and loop bodies from a sketch-mode analysis (which
   writes no matrix and no signature); one variational alignment *)
let test_store () =
  let dir = fresh_dir "store" in
  let st = get (Store.load ~dir) in
  ignore (Pipeline.analyze ~store:st (sketch_config ()) (traces ()));
  Store.add_vdiff st ~key:golden_vdiff_key ~nruns:3 golden_vdiff;
  get (Store.flush st);
  let s = Store.stats st in
  Alcotest.(check bool) "every record kind present" true
    (s.Store.summaries > 0 && List.assoc "vdiffs" s.Store.kinds = 1);
  check_md5 "analysis.store" "f4a3c731fa15a4fe5e6f877e2ac28bee" (Filename.concat dir "analysis.store")

let store_magic = "difftrace-store 1\n"

(* the store's records as (tag, payload), in file order *)
let store_records image =
  let records, damage =
    Difftrace_util.Framed.fold ~magic:store_magic image ~init:[]
      ~f:(fun acc p -> Ok ((Char.code p.[0], p) :: acc))
  in
  Alcotest.(check (option string)) "records intact" None damage;
  List.rev records

(* The same store as written while JSM matrices (tag 4) and MinHash
   signatures (tag 5) were persisted (the golden bytes MD5
   8021f2199cd123fa63d47c43b31e7c71 of the test above at the time). It
   verifies and loads without damage, keeps every summary and vdiff,
   warm exact and sketch analyses over it equal cold ones, and its next
   flush writes exactly its old bytes with the tag-4 and tag-5 records
   removed. *)
let test_store_with_signatures () =
  let fixture =
    In_channel.with_open_bin "fixtures/store_v1_signatures/analysis.store"
      In_channel.input_all
  in
  check_md5 "fixture" "8021f2199cd123fa63d47c43b31e7c71"
    "fixtures/store_v1_signatures/analysis.store";
  let old = store_records fixture in
  let retired (tag, _) = tag = 4 || tag = 5 in
  Alcotest.(check int) "the fixture holds a matrix record" 1
    (List.length (List.filter (fun (tag, _) -> tag = 4) old));
  Alcotest.(check int) "the fixture holds signature records" 3
    (List.length (List.filter (fun (tag, _) -> tag = 5) old));
  let dir = fresh_dir "store_signatures" in
  (match Difftrace_util.Framed.mkdir_p dir with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let file = Filename.concat dir "analysis.store" in
  Out_channel.with_open_bin file (fun oc -> Out_channel.output_string oc fixture);
  let c = get (Store.verify ~dir) in
  Alcotest.(check (option string)) "verifies clean" None c.Store.c_damage;
  Alcotest.(check int) "every record decodes" (List.length old) c.Store.c_records;
  let st = get (Store.load ~dir) in
  let s = Store.stats st in
  Alcotest.(check bool) "loads without damage" false s.Store.salvaged;
  Alcotest.(check (list (pair string int))) "every summary and vdiff kept"
    [ ("summaries", 4); ("sources", 0); ("vdiffs", 1) ]
    s.Store.kinds;
  Alcotest.(check bool) "the vdiff reads back" true
    (Store.find_vdiff st ~key:golden_vdiff_key = Some golden_vdiff);
  let ts = traces () in
  List.iter
    (fun (mode, config) ->
      let warm = Pipeline.analyze ~store:st config ts in
      let cold = Pipeline.analyze config ts in
      Alcotest.(check bool) (mode ^ ": warm JSM = cold JSM") true
        (warm.Pipeline.jsm = cold.Pipeline.jsm);
      Alcotest.(check bool) (mode ^ ": the cached summaries are today's") true
        (warm.Pipeline.nlrs = cold.Pipeline.nlrs))
    [ ("exact", Config.make ~filter:(F.make []) ()); ("sketch", sketch_config ()) ];
  Alcotest.(check int) "every summary a memo hit" 0
    (Memo.stats (Store.memo st)).Memo.misses;
  get (Store.flush st);
  let flushed = In_channel.with_open_bin file In_channel.input_all in
  let stripped = Buffer.create (String.length fixture) in
  Buffer.add_string stripped store_magic;
  List.iter
    (fun r -> if not (retired r) then Difftrace_util.Framed.add_record stripped (snd r))
    old;
  Alcotest.(check bool) "no matrix or signature record after a flush" false
    (List.exists retired (store_records flushed));
  Alcotest.(check bool) "flushed = old bytes without their tag-4 and tag-5 records"
    true
    (String.equal flushed (Buffer.contents stripped));
  let c = get (Store.verify ~dir) in
  Alcotest.(check (option string)) "the flushed store verifies clean" None
    c.Store.c_damage

let test_eventdb () =
  let dir = fresh_dir "eventdb" in
  let ts = traces () in
  (match Eventdb.save ~dir (Eventdb.build ts) with
  | Ok () -> ()
  | Error m -> Alcotest.fail m);
  check_md5 "<digest>.edb" "2268e68c9810c640f6948e63b72e833a"
    (Filename.concat dir (Eventdb.digest ts ^ ".edb"))

(* a small chunk size so the trace file holds several framed chunks *)
let test_archive () =
  let dir = fresh_dir "archive" in
  Alcotest.(check int) "trace files" 4 (Archive.save ~chunk_size:8 ~dir (traces ()));
  check_md5 "manifest" "7a6bad1881ffaef18791ffaf9845e7af" (Archive.manifest_file dir);
  check_md5 "trace_0_0.lzw" "8fc4fd8b8a064b519c4bab014c7bd7f0" (Filename.concat dir "trace_0_0.lzw")

(* one hung cell and one clean cell; no raising cell, whose recorded
   backtrace would tie the bytes to code layout *)
let test_campaign () =
  let dir = fresh_dir "campaign" in
  let m =
    Result.get_ok
      (C.matrix ~kind:"selftest" ~np:4
         ~faults:
           [ Fault.Deadlock_recv { rank = 1; after_iter = 0 };
             Fault.Swap_send_recv { rank = 1; after_iter = 0 } ]
         ~seeds:[ 1 ] ())
  in
  (match C.run ~dir m with
  | Ok o -> Alcotest.(check int) "cells executed" 2 o.C.executed
  | Error e -> Alcotest.fail (C.error_to_string e));
  check_md5 "campaign.manifest" "63bd0d3391e5a49de74af2b84613ccd5" (Filename.concat dir "campaign.manifest");
  check_md5 "cell.meta" "fd8619697e09e507a4024289441ab631"
    (Filename.concat (Filename.concat dir "cell_0") "cell.meta")

let () =
  Alcotest.run "framed"
    [ ( "golden bytes",
        [ Alcotest.test_case "analysis store" `Quick test_store;
          Alcotest.test_case "analysis store with signature records" `Quick
            test_store_with_signatures;
          Alcotest.test_case "event-DB index" `Quick test_eventdb;
          Alcotest.test_case "v2 archive" `Quick test_archive;
          Alcotest.test_case "campaign manifest and cell.meta" `Quick test_campaign ] ) ]
