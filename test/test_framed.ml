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

(* summaries, symbols and loop bodies from an analysis; a matrix and
   MinHash signatures from sketch mode; one variational alignment *)
let test_store () =
  let dir = fresh_dir "store" in
  let get = function Ok v -> v | Error e -> Alcotest.fail (Store.error_to_string e) in
  let st = get (Store.load ~dir) in
  let config = Config.with_mode Config.Sketch (Config.make ~filter:(F.make []) ()) in
  ignore (Pipeline.analyze ~store:st config (traces ()));
  Store.add_vdiff st ~key:(Digest.string "golden vdiff") ~nruns:3
    [| ("MPI_Init", [ 0; 1; 2 ]); ("MPI_Send", [ 1 ]); ("MPI_Finalize", [ 0; 2 ]) |];
  get (Store.flush st);
  let s = Store.stats st in
  Alcotest.(check bool) "every record kind present" true
    (s.Store.summaries > 0 && s.Store.matrices > 0
    && List.assoc "signatures" s.Store.kinds > 0
    && List.assoc "vdiffs" s.Store.kinds = 1);
  check_md5 "analysis.store" "8021f2199cd123fa63d47c43b31e7c71" (Filename.concat dir "analysis.store")

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
  check_md5 "manifest" "8b9ee83d48e455a4f924b72145fbbc28" (Archive.manifest_file dir);
  check_md5 "trace_0_0.lzw" "8fc4fd8b8a064b519c4bab014c7bd7f0" (Filename.concat dir "trace_0_0.lzw")

(* one hung cell and one clean cell; no raising cell, whose recorded
   backtrace would tie the bytes to code layout *)
let test_campaign () =
  let dir = fresh_dir "campaign" in
  let m =
    C.matrix ~kind:"selftest" ~np:4
      ~faults:
        [ Fault.Deadlock_recv { rank = 1; after_iter = 0 };
          Fault.Swap_send_recv { rank = 1; after_iter = 0 } ]
      ~seeds:[ 1 ] ()
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
          Alcotest.test_case "event-DB index" `Quick test_eventdb;
          Alcotest.test_case "v2 archive" `Quick test_archive;
          Alcotest.test_case "campaign manifest and cell.meta" `Quick test_campaign ] ) ]
