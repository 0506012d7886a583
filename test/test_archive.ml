open Difftrace_parlot
open Difftrace_trace
module R = Difftrace_simulator.Runtime
module Fault = Difftrace_simulator.Fault
module Odd_even = Difftrace_workloads.Odd_even
module Stacktree = Difftrace_stacktree.Stacktree

let tmpdir name =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) ("difftrace_" ^ name) in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  dir

let set_equal ts1 ts2 =
  let dump ts =
    Array.to_list (Trace_set.traces ts)
    |> List.map (fun tr ->
           ( tr.Trace.pid,
             tr.Trace.tid,
             tr.Trace.truncated,
             Trace.to_strings (Trace_set.symtab ts) tr ))
  in
  dump ts1 = dump ts2

(* a strict load: the trace set, or the test fails with the reason *)
let load_set ?runner ~dir () =
  match Archive.load ?runner ~dir () with
  | Ok l -> l.Archive.set
  | Error e -> Alcotest.fail (Archive.error_to_string e)

(* ------------------------------------------------------------------ *)
(* Archive                                                             *)
(* ------------------------------------------------------------------ *)

let test_archive_roundtrip () =
  let outcome, _ = Odd_even.run ~np:4 ~fault:Fault.No_fault () in
  let dir = tmpdir "roundtrip" in
  let n = Archive.save ~dir outcome.R.traces in
  Alcotest.(check int) "one file per thread" 4 n;
  let loaded = load_set ~dir () in
  Alcotest.(check bool) "identical traces after reload" true
    (set_equal outcome.R.traces loaded)

let test_archive_preserves_truncation () =
  let outcome, _ =
    Odd_even.run ~np:8 ~fault:(Fault.Deadlock_recv { rank = 5; after_iter = 3 }) ()
  in
  let dir = tmpdir "truncated" in
  ignore (Archive.save ~dir outcome.R.traces);
  let loaded = load_set ~dir () in
  Alcotest.(check bool) "truncation flags survive" true
    (set_equal outcome.R.traces loaded);
  let tr = Trace_set.find_exn loaded ~pid:5 ~tid:0 in
  Alcotest.(check bool) "rank 5 still truncated" true tr.Trace.truncated

let test_archive_reanalysis_offline () =
  (* the paper's workflow: record once, re-filter offline *)
  let outcome, _ = Odd_even.run ~np:4 ~fault:Fault.No_fault () in
  let dir = tmpdir "offline" in
  ignore (Archive.save ~dir outcome.R.traces);
  let loaded = load_set ~dir () in
  let a = Difftrace.Pipeline.analyze (Difftrace.Config.make ()) loaded in
  Alcotest.(check string) "Table III reproducible from disk"
    "MPI_Init;MPI_Comm_rank;MPI_Comm_size;L0^2;MPI_Finalize"
    (String.concat ";"
       (Difftrace_nlr.Nlr.to_strings a.Difftrace.Pipeline.symtab
          (fst a.Difftrace.Pipeline.nlrs.(0))))

let test_archive_corrupt_manifest () =
  let dir = tmpdir "corrupt" in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  let oc = open_out (Archive.manifest_file dir) in
  output_string oc "not an archive\n";
  close_out oc;
  match Archive.load ~dir () with
  | Ok _ -> Alcotest.fail "corrupt manifest loaded"
  | Error e -> Alcotest.(check string) "reason" "bad magic" e.Archive.err_reason

(* ------------------------------------------------------------------ *)
(* Resilience: v2 framing, corruption corpus, salvage, verify/repair   *)
(* ------------------------------------------------------------------ *)

module Prng = Difftrace_util.Prng
module Varint = Difftrace_util.Varint

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let trace_paths dir =
  Sys.readdir dir |> Array.to_list
  |> List.filter (fun f -> f <> "manifest")
  |> List.sort compare
  |> List.map (Filename.concat dir)

let flip_bit path ~byte ~bit =
  let s = Bytes.of_string (read_file path) in
  Bytes.set s byte (Char.chr (Char.code (Bytes.get s byte) lxor (1 lsl bit)));
  write_file path (Bytes.to_string s)

let truncate_file path ~keep =
  write_file path (String.sub (read_file path) 0 keep)

(* remove the first data chunk of a v2 trace file (varint length,
   payload, CRC-32 footer), keeping the magic and everything after *)
let delete_first_chunk path =
  let s = read_file path in
  let len, p = Varint.read s 4 in
  assert (len > 0);
  let after = p + len + 4 in
  write_file path (String.sub s 0 4 ^ String.sub s after (String.length s - after))

let sample_traces () =
  let outcome, _ = Odd_even.run ~np:4 ~fault:Fault.No_fault () in
  outcome.R.traces

(* regression: a zero-byte trace file is a complete empty trace — the
   streaming analogue of [Lzw.decompress ""] = "" — not an
   unterminated-stream error *)
let test_stream_empty_input () =
  let st = Tracer.stream () in
  Alcotest.(check bool) "complete before any feed" true
    (Tracer.stream_complete st);
  let st = Tracer.stream () in
  Tracer.stream_feed st "";
  Alcotest.(check int) "no events" 0 (Tracer.stream_events st);
  Alcotest.(check bool) "complete after empty feed" true
    (Tracer.stream_complete st);
  let tr = Tracer.stream_finish st ~pid:3 ~tid:1 ~truncated:false in
  Alcotest.(check int) "empty trace" 0 (Trace.length tr);
  Alcotest.(check bool) "flags preserved" false tr.Trace.truncated

let make_archive ?chunk_size name ts =
  let dir = tmpdir name in
  ignore (Archive.save ?chunk_size ~dir ts);
  dir

(* v1 archives are read, never written: fixtures/v1_oddeven4 holds
   [sample_traces ()] saved in the v1 format. Each test takes a fresh
   copy, so the damage it does never reaches the fixture. *)
let v1_fixture name =
  let src = Filename.concat "fixtures" "v1_oddeven4" in
  let dir = tmpdir name in
  if not (Sys.file_exists dir) then Sys.mkdir dir 0o755;
  Array.iter
    (fun f -> write_file (Filename.concat dir f) (read_file (Filename.concat src f)))
    (Sys.readdir src);
  dir

(* rewrite the event count of thread [pid].0 in a v1 manifest, which
   carries no checksum to catch the edit *)
let set_v1_length dir ~pid f =
  let path = Archive.manifest_file dir in
  let prefix = Printf.sprintf "thread %d 0 complete " pid in
  let plen = String.length prefix in
  String.split_on_char '\n' (read_file path)
  |> List.map (fun line ->
         if String.starts_with ~prefix line then
           prefix ^ f (String.sub line plen (String.length line - plen))
         else line)
  |> String.concat "\n"
  |> write_file path

let par_runner = Difftrace.Engine.runner (Difftrace.Engine.parallel ~domains:4 ())

let test_v1_still_loads () =
  let ts = sample_traces () in
  let dir = v1_fixture "v1_compat" in
  match Archive.load ~dir () with
  | Error e -> Alcotest.fail (Archive.error_to_string e)
  | Ok l ->
    Alcotest.(check int) "reports version 1" 1 l.Archive.version;
    Alcotest.(check int) "nothing salvaged" 0 (List.length l.Archive.salvaged);
    Alcotest.(check bool) "identical traces" true (set_equal ts l.Archive.set)

let test_v1_v2_identical () =
  let ts = sample_traces () in
  let v1 = load_set ~dir:(v1_fixture "x_v1") () in
  let v2 = load_set ~dir:(make_archive "x_v2" ts) () in
  Alcotest.(check bool) "v1 load = original" true (set_equal ts v1);
  Alcotest.(check bool) "v2 load = v1 load" true (set_equal v1 v2)

let test_runner_parity () =
  let ts = sample_traces () in
  let dir = make_archive ~chunk_size:64 "parity" ts in
  let seq = load_set ~dir () in
  let par = load_set ~runner:par_runner ~dir () in
  Alcotest.(check bool) "sequential = parallel" true (set_equal seq par);
  Alcotest.(check bool) "both = original" true (set_equal ts seq)

(* random event streams through Varint/Lzw/Archive at several chunk
   sizes (1 forces every LZW code to straddle frames) *)
let random_set seed =
  let prng = Prng.create seed in
  let symtab = Symtab.create () in
  let nfuncs = 1 + Prng.int prng 40 in
  let ids =
    Array.init nfuncs (fun i -> Symtab.intern symtab (Printf.sprintf "fn_%d" i))
  in
  let traces =
    List.init (1 + Prng.int prng 5) (fun pid ->
        let n = Prng.int prng 500 in
        let events =
          Array.init n (fun _ ->
              let id = ids.(Prng.int prng nfuncs) in
              if Prng.bool prng then Event.Call id else Event.Return id)
        in
        Trace.make ~pid ~tid:0 ~truncated:(Prng.bool prng) events)
  in
  Trace_set.create symtab traces

let test_random_roundtrips () =
  for seed = 1 to 6 do
    let ts = random_set seed in
    List.iter
      (fun (chunk_size, tag) ->
        let name = Printf.sprintf "rand_%d_%s" seed tag in
        let dir = make_archive ?chunk_size name ts in
        let loaded = load_set ~dir () in
        Alcotest.(check bool)
          (Printf.sprintf "seed %d %s roundtrips" seed tag)
          true (set_equal ts loaded))
      [ (Some 1, "v2c1"); (Some 3, "v2c3"); (None, "v2") ]
  done

(* Deterministic fault injector: every mutation of a valid v2 archive
   must land in Error (strict) or a truncated salvage — never an
   uncaught exception. *)
let test_corruption_corpus () =
  let ts = sample_traces () in
  let prng = Prng.create 42 in
  for case = 0 to 39 do
    let dir = make_archive ~chunk_size:32 (Printf.sprintf "corpus_%d" case) ts in
    let paths = trace_paths dir in
    let victim = List.nth paths (Prng.int prng (List.length paths)) in
    let size = String.length (read_file victim) in
    let what =
      match case mod 4 with
      | 0 ->
        let byte = Prng.int prng size in
        flip_bit victim ~byte ~bit:(Prng.int prng 8);
        Printf.sprintf "bit flip @%d" byte
      | 1 ->
        let keep = Prng.int prng size in
        truncate_file victim ~keep;
        Printf.sprintf "truncate to %d" keep
      | 2 -> delete_first_chunk victim; "chunk deletion"
      | _ ->
        let n = 1 + Prng.int prng 16 in
        write_file victim
          (read_file victim ^ String.init n (fun _ -> Char.chr (Prng.int prng 256)));
        Printf.sprintf "append %d garbage bytes" n
    in
    let ctx = Printf.sprintf "case %d (%s on %s)" case what victim in
    (match Archive.load ~dir () with
    | Ok _ -> Alcotest.fail (ctx ^ ": corruption went undetected")
    | Error _ -> ()
    | exception e ->
      Alcotest.fail (ctx ^ ": strict load raised " ^ Printexc.to_string e));
    (match Archive.load ~salvage:true ~dir () with
    | Error e ->
      Alcotest.fail (ctx ^ ": salvage refused: " ^ Archive.error_to_string e)
    | exception e ->
      Alcotest.fail (ctx ^ ": salvage raised " ^ Printexc.to_string e)
    | Ok l ->
      Alcotest.(check bool) (ctx ^ ": salvage recorded") true
        (l.Archive.salvaged <> []);
      List.iter
        (fun s ->
          let tr =
            Trace_set.find_exn l.Archive.set ~pid:s.Archive.sv_pid
              ~tid:s.Archive.sv_tid
          in
          Alcotest.(check bool) (ctx ^ ": salvaged trace marked truncated") true
            tr.Trace.truncated;
          Alcotest.(check bool) (ctx ^ ": dropped bytes accounted") true
            (s.Archive.sv_dropped_bytes >= 0))
        l.Archive.salvaged);
    match Archive.verify ~dir () with
    | Error e -> Alcotest.fail (ctx ^ ": verify refused: " ^ Archive.error_to_string e)
    | Ok r -> Alcotest.(check bool) (ctx ^ ": verify flags damage") false r.Archive.rp_ok
  done

let test_v1_corruption () =
  List.iter
    (fun (name, mutate) ->
      let dir = v1_fixture ("v1_" ^ name) in
      let victim = List.hd (trace_paths dir) in
      mutate victim;
      (match Archive.load ~dir () with
      | Ok _ -> Alcotest.fail (name ^ ": v1 corruption went undetected")
      | Error _ -> ());
      match Archive.load ~salvage:true ~dir () with
      | Error e -> Alcotest.fail (name ^ ": " ^ Archive.error_to_string e)
      | Ok l ->
        Alcotest.(check bool) (name ^ ": salvaged") true (l.Archive.salvaged <> []))
    [ ("truncate", fun p -> truncate_file p ~keep:(String.length (read_file p) / 2));
      ("garbage", fun p -> write_file p (read_file p ^ "\xff\x00\x17")) ]

let test_manifest_bitflip () =
  let ts = sample_traces () in
  let prng = Prng.create 7 in
  for case = 0 to 7 do
    let dir = make_archive (Printf.sprintf "mflip_%d" case) ts in
    let path = Archive.manifest_file dir in
    let size = String.length (read_file path) in
    flip_bit path ~byte:(Prng.int prng size) ~bit:(Prng.int prng 8);
    List.iter
      (fun salvage ->
        match Archive.load ~salvage ~dir () with
        | Ok _ -> Alcotest.fail "manifest corruption went undetected"
        | Error _ -> ()
        | exception e ->
          Alcotest.fail ("manifest load raised " ^ Printexc.to_string e))
      [ false; true ]
  done

let test_verify_clean () =
  let ts = sample_traces () in
  let dir = make_archive ~chunk_size:64 "verify_ok" ts in
  match Archive.verify ~runner:par_runner ~dir () with
  | Error e -> Alcotest.fail (Archive.error_to_string e)
  | Ok r ->
    Alcotest.(check bool) "clean archive verifies" true r.Archive.rp_ok;
    Alcotest.(check int) "one check per trace" 4 (List.length r.Archive.rp_traces);
    List.iter
      (fun t ->
        Alcotest.(check bool) "no issue" true (t.Archive.tc_issue = None);
        Alcotest.(check bool) "chunks counted" true (t.Archive.tc_chunks > 0))
      r.Archive.rp_traces;
    let rendered = Archive.render_report r in
    Alcotest.(check bool) "report says OK" true
      (String.length rendered > 0
      && (let ok = ref false in
          String.iteri
            (fun i _ ->
              if i + 2 <= String.length rendered && String.sub rendered i 2 = "OK"
              then ok := true)
            rendered;
          !ok))

let test_repair () =
  let ts = sample_traces () in
  let src = make_archive ~chunk_size:32 "repair_src" ts in
  let victim = List.hd (trace_paths src) in
  truncate_file victim ~keep:(String.length (read_file victim) / 2);
  let dst = tmpdir "repair_dst" in
  match Archive.repair ~src ~dst () with
  | Error e -> Alcotest.fail (Archive.error_to_string e)
  | Ok (l, files) ->
    Alcotest.(check int) "all traces rewritten" 4 files;
    Alcotest.(check int) "one trace salvaged" 1 (List.length l.Archive.salvaged);
    (match Archive.verify ~dir:dst () with
    | Error e -> Alcotest.fail (Archive.error_to_string e)
    | Ok r -> Alcotest.(check bool) "repaired archive verifies" true r.Archive.rp_ok);
    match Archive.load ~dir:dst () with
    | Error e -> Alcotest.fail (Archive.error_to_string e)
    | Ok l2 ->
      Alcotest.(check bool) "repaired archive loads clean" true
        (l2.Archive.salvaged = []);
      Alcotest.(check bool) "repaired set = salvaged set" true
        (set_equal l.Archive.set l2.Archive.set)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let test_save_creates_parents () =
  let base = Filename.concat (Filename.get_temp_dir_name ()) "difftrace_nested" in
  rm_rf base;
  let dir = Filename.concat (Filename.concat base "a") "b" in
  let ts = sample_traces () in
  Alcotest.(check int) "saved through missing parents" 4 (Archive.save ~dir ts);
  Alcotest.(check bool) "and loads back" true
    (set_equal ts (load_set ~dir ()))

let test_save_dir_is_file () =
  let path = Filename.concat (Filename.get_temp_dir_name ()) "difftrace_blocker" in
  write_file path "in the way";
  let ts = sample_traces () in
  (match Archive.save ~dir:path ts with
  | _ -> Alcotest.fail "saved into a regular file"
  | exception Invalid_argument m ->
    Alcotest.(check bool) "clear error" true
      (String.length m > 0 && String.sub m 0 12 = "Archive.save"));
  Sys.remove path

let test_zero_byte_trace_file () =
  (* the file a crashed writer leaves behind: created, never flushed —
     a byte-less stream must load as the valid empty trace the manifest
     promised, with nothing salvaged *)
  let ts = sample_traces () in
  let expected =
    Trace_set.create (Trace_set.symtab ts)
      (List.map
         (fun (tr : Trace.t) ->
           if tr.Trace.pid = 1 then Trace.make ~pid:1 ~tid:0 ~truncated:false [||]
           else tr)
         (Array.to_list (Trace_set.traces ts)))
  in
  let dir = v1_fixture "zero_byte" in
  write_file (Archive.trace_file dir ~pid:1 ~tid:0) "";
  set_v1_length dir ~pid:1 (fun _ -> "0");
  match Archive.load ~dir () with
  | Error e -> Alcotest.fail (Archive.error_to_string e)
  | Ok l ->
    Alcotest.(check int) "nothing salvaged" 0 (List.length l.Archive.salvaged);
    Alcotest.(check bool) "identical traces" true (set_equal expected l.Archive.set)

let test_v1_length_mismatch () =
  (* v1 manifests carry no checksum, so a tampered length must be
     caught by the decoded-event count instead *)
  let dir = v1_fixture "v1_len" in
  (* bump the first thread's event count by prepending a digit *)
  set_v1_length dir ~pid:0 (fun n -> "9" ^ n);
  match Archive.load ~dir () with
  | Ok _ -> Alcotest.fail "length mismatch went undetected"
  | Error e ->
    Alcotest.(check bool) "reason names the mismatch" true
      (String.length e.Archive.err_reason >= 21
      && String.sub e.Archive.err_reason 0 21 = "trace length mismatch")

let oddeven64 = lazy (fst (Odd_even.run ~np:64 ~fault:Fault.No_fault ())).R.traces

(* The manifest's per-thread event count is untrusted input: it sizes
   the decoder's preallocation only up to a clamp. A huge or negative
   count must surface as the typed length mismatch from every entry
   point — never as an exception, never as a huge allocation. *)
let test_untrusted_event_count () =
  let ts = Lazy.force oddeven64 in
  let tr =
    let src = (Trace_set.find_exn ts ~pid:0 ~tid:0).Trace.events in
    Trace.make ~pid:0 ~tid:0 ~truncated:false
      (Array.init 392 (fun i -> src.(i mod Array.length src)))
  in
  let dir = make_archive "untrusted_len" (Trace_set.create (Trace_set.symtab ts) [ tr ]) in
  let path = Archive.manifest_file dir in
  let body =
    match Difftrace_util.Framed.unseal (read_file path) with
    | Ok body -> body
    | Error _ -> Alcotest.fail "fresh manifest does not unseal"
  in
  let line = "thread 0 0 complete 392" in
  let at =
    let rec find i =
      if String.sub body i (String.length line) = line then i else find (i + 1)
    in
    find 0
  in
  List.iter
    (fun n ->
      let forged =
        String.sub body 0 at
        ^ Printf.sprintf "thread 0 0 complete %d" n
        ^ String.sub body (at + String.length line)
            (String.length body - at - String.length line)
      in
      write_file path (Difftrace_util.Framed.seal forged);
      let want = Printf.sprintf "trace length mismatch (manifest %d, decoded 392)" n in
      let ctx = Printf.sprintf "manifest declares %d: " n in
      let allocated = Gc.allocated_bytes () in
      (match Archive.load ~dir () with
      | Ok _ -> Alcotest.fail (ctx ^ "strict load accepted it")
      | Error e -> Alcotest.(check string) (ctx ^ "strict load") want e.Archive.err_reason
      | exception e -> Alcotest.fail (ctx ^ "strict load raised " ^ Printexc.to_string e));
      (match Archive.load ~salvage:true ~dir () with
      | Error e -> Alcotest.fail (ctx ^ "salvage refused: " ^ Archive.error_to_string e)
      | Ok l -> (
        match l.Archive.salvaged with
        | [ sv ] ->
          Alcotest.(check string) (ctx ^ "salvage reason") want sv.Archive.sv_reason;
          Alcotest.(check int) (ctx ^ "every event kept") 392 sv.Archive.sv_events;
          Alcotest.(check int) (ctx ^ "no bytes dropped") 0 sv.Archive.sv_dropped_bytes
        | _ -> Alcotest.fail (ctx ^ "expected one salvaged trace"))
      | exception e -> Alcotest.fail (ctx ^ "salvage raised " ^ Printexc.to_string e));
      (match Archive.verify ~dir () with
      | Error e -> Alcotest.fail (ctx ^ "verify refused: " ^ Archive.error_to_string e)
      | Ok r -> (
        match r.Archive.rp_traces with
        | [ t ] ->
          Alcotest.(check (option string)) (ctx ^ "verify issue") (Some want)
            t.Archive.tc_issue;
          Alcotest.(check int) (ctx ^ "verify events") 392 t.Archive.tc_events
        | _ -> Alcotest.fail (ctx ^ "expected one trace check"))
      | exception e -> Alcotest.fail (ctx ^ "verify raised " ^ Printexc.to_string e));
      let mb = (Gc.allocated_bytes () -. allocated) /. 1048576. in
      Alcotest.(check bool)
        (Printf.sprintf "%sallocated %.1f MB, under 8 MB" ctx mb)
        true (mb < 8.))
    [ 1 lsl 40; max_int; -1 ]

(* OCaml 5's [Array.make] forces a minor collection for an array above
   256 words filled with a young block; a decoder that grew its event
   array that way paid at least one forced collection per trace file *)
let test_load_minor_gcs () =
  let ts = Lazy.force oddeven64 in
  let dir = make_archive "minor_gcs" ts in
  Gc.full_major ();
  let before = (Gc.quick_stat ()).Gc.minor_collections in
  let loaded = load_set ~dir () in
  let minors = (Gc.quick_stat ()).Gc.minor_collections - before in
  Alcotest.(check bool) "loads back" true (set_equal ts loaded);
  Alcotest.(check bool)
    (Printf.sprintf "%d minor collections for %d trace files" minors
       (Trace_set.cardinal ts))
    true
    (minors < Trace_set.cardinal ts)

(* ------------------------------------------------------------------ *)
(* Stack trees                                                         *)
(* ------------------------------------------------------------------ *)

let test_final_stack_reconstruction () =
  let symtab = Symtab.create () in
  let id n = Symtab.intern symtab n in
  let tr =
    Trace.make ~pid:0 ~tid:0 ~truncated:true
      [| Event.Call (id "main"); Event.Call (id "f"); Event.Return (id "f");
         Event.Call (id "g"); Event.Call (id "MPI_Recv") |]
  in
  Alcotest.(check (list string)) "stuck inside main>g>MPI_Recv"
    [ "main"; "g"; "MPI_Recv" ]
    (Stacktree.final_stack symtab tr)

let test_final_stack_balanced () =
  let symtab = Symtab.create () in
  let id n = Symtab.intern symtab n in
  let tr =
    Trace.make ~pid:0 ~tid:0 ~truncated:false
      [| Event.Call (id "main"); Event.Call (id "f"); Event.Return (id "f");
         Event.Return (id "main") |]
  in
  Alcotest.(check (list string)) "balanced trace -> empty stack" []
    (Stacktree.final_stack symtab tr)

let test_final_stack_unmatched_return () =
  let symtab = Symtab.create () in
  let id n = Symtab.intern symtab n in
  let tr =
    Trace.make ~pid:0 ~tid:0 ~truncated:false
      [| Event.Call (id "main"); Event.Return (id "other") |]
  in
  Alcotest.(check (list string)) "unmatched return ignored" [ "main" ]
    (Stacktree.final_stack symtab tr)

let test_stacktree_hung_run () =
  (* dlBug: STAT-style view of where every rank is stuck *)
  let outcome, _ =
    Odd_even.run ~np:8 ~fault:(Fault.Deadlock_recv { rank = 3; after_iter = 2 }) ()
  in
  let tree = Stacktree.build outcome.R.traces in
  (* everyone still alive is under main > oddEvenSort > MPI_* *)
  (match tree.Stacktree.roots with
  | [ root ] ->
    Alcotest.(check string) "root frame" "main" root.Stacktree.frame;
    Alcotest.(check bool) "root holds the hung ranks" true
      (List.length root.Stacktree.members >= 5)
  | _ -> Alcotest.fail "expected a single main root");
  let classes = Stacktree.equivalence_classes tree in
  Alcotest.(check bool) "at least one stuck class" true (List.length classes >= 1);
  let total =
    List.fold_left (fun acc (_, members) -> acc + List.length members) 0 classes
  in
  Alcotest.(check int) "every rank is in exactly one class" 8 total;
  (* the injected rank is stuck under main > oddEvenSort > MPI_Recv *)
  let rank3_class =
    List.find (fun (_, members) -> List.mem (3, 0) members) classes
  in
  Alcotest.(check (list string)) "rank 3's stack"
    [ "main"; "oddEvenSort"; "MPI_Recv" ]
    (fst rank3_class);
  let rendered = Stacktree.render tree in
  Alcotest.(check bool) "renders frames" true (String.length rendered > 50)

let test_stacktree_clean_run_all_idle () =
  let outcome, _ = Odd_even.run ~np:4 ~fault:Fault.No_fault () in
  let tree = Stacktree.build outcome.R.traces in
  Alcotest.(check int) "no live frames" 0 (List.length tree.Stacktree.roots);
  Alcotest.(check int) "all idle" 4 (List.length tree.Stacktree.idle)

(* ------------------------------------------------------------------ *)
(* Extra collectives                                                   *)
(* ------------------------------------------------------------------ *)

module Api = Difftrace_simulator.Api

let clean outcome =
  Alcotest.(check (list (pair int int))) "no deadlock" [] outcome.R.deadlocked

let test_allgather () =
  let outcome =
    R.run ~np:3 (fun env ->
        let r = Api.allgather env [| R.pid env * 10 |] in
        Alcotest.(check (array int)) "rank-ordered concat" [| 0; 10; 20 |] r)
  in
  clean outcome

let test_gather () =
  let outcome =
    R.run ~np:3 (fun env ->
        let r = Api.gather env ~root:1 [| R.pid env; R.pid env |] in
        if R.pid env = 1 then
          Alcotest.(check (array int)) "root" [| 0; 0; 1; 1; 2; 2 |] r
        else Alcotest.(check (array int)) "non-root" [||] r)
  in
  clean outcome

let test_scatter () =
  let outcome =
    R.run ~np:3 (fun env ->
        let data = if R.pid env = 0 then [| 10; 11; 20; 21; 30; 31 |] else [||] in
        let r = Api.scatter env ~root:0 ~count:2 data in
        Alcotest.(check (array int)) "slice"
          [| ((R.pid env + 1) * 10); ((R.pid env + 1) * 10) + 1 |]
          r)
  in
  clean outcome

let test_scatter_bad_buffer_hangs () =
  let outcome =
    R.run ~np:2 (fun env ->
        let data = if R.pid env = 0 then [| 1 |] (* too short *) else [||] in
        ignore (Api.scatter env ~root:0 ~count:2 data))
  in
  Alcotest.(check int) "hangs" 2 (List.length outcome.R.deadlocked);
  Alcotest.(check bool) "diagnosed" true (outcome.R.collective_mismatch <> None)

let test_alltoall () =
  let outcome =
    R.run ~np:2 (fun env ->
        (* rank r sends [r*100 + d] to rank d *)
        let data = [| (R.pid env * 100) + 0; (R.pid env * 100) + 1 |] in
        let r = Api.alltoall env ~count:1 data in
        Alcotest.(check (array int)) "transposed"
          [| 0 + R.pid env; 100 + R.pid env |]
          r)
  in
  clean outcome

let test_scan () =
  let outcome =
    R.run ~np:4 (fun env ->
        let r = Api.scan env ~op:R.Op_sum [| 1 |] in
        Alcotest.(check (array int)) "inclusive prefix" [| R.pid env + 1 |] r)
  in
  clean outcome

(* ------------------------------------------------------------------ *)
(* Communicators                                                       *)
(* ------------------------------------------------------------------ *)

let test_comm_split_groups () =
  let outcome =
    R.run ~np:6 (fun env ->
        let rank = R.pid env in
        (* evens and odds form separate communicators *)
        let c = Api.comm_split env ~color:(rank mod 2) ~key:rank in
        (* sum within the group *)
        let s = Api.allreduce ~comm:c env ~op:R.Op_sum [| rank |] in
        let expected = if rank mod 2 = 0 then 0 + 2 + 4 else 1 + 3 + 5 in
        Alcotest.(check (array int)) "group sum" [| expected |] s;
        (* world collectives still work alongside *)
        let w = Api.allreduce env ~op:R.Op_sum [| 1 |] in
        Alcotest.(check (array int)) "world size" [| 6 |] w)
  in
  clean outcome

let test_comm_split_key_orders_members () =
  let outcome =
    R.run ~np:4 (fun env ->
        let rank = R.pid env in
        (* reverse ordering via descending keys *)
        let c = Api.comm_split env ~color:0 ~key:(- rank) in
        Alcotest.(check (array int)) "members sorted by key"
          [| 3; 2; 1; 0 |]
          c.R.members;
        ignore (Api.barrier ~comm:c env))
  in
  clean outcome

let test_comm_split_allgather_order () =
  let outcome =
    R.run ~np:4 (fun env ->
        let rank = R.pid env in
        let c = Api.comm_split env ~color:(rank / 2) ~key:rank in
        let g = Api.allgather ~comm:c env [| rank * 10 |] in
        let expected = if rank < 2 then [| 0; 10 |] else [| 20; 30 |] in
        Alcotest.(check (array int)) "gathered in comm-rank order" expected g)
  in
  clean outcome

let test_comm_mismatched_split_hangs () =
  (* a classic split bug: one rank computes a different color and its
     group can never complete a collective of the expected size...
     here rank 3 joins color 0's group while they expect it in group 1,
     so the collective *memberships* disagree -> derive_comm differs ->
     the groups deadlock *)
  let outcome =
    R.run ~np:4 (fun env ->
        let rank = R.pid env in
        let color = if rank = 3 then 0 else rank mod 2 in
        let c = Api.comm_split env ~color ~key:rank in
        (* ranks disagree about who is in which group only if their
           local view diverged; with allgather-based split all views
           agree, so instead simulate the bug by using the wrong comm
           size expectation: rank 3 then barriers on a comm whose other
           members never barrier on it *)
        if rank = 3 then ignore (Api.barrier ~comm:c env)
        else if rank mod 2 = 1 then ignore (Api.barrier ~comm:c env))
  in
  (* rank 1's group is {1}, it completes alone; rank 3 joined {0,2,3}
     but 0 and 2 never call barrier -> rank 3 hangs *)
  Alcotest.(check bool) "the misrouted rank hangs" true
    (List.mem (3, 0) outcome.R.deadlocked)


(* ------------------------------------------------------------------ *)
(* trace emission of the newer MPI wrappers                            *)
(* ------------------------------------------------------------------ *)

let trace_names outcome ~pid =
  let ts = outcome.R.traces in
  let tr = Trace_set.find_exn ts ~pid ~tid:0 in
  Trace.to_strings (Trace_set.symtab ts) tr

let test_sendrecv_trace_name () =
  let outcome =
    R.run ~np:2 (fun env ->
        let peer = 1 - R.pid env in
        ignore (Api.sendrecv env ~dst:peer ~src:peer [| 1 |]))
  in
  let names = trace_names outcome ~pid:0 in
  Alcotest.(check bool) "MPI_Sendrecv recorded" true
    (List.mem "MPI_Sendrecv" names);
  Alcotest.(check bool) "and returned" true (List.mem "ret MPI_Sendrecv" names)

let test_comm_split_trace_name () =
  let outcome =
    R.run ~np:2 (fun env ->
        ignore (Api.comm_split env ~color:0 ~key:(R.pid env)))
  in
  let names = trace_names outcome ~pid:1 in
  Alcotest.(check bool) "MPI_Comm_split recorded" true
    (List.mem "MPI_Comm_split" names)

let test_explore_reproducible () =
  let program env =
    Api.parallel env ~num_threads:3 (fun tenv ->
        Api.critical tenv (fun () -> ());
        Api.yield tenv)
  in
  let a = Difftrace_simulator.Explore.run ~np:2 ~seeds:[ 3; 1; 2 ] program in
  let b = Difftrace_simulator.Explore.run ~np:2 ~seeds:[ 1; 2; 3 ] program in
  Alcotest.(check bool) "seed order does not matter, results identical" true
    (a = b)

let test_archive_empty_set () =
  let ts = Trace_set.create (Symtab.create ()) [] in
  let dir = tmpdir "empty" in
  Alcotest.(check int) "zero files" 0 (Archive.save ~dir ts);
  Alcotest.(check int) "load empty" 0
    (Trace_set.cardinal (load_set ~dir ()))

let () =
  Alcotest.run "archive+stacktree+collectives"
    [ ( "archive",
        [ Alcotest.test_case "roundtrip" `Quick test_archive_roundtrip;
          Alcotest.test_case "truncation preserved" `Quick
            test_archive_preserves_truncation;
          Alcotest.test_case "offline re-analysis" `Quick
            test_archive_reanalysis_offline;
          Alcotest.test_case "corrupt manifest" `Quick test_archive_corrupt_manifest ] );
      ( "resilience",
        [ Alcotest.test_case "v1 still loads" `Quick test_v1_still_loads;
          Alcotest.test_case "v1 and v2 identical" `Quick test_v1_v2_identical;
          Alcotest.test_case "runner parity" `Quick test_runner_parity;
          Alcotest.test_case "random roundtrips" `Quick test_random_roundtrips;
          Alcotest.test_case "corruption corpus" `Quick test_corruption_corpus;
          Alcotest.test_case "v1 corruption" `Quick test_v1_corruption;
          Alcotest.test_case "manifest bit flips" `Quick test_manifest_bitflip;
          Alcotest.test_case "verify clean" `Quick test_verify_clean;
          Alcotest.test_case "repair" `Quick test_repair;
          Alcotest.test_case "save creates parents" `Quick test_save_creates_parents;
          Alcotest.test_case "save onto a file" `Quick test_save_dir_is_file;
          Alcotest.test_case "v1 length mismatch" `Quick test_v1_length_mismatch;
          Alcotest.test_case "empty stream input" `Quick test_stream_empty_input;
          Alcotest.test_case "untrusted event count" `Quick test_untrusted_event_count;
          Alcotest.test_case "load forces no minor GC" `Quick test_load_minor_gcs;
          Alcotest.test_case "zero-byte trace file" `Quick
            test_zero_byte_trace_file ] );
      ( "stacktree",
        [ Alcotest.test_case "final stack" `Quick test_final_stack_reconstruction;
          Alcotest.test_case "balanced stack" `Quick test_final_stack_balanced;
          Alcotest.test_case "unmatched return" `Quick test_final_stack_unmatched_return;
          Alcotest.test_case "hung run classes" `Quick test_stacktree_hung_run;
          Alcotest.test_case "clean run idle" `Quick test_stacktree_clean_run_all_idle ] );
      ( "collectives",
        [ Alcotest.test_case "allgather" `Quick test_allgather;
          Alcotest.test_case "gather" `Quick test_gather;
          Alcotest.test_case "scatter" `Quick test_scatter;
          Alcotest.test_case "scatter bad buffer" `Quick test_scatter_bad_buffer_hangs;
          Alcotest.test_case "alltoall" `Quick test_alltoall;
          Alcotest.test_case "scan" `Quick test_scan ] );
      ( "api-traces",
        [ Alcotest.test_case "sendrecv name" `Quick test_sendrecv_trace_name;
          Alcotest.test_case "comm_split name" `Quick test_comm_split_trace_name;
          Alcotest.test_case "explore reproducible" `Quick test_explore_reproducible;
          Alcotest.test_case "empty archive" `Quick test_archive_empty_set ] );
      ( "communicators",
        [ Alcotest.test_case "split groups" `Quick test_comm_split_groups;
          Alcotest.test_case "key ordering" `Quick test_comm_split_key_orders_members;
          Alcotest.test_case "allgather order" `Quick test_comm_split_allgather_order;
          Alcotest.test_case "misrouted rank hangs" `Quick
            test_comm_mismatched_split_hangs ] ) ]

