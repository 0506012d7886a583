(* Persistent analysis store: round-trip fidelity, flush determinism,
   the corruption corpus (salvage-never-crash discipline, mirroring
   test_archive.ml), gc/eviction accounting, and the read-only verify
   scan. The invariant behind every case: whatever the store's state —
   cold, warm, damaged, garbage — analysis results are bit-identical
   to a storeless run. *)

open Difftrace
module Fault = Difftrace_simulator.Fault
module R = Difftrace_simulator.Runtime
module F = Difftrace_filter.Filter
module Odd_even = Difftrace_workloads.Odd_even
module Prng = Difftrace_util.Prng

let tmpdir name =
  let dir = Filename.concat (Filename.get_temp_dir_name ()) ("difftrace_store_" ^ name) in
  if Sys.file_exists dir then
    Array.iter (fun f -> Sys.remove (Filename.concat dir f)) (Sys.readdir dir);
  dir

let store_path dir = Filename.concat dir "analysis.store"
let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let flip_bit path ~byte ~bit =
  let s = Bytes.of_string (read_file path) in
  Bytes.set s byte (Char.chr (Char.code (Bytes.get s byte) lxor (1 lsl bit)));
  write_file path (Bytes.to_string s)

let truncate_file path ~keep =
  write_file path (String.sub (read_file path) 0 keep)

let get = function
  | Ok v -> v
  | Error e -> Alcotest.fail (Store.error_to_string e)

let sample_traces () =
  let outcome, _ = Odd_even.run ~np:4 ~fault:Fault.No_fault () in
  outcome.R.traces

let config () = Config.make ~filter:(F.make []) ()

(* one analyzed-and-flushed store on disk; returns its directory *)
let make_store name ts =
  let dir = tmpdir name in
  let st = get (Store.load ~dir) in
  ignore (Pipeline.analyze ~store:st (config ()) ts);
  get (Store.flush st);
  dir

let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun ra rb ->
         Array.length ra = Array.length rb
         && Array.for_all2
              (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
              ra rb)
       a b

let jsm_equal (a : Jsm.t) (b : Jsm.t) =
  a.Jsm.labels = b.Jsm.labels && bits_equal (Jsm.rows a) (Jsm.rows b)

(* counters only move while telemetry is enabled; always restore *)
let with_telemetry f =
  Telemetry.reset ();
  Telemetry.enable ();
  Fun.protect f ~finally:(fun () ->
      Telemetry.disable ();
      Telemetry.reset ())

(* one kind's count out of a per-kind list *)
let count name counts = List.assoc name counts

let c_crc_fail = Telemetry.Counter.make "store.crc_fail"
let c_evictions = Telemetry.Counter.make "store.evictions"
let c_summaries = Telemetry.Counter.make "nlr.summaries"

(* ------------------------------------------------------------------ *)
(* Round trip                                                          *)
(* ------------------------------------------------------------------ *)

let test_roundtrip_warm_all_hit () =
  let ts = sample_traces () in
  let cold = Pipeline.analyze (config ()) ts in
  let dir = make_store "roundtrip" ts in
  let st = get (Store.load ~dir) in
  let s = Store.stats st in
  Alcotest.(check bool) "has summaries" true (s.Store.summaries > 0);
  Alcotest.(check bool) "clean load" false s.Store.salvaged;
  Alcotest.(check bool) "file on disk" true (s.Store.file_bytes > 0);
  with_telemetry (fun () ->
      let warm = Pipeline.analyze ~store:st (config ()) ts in
      let ms = Memo.stats (Store.memo st) in
      Alcotest.(check int) "every lookup a memo hit" 0 ms.Memo.misses;
      Alcotest.(check bool) "summaries served from disk" true (ms.Memo.hits > 0);
      Alcotest.(check int) "zero summarizations on the warm run" 0
        (Telemetry.Counter.value c_summaries);
      Alcotest.(check bool) "warm JSM bit-identical" true
        (jsm_equal cold.Pipeline.jsm warm.Pipeline.jsm))

let test_warm_flush_is_noop () =
  let ts = sample_traces () in
  let dir = make_store "warmnoop" ts in
  let image = read_file (store_path dir) in
  let st = get (Store.load ~dir) in
  ignore (Pipeline.analyze ~store:st (config ()) ts);
  get (Store.flush st);
  Alcotest.(check bool) "fully warm run leaves the file untouched" true
    (read_file (store_path dir) = image)

let test_flush_deterministic () =
  let ts = sample_traces () in
  let a = make_store "det_a" ts in
  let b = make_store "det_b" ts in
  Alcotest.(check bool) "same work renders the same bytes" true
    (read_file (store_path a) = read_file (store_path b))

let test_cold_start_missing () =
  let dir = tmpdir "coldmiss" in
  let st = get (Store.load ~dir) in
  let s = Store.stats st in
  Alcotest.(check int) "no summaries" 0 s.Store.summaries;
  Alcotest.(check int) "no file yet" 0 s.Store.file_bytes

(* ------------------------------------------------------------------ *)
(* Corruption corpus                                                   *)
(* ------------------------------------------------------------------ *)

(* every mutation of a valid store must load Ok — salvaged or cold,
   never an exception — and keep analysis bit-identical to storeless *)
let test_corruption_corpus () =
  let ts = sample_traces () in
  let reference = Pipeline.analyze (config ()) ts in
  let prng = Prng.create 42 in
  for case = 0 to 29 do
    let dir = make_store (Printf.sprintf "corpus_%d" case) ts in
    let victim = store_path dir in
    let size = String.length (read_file victim) in
    let what =
      match case mod 3 with
      | 0 ->
        let byte = Prng.int prng size in
        flip_bit victim ~byte ~bit:(Prng.int prng 8);
        Printf.sprintf "bit flip @%d" byte
      | 1 ->
        let keep = Prng.int prng size in
        truncate_file victim ~keep;
        Printf.sprintf "truncate to %d" keep
      | _ ->
        let n = 1 + Prng.int prng 16 in
        write_file victim
          (read_file victim
          ^ String.init n (fun _ -> Char.chr (Prng.int prng 256)));
        Printf.sprintf "append %d garbage bytes" n
    in
    let ctx = Printf.sprintf "case %d (%s)" case what in
    match Store.load ~dir with
    | Error e -> Alcotest.fail (ctx ^ ": " ^ Store.error_to_string e)
    | exception e -> Alcotest.fail (ctx ^ ": raised " ^ Printexc.to_string e)
    | Ok st ->
      let a = Pipeline.analyze ~store:st (config ()) ts in
      Alcotest.(check bool)
        (ctx ^ ": analysis unaffected by damage")
        true
        (jsm_equal reference.Pipeline.jsm a.Pipeline.jsm)
  done

let test_crc_fail_accounting () =
  let ts = sample_traces () in
  let dir = make_store "crcfail" ts in
  let victim = store_path dir in
  (* flip a bit well past the magic so framing, not magic, catches it *)
  flip_bit victim ~byte:(String.length (read_file victim) - 3) ~bit:0;
  with_telemetry (fun () ->
      let before = Telemetry.Counter.value c_crc_fail in
      let st = get (Store.load ~dir) in
      Alcotest.(check int) "store.crc_fail counted" (before + 1)
        (Telemetry.Counter.value c_crc_fail);
      Alcotest.(check bool) "load reports salvage" true
        (Store.stats st).Store.salvaged)

let test_salvage_rewrites_clean () =
  let ts = sample_traces () in
  let dir = make_store "salvage_rw" ts in
  let victim = store_path dir in
  truncate_file victim ~keep:(String.length (read_file victim) - 2);
  let st = get (Store.load ~dir) in
  Alcotest.(check bool) "salvaged" true (Store.stats st).Store.salvaged;
  (* a salvaged store is dirty: the next flush rewrites a clean file *)
  get (Store.flush st);
  let st2 = get (Store.load ~dir) in
  Alcotest.(check bool) "clean after rewrite" false
    (Store.stats st2).Store.salvaged;
  let c = get (Store.verify ~dir) in
  Alcotest.(check bool) "verify agrees" true (c.Store.c_damage = None)

let test_stale_version_is_cold () =
  let ts = sample_traces () in
  let dir = make_store "stale" ts in
  let victim = store_path dir in
  let image = read_file victim in
  write_file victim
    ("difftrace-store 0\n"
    ^ String.sub image 18 (String.length image - 18));
  let st = get (Store.load ~dir) in
  let s = Store.stats st in
  Alcotest.(check int) "unknown version adopts nothing" 0 s.Store.summaries;
  Alcotest.(check bool) "flagged as salvaged" true s.Store.salvaged

let test_empty_file_is_cold () =
  let ts = sample_traces () in
  let dir = make_store "emptyfile" ts in
  write_file (store_path dir) "";
  let st = get (Store.load ~dir) in
  Alcotest.(check int) "cold" 0 (Store.stats st).Store.summaries;
  Alcotest.(check bool) "salvaged flag set" true (Store.stats st).Store.salvaged

let test_foreign_file_ignored () =
  let ts = sample_traces () in
  let dir = make_store "foreign" ts in
  write_file (Filename.concat dir "foreign.bin") "not a store record\n";
  let st = get (Store.load ~dir) in
  let s = Store.stats st in
  Alcotest.(check bool) "store still loads" true (s.Store.summaries > 0);
  Alcotest.(check bool) "clean — foreign files are not store damage" false
    s.Store.salvaged;
  get (Store.flush st);
  Alcotest.(check bool) "foreign file left alone" true
    (Sys.file_exists (Filename.concat dir "foreign.bin"))

let test_dir_is_a_file () =
  let path =
    Filename.concat (Filename.get_temp_dir_name ()) "difftrace_store_plainfile"
  in
  write_file path "just a file\n";
  match Store.load ~dir:path with
  | Ok _ -> Alcotest.fail "loaded a store rooted at a regular file"
  | Error e ->
    Alcotest.(check bool) "diagnostic names the path" true
      (let s = Store.error_to_string e in
       String.length s > 0)

(* A CRC-valid record whose loop runs fewer than two times: no
   reduction writes one, so it is damage — the load salvages the
   records before it instead of adopting an "L0^0" loop. *)
let test_short_loop_record_salvaged () =
  let ts = sample_traces () in
  let reference = Pipeline.analyze (config ()) ts in
  let record tag fill =
    let b = Buffer.create 32 in
    Buffer.add_char b (Char.chr tag);
    fill b;
    Buffer.contents b
  in
  List.iter
    (fun (name, payload) ->
      let dir = make_store "shortloop" ts in
      let victim = store_path dir in
      let clean = Store.stats (get (Store.load ~dir)) in
      Alcotest.(check bool) (name ^ ": the store has a body to cite") true
        (clean.Store.loop_bodies > 0);
      let image = Buffer.create 4096 in
      Buffer.add_string image (read_file victim);
      Difftrace_util.Framed.add_record image payload;
      write_file victim (Buffer.contents image);
      match Store.load ~dir with
      | Error e -> Alcotest.fail (name ^ ": " ^ Store.error_to_string e)
      | exception e -> Alcotest.fail (name ^ ": raised " ^ Printexc.to_string e)
      | Ok st ->
        let s = Store.stats st in
        Alcotest.(check bool) (name ^ ": salvaged") true s.Store.salvaged;
        Alcotest.(check int) (name ^ ": summaries kept") clean.Store.summaries
          s.Store.summaries;
        Alcotest.(check int) (name ^ ": bodies kept") clean.Store.loop_bodies
          s.Store.loop_bodies;
        let a = Pipeline.analyze ~store:st (config ()) ts in
        Alcotest.(check bool) (name ^ ": analysis unaffected") true
          (jsm_equal reference.Pipeline.jsm a.Pipeline.jsm))
    [ ( "summary with count 0",
        record 3 (fun b ->
            Buffer.add_string b (String.make 16 'x');
            Difftrace_util.Varint.write b 0;
            Difftrace_util.Varint.write b 2;
            Nlr.write_elems b [| Nlr.Loop { body = 0; count = 0 } |]) );
      ( "body with count 1",
        record 2 (fun b -> Nlr.write_elems b [| Nlr.Sym 0; Nlr.Loop { body = 0; count = 1 } |]) ) ]

(* A tag-4 record (a JSM matrix, a retired kind) appended to a valid
   store: well-formed, it loads clean and is dropped, and the next flush
   rewrites exactly the store it was appended to; damaged, it is a
   salvage point like any other record. *)
let test_retired_matrix_record () =
  let ts = sample_traces () in
  let matrix ~cells =
    let b = Buffer.create 64 in
    Buffer.add_char b '\004';
    Buffer.add_string b (String.make 16 'n');
    Difftrace_util.Varint.write b 0;
    Difftrace_util.Varint.write b 2;
    List.iter
      (fun label ->
        Difftrace_util.Varint.write b (String.length label);
        Buffer.add_string b label;
        Buffer.add_string b (String.make 16 'd'))
      [ "0"; "1" ];
    for _ = 1 to cells do
      Buffer.add_int64_le b (Int64.bits_of_float 0.5)
    done;
    Buffer.contents b
  in
  List.iter
    (fun (name, payload, damaged) ->
      let dir = make_store "retired" ts in
      let victim = store_path dir in
      let clean = read_file victim in
      let image = Buffer.create 4096 in
      Buffer.add_string image clean;
      Difftrace_util.Framed.add_record image payload;
      write_file victim (Buffer.contents image);
      let c = get (Store.verify ~dir) in
      Alcotest.(check bool) (name ^ ": verify") damaged (c.Store.c_damage <> None);
      let st = get (Store.load ~dir) in
      Alcotest.(check bool) (name ^ ": salvaged") damaged (Store.stats st).Store.salvaged;
      Alcotest.(check bool) (name ^ ": analysis unaffected") true
        (jsm_equal (Pipeline.analyze (config ()) ts).Pipeline.jsm
           (Pipeline.analyze ~store:st (config ()) ts).Pipeline.jsm);
      get (Store.flush st);
      Alcotest.(check bool) (name ^ ": the flush drops it") true
        (read_file victim = clean))
    [ ("well-formed", matrix ~cells:3, false);
      ("truncated cells", matrix ~cells:2, true) ]

(* ------------------------------------------------------------------ *)
(* Gc / eviction                                                       *)
(* ------------------------------------------------------------------ *)

let test_gc_and_eviction_accounting () =
  let ts = sample_traces () in
  let dir = make_store "gc" ts in
  let st = get (Store.load ~dir) in
  let s0 = Store.stats st in
  with_telemetry (fun () ->
      let before = Telemetry.Counter.value c_evictions in
      let dropped = Store.gc ~keep:[ ("summaries", 1) ] st in
      Alcotest.(check int) "summaries dropped" (s0.Store.summaries - 1)
        (count "summaries" dropped);
      Alcotest.(check int) "store.evictions counted"
        (before + List.fold_left (fun n (_, d) -> n + d) 0 dropped)
        (Telemetry.Counter.value c_evictions));
  get (Store.flush st);
  let st2 = get (Store.load ~dir) in
  let s1 = Store.stats st2 in
  Alcotest.(check int) "one summary survives on disk" 1 s1.Store.summaries;
  (* a gc'd store is still just a cache: analysis repopulates it *)
  let a = Pipeline.analyze ~store:st2 (config ()) ts in
  Alcotest.(check bool) "analysis unaffected" true
    (jsm_equal (Pipeline.analyze (config ()) ts).Pipeline.jsm a.Pipeline.jsm);
  get (Store.flush st2);
  let s2 = Store.stats (get (Store.load ~dir)) in
  Alcotest.(check int) "summaries repopulated" s0.Store.summaries
    s2.Store.summaries

(* A sketch run over a store: cold it matches a storeless sketch run,
   warm it summarizes nothing and lands on the same matrix bit for bit,
   and the file holds no tag-4 (matrix) or tag-5 (MinHash signature)
   record — the JSM and the class signatures are recomputed on every
   run, never persisted. *)
let test_warm_sketch_bit_identical () =
  let ts = sample_traces () in
  let sketch_config = Config.with_mode Config.Sketch (config ()) in
  let dir = tmpdir "sketch" in
  let st = get (Store.load ~dir) in
  let cold = Pipeline.analyze ~store:st sketch_config ts in
  get (Store.flush st);
  Alcotest.(check bool) "cold store run = storeless sketch run" true
    (jsm_equal (Pipeline.analyze sketch_config ts).Pipeline.jsm
       cold.Pipeline.jsm);
  with_telemetry (fun () ->
      let warm = Pipeline.analyze ~store:(get (Store.load ~dir)) sketch_config ts in
      Alcotest.(check bool) "warm sketch JSM bit-identical" true
        (jsm_equal cold.Pipeline.jsm warm.Pipeline.jsm);
      Alcotest.(check int) "zero summarizations on the warm run" 0
        (Telemetry.Counter.value c_summaries));
  let tags, damage =
    Difftrace_util.Framed.fold ~magic:"difftrace-store 1\n"
      (read_file (store_path dir)) ~init:[] ~f:(fun acc p ->
        Ok (Char.code p.[0] :: acc))
  in
  Alcotest.(check bool) "file intact" true (damage = None);
  Alcotest.(check bool) "no matrix record written" false (List.mem 4 tags);
  Alcotest.(check bool) "no signature record written" false (List.mem 5 tags)

(* vdiff records age like every other kind: [flush] holds them to the
   default cap of 64, and [gc] to an explicit one, newest kept *)
let test_vdiff_retention () =
  let dir = tmpdir "vdiffs" in
  let st = get (Store.load ~dir) in
  let key i = Digest.string (Printf.sprintf "vdiff %d" i) in
  for i = 0 to 69 do
    Store.add_vdiff st ~key:(key i) ~nruns:2 [| ("MPI_Init", [ 0; 1 ]) |]
  done;
  get (Store.flush st);
  let st = get (Store.load ~dir) in
  Alcotest.(check int) "flush keeps the default 64" 64
    (count "vdiffs" (Store.stats st).Store.kinds);
  Alcotest.(check bool) "the oldest aged out" true
    (Store.find_vdiff st ~key:(key 5) = None);
  Alcotest.(check bool) "the newest survives" true
    (Store.find_vdiff st ~key:(key 69) <> None);
  Alcotest.(check int) "gc drops all but one" 63
    (count "vdiffs" (Store.gc ~keep:[ ("vdiffs", 1) ] st));
  get (Store.flush st);
  let st = get (Store.load ~dir) in
  Alcotest.(check int) "gc cap holds on disk" 1
    (count "vdiffs" (Store.stats st).Store.kinds);
  Alcotest.(check bool) "and it is the newest" true
    (Store.find_vdiff st ~key:(key 69) <> None)

(* a source record appended after the summaries: naming one of them it
   is adopted, naming no summary of the file it is damage, salvaged *)
let test_source_reference () =
  let ts = sample_traces () in
  let source ~summary =
    let b = Buffer.create 40 in
    Buffer.add_char b '\007';
    Buffer.add_string b (String.make 16 's');
    Difftrace_util.Varint.write b 0;
    Buffer.add_string b summary;
    Buffer.contents b
  in
  let known dir =
    Option.get
      (Memo.fold (Store.memo (get (Store.load ~dir))) ~init:None ~f:(fun key _ _ ->
           Some key))
  in
  List.iter
    (fun (name, summary_of, damaged) ->
      let dir = make_store "source_ref" ts in
      let summary = summary_of dir in
      let victim = store_path dir in
      let image = Buffer.create 4096 in
      Buffer.add_string image (read_file victim);
      Difftrace_util.Framed.add_record image (source ~summary);
      write_file victim (Buffer.contents image);
      let c = get (Store.verify ~dir) in
      Alcotest.(check bool) (name ^ ": verify") damaged (c.Store.c_damage <> None);
      let st = get (Store.load ~dir) in
      Alcotest.(check bool) (name ^ ": salvaged") damaged (Store.stats st).Store.salvaged;
      Alcotest.(check int) (name ^ ": sources adopted") (if damaged then 0 else 1)
        (count "sources" (Store.stats st).Store.kinds);
      Alcotest.(check bool) (name ^ ": lookup") (not damaged)
        (Store.find_source st ~key:(String.make 16 's') = Some (Memo.of_raw summary)))
    [ ("names a summary", known, false);
      ("names no summary", (fun _ -> String.make 16 'x'), true) ]

(* gc, stats and verify each report every kind of the table, in table
   order, and agree on a store holding all three kinds; only the two
   kinds with a cap of their own have one *)
let test_kinds_agree () =
  let dir = tmpdir "kinds" in
  let st = get (Store.load ~dir) in
  let sketch = Config.with_mode Config.Sketch (config ()) in
  ignore (Pipeline.analyze ~store:st sketch (sample_traces ()));
  Store.add_vdiff st ~key:(Digest.string "kinds") ~nruns:2
    [| ("MPI_Init", [ 0; 1 ]) |];
  let summary =
    Memo.fold (Store.memo st) ~init:None ~f:(fun key _ _ -> Some key)
  in
  Store.add_source st ~key:(Digest.string "kinds source")
    (Memo.of_raw (Option.get summary));
  get (Store.flush st);
  let st = get (Store.load ~dir) in
  let names = List.map (fun (name, _, _) -> name) Store.kinds in
  Alcotest.(check (list string)) "the two capped kinds" [ "summaries"; "vdiffs" ]
    names;
  let all = [ "summaries"; "sources"; "vdiffs" ] in
  let s = Store.stats st in
  let c = get (Store.verify ~dir) in
  let dropped = Store.gc st in
  Alcotest.(check (list string)) "stats names every kind" all
    (List.map fst s.Store.kinds);
  Alcotest.(check (list string)) "verify names every kind" all
    (List.map fst c.Store.c_kinds);
  Alcotest.(check (list string)) "gc names every kind" all
    (List.map fst dropped);
  Alcotest.(check bool) "every kind present" true
    (List.for_all (fun (_, n) -> n > 0) s.Store.kinds);
  Alcotest.(check (list (pair string int))) "stats and verify agree"
    s.Store.kinds c.Store.c_kinds;
  Alcotest.(check bool) "default caps drop nothing" true
    (List.for_all (fun (_, n) -> n = 0) dropped);
  Alcotest.check_raises "sources take no cap"
    (Invalid_argument "Store.gc: unknown record kind sources") (fun () ->
      ignore (Store.gc ~keep:[ ("sources", 0) ] st))

(* a source rides its summary's cap: evicting every summary drops every
   source with it, and a reload finds neither *)
let test_sources_ride_summaries () =
  let dir = tmpdir "ride" in
  let st = get (Store.load ~dir) in
  ignore (Pipeline.analyze ~store:st (config ()) (sample_traces ()));
  Memo.fold (Store.memo st) ~init:() ~f:(fun key _ () ->
      Store.add_source st ~key:(Digest.string ("source " ^ key)) (Memo.of_raw key));
  get (Store.flush st);
  let st = get (Store.load ~dir) in
  let n = count "summaries" (Store.stats st).Store.kinds in
  Alcotest.(check int) "a source per summary" n
    (count "sources" (Store.stats st).Store.kinds);
  let dropped = Store.gc ~keep:[ ("summaries", 0) ] st in
  Alcotest.(check (list (pair string int))) "both dropped"
    [ ("summaries", n); ("sources", n); ("vdiffs", 0) ]
    dropped;
  get (Store.flush st);
  let c = get (Store.verify ~dir) in
  Alcotest.(check (option string)) "verifies clean" None c.Store.c_damage;
  Alcotest.(check (list (pair string int))) "neither on disk"
    [ ("summaries", 0); ("sources", 0); ("vdiffs", 0) ]
    c.Store.c_kinds

(* store gc removes an ingest-cache temp directory whose writer is gone
   and leaves one whose writer still runs *)
let test_orphan_ingests () =
  let dir = tmpdir "orphans" in
  let ingest = Filename.concat dir "ingest" in
  let rec rm path =
    if Sys.file_exists path then
      if Sys.is_directory path then begin
        Array.iter (fun f -> rm (Filename.concat path f)) (Sys.readdir path);
        Sys.rmdir path
      end
      else Sys.remove path
  in
  rm ingest;
  (match Difftrace_util.Framed.mkdir_p ingest with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  (* a child that has exited and been reaped: its pid runs no more *)
  let dead =
    let pid =
      Unix.create_process "true" [| "true" |] Unix.stdin Unix.stdout Unix.stderr
    in
    ignore (Unix.waitpid [] pid);
    pid
  in
  let key = String.make 32 'a' in
  let entry pid =
    let d = Filename.concat ingest (Printf.sprintf "%s.tmp%d" key pid) in
    Sys.mkdir d 0o755;
    write_file (Filename.concat d "manifest") "partial";
    d
  in
  let orphan = entry dead and live = entry (Unix.getpid ()) in
  let finished = Filename.concat ingest key in
  Sys.mkdir finished 0o755;
  let st = get (Store.load ~dir) in
  Alcotest.(check int) "one orphan removed" 1 (Session.remove_orphan_ingests st);
  Alcotest.(check bool) "the dead writer's directory is gone" false
    (Sys.file_exists orphan);
  Alcotest.(check bool) "the live writer's directory stays" true
    (Sys.file_exists live);
  Alcotest.(check bool) "finished entries stay" true (Sys.file_exists finished);
  Alcotest.(check int) "nothing left to remove" 0
    (Session.remove_orphan_ingests st)

(* store gc removes the temporary a writer killed inside
   Framed.write_atomic left in the store or its event-DB directory, and
   leaves one whose writer still runs *)
let test_orphan_temps () =
  let dir = tmpdir "orphan_temps" in
  let edb = Filename.concat dir "eventdb" in
  (match Difftrace_util.Framed.mkdir_p edb with
  | Ok () -> ()
  | Error e -> Alcotest.fail e);
  let dead =
    let pid =
      Unix.create_process "true" [| "true" |] Unix.stdin Unix.stdout Unix.stderr
    in
    ignore (Unix.waitpid [] pid);
    pid
  in
  let temp d name pid =
    let p = Filename.concat d (Printf.sprintf "%s.tmp%d" name pid) in
    write_file p "partial";
    p
  in
  let store_orphan = temp dir "analysis.store" dead in
  let edb_orphan = temp edb (String.make 32 'b' ^ ".edb") dead in
  let live = temp edb (String.make 32 'c' ^ ".edb") (Unix.getpid ()) in
  let not_temp = Filename.concat edb "notes.tmpx" in
  write_file not_temp "x";
  let st = get (Store.load ~dir) in
  Alcotest.(check int) "two orphans removed" 2 (Session.remove_orphan_temps st);
  Alcotest.(check bool) "the store's orphan is gone" false
    (Sys.file_exists store_orphan);
  Alcotest.(check bool) "the event DB's orphan is gone" false
    (Sys.file_exists edb_orphan);
  Alcotest.(check bool) "the live writer's file stays" true (Sys.file_exists live);
  Alcotest.(check bool) "other names stay" true (Sys.file_exists not_temp);
  Alcotest.(check int) "nothing left to remove" 0 (Session.remove_orphan_temps st)

(* summaries gc dropped before they were ever written leave nothing to
   persist: the flush after the first is a no-op, not a rewrite *)
let test_dropped_new_summaries () =
  let dir = tmpdir "dropped_new" in
  let st = get (Store.load ~dir) in
  ignore (Pipeline.analyze ~store:st (config ()) (sample_traces ()));
  ignore (Store.gc ~keep:[ ("summaries", 0) ] st);
  get (Store.flush st);
  let inode () = (Unix.stat (store_path dir)).Unix.st_ino in
  let first = inode () in
  get (Store.flush st);
  Alcotest.(check bool) "second flush leaves the file" true (inode () = first)

let test_gc_rejects_bad_caps () =
  let dir = make_store "badcaps" (sample_traces ()) in
  let st = get (Store.load ~dir) in
  let before = Store.stats st in
  Alcotest.check_raises "negative cap"
    (Invalid_argument "Store.gc: negative cap -1 for summaries") (fun () ->
      ignore (Store.gc ~keep:[ ("vdiffs", 0); ("summaries", -1) ] st));
  Alcotest.check_raises "unknown kind"
    (Invalid_argument "Store.gc: unknown record kind matrices") (fun () ->
      ignore (Store.gc ~keep:[ ("vdiffs", 0); ("matrices", 1) ] st));
  Alcotest.(check bool) "nothing dropped" true (Store.stats st = before)

(* ------------------------------------------------------------------ *)
(* Verify                                                              *)
(* ------------------------------------------------------------------ *)

let test_verify_clean_and_damaged () =
  let ts = sample_traces () in
  let dir = make_store "verify" ts in
  let st = get (Store.load ~dir) in
  let s = Store.stats st in
  let c = get (Store.verify ~dir) in
  Alcotest.(check bool) "no damage" true (c.Store.c_damage = None);
  Alcotest.(check int) "summary count agrees" s.Store.summaries
    (count "summaries" c.Store.c_kinds);
  Alcotest.(check int) "symbol count agrees" s.Store.symbols c.Store.c_symbols;
  Alcotest.(check int) "byte count agrees" s.Store.file_bytes c.Store.c_bytes;
  (* damage the tail: verify must report it without adopting anything *)
  truncate_file (store_path dir) ~keep:(s.Store.file_bytes - 1);
  let d = get (Store.verify ~dir) in
  (match d.Store.c_damage with
  | None -> Alcotest.fail "verify missed the damage"
  | Some _ -> ());
  Alcotest.(check bool) "salvageable prefix counted" true
    (d.Store.c_records < c.Store.c_records);
  (* a missing store verifies as empty, not as an error *)
  let e = get (Store.verify ~dir:(tmpdir "verify_missing")) in
  Alcotest.(check int) "missing store: zero records" 0 e.Store.c_records;
  Alcotest.(check bool) "missing store: no damage" true (e.Store.c_damage = None)

let () =
  Alcotest.run "store"
    [ ( "round-trip",
        [ Alcotest.test_case "warm reload is all-hit and bit-identical" `Quick
            test_roundtrip_warm_all_hit;
          Alcotest.test_case "warm sketch run bit-identical, no signatures"
            `Quick test_warm_sketch_bit_identical;
          Alcotest.test_case "fully warm flush is a no-op" `Quick
            test_warm_flush_is_noop;
          Alcotest.test_case "flush renders deterministically" `Quick
            test_flush_deterministic;
          Alcotest.test_case "missing dir/file is a cold start" `Quick
            test_cold_start_missing ] );
      ( "corruption",
        [ Alcotest.test_case "corpus: flip/truncate/append never crash" `Quick
            test_corruption_corpus;
          Alcotest.test_case "store.crc_fail accounting" `Quick
            test_crc_fail_accounting;
          Alcotest.test_case "salvage rewrites a clean file" `Quick
            test_salvage_rewrites_clean;
          Alcotest.test_case "stale format version falls back cold" `Quick
            test_stale_version_is_cold;
          Alcotest.test_case "empty store file falls back cold" `Quick
            test_empty_file_is_cold;
          Alcotest.test_case "foreign files in the dir are ignored" `Quick
            test_foreign_file_ignored;
          Alcotest.test_case "dir being a regular file is an error" `Quick
            test_dir_is_a_file;
          Alcotest.test_case "re-sealed loop count below 2 salvages" `Quick
            test_short_loop_record_salvaged;
          Alcotest.test_case "retired matrix records drop or salvage" `Quick
            test_retired_matrix_record;
          Alcotest.test_case "a source naming no summary is damage" `Quick
            test_source_reference ] );
      ( "gc",
        [ Alcotest.test_case "gc drops oldest and counts evictions" `Quick
            test_gc_and_eviction_accounting;
          Alcotest.test_case "vdiffs obey flush's and gc's caps" `Quick
            test_vdiff_retention;
          Alcotest.test_case "gc, stats and verify list every kind" `Quick
            test_kinds_agree;
          Alcotest.test_case "sources go with their summaries" `Quick
            test_sources_ride_summaries;
          Alcotest.test_case "gc removes orphaned ingest directories" `Quick
            test_orphan_ingests;
          Alcotest.test_case "gc removes orphaned temporary files" `Quick
            test_orphan_temps;
          Alcotest.test_case "gc rejects negative caps, unknown kinds" `Quick
            test_gc_rejects_bad_caps;
          Alcotest.test_case "dropped new summaries flush once" `Quick
            test_dropped_new_summaries ] );
      ( "verify",
        [ Alcotest.test_case "verify: clean, damaged, missing" `Quick
            test_verify_clean_and_damaged ] ) ]
