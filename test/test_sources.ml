(* Trace sources: a store-backed archive compare or vdiff verifies,
   instead of decoding, every trace whose summary its store already
   filed under the trace's source key, and a store-backed query loads
   the event DB its manifest names after checking the traces. Every
   case here holds those paths against the full one: the same report,
   B-score and suspects as a compare of the same traces handed over in
   memory, the same query and vdiff answers as a storeless session,
   the same archive error on damage, a miss for every changed
   derivation or filter, and the full path for manifests written
   before the stream digest existed. With or without a store, a thread
   whose stream digest repeats an earlier one's in its manifest is
   verified, not decoded: the [repeats] group holds those runs to the
   in-memory answers and their damage to a full load's errors. *)

open Difftrace
module F = Difftrace_filter.Filter
module Prng = Difftrace_util.Prng
module Framed = Difftrace_util.Framed
module Eventdb = Difftrace_eventdb.Eventdb
module P = Serve.Protocol

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let fresh_dir name =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) ("difftrace_sources_" ^ name)
  in
  rm_rf dir;
  dir

let read_file path = In_channel.with_open_bin path In_channel.input_all

let write_file path s =
  Out_channel.with_open_bin path (fun oc -> Out_channel.output_string oc s)

let copy_dir ~src ~dst =
  rm_rf dst;
  Sys.mkdir dst 0o755;
  Array.iter
    (fun f ->
      write_file (Filename.concat dst f) (read_file (Filename.concat src f)))
    (Sys.readdir src)

let ok what = function
  | Ok v -> v
  | Error e -> Alcotest.failf "%s: %s" what (Session.error_to_string e)

let store_of dir =
  match Store.load ~dir with
  | Ok st -> st
  | Error e -> Alcotest.fail (Store.error_to_string e)

(* counters only move while telemetry is enabled; always restore *)
let with_telemetry f =
  Telemetry.reset ();
  Telemetry.enable ();
  Fun.protect f ~finally:(fun () ->
      Telemetry.disable ();
      Telemetry.reset ())

let counter name = Telemetry.Counter.value (Telemetry.Counter.make name)
let decoded () = counter "parlot.traces.decoded"
let verified () = counter "parlot.traces.verified"
let source_hits () = counter "store.source_hits"
let source_misses () = counter "store.source_misses"

let sources st = List.assoc "sources" (Store.stats st).Store.kinds

let archive_source dir = Session.Archive { dir; salvage = false }

let request ~normal ~faulty =
  { Session.cp_normal = normal; cp_faulty = faulty; cp_diffnlr = None }

(* one compare or analyze through a fresh session over [store] (none:
   storeless), flushed like a CLI invocation *)
let run_compare ?store ~style config req =
  let st = Option.map store_of store in
  let s = Session.create ?store:st () in
  let r =
    (match style with `Compare -> Session.compare | `Analyze -> Session.analyze)
      s config req
  in
  ignore (ok "flush" (Session.flush s));
  (st, r)

let same_answer what (a : Session.compare_response) (b : Session.compare_response) =
  Alcotest.(check string) (what ^ ": report") a.Session.cp_output b.Session.cp_output;
  Alcotest.(check bool) (what ^ ": B-score bits") true
    (Int64.bits_of_float a.Session.cp_bscore
    = Int64.bits_of_float b.Session.cp_bscore);
  Alcotest.(check bool) (what ^ ": suspects") true
    (a.Session.cp_suspects = b.Session.cp_suspects)

let run_of name ~np ~seed fault =
  match Workloads.Catalog.run name ~np ~seed ~fault with
  | Some o -> o.Runtime.traces
  | None -> Alcotest.failf "no workload %s" name

let oddeven_pair () =
  ( run_of "oddeven" ~np:8 ~seed:1 Fault.No_fault,
    run_of "oddeven" ~np:8 ~seed:2 (Fault.Swap_send_recv { rank = 3; after_iter = 2 })
  )

(* the pair archived under [dir]/normal and [dir]/faulty *)
let archive_pair dir (normal, faulty) =
  Sys.mkdir dir 0o755;
  let save name ts =
    let d = Filename.concat dir name in
    ignore (Archive.save ~dir:d ts);
    d
  in
  (save "normal" normal, save "faulty" faulty)

(* --- differential oracle ------------------------------------------------ *)

(* small random runs with random faults: oddeven, heat and ilcs *)
let random_case rng =
  let pick l = List.nth l (Prng.int rng (List.length l)) in
  let np = 3 + Prng.int rng 4 in
  let rank = Prng.int rng np and after_iter = Prng.int rng 4 in
  let name, fault =
    match Prng.int rng 3 with
    | 0 ->
      ( "oddeven",
        pick
          [ Fault.Swap_send_recv { rank; after_iter };
            Fault.Deadlock_recv { rank; after_iter };
            Fault.No_fault ] )
    | 1 ->
      ( "heat",
        pick
          [ Fault.Swap_send_recv { rank; after_iter };
            Fault.Wrong_collective_size { rank };
            Fault.No_critical { rank; thread = 1 } ] )
    | _ ->
      ( "ilcs",
        pick
          [ Fault.No_critical { rank; thread = 1 };
            Fault.Wrong_collective_size { rank };
            Fault.Wrong_collective_op { rank } ] )
  in
  let seed = 1 + Prng.int rng 1000 in
  let config =
    if name = "oddeven" then Config.default
    else Config.make ~filter:(F.of_spec "11.mpiall.ompall") ()
  in
  ( Printf.sprintf "%s np=%d seed=%d %s" name np seed (Fault.to_string fault),
    config,
    (run_of name ~np ~seed Fault.No_fault, run_of name ~np ~seed:(seed + 1) fault) )

(* distinct stream digests over [sets] together *)
let distinct_streams sets =
  let seen = Hashtbl.create 16 in
  List.iter
    (fun ts ->
      Array.iter
        (fun tr ->
          Hashtbl.replace seen (Trace.stream_digest (Trace_set.symtab ts) tr) ())
        (Trace_set.traces ts))
    sets;
  Hashtbl.length seen

(* what an archive compare of [normal] and [faulty] decodes: the first
   copy of each stream of each run *)
let first_copies (normal, faulty) =
  distinct_streams [ normal ] + distinct_streams [ faulty ]

(* The same request twice per temperature, once with archive sources
   (the indexed path) on one copy of a store and once with in-memory
   sources (the full path) on another: equal answers cold and warm,
   and a warm repeat decodes at most the one diffNLR trace per run. *)
let test_oracle () =
  let rng = Prng.create 29 in
  let root = fresh_dir "oracle" in
  Sys.mkdir root 0o755;
  for case = 0 to 5 do
    let what, config, ((normal, faulty) as pair) = random_case rng in
    let dir = Filename.concat root (string_of_int case) in
    let n_dir, f_dir = archive_pair dir pair in
    let via_archive = Filename.concat dir "store-archive"
    and via_traces = Filename.concat dir "store-traces" in
    let style = if case mod 2 = 0 then `Compare else `Analyze in
    let storeless =
      ok what
        (snd
           (run_compare ~style config
              (request ~normal:(Session.Traces normal) ~faulty:(Session.Traces faulty))))
    in
    List.iter
      (fun temperature ->
        let what = Printf.sprintf "%s, %s" what temperature in
        with_telemetry @@ fun () ->
        let st, a =
          run_compare ~store:via_archive ~style config
            (request ~normal:(archive_source n_dir) ~faulty:(archive_source f_dir))
        in
        let a = ok what a in
        let decodes = decoded () in
        let _, b =
          run_compare ~store:via_traces ~style config
            (request ~normal:(Session.Traces normal) ~faulty:(Session.Traces faulty))
        in
        same_answer what a (ok what b);
        let traces = Trace_set.cardinal normal + Trace_set.cardinal faulty in
        Alcotest.(check int) (what ^ ": one source per distinct stream")
          (distinct_streams [ normal; faulty ])
          (sources (Option.get st));
        if temperature = "warm" then begin
          Alcotest.(check bool) (what ^ ": at most one decode per run") true
            (decodes <= 2);
          Alcotest.(check int) (what ^ ": every trace verified") traces
            (verified ());
          Alcotest.(check int) (what ^ ": every source a hit") traces
            (source_hits ())
        end)
      [ "cold"; "warm" ];
    (* loop labels depend on what the store saw before, so the storeless
       answer matches in everything but those *)
    let _, warm =
      run_compare ~store:via_archive ~style config
        (request ~normal:(archive_source n_dir) ~faulty:(archive_source f_dir))
    in
    let warm = ok what warm in
    Alcotest.(check bool) (what ^ ": storeless B-score") true
      (storeless.Session.cp_bscore = warm.Session.cp_bscore
      && storeless.Session.cp_suspects = warm.Session.cp_suspects)
  done

(* two filters that differ only in a custom regex never share a source *)
let test_custom_regex_keys () =
  let root = fresh_dir "regex" in
  let pair = oddeven_pair () in
  let n_dir, f_dir = archive_pair root pair in
  let store = Filename.concat root "store" in
  let config re = Config.make ~filter:(F.of_spec ~custom:[ re ] "11.cust") () in
  let req = request ~normal:(archive_source n_dir) ~faulty:(archive_source f_dir) in
  List.iter
    (fun re ->
      with_telemetry @@ fun () ->
      let _, warm = run_compare ~store ~style:`Compare (config re) req in
      let _, cold = run_compare ~style:`Compare (config re) req in
      Alcotest.(check int) (re ^ ": no source shared") 0 (source_hits ());
      Alcotest.(check int) (re ^ ": every first copy decoded, twice")
        (2 * first_copies pair) (decoded ());
      Alcotest.(check bool) (re ^ ": storeless answer") true
        ((ok re warm).Session.cp_bscore = (ok re cold).Session.cp_bscore))
    [ "MPI_S.*"; "MPI_R.*" ];
  let st = store_of store in
  let normal, faulty = pair in
  Alcotest.(check int) "a source per stream and filter"
    (2 * distinct_streams [ normal; faulty ])
    (sources st);
  Alcotest.(check bool) "distinct keys" true
    (Store.source_key (config "a") ~stream:"s"
    <> Store.source_key (config "b") ~stream:"s")

(* bumping the sources kind's derivation turns exactly the source
   records into misses: every summary still comes from the memo, and
   the answer is the cold one *)
let test_derivation_bump () =
  let root = fresh_dir "derivation" in
  let pair = oddeven_pair () in
  let n_dir, f_dir = archive_pair root pair in
  let store = Filename.concat root "store" in
  let req = request ~normal:(archive_source n_dir) ~faulty:(archive_source f_dir) in
  let cold = ok "cold" (snd (run_compare ~store ~style:`Compare Config.default req)) in
  let saved = !Store.source_derivation in
  Fun.protect
    ~finally:(fun () -> Store.source_derivation := saved)
    (fun () ->
      Store.source_derivation := saved ^ "+bumped";
      with_telemetry @@ fun () ->
      let bumped = ok "bumped" (snd (run_compare ~store ~style:`Compare Config.default req)) in
      same_answer "bumped" cold bumped;
      Alcotest.(check int) "no source hit" 0 (source_hits ());
      Alcotest.(check int) "every source a miss" 16 (source_misses ());
      Alcotest.(check int) "no summary recomputed" 0 (counter "nlr.summaries");
      Alcotest.(check int) "every first copy a memo hit" (first_copies pair)
        (counter "memo.hits");
      (* and the diffNLR trace, which is a repeat in one run *)
      Alcotest.(check int) "every first copy decoded" (first_copies pair + 1)
        (decoded ()));
  with_telemetry @@ fun () ->
  let again = ok "again" (snd (run_compare ~store ~style:`Compare Config.default req)) in
  same_answer "restored" cold again;
  Alcotest.(check int) "the old records hit again" 16 (source_hits ())

(* --- damage parity -------------------------------------------------------- *)

let flip_byte path pos =
  let s = Bytes.of_string (read_file path) in
  Bytes.set s pos (Char.chr (Char.code (Bytes.get s pos) lxor 0x10));
  write_file path (Bytes.to_string s)

(* a different hex digit in the first thread line's digest *)
let flip_digest_char path =
  let s = read_file path in
  let rec find i =
    if String.sub s i 8 = "\nthread " then i + 1 else find (i + 1)
  in
  let eol = String.index_from s (find 0) '\n' in
  let pos = eol - 1 in
  let c = if s.[pos] = '0' then '1' else '0' in
  write_file path (String.mapi (fun i x -> if i = pos then c else x) s)

(* Every damage a storeless compare refuses, a warm store-backed one
   refuses with the same error, adding no source entry. *)
let test_damage_parity () =
  let root = fresh_dir "damage" in
  Sys.mkdir root 0o755;
  let n_dir, f_dir = archive_pair (Filename.concat root "pristine") (oddeven_pair ()) in
  let store = Filename.concat root "store" in
  let req n f = request ~normal:(archive_source n) ~faulty:(archive_source f) in
  ignore (ok "warm-up" (snd (run_compare ~store ~style:`Analyze Config.default (req n_dir f_dir))));
  let store_bytes = read_file (Filename.concat store "analysis.store") in
  let filed = sources (store_of store) in
  (* not a suspect of the swapBug at rank 3, so the only read of its
     file in a warm analyze is the checksum check *)
  let trace dir = Archive.trace_file dir ~pid:6 ~tid:0 in
  let cases =
    [ ("flipped chunk byte", fun dir ->
          let p = trace dir in
          flip_byte p (String.length (read_file p) / 2));
      ("truncated trace file", fun dir ->
          let p = trace dir in
          let s = read_file p in
          write_file p (String.sub s 0 (String.length s - 3)));
      ("deleted trace file", fun dir -> Sys.remove (trace dir));
      ("flipped manifest digest character", fun dir ->
          flip_digest_char (Archive.manifest_file dir)) ]
  in
  List.iter
    (fun (what, damage) ->
      let dir = Filename.concat root "damaged" in
      copy_dir ~src:f_dir ~dst:dir;
      damage dir;
      let expect =
        match snd (run_compare ~style:`Analyze Config.default (req n_dir dir)) with
        | Error e -> e
        | Ok _ -> Alcotest.failf "%s: a storeless analyze accepted it" what
      in
      with_telemetry @@ fun () ->
      let st, warm = run_compare ~store ~style:`Analyze Config.default (req n_dir dir) in
      (match warm with
      | Ok _ -> Alcotest.failf "%s: a warm analyze accepted it" what
      | Error e ->
        Alcotest.(check string) (what ^ ": error kind") (Session.error_kind expect)
          (Session.error_kind e);
        Alcotest.(check string) (what ^ ": error text")
          (Session.error_to_string expect) (Session.error_to_string e));
      Alcotest.(check bool) (what ^ ": the intact run was verified") true
        (source_hits () >= 8);
      Alcotest.(check int) (what ^ ": no source added") filed (sources (Option.get st));
      Alcotest.(check bool) (what ^ ": the store file is untouched") true
        (read_file (Filename.concat store "analysis.store") = store_bytes))
    cases

(* --- archives written before the stream digest ------------------------- *)

let fixture name = Filename.concat (Filename.concat "fixtures" "v2_nodigest") name

(* A parent-written v2 archive pair without digests: it loads, a
   store-backed analyze decodes every trace cold and warm and files no
   source, and the reports equal the storeless one and that of the same
   traces re-saved with digests. *)
let test_nodigest_fixture () =
  let n_dir = fixture "normal" and f_dir = fixture "faulty" in
  let loaded dir =
    match Archive.load ~dir () with
    | Ok l -> l
    | Error e -> Alcotest.fail (Archive.error_to_string e)
  in
  List.iter
    (fun dir ->
      let l = loaded dir in
      Alcotest.(check int) (dir ^ ": v2") 2 l.Archive.version;
      Alcotest.(check int) (dir ^ ": traces") 4 (Trace_set.cardinal l.Archive.set);
      match Archive.open_index ~dir with
      | Ok ix ->
        Alcotest.(check bool) (dir ^ ": no digest") true
          (Array.for_all (fun th -> th.Archive.th_digest = None) ix.Archive.ix_threads)
      | Error e -> Alcotest.fail (Archive.error_to_string e))
    [ n_dir; f_dir ];
  let root = fresh_dir "nodigest" in
  Sys.mkdir root 0o755;
  let store = Filename.concat root "store" in
  let req n f = request ~normal:(archive_source n) ~faulty:(archive_source f) in
  let storeless = ok "storeless" (snd (run_compare ~style:`Analyze Config.default (req n_dir f_dir))) in
  List.iter
    (fun temperature ->
      with_telemetry @@ fun () ->
      let st, r = run_compare ~store ~style:`Analyze Config.default (req n_dir f_dir) in
      same_answer temperature storeless (ok temperature r);
      Alcotest.(check int) (temperature ^ ": every trace decoded") 8 (decoded ());
      Alcotest.(check int) (temperature ^ ": nothing verified only") 0 (verified ());
      Alcotest.(check int) (temperature ^ ": no source") 0 (sources (Option.get st)))
    [ "cold"; "warm" ];
  let resaved = archive_pair (Filename.concat root "resaved")
      ((loaded n_dir).Archive.set, (loaded f_dir).Archive.set)
  in
  let r = ok "resaved" (snd (run_compare ~style:`Analyze Config.default (req (fst resaved) (snd resaved)))) in
  same_answer "re-saved with digests" storeless r

(* --- repeated streams ---------------------------------------------------- *)

(* the benchmark's ilcs and lulesh shapes, small: many threads over few
   streams *)
let repeat_cases () =
  let ilcs fault =
    (fst (Workloads.Ilcs.run ~np:8 ~workers:2 ~seed:1 ~fault ())).Runtime.traces
  in
  let lulesh fault = (Workloads.Lulesh.run ~edge:2 ~seed:1 ~fault ()).Runtime.traces in
  [ ( "ilcs np=8 x 2",
      Config.make
        ~filter:(F.of_spec ~custom:[ "CPU_Exec|CPU_Init|memcpy" ] "11.mpiall.ompall.cust")
        ~attrs:(Attributes.of_name "doub.actual") (),
      (ilcs Fault.No_fault, ilcs (Fault.Wrong_collective_size { rank = 2 })) );
    ( "lulesh edge=2",
      Config.make ~filter:(F.of_spec "11.all") (),
      ( lulesh Fault.No_fault,
        lulesh (Fault.Skip_function { rank = 2; func = "LagrangeLeapFrog" }) ) ) ]

(* A storeless archive compare or analyze decodes the first copy of
   each stream of each run, and at most the diffNLR trace of each run
   besides; it verifies every other trace, and answers byte for byte
   what the same traces handed over in memory answer, on either
   engine. *)
let test_repeats_oracle () =
  let root = fresh_dir "repeats" in
  Sys.mkdir root 0o755;
  List.iteri
    (fun c (what, config, ((normal, faulty) as pair)) ->
      let n_dir, f_dir = archive_pair (Filename.concat root (string_of_int c)) pair in
      let traces = Trace_set.cardinal normal + Trace_set.cardinal faulty in
      let firsts = first_copies pair in
      Alcotest.(check bool) (what ^ ": streams repeat") true (firsts < traces);
      List.iter
        (fun (engine, style) ->
          let config = Config.with_engine engine config in
          let what =
            Printf.sprintf "%s, %s, %s" what (Engine.to_string engine)
              (match style with `Compare -> "compare" | `Analyze -> "analyze")
          in
          let expect =
            ok what
              (snd
                 (run_compare ~style config
                    (request ~normal:(Session.Traces normal)
                       ~faulty:(Session.Traces faulty))))
          in
          with_telemetry @@ fun () ->
          let got =
            snd
              (run_compare ~style config
                 (request ~normal:(archive_source n_dir) ~faulty:(archive_source f_dir)))
          in
          same_answer what expect (ok what got);
          let d = decoded () in
          Alcotest.(check bool)
            (Printf.sprintf "%s: %d decoded, %d first copies" what d firsts)
            true
            (firsts <= d && d <= firsts + 2);
          Alcotest.(check int) (what ^ ": every other trace verified")
            (traces - firsts) (verified ()))
        (List.concat_map
           (fun engine -> [ (engine, `Compare); (engine, `Analyze) ])
           [ Engine.sequential; Engine.parallel ~domains:2 () ]))
    (repeat_cases ())

(* [count] as the event count of manifest thread [i], resealed *)
let set_manifest_count dir i count =
  let path = Archive.manifest_file dir in
  let body =
    match Framed.unseal (read_file path) with
    | Ok body -> body
    | Error _ -> Alcotest.fail "unsealed manifest"
  in
  let k = ref (-1) in
  let line l =
    match String.split_on_char ' ' l with
    | "thread" :: p :: t :: state :: _ :: digest ->
      incr k;
      if !k <> i then l
      else String.concat " " ("thread" :: p :: t :: state :: string_of_int count :: digest)
    | _ -> l
  in
  write_file path
    (Framed.seal (String.concat "\n" (List.map line (String.split_on_char '\n' body))))

(* Damage to a thread whose stream an earlier thread of its run has is
   refused, storeless or against a cold store, with the error a full
   load of the archive reports. *)
let test_repeat_damage () =
  let root = fresh_dir "repeat_damage" in
  Sys.mkdir root 0o755;
  let _, config, pair = List.hd (repeat_cases ()) in
  let n_dir, f_dir = archive_pair (Filename.concat root "pristine") pair in
  let ix =
    match Archive.open_index ~dir:f_dir with
    | Ok ix -> ix
    | Error e -> Alcotest.fail (Archive.error_to_string e)
  in
  let threads = ix.Archive.ix_threads in
  (* the first thread that repeats an earlier thread's digest *)
  let i =
    let seen = Hashtbl.create 16 in
    let rec go i =
      let d = threads.(i).Archive.th_digest in
      if Hashtbl.mem seen d then i
      else begin
        Hashtbl.add seen d ();
        go (i + 1)
      end
    in
    go 0
  in
  let th = threads.(i) in
  let trace dir = Archive.trace_file dir ~pid:th.Archive.th_pid ~tid:th.Archive.th_tid in
  let cases =
    [ ("flipped chunk byte", fun dir ->
          let p = trace dir in
          flip_byte p (String.length (read_file p) / 2));
      ("truncated trace file", fun dir ->
          let p = trace dir in
          let s = read_file p in
          write_file p (String.sub s 0 (String.length s - 3)));
      ("deleted trace file", fun dir -> Sys.remove (trace dir));
      ("changed manifest count", fun dir ->
          set_manifest_count dir i (th.Archive.th_length + 1)) ]
  in
  List.iter
    (fun (what, damage) ->
      let dir = Filename.concat root "damaged" in
      copy_dir ~src:f_dir ~dst:dir;
      damage dir;
      let expect =
        match Archive.load ~dir () with
        | Error e -> Session.error_to_string (Session.Archive_failed e)
        | Ok _ -> Alcotest.failf "%s: a full load accepted it" what
      in
      List.iter
        (fun store ->
          let store = Option.map (Filename.concat root) store in
          Option.iter rm_rf store;
          match
            snd
              (run_compare ?store ~style:`Analyze config
                 (request ~normal:(archive_source n_dir) ~faulty:(archive_source dir)))
          with
          | Ok _ -> Alcotest.failf "%s: an analyze accepted it" what
          | Error e ->
            Alcotest.(check string) (what ^ ": error text") expect
              (Session.error_to_string e))
        [ None; Some "store" ])
    cases

(* --- query and vdiff --------------------------------------------------- *)

let queries ~against =
  [ ("count MPI_Send", None);
    ("list MPI_Recv on 3 limit 5", None);
    ("threads", None);
    ("diverge on 3", Some against) ]

let query_text s config (q, against) source =
  (ok q
     (Session.query s config
        { Session.qy_text = q;
          qy_source = archive_source source;
          qy_against = Option.map archive_source against }))
    .Session.qy_output

(* the first half of [dirs] clean, the rest faulty *)
let vdiff_request dirs =
  let n = List.length dirs in
  { Session.vd_runs =
      List.mapi
        (fun i dir ->
          let bad = i >= n / 2 in
          { Session.vdr_name = Printf.sprintf "run%d" i;
            vdr_source = archive_source dir;
            vdr_axes = [ ("fault", if bad then "swap" else "none") ];
            vdr_bad = bad })
        dirs;
    vd_trace = None }

let vdiff_text s config dirs =
  (ok "vdiff" (Session.vdiff s config (vdiff_request dirs))).Session.vd_output

(* two clean and two faulty 8-rank oddeven runs, archived under [root] *)
let four_runs root =
  Sys.mkdir root 0o755;
  List.mapi
    (fun i fault ->
      let dir = Filename.concat root (Printf.sprintf "run%d" i) in
      ignore (Archive.save ~dir (run_of "oddeven" ~np:8 ~seed:(i + 1) fault));
      dir)
    [ Fault.No_fault;
      Fault.No_fault;
      Fault.Swap_send_recv { rank = 3; after_iter = 2 };
      Fault.Swap_send_recv { rank = 3; after_iter = 2 } ]

(* one query and one vdiff per temperature through a fresh session on
   [store]: the storeless answers byte for byte; [check] sees each
   temperature's counters *)
let session_rounds ~store ~storeless_q ~storeless_v ~normal ~against dirs check =
  List.iter
    (fun temperature ->
      let s = Session.create ~store:(store_of store) () in
      with_telemetry (fun () ->
          List.iter2
            (fun q expect ->
              Alcotest.(check string)
                (Printf.sprintf "%s query %s" temperature (fst q))
                expect (query_text s Config.default q normal))
            (queries ~against) storeless_q;
          check temperature `Query);
      with_telemetry (fun () ->
          Alcotest.(check string) (temperature ^ " vdiff") storeless_v
            (vdiff_text s Config.default dirs);
          check temperature `Vdiff);
      ignore (ok "flush" (Session.flush s)))
    [ "cold"; "warm" ]

(* Store-backed query and vdiff answer exactly what a storeless session
   answers, cold and warm. Warm, a query decodes no trace and loads its
   event DB, and a vdiff decodes at most the one aligned trace of each
   run it footnotes and computes no JSM. *)
let test_query_vdiff_oracle () =
  let root = fresh_dir "query_vdiff" in
  let dirs = four_runs root in
  let normal = List.hd dirs and against = List.nth dirs 2 in
  let fresh = Session.create () in
  let storeless_q =
    List.map (fun q -> query_text fresh Config.default q normal) (queries ~against)
  in
  let storeless_v = vdiff_text (Session.create ()) Config.default dirs in
  let runs = List.length dirs in
  session_rounds ~store:(Filename.concat root "store") ~storeless_q ~storeless_v
    ~normal ~against dirs (fun temperature op ->
      if temperature = "warm" then
        match op with
        | `Query ->
          Alcotest.(check int) "warm query: nothing decoded" 0 (decoded ());
          Alcotest.(check int) "warm query: no build" 0 (counter "eventdb.builds");
          (* four queries, one of them over two runs: five opens of
             two distinct indexes, each loaded once and then taken from
             the session's cache *)
          Alcotest.(check int) "warm query: each index loaded once" 2
            (counter "eventdb.loads");
          Alcotest.(check int) "warm query: every open loaded or cached" 5
            (counter "eventdb.loads" + counter "eventdb.cache_hits");
          Alcotest.(check int) "warm query: every trace verified" (5 * 8)
            (verified ())
        | `Vdiff ->
          Alcotest.(check bool) "warm vdiff: at most one decode per run" true
            (decoded () <= runs);
          Alcotest.(check int) "warm vdiff: no JSM" 0 (counter "jsm.cells");
          Alcotest.(check int) "warm vdiff: every trace verified" (runs * 8)
            (verified ());
          Alcotest.(check int) "warm vdiff: nothing summarized" 0
            (counter "nlr.summaries"))

(* the same requests as RPC lines through a store-backed daemon *)
let test_query_vdiff_daemon () =
  let root = fresh_dir "query_vdiff_daemon" in
  let dirs = four_runs root in
  let normal = List.hd dirs and against = List.nth dirs 2 in
  let fresh = Session.create () in
  let expected =
    List.map (fun q -> query_text fresh Config.default q normal) (queries ~against)
    @ [ vdiff_text (Session.create ()) Config.default dirs ]
  in
  let src dir = P.Src_archive { dir; salvage = false } in
  let calls =
    List.map
      (fun (q, a) ->
        P.Query
          { rq_q = q;
            rq_source = src normal;
            rq_against = Option.map src a;
            rq_config = P.default_config })
      (queries ~against)
    @ [ P.Vdiff
          { rq_runs =
              List.map
                (fun (r : Session.vdiff_run) ->
                  { P.vs_name = r.Session.vdr_name;
                    vs_source =
                      (match r.Session.vdr_source with
                      | Session.Archive { dir; _ } -> src dir
                      | _ -> assert false);
                    vs_axes = r.Session.vdr_axes;
                    vs_bad = r.Session.vdr_bad })
                (vdiff_request dirs).Session.vd_runs;
            rq_trace = None;
            rq_config = P.default_config } ]
  in
  let d =
    Serve.Daemon.create ~store:(store_of (Filename.concat root "store"))
      ~default_engine:Engine.sequential ()
  in
  List.iter
    (fun temperature ->
      List.iteri
        (fun i (call, expect) ->
          let response = ref "" in
          let emit (Serve.Daemon.Send { line; _ }) = response := line in
          ignore
            (Serve.Daemon.on_line d ~client:0 ~emit
               (P.encode_request { P.req_id = string_of_int i; req_call = call }));
          match P.decode_response !response with
          | Ok { P.rsp_body = Ok payload; _ } ->
            Alcotest.(check string)
              (Printf.sprintf "%s request %d" temperature i)
              expect (P.payload_output payload)
          | _ -> Alcotest.failf "%s request %d: %s" temperature i !response)
        (List.combine calls expected))
    [ "cold"; "warm" ]

(* Damage a warm store-backed query or vdiff meets is refused with the
   storeless error, though the event DB, the summaries and the sources
   of the intact archive all exist. *)
let test_query_vdiff_damage () =
  let root = fresh_dir "query_vdiff_damage" in
  let dirs = four_runs root in
  let normal = List.hd dirs and against = List.nth dirs 2 in
  let store = Filename.concat root "store" in
  let s = Session.create ~store:(store_of store) () in
  List.iter
    (fun q -> ignore (query_text s Config.default q normal))
    (queries ~against);
  ignore (vdiff_text s Config.default dirs);
  ignore (ok "flush" (Session.flush s));
  let store_bytes = read_file (Filename.concat store "analysis.store") in
  (* the clean run's rank 6, whose trace no footer decodes *)
  let p = Archive.trace_file normal ~pid:6 ~tid:0 in
  let pristine = read_file p in
  flip_byte p (String.length pristine / 2);
  Fun.protect ~finally:(fun () -> write_file p pristine) @@ fun () ->
  let same what storeless warm =
    match (storeless, warm) with
    | Error a, Error b ->
      Alcotest.(check string) (what ^ ": error kind") (Session.error_kind a)
        (Session.error_kind b);
      Alcotest.(check string) (what ^ ": error text") (Session.error_to_string a)
        (Session.error_to_string b)
    | _ -> Alcotest.failf "%s: damage accepted" what
  in
  let query s =
    Session.query s Config.default
      { Session.qy_text = "count MPI_Send";
        qy_source = archive_source normal;
        qy_against = None }
  in
  let vdiff s = Session.vdiff s Config.default (vdiff_request dirs) in
  with_telemetry (fun () ->
      let warm = Session.create ~store:(store_of store) () in
      same "query" (query (Session.create ())) (query warm);
      same "vdiff" (vdiff (Session.create ())) (vdiff warm);
      Alcotest.(check int) "the warm query found its index" 0
        (counter "eventdb.builds");
      ignore (ok "flush" (Session.flush warm)));
  Alcotest.(check bool) "the store file is untouched" true
    (read_file (Filename.concat store "analysis.store") = store_bytes)

(* a damaged event DB that the manifest names is rebuilt from the
   decoded run, with the same answer, and healed *)
let test_damaged_index_rebuilt () =
  let root = fresh_dir "query_damaged_index" in
  let dirs = four_runs root in
  let normal = List.hd dirs in
  let store = Filename.concat root "store" in
  let q = ("list MPI_Recv on 3 limit 5", None) in
  let expect = query_text (Session.create ()) Config.default q normal in
  let warm () =
    query_text (Session.create ~store:(store_of store) ()) Config.default q normal
  in
  ignore (warm ());
  let edb = Filename.concat store "eventdb" in
  Array.iter
    (fun f ->
      let p = Filename.concat edb f in
      flip_byte p (String.length (read_file p) / 2))
    (Sys.readdir edb);
  with_telemetry (fun () ->
      Alcotest.(check string) "damaged index: same answer" expect (warm ());
      Alcotest.(check int) "rebuilt" 1 (counter "eventdb.builds");
      Alcotest.(check int) "decoded" 8 (decoded ()));
  with_telemetry (fun () ->
      Alcotest.(check string) "healed: same answer" expect (warm ());
      Alcotest.(check int) "healed: loaded" 1 (counter "eventdb.loads");
      Alcotest.(check int) "healed: nothing decoded" 0 (decoded ()))

(* the event DB of [dir]'s run, as a store-backed query names it *)
let index_of ~store dir =
  match Archive.load ~dir () with
  | Ok l ->
    Eventdb.index_file
      ~dir:(Filename.concat store "eventdb")
      ~digest:(Eventdb.digest l.Archive.set)
  | Error e -> Alcotest.fail (Archive.error_to_string e)

(* A damaged index is read once: the failed load is followed by a build
   from the decoded run under the name already in hand, not by a second
   read. The intact index of the other run loads, both then answer
   from the session's cache, and the rebuilt file loads clean. *)
let test_damaged_index_read_once () =
  let root = fresh_dir "query_damaged_once" in
  let dirs = four_runs root in
  let normal = List.hd dirs and against = List.nth dirs 2 in
  let store = Filename.concat root "store" in
  let q = ("diverge on 3", Some against) in
  let expect = query_text (Session.create ()) Config.default q normal in
  let session () = Session.create ~store:(store_of store) () in
  ignore (query_text (session ()) Config.default q normal);
  let damaged = index_of ~store normal in
  flip_byte damaged (String.length (read_file damaged) / 2);
  let s = session () in
  with_telemetry (fun () ->
      Alcotest.(check string) "same answer" expect
        (query_text s Config.default q normal);
      Alcotest.(check (list int)) "failed loads, builds, loads, cache hits"
        [ 1; 1; 1; 0 ]
        (List.map counter
           [ "eventdb.damaged"; "eventdb.builds"; "eventdb.loads";
             "eventdb.cache_hits" ]));
  with_telemetry (fun () ->
      Alcotest.(check string) "cached: same answer" expect
        (query_text s Config.default q normal);
      Alcotest.(check (list int)) "cached: builds, loads, cache hits"
        [ 0; 0; 2 ]
        (List.map counter [ "eventdb.builds"; "eventdb.loads"; "eventdb.cache_hits" ]);
      Alcotest.(check int) "cached: every trace verified" 16 (verified ()));
  with_telemetry (fun () ->
      Alcotest.(check string) "healed: same answer" expect
        (query_text (session ()) Config.default q normal);
      Alcotest.(check (list int)) "healed: failed loads, loads" [ 0; 2 ]
        (List.map counter [ "eventdb.damaged"; "eventdb.loads" ]))

(* A session's event-DB cache holds [Session.eventdb_budget] events,
   read when the session is created; a budget of one DB keeps the last
   one opened only. *)
let with_budget budget f =
  let saved = !Session.eventdb_budget in
  Session.eventdb_budget := budget;
  Fun.protect ~finally:(fun () -> Session.eventdb_budget := saved) f

let events_of dir =
  match Archive.load ~dir () with
  | Ok l -> Trace_set.total_events l.Archive.set
  | Error e -> Alcotest.fail (Archive.error_to_string e)

let test_budget_evicts () =
  let root = fresh_dir "query_budget" in
  let dirs = four_runs root in
  let a = List.hd dirs and b = List.nth dirs 2 in
  let store = Filename.concat root "store" in
  let q = ("count MPI_Send", None) in
  ignore (query_text (Session.create ~store:(store_of store) ()) Config.default q a);
  ignore (query_text (Session.create ~store:(store_of store) ()) Config.default q b);
  let opens budget =
    with_budget budget (fun () ->
        let s = Session.create ~store:(store_of store) () in
        with_telemetry (fun () ->
            List.iter (fun d -> ignore (query_text s Config.default q d)) [ a; b; a ];
            List.map counter [ "eventdb.loads"; "eventdb.cache_hits" ]))
  in
  let one = max (events_of a) (events_of b) in
  Alcotest.(check (list int)) "room for both: a cached" [ 2; 1 ]
    (opens (events_of a + events_of b));
  Alcotest.(check (list int)) "room for one: a evicted" [ 3; 0 ] (opens one);
  Alcotest.(check (list int)) "no room: nothing kept" [ 3; 0 ] (opens (one - 1))

(* --- differential property: one session, random query sequences ------- *)

(* Four archives: three distinct oddeven runs and a byte copy of the
   first, whose index has the first's digest. *)
let query_pool =
  lazy
    (let root = fresh_dir "query_property" in
     Sys.mkdir root 0o755;
     let save i fault =
       let dir = Filename.concat root (Printf.sprintf "run%d" i) in
       ignore (Archive.save ~dir (run_of "oddeven" ~np:6 ~seed:(i + 1) fault));
       dir
     in
     let swap = Fault.Swap_send_recv { rank = 2; after_iter = 1 } in
     let a = save 0 Fault.No_fault and b = save 1 Fault.No_fault in
     let c = save 2 swap in
     let copy = Filename.concat root "copy0" in
     copy_dir ~src:a ~dst:copy;
     (root, [| a; b; c; copy |]))

let property_queries =
  [| "count MPI_Send"; "count MPI_Recv on 3"; "count nosuch";
     "list MPI_Recv on 1 limit 3"; "list MPI_Send in 10..40 limit 4";
     "list MPI_Send on 99"; "threads"; "loops"; "loops on 2"; "diverge";
     "diverge on 2"; "diverge on 42" |]

type query_op =
  | Ask of { text : string; src : int; against : int }
  | Delete_indexes
  | Corrupt_indexes

let show_op = function
  | Ask { text; src; against } -> Printf.sprintf "%S %d/%d" text src against
  | Delete_indexes -> "delete"
  | Corrupt_indexes -> "corrupt"

let query_case_gen =
  QCheck2.Gen.(
    let* budget = oneofl [ `Default; `One_db; `Zero ] in
    let* k = int_range 2 4 in
    let* order = shuffle_l [ 0; 1; 2; 3 ] in
    let archives = List.filteri (fun i _ -> i < k) order in
    let ask =
      let* text = oneofa property_queries in
      let* src = oneofl archives in
      let* against = oneofl archives in
      return (Ask { text; src; against })
    in
    let* ops =
      list_size (int_range 1 10)
        (frequency [ (8, ask); (1, return Delete_indexes); (1, return Corrupt_indexes) ])
    in
    return (budget, ops))

let print_query_case (budget, ops) =
  Printf.sprintf "%s: %s"
    (match budget with `Default -> "default" | `One_db -> "one DB" | `Zero -> "zero")
    (String.concat "; " (List.map show_op ops))

let answer_of = function
  | Ok (r : Session.query_response) ->
    Printf.sprintf "ok %s %d\n%s" r.Session.qy_kind r.Session.qy_size
      r.Session.qy_output
  | Error e ->
    Printf.sprintf "error %s: %s" (Session.error_kind e) (Session.error_to_string e)

(* One store-backed session answers a random sequence of queries over
   two to four archives, with its indexes deleted or damaged between
   queries and its cache at the default budget, one DB's worth or
   nothing; every answer is a fresh storeless session's, byte for
   byte, one that keeps no index. *)
let prop_query_sequence =
  let storeless = Hashtbl.create 64 in
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:60 ~name:"random query sequences = storeless"
       ~print:print_query_case query_case_gen (fun (budget, ops) ->
         let root, pool = Lazy.force query_pool in
         let request text src against =
           { Session.qy_text = text;
             qy_source = archive_source pool.(src);
             qy_against = Some (archive_source pool.(against)) }
         in
         let expected text src against =
           let key = (text, src, against) in
           match Hashtbl.find_opt storeless key with
           | Some a -> a
           | None ->
             (* with no cache, so the oracle opens every index afresh *)
             let a =
               with_budget 0 (fun () ->
                   answer_of
                     (Session.query (Session.create ()) Config.default
                        (request text src against)))
             in
             Hashtbl.add storeless key a;
             a
         in
         let store = Filename.concat root "store" in
         rm_rf store;
         let indexes () =
           let dir = Filename.concat store "eventdb" in
           if Sys.file_exists dir then
             List.map (Filename.concat dir) (Array.to_list (Sys.readdir dir))
           else []
         in
         let budget =
           match budget with
           | `Default -> !Session.eventdb_budget
           | `One_db -> Array.fold_left (fun n d -> max n (events_of d)) 0 pool
           | `Zero -> 0
         in
         with_budget budget (fun () ->
             let s = Session.create ~store:(store_of store) () in
             List.for_all
               (function
                 | Ask { text; src; against } ->
                   let got =
                     answer_of (Session.query s Config.default (request text src against))
                   in
                   got = expected text src against
                   || QCheck2.Test.fail_reportf "%S on %d/%d:\n%s\nstoreless:\n%s"
                        text src against got (expected text src against)
                 | Delete_indexes ->
                   List.iter Sys.remove (indexes ());
                   true
                 | Corrupt_indexes ->
                   List.iter
                     (fun p -> flip_byte p (String.length (read_file p) / 2))
                     (indexes ());
                   true)
               ops)))

(* the digest-less fixture takes the decode path for query and vdiff,
   cold and warm, with the storeless answers *)
let test_nodigest_query_vdiff () =
  let n_dir = fixture "normal" and f_dir = fixture "faulty" in
  let root = fresh_dir "nodigest_query" in
  Sys.mkdir root 0o755;
  let dirs = [ n_dir; f_dir ] in
  let fresh = Session.create () in
  let qs = [ ("count MPI_Send", None); ("diverge", Some f_dir) ] in
  let storeless_q = List.map (fun q -> query_text fresh Config.default q n_dir) qs in
  let storeless_v = vdiff_text (Session.create ()) Config.default dirs in
  List.iter
    (fun temperature ->
      let s = Session.create ~store:(store_of (Filename.concat root "store")) () in
      with_telemetry (fun () ->
          List.iter2
            (fun q expect ->
              Alcotest.(check string) (temperature ^ " " ^ fst q) expect
                (query_text s Config.default q n_dir))
            qs storeless_q;
          Alcotest.(check int) (temperature ^ ": every queried trace decoded") 12
            (decoded ());
          Alcotest.(check int) (temperature ^ ": nothing verified only") 0
            (verified ()));
      with_telemetry (fun () ->
          Alcotest.(check string) (temperature ^ " vdiff") storeless_v
            (vdiff_text s Config.default dirs);
          Alcotest.(check int) (temperature ^ ": every vdiff trace decoded") 8
            (decoded ()));
      ignore (ok "flush" (Session.flush s)))
    [ "cold"; "warm" ]

(* an event DB's name is computable from the manifest of its archive *)
let test_eventdb_digest_of_manifest () =
  let root = fresh_dir "edb_digest" in
  Sys.mkdir root 0o755;
  List.iteri
    (fun i ts ->
      let dir = Filename.concat root (string_of_int i) in
      ignore (Archive.save ~dir ts);
      let loaded =
        match Archive.load ~dir () with
        | Ok l -> l.Archive.set
        | Error e -> Alcotest.fail (Archive.error_to_string e)
      in
      let ix =
        match Archive.open_index ~dir with
        | Ok ix -> ix
        | Error e -> Alcotest.fail (Archive.error_to_string e)
      in
      let of_manifest =
        Eventdb.digest_of ~symbols:ix.Archive.ix_symbols
          (Array.map
             (fun (th : Archive.thread) ->
               ( th.Archive.th_pid,
                 th.Archive.th_tid,
                 th.Archive.th_truncated,
                 Option.get th.Archive.th_digest ))
             ix.Archive.ix_threads)
      in
      Alcotest.(check string) (Printf.sprintf "set %d" i) (Eventdb.digest loaded)
        of_manifest;
      Alcotest.(check string) (Printf.sprintf "set %d, before saving" i)
        (Eventdb.digest ts) of_manifest)
    [ run_of "oddeven" ~np:8 ~seed:1 Fault.No_fault;
      run_of "heat" ~np:4 ~seed:1
        (Fault.Swap_send_recv { rank = 1; after_iter = 1 });
      run_of "oddeven" ~np:6 ~seed:3
        (Fault.Deadlock_recv { rank = 2; after_iter = 1 }) ]

(* --- stream digest ------------------------------------------------------ *)

(* the digest names the stream, not its symbol table's order *)
let test_digest_ignores_symtab_order () =
  let events names = List.map (fun n -> `C n) names in
  let build order stream =
    let symtab = Symtab.create () in
    List.iter (fun n -> ignore (Symtab.intern symtab n)) order;
    let evs =
      Array.of_list
        (List.map (function `C n -> Event.Call (Symtab.intern symtab n)) stream)
    in
    Trace.stream_digest symtab (Trace.make ~pid:0 ~tid:0 ~truncated:false evs)
  in
  let s = events [ "MPI_Init"; "f"; "MPI_Send"; "f"; "MPI_Finalize" ] in
  let a = build [ "MPI_Init"; "f"; "MPI_Send"; "MPI_Finalize" ] s in
  let b = build [ "MPI_Finalize"; "MPI_Send"; "zzz"; "f"; "MPI_Init" ] s in
  Alcotest.(check string) "reordered table, same digest" (Digest.to_hex a) (Digest.to_hex b);
  let c = build [] (events [ "MPI_Init"; "g"; "MPI_Send"; "g"; "MPI_Finalize" ]) in
  Alcotest.(check bool) "renamed call, other digest" true (a <> c);
  let d = build [] (events [ "MPI_Init"; "f"; "MPI_Send"; "MPI_Finalize"; "f" ]) in
  Alcotest.(check bool) "reordered calls, other digest" true (a <> d)

let () =
  Alcotest.run "sources"
    [ ( "digest",
        [ Alcotest.test_case "independent of symbol-table order" `Quick
            test_digest_ignores_symtab_order ] );
      ( "oracle",
        [ Alcotest.test_case "archive = in-memory sources, cold and warm" `Quick
            test_oracle;
          Alcotest.test_case "custom regexes never share a source" `Quick
            test_custom_regex_keys;
          Alcotest.test_case "a bumped derivation misses only sources" `Quick
            test_derivation_bump ] );
      ( "damage",
        [ Alcotest.test_case "warm errors equal storeless ones" `Quick
            test_damage_parity ] );
      ( "old archives",
        [ Alcotest.test_case "v2 without digests decodes in full" `Quick
            test_nodigest_fixture;
          Alcotest.test_case "query and vdiff without digests" `Quick
            test_nodigest_query_vdiff ] );
      ( "repeats",
        [ Alcotest.test_case "storeless archive = in-memory sources" `Quick
            test_repeats_oracle;
          Alcotest.test_case "damage to a repeat equals a full load's" `Quick
            test_repeat_damage ] );
      ( "query-vdiff",
        [ Alcotest.test_case "storeless answers, cold and warm" `Quick
            test_query_vdiff_oracle;
          Alcotest.test_case "storeless answers through the daemon" `Quick
            test_query_vdiff_daemon;
          Alcotest.test_case "warm errors equal storeless ones" `Quick
            test_query_vdiff_damage;
          Alcotest.test_case "a damaged index is rebuilt" `Quick
            test_damaged_index_rebuilt;
          Alcotest.test_case "a damaged index is read once" `Quick
            test_damaged_index_read_once;
          Alcotest.test_case "the cache budget evicts" `Quick test_budget_evicts;
          prop_query_sequence;
          Alcotest.test_case "event-DB digest from the manifest" `Quick
            test_eventdb_digest_of_manifest ] ) ]
