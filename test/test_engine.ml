(* Engine + memo tests: the parallel engine must be byte-identical to
   the sequential one across the bundled workloads, and the NLR summary
   cache must hit without ever changing a result. *)

open Difftrace
module R = Difftrace_simulator.Runtime
module Fault = Difftrace_simulator.Fault
module F = Difftrace_filter.Filter
module A = Difftrace_fca.Attributes
module Linkage = Difftrace_cluster.Linkage
module Odd_even = Difftrace_workloads.Odd_even
module Ilcs = Difftrace_workloads.Ilcs

let par4 = Engine.parallel ~domains:4 ()

let oe16_normal =
  lazy (fst (Odd_even.run ~np:16 ~fault:Fault.No_fault ())).R.traces

let oe16_swap =
  lazy
    (fst
       (Odd_even.run ~np:16
          ~fault:(Fault.Swap_send_recv { rank = 5; after_iter = 7 })
          ()))
      .R.traces

let ilcs_normal =
  lazy (fst (Ilcs.run ~np:4 ~workers:2 ~fault:Fault.No_fault ())).R.traces

let ilcs_faulty =
  lazy
    (fst
       (Ilcs.run ~np:4 ~workers:2
          ~fault:(Fault.No_critical { rank = 2; thread = 1 })
          ()))
      .R.traces

(* ------------------------------------------------------------------ *)
(* Engine.init semantics                                               *)
(* ------------------------------------------------------------------ *)

let test_init_parity () =
  let f i = (i * 37) mod 11 in
  List.iter
    (fun n ->
      Alcotest.(check (array int))
        (Printf.sprintf "n=%d" n)
        (Array.init n f) (Engine.init par4 n f))
    [ 0; 1; 2; 7; 64; 1000 ]

let test_init_exception () =
  (* the lowest failing index wins, whatever the schedule did *)
  Alcotest.check_raises "first exception rethrown" (Failure "boom7")
    (fun () ->
      ignore
        (Engine.init par4 64 (fun i ->
             if i >= 7 then failwith (Printf.sprintf "boom%d" i) else i)))

let test_map () =
  let arr = Array.init 100 (fun i -> i) in
  Alcotest.(check (array int)) "map = Array.map"
    (Array.map (fun x -> x * x) arr)
    (Engine.map par4 (fun x -> x * x) arr)

let engine_result =
  Alcotest.(result (testable (Fmt.of_to_string Engine.to_string) ( = )) string)

(* only the parser is exercised: no engine here spawns a domain *)
let test_of_jobs () =
  Alcotest.check engine_result "1 job is sequential" (Ok Engine.Sequential)
    (Engine.of_jobs 1);
  Alcotest.check engine_result "4 jobs" (Ok (Engine.Parallel { domains = 4 }))
    (Engine.of_jobs 4);
  Alcotest.check engine_result "the domain cap"
    (Ok (Engine.Parallel { domains = Engine.max_domains }))
    (Engine.of_jobs Engine.max_domains);
  Alcotest.check engine_result "past the cap"
    (Error "Engine.of_jobs: 129 exceeds 128 domains")
    (Engine.of_jobs (Engine.max_domains + 1));
  (match Engine.of_jobs 0 with
  | Ok (Engine.Parallel { domains }) ->
    Alcotest.(check bool) "auto-detect gives >= 1 domain" true (domains >= 1)
  | _ -> Alcotest.fail "of_jobs 0 should auto-parallelize")

let test_string_roundtrip () =
  Alcotest.check engine_result "seq" (Ok Engine.Sequential)
    (Engine.of_string "seq");
  Alcotest.check engine_result "par:3" (Ok (Engine.Parallel { domains = 3 }))
    (Engine.of_string "par:3");
  List.iter
    (fun e ->
      Alcotest.check engine_result (Engine.to_string e) (Ok e)
        (Engine.of_string (Engine.to_string e)))
    [ Engine.Sequential; par4; Engine.Parallel { domains = 1 } ];
  List.iter
    (fun (s, m) ->
      Alcotest.check engine_result s (Error ("Engine.of_string: " ^ m))
        (Engine.of_string s))
    [ ("bogus", "bogus");
      ("parallel:0", "parallel:0");
      ("par:-2", "par:-2");
      ("PARALLEL:100000", "parallel:100000 exceeds 128 domains");
      ("par:129", "par:129 exceeds 128 domains") ]

(* ------------------------------------------------------------------ *)
(* Config builders                                                     *)
(* ------------------------------------------------------------------ *)

let test_config_builders () =
  let c =
    Config.default
    |> Config.with_k 50
    |> Config.with_linkage Linkage.Average
    |> Config.with_engine par4
    |> Config.with_attrs { A.granularity = A.Double; freq_mode = A.Log10 }
  in
  Alcotest.(check int) "with_k" 50 c.Config.k;
  Alcotest.(check bool) "with_linkage" true (c.Config.linkage = Linkage.Average);
  Alcotest.(check bool) "with_engine" true (c.Config.engine = par4);
  (* the engine is an execution detail: not part of the config name *)
  Alcotest.(check string) "name ignores engine"
    "11.mpiall.K50 / doub.log10 / average" (Config.name c);
  Alcotest.(check bool) "default is sequential" true
    (Config.default.Config.engine = Engine.Sequential)

(* ------------------------------------------------------------------ *)
(* Parallel pipeline == sequential pipeline, byte for byte             *)
(* ------------------------------------------------------------------ *)

let check_comparison_identical name config ~normal ~faulty =
  let cs = Pipeline.compare_runs config ~normal ~faulty in
  let cp =
    Pipeline.compare_runs (Config.with_engine par4 config) ~normal ~faulty
  in
  Alcotest.(check (array string))
    (name ^ ": labels") cs.Pipeline.normal.Pipeline.labels
    cp.Pipeline.normal.Pipeline.labels;
  Alcotest.(check bool)
    (name ^ ": JSM matrices bit-identical") true
    (cs.Pipeline.normal.Pipeline.jsm = cp.Pipeline.normal.Pipeline.jsm
    && cs.Pipeline.faulty.Pipeline.jsm = cp.Pipeline.faulty.Pipeline.jsm
    && cs.Pipeline.jsm_d = cp.Pipeline.jsm_d);
  Alcotest.(check bool)
    (name ^ ": B-score bit-identical") true
    (cs.Pipeline.bscore = cp.Pipeline.bscore);
  Alcotest.(check bool)
    (name ^ ": suspect ranking identical") true
    (cs.Pipeline.suspects = cp.Pipeline.suspects);
  Alcotest.(check string)
    (name ^ ": dendrogram identical")
    (Pipeline.dendrogram cs.Pipeline.faulty)
    (Pipeline.dendrogram cp.Pipeline.faulty);
  let render c =
    match Pipeline.find_diffnlr c (fst c.Pipeline.suspects.(0)) with
    | Ok d -> Difftrace_diff.Diffnlr.render d
    | Error e -> Alcotest.fail (Pipeline.lookup_error_to_string e)
  in
  Alcotest.(check string) (name ^ ": diffNLR identical") (render cs) (render cp)

let test_parallel_identical_oddeven () =
  check_comparison_identical "oddeven16" Config.default
    ~normal:(Lazy.force oe16_normal) ~faulty:(Lazy.force oe16_swap)

let test_parallel_identical_ilcs () =
  let config =
    Config.default
    |> Config.with_filter
         (F.make [ F.Mpi_all; F.Omp_critical; F.Custom "CPU_Exec|memcpy" ])
    |> Config.with_attrs { A.granularity = A.Single; freq_mode = A.Actual }
  in
  check_comparison_identical "ilcs4x2" config ~normal:(Lazy.force ilcs_normal)
    ~faulty:(Lazy.force ilcs_faulty)

let test_parallel_identical_analysis () =
  (* analyze-level check: NLR summaries and the shared loop table *)
  let ts = Lazy.force oe16_normal in
  let a_s = Pipeline.analyze Config.default ts in
  let a_p = Pipeline.analyze (Config.with_engine par4 Config.default) ts in
  let strings a =
    Array.map
      (fun (nlr, _) ->
        String.concat ";" (Difftrace_nlr.Nlr.to_strings a.Pipeline.symtab nlr))
      a.Pipeline.nlrs
  in
  Alcotest.(check (array string)) "NLR summaries identical" (strings a_s)
    (strings a_p);
  Alcotest.(check int) "same loop-table size"
    (Difftrace_nlr.Nlr.Loop_table.size a_s.Pipeline.loop_table)
    (Difftrace_nlr.Nlr.Loop_table.size a_p.Pipeline.loop_table)

(* ------------------------------------------------------------------ *)
(* Memo cache: hits on the autotune grid, never a different answer     *)
(* ------------------------------------------------------------------ *)

let sweep_exn ?filters ?attrs ?ks ?linkages ~normal ~faulty () =
  match Ranking.sweep ?filters ?attrs ?ks ?linkages ~normal ~faulty () with
  | Ok s -> s
  | Error e -> Alcotest.fail (Session.error_to_string e)

let test_autotune_cache_hit_rate () =
  let s =
    sweep_exn ~normal:(Lazy.force oe16_normal) ~faulty:(Lazy.force oe16_swap) ()
  in
  let c = s.Ranking.cache in
  Alcotest.(check bool) "summaries were reused" true (c.Memo.hits > 0);
  Alcotest.(check bool)
    (Printf.sprintf "hit rate %.2f above 0.5" (Memo.hit_rate c))
    true
    (Memo.hit_rate c > 0.5)

let test_autotune_memo_correctness () =
  let normal = Lazy.force oe16_normal and faulty = Lazy.force oe16_swap in
  let shared = Ranking.refine (sweep_exn ~normal ~faulty ()).Ranking.rows in
  (* force every evaluation to miss: a one-configuration sweep owns a
     fresh memo *)
  let sweep_no_reuse =
    List.map
      (fun r ->
        let c = r.Ranking.config in
        match
          (sweep_exn ~filters:[ c.Config.filter ] ~attrs:[ c.Config.attrs ]
             ~ks:[ c.Config.k ] ~linkages:[ c.Config.linkage ] ~normal ~faulty ())
            .Ranking.rows
        with
        | [ fresh ] -> fresh
        | rows -> Alcotest.failf "one configuration gave %d rows" (List.length rows))
      shared
  in
  List.iter2
    (fun a b ->
      Alcotest.(check string) "same config" (Config.name a.Ranking.config)
        (Config.name b.Ranking.config);
      Alcotest.(check (float 0.0)) "same bscore" b.Ranking.bscore
        a.Ranking.bscore;
      Alcotest.(check (float 0.0)) "same concentration" b.Ranking.concentration
        a.Ranking.concentration;
      Alcotest.(check (option string)) "same top suspect" b.Ranking.top_suspect
        a.Ranking.top_suspect;
      Alcotest.(check (list int)) "same top processes" b.Ranking.top_processes
        a.Ranking.top_processes;
      Alcotest.(check (list string)) "same top threads" b.Ranking.top_threads
        a.Ranking.top_threads)
    shared sweep_no_reuse

let test_memo_cold_equals_plain () =
  (* the first compare_runs against a fresh memo is byte-identical to a
     memo-less one, diffNLR rendering included *)
  let normal = Lazy.force oe16_normal and faulty = Lazy.force oe16_swap in
  let plain = Pipeline.compare_runs Config.default ~normal ~faulty in
  let memo = Memo.create () in
  let cold = Pipeline.compare_runs ~memo Config.default ~normal ~faulty in
  let render c =
    match Pipeline.find_diffnlr c "5" with
    | Ok d -> Difftrace_diff.Diffnlr.render d
    | Error e -> Alcotest.fail (Pipeline.lookup_error_to_string e)
  in
  Alcotest.(check bool) "suspects identical" true
    (plain.Pipeline.suspects = cold.Pipeline.suspects);
  Alcotest.(check string) "diffNLR identical" (render plain) (render cold);
  let after_cold = Memo.stats memo in
  (* warm reuse keeps every analysis result stable *)
  let warm = Pipeline.compare_runs ~memo Config.default ~normal ~faulty in
  Alcotest.(check bool) "warm bscore identical" true
    (plain.Pipeline.bscore = warm.Pipeline.bscore);
  Alcotest.(check bool) "warm suspects identical" true
    (plain.Pipeline.suspects = warm.Pipeline.suspects);
  (* the warm pass looks up all 32 summaries (16 traces x 2 runs) and
     must find every one of them *)
  let s = Memo.stats memo in
  Alcotest.(check int) "warm pass misses nothing" after_cold.Memo.misses
    s.Memo.misses;
  Alcotest.(check int) "warm pass fully cached" (after_cold.Memo.hits + 32)
    s.Memo.hits

let test_hit_rate_degenerate () =
  (* regression: an all-miss (or untouched) cache once divided by zero *)
  Alcotest.(check (float 1e-9)) "empty stats" 0.0
    (Memo.hit_rate { Memo.hits = 0; misses = 0 });
  Alcotest.(check (float 1e-9)) "all misses" 0.0
    (Memo.hit_rate { Memo.hits = 0; misses = 7 });
  Alcotest.(check (float 1e-9)) "all hits" 1.0
    (Memo.hit_rate { Memo.hits = 5; misses = 0 })

(* ------------------------------------------------------------------ *)
(* Memo keys: the persisted bytes                                      *)
(* ------------------------------------------------------------------ *)

module Symtab = Difftrace_trace.Symtab
module Trace = Difftrace_trace.Trace
module Trace_set = Difftrace_trace.Trace_set
module Event = Difftrace_trace.Event
module Nlr = Difftrace_nlr.Nlr

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* the raw digest bytes of [Memo.key], as the store persists them *)
let raw_key ~ids ~k ~repeats =
  let m = Memo.create () in
  Memo.add m (Memo.key ~ids ~k ~repeats) { Nlr.elems = [||]; input_length = 0 };
  match Memo.fold m ~init:[] ~f:(fun key _ acc -> key :: acc) with
  | [ key ] -> key
  | _ -> assert false

let reference_key ~ids ~k ~repeats =
  Digest.string
    (String.concat ";" (List.map string_of_int (k :: repeats :: Array.to_list ids)))

(* digests of analysis stores already on disk *)
let test_memo_key_golden () =
  let wide = [| 0; 9; 10; 99; 100; 1_000_000 |] in
  List.iter
    (fun (ids, k, repeats, hex) ->
      Alcotest.(check string)
        (Printf.sprintf "%d ids, k=%d repeats=%d" (Array.length ids) k repeats)
        hex
        (Digest.to_hex (raw_key ~ids ~k ~repeats)))
    [ ([||], 10, 2, "af4c0e6fe46173cb972b67fddc54a9b1");
      ([||], 50, 3, "a2c81937870fe210de473d04642ef78b");
      (wide, 10, 2, "47af6faa193a45fad6a79ff35f5de8e9");
      (wide, 50, 3, "1155e9d161fef022bc67b1edb7a1e16e") ]

let prop_memo_key_reference =
  qtest "key = MD5 of the decimal reference string" ~count:500
    QCheck2.Gen.(
      let edge = oneofl [ 0; 9; 10; -1; -10; max_int; min_int; 999_999 ] in
      let id = frequency [ (6, int_range 0 5000); (1, int); (1, edge) ] in
      triple (array_size (int_range 0 60) id) (oneof [ int_range 1 60; edge ])
        (oneof [ int_range 2 5; edge ]))
    (fun (ids, k, repeats) ->
      String.equal (raw_key ~ids ~k ~repeats) (reference_key ~ids ~k ~repeats))

(* ------------------------------------------------------------------ *)
(* Pipeline.summarize against the per-trace reference                  *)
(* ------------------------------------------------------------------ *)

(* The summarization stage as it stood before traces were deduplicated:
   a per-event [Symtab.intern] remap, a [Buffer]-built key, every trace
   reduced. Its memo is a plain table keyed by the raw digest, so the
   oracle shares no code with [Memo]. *)
module Naive = struct
  type memo = { cache : (string, Nlr.t) Hashtbl.t; mutable hits : int; mutable misses : int }

  let remap_calls ~shared ~own tr =
    Array.map (fun id -> Symtab.intern shared (Symtab.name own id)) (Trace.call_ids tr)

  let key ~ids ~k ~repeats =
    let buf = Buffer.create ((4 * Array.length ids) + 16) in
    Buffer.add_string buf (string_of_int k);
    Buffer.add_char buf ';';
    Buffer.add_string buf (string_of_int repeats);
    Array.iter
      (fun id ->
        Buffer.add_char buf ';';
        Buffer.add_string buf (string_of_int id))
      ids;
    Digest.string (Buffer.contents buf)

  let summarize ~memo ~symtab ~table ~k ~repeats ts =
    let own = Trace_set.symtab ts in
    let idss = Array.map (remap_calls ~shared:symtab ~own) (Trace_set.traces ts) in
    let keys = Array.map (fun ids -> key ~ids ~k ~repeats) idss in
    let cached =
      Array.map
        (fun key ->
          match memo with
          | None -> None
          | Some m -> (
            match Hashtbl.find_opt m.cache key with
            | Some _ as hit ->
              m.hits <- m.hits + 1;
              hit
            | None ->
              m.misses <- m.misses + 1;
              None))
        keys
    in
    Array.mapi
      (fun i ids ->
        match cached.(i) with
        | Some nlr -> nlr
        | None ->
          let local = Nlr.Loop_table.create () in
          let nlr = Nlr.reintern ~from:local ~into:table (Nlr.of_ids ~table:local ~k ~repeats ids) in
          Option.iter (fun m -> Hashtbl.replace m.cache keys.(i) nlr) memo;
          nlr)
      idss
end

(* A trace set over [n_names] functions, most of whose sequences start
   with one shared 10-call prefix and many of which repeat an earlier
   trace exactly, the way SPMD ranks do. Returns sprinkle the events;
   some names are never called. *)
let trace_set_gen =
  QCheck2.Gen.(
    let* n_names = int_range 1 12 in
    let sym = int_range 0 (n_names - 1) in
    let* prefix = array_repeat 10 sym in
    let chunk =
      let* body = list_size (int_range 1 4) sym and* times = int_range 1 5 in
      return (List.concat (List.init times (fun _ -> body)))
    in
    let fresh =
      let* shared = bool and* parts = list_size (int_range 0 8) chunk in
      let tail = List.concat parts in
      return (if shared then Array.to_list prefix @ tail else tail)
    in
    let* n_traces = int_range 0 10 in
    let* seqs =
      let rec go i acc =
        if i = n_traces then return (List.rev acc)
        else
          let* s = if acc = [] then fresh else oneof [ fresh; oneofl acc ] in
          go (i + 1) (s :: acc)
      in
      go 0 []
    in
    let* returns = list_repeat n_traces (list_repeat 40 bool) in
    let* order = shuffle_l (List.init n_names Fun.id) in
    return (n_names, order, List.combine seqs returns))

let build_set (n_names, _, traces) =
  let symtab = Symtab.create () in
  for i = 0 to n_names - 1 do
    ignore (Symtab.intern symtab (Printf.sprintf "f%d" i))
  done;
  let trace pid (calls, returns) =
    let events =
      List.concat
        (List.mapi
           (fun i id ->
             if List.nth returns (i mod 40) then [ Event.Call id; Event.Return id ]
             else [ Event.Call id ])
           calls)
    in
    Trace.make ~pid ~tid:0 ~truncated:false (Array.of_list events)
  in
  Trace_set.create symtab (List.mapi trace traces)

(* the shared symtab starts with one name the traces never use and
   every other of theirs, shuffled, so the remap both renumbers known
   names and interns new ones *)
let preseed symtab (_, order, _) =
  ignore (Symtab.intern symtab "unused");
  List.iteri
    (fun j i -> if j mod 2 = 0 then ignore (Symtab.intern symtab (Printf.sprintf "f%d" i)))
    order

let bodies table =
  List.init (Nlr.Loop_table.size table) (Nlr.Loop_table.body table)

let prop_summarize_parity =
  qtest "summarize = per-trace reference" ~count:100
    QCheck2.Gen.(triple trace_set_gen trace_set_gen (pair (int_range 1 12) (int_range 2 3)))
    (fun (case, warmup, (k, repeats)) ->
      let ts = build_set case and warm_ts = build_set warmup in
      List.for_all
        (fun (engine, mode) ->
          let memo, symtab, table =
            match mode with
            | `Absent -> (None, Symtab.create (), Nlr.Loop_table.create ())
            | `Fresh | `Warmed ->
              let m = Memo.create () in
              (Some m, Memo.symtab m, Memo.loop_table m)
          in
          let naive_memo =
            Option.map (fun _ -> { Naive.cache = Hashtbl.create 16; hits = 0; misses = 0 }) memo
          in
          let n_symtab = Symtab.create () and n_table = Nlr.Loop_table.create () in
          preseed symtab case;
          preseed n_symtab case;
          let run ts =
            ( Pipeline.summarize ~engine ?memo ~symtab ~table ~k ~repeats ts,
              Naive.summarize ~memo:naive_memo ~symtab:n_symtab ~table:n_table ~k ~repeats ts )
          in
          if mode = `Warmed then ignore (run warm_ts);
          let got, want = run ts in
          let keys m = List.sort compare (Memo.fold m ~init:[] ~f:(fun key _ acc -> key :: acc)) in
          Array.length got = Array.length want
          && Array.for_all2
               (fun (a : Nlr.t) (b : Nlr.t) -> a.elems = b.elems && a.input_length = b.input_length)
               got want
          && Symtab.names symtab = Symtab.names n_symtab
          && bodies table = bodies n_table
          &&
          match (memo, naive_memo) with
          | Some m, Some nm ->
            keys m = List.sort compare (List.of_seq (Hashtbl.to_seq_keys nm.Naive.cache))
            && Memo.stats m = { Memo.hits = nm.Naive.hits; misses = nm.Naive.misses }
            && Memo.length m = Hashtbl.length nm.Naive.cache
          | _ -> true)
        [ (Engine.Sequential, `Absent); (Engine.Sequential, `Fresh);
          (Engine.Sequential, `Warmed); (par4, `Absent); (par4, `Fresh); (par4, `Warmed) ])

let () =
  Alcotest.run "engine"
    [ ( "engine",
        [ Alcotest.test_case "init parity" `Quick test_init_parity;
          Alcotest.test_case "exception order" `Quick test_init_exception;
          Alcotest.test_case "map" `Quick test_map;
          Alcotest.test_case "of_jobs" `Quick test_of_jobs;
          Alcotest.test_case "of_string roundtrip" `Quick test_string_roundtrip ] );
      ( "config",
        [ Alcotest.test_case "builders" `Quick test_config_builders ] );
      ( "parity",
        [ Alcotest.test_case "odd/even byte-identical" `Quick
            test_parallel_identical_oddeven;
          Alcotest.test_case "ILCS byte-identical" `Quick
            test_parallel_identical_ilcs;
          Alcotest.test_case "analysis internals identical" `Quick
            test_parallel_identical_analysis ] );
      ( "memo",
        [ Alcotest.test_case "autotune hit rate > 50%" `Quick
            test_autotune_cache_hit_rate;
          Alcotest.test_case "memo never changes the ranking" `Quick
            test_autotune_memo_correctness;
          Alcotest.test_case "cold cache == no cache" `Quick
            test_memo_cold_equals_plain;
          Alcotest.test_case "hit rate degenerate cases" `Quick
            test_hit_rate_degenerate ] );
      ( "memo-key",
        [ Alcotest.test_case "golden digests" `Quick test_memo_key_golden;
          prop_memo_key_reference ] );
      ("summarize-parity", [ prop_summarize_parity ]) ]
