(* Cross-library properties: end-to-end invariants over randomized
   simulator runs. These catch integration bugs that per-module suites
   cannot (e.g. symbol-table remapping between runs, archive fidelity
   for arbitrary event streams, clock consistency under scheduling). *)

open Difftrace
module R = Difftrace_simulator.Runtime
module Api = Difftrace_simulator.Api
module Vclock = Difftrace_simulator.Vclock
module Fault = Difftrace_simulator.Fault
module Trace = Difftrace_trace.Trace
module Trace_set = Difftrace_trace.Trace_set
module F = Difftrace_filter.Filter
module Archive = Difftrace_parlot.Archive
module Otf2 = Difftrace_temporal.Otf2
module Cct = Difftrace_stacktree.Cct
module Odd_even = Difftrace_workloads.Odd_even
module Heat = Difftrace_workloads.Heat

let qtest ?(count = 25) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* A randomized mixed-API program: parameterized by a seed-derived
   recipe, always terminating, always collective-consistent. *)
let random_program ~recipe env =
  let rng = Difftrace_util.Prng.create (recipe + (R.pid env * 31)) in
  let shared_rng = Difftrace_util.Prng.create recipe in
  Api.call env "main" (fun () ->
      Api.mpi_init env;
      let rank = Api.comm_rank env in
      let np = Api.comm_size env in
      (* same round count everywhere: derived from the shared recipe *)
      let rounds = 1 + Difftrace_util.Prng.int shared_rng 4 in
      for round = 1 to rounds do
        Api.call env "phase" (fun () ->
            (* local compute noise *)
            for _ = 1 to Difftrace_util.Prng.int rng 4 do
              Api.call env "compute" (fun () -> ())
            done;
            (* ring shift with nonblocking receives *)
            let next = (rank + 1) mod np and prev = (rank + np - 1) mod np in
            let r = Api.irecv env ~src:prev ~tag:round () in
            Api.send env ~dst:next ~tag:round [| rank; round |];
            ignore (Api.wait env r);
            (* a collective per round, same kind everywhere *)
            ignore (Api.allreduce env ~op:R.Op_sum [| rank |]))
      done;
      Api.barrier env;
      Api.mpi_finalize env)

let run_random ~recipe ~np ~seed =
  R.run ~np ~seed (random_program ~recipe)

let recipe_gen =
  QCheck2.Gen.(triple (int_range 0 500) (int_range 2 6) (int_range 0 500))

let prop_random_runs_clean =
  qtest "random mixed-API programs terminate cleanly" recipe_gen
    (fun (recipe, np, seed) ->
      let o = run_random ~recipe ~np ~seed in
      o.R.deadlocked = [] && (not o.R.timed_out) && o.R.collective_mismatch = None)

let prop_self_comparison_is_null =
  qtest "comparing a run against itself finds nothing" recipe_gen
    (fun (recipe, np, seed) ->
      let ts = (run_random ~recipe ~np ~seed).R.traces in
      let c = Pipeline.compare_runs (Config.make ~filter:(F.make []) ()) ~normal:ts ~faulty:ts in
      c.Pipeline.bscore = 1.0
      && Array.for_all (fun (_, s) -> s < 1e-9) c.Pipeline.suspects)

let prop_archive_roundtrip_random =
  qtest "archive save/load is lossless for arbitrary runs" ~count:15 recipe_gen
    (fun (recipe, np, seed) ->
      let ts = (run_random ~recipe ~np ~seed).R.traces in
      let dir =
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "difftrace_prop_%d_%d_%d" recipe np seed)
      in
      ignore (Archive.save ~dir ts);
      let loaded =
        match Archive.load ~dir () with
        | Ok l -> l.Archive.set
        | Error e -> failwith (Archive.error_to_string e)
      in
      let dump t =
        Array.to_list (Trace_set.traces t)
        |> List.map (fun tr ->
               ( tr.Trace.pid,
                 tr.Trace.tid,
                 tr.Trace.truncated,
                 Trace.to_strings (Trace_set.symtab t) tr ))
      in
      dump ts = dump loaded)

let prop_otf2_roundtrip_random =
  qtest "OTF2 export parses back identically" ~count:15 recipe_gen
    (fun (recipe, np, seed) ->
      let o = run_random ~recipe ~np ~seed in
      let archive = Otf2.of_outcome o in
      Otf2.equal archive (Otf2.parse (Otf2.render archive)))

let prop_lamport_consistency =
  qtest "Lamport stamps strictly increase along every thread" recipe_gen
    (fun (recipe, np, seed) ->
      let o = run_random ~recipe ~np ~seed in
      List.for_all
        (fun (_, syncs) ->
          let ok = ref true in
          Array.iteri
            (fun i sp ->
              if i > 0 then
                let prev = syncs.(i - 1).R.sp_stamp.Vclock.lamport in
                if sp.R.sp_stamp.Vclock.lamport <= prev then ok := false)
            syncs;
          !ok)
        o.R.sync_log)

let prop_vector_clock_program_order =
  qtest "vector stamps are nondecreasing in program order" recipe_gen
    (fun (recipe, np, seed) ->
      let o = run_random ~recipe ~np ~seed in
      List.for_all
        (fun (_, syncs) ->
          let ok = ref true in
          Array.iteri
            (fun i sp ->
              if i > 0 then
                let prev = syncs.(i - 1).R.sp_stamp.Vclock.vec in
                if not (Vclock.leq prev sp.R.sp_stamp.Vclock.vec) then ok := false)
            syncs;
          !ok)
        o.R.sync_log)

let prop_filter_idempotent =
  qtest "filters are idempotent on trace sets" recipe_gen
    (fun (recipe, np, seed) ->
      let ts = (run_random ~recipe ~np ~seed).R.traces in
      let f = F.make [ F.Mpi_all; F.Custom "phase|compute" ] in
      let once = F.apply_set f ts in
      let twice = F.apply_set f once in
      let dump t =
        Array.to_list (Trace_set.traces t)
        |> List.map (fun tr -> Trace.to_strings (Trace_set.symtab t) tr)
      in
      dump once = dump twice)

let prop_cct_preserves_call_counts =
  qtest "CCT total equals the number of call events" recipe_gen
    (fun (recipe, np, seed) ->
      let ts = (run_random ~recipe ~np ~seed).R.traces in
      let calls =
        Array.fold_left
          (fun acc tr -> acc + Array.length (Trace.call_ids tr))
          0 (Trace_set.traces ts)
      in
      Cct.total_calls (Cct.coalesce ts) = calls)

let prop_pipeline_jsm_properties =
  qtest "pipeline JSM is symmetric with unit diagonal" recipe_gen
    (fun (recipe, np, seed) ->
      let ts = (run_random ~recipe ~np ~seed).R.traces in
      let a = Pipeline.analyze (Config.make ~filter:(F.make []) ()) ts in
      let j = Difftrace_cluster.Jsm.rows a.Pipeline.jsm in
      let n = Array.length j in
      let ok = ref true in
      for i = 0 to n - 1 do
        if Float.abs (j.(i).(i) -. 1.0) > 1e-9 then ok := false;
        for k = 0 to n - 1 do
          if Float.abs (j.(i).(k) -. j.(k).(i)) > 1e-9 then ok := false;
          if j.(i).(k) < -1e-9 || j.(i).(k) > 1.0 +. 1e-9 then ok := false
        done
      done;
      !ok)

(* fault-injected odd/even across the parameter space: the pipeline
   must never crash and always produce a consistent comparison *)
let prop_fault_sweep_total =
  qtest "every odd/even fault yields a well-formed comparison" ~count:20
    QCheck2.Gen.(
      triple (int_range 4 12) (int_range 0 3)
        (oneofl
           [ `Swap; `Dl ]))
    (fun (np, after, kind) ->
      let rank = np / 2 in
      let fault =
        match kind with
        | `Swap -> Fault.Swap_send_recv { rank; after_iter = after }
        | `Dl -> Fault.Deadlock_recv { rank; after_iter = after }
      in
      let normal = (fst (Odd_even.run ~np ~fault:Fault.No_fault ())).R.traces in
      let faulty = (fst (Odd_even.run ~np ~fault ())).R.traces in
      let c = Pipeline.compare_runs (Config.make ()) ~normal ~faulty in
      c.Pipeline.bscore >= 0.0
      && c.Pipeline.bscore <= 1.0 +. 1e-9
      && Array.length c.Pipeline.suspects = np
      && Array.for_all (fun (_, s) -> s >= 0.0) c.Pipeline.suspects)

let prop_heat_conservation_shape =
  qtest "heat field stays bounded for any seed" ~count:10
    QCheck2.Gen.(int_range 0 100)
    (fun seed ->
      let o, r = Heat.run ~np:4 ~max_iters:10 ~seed ~fault:Fault.No_fault () in
      o.R.deadlocked = []
      && Array.for_all (fun v -> v >= 0 && v <= 1_000_000) r.Heat.field)

(* every fault constructor round-trips through its string form —
   including hostile rank/iteration values the CLI never produces.
   [func] stays on an identifier alphabet: the string form is
   positional ("key=value,..."), so separators inside a function name
   are out of the format's domain by design. *)
let fault_gen =
  let open QCheck2.Gen in
  let rank = int_range (-3) 10_000 in
  let iter = int_range (-3) 10_000 in
  let func =
    map2
      (fun c s -> Printf.sprintf "%c%s" c s)
      (char_range 'a' 'z')
      (string_size ~gen:(oneofl [ 'a'; 'z'; 'A'; 'Z'; '0'; '9'; '_'; '.' ])
         (int_range 0 12))
  in
  oneof
    [ return Fault.No_fault;
      map2
        (fun rank after_iter -> Fault.Swap_send_recv { rank; after_iter })
        rank iter;
      map2
        (fun rank after_iter -> Fault.Deadlock_recv { rank; after_iter })
        rank iter;
      map (fun rank -> Fault.Wrong_collective_size { rank }) rank;
      map (fun rank -> Fault.Wrong_collective_op { rank }) rank;
      map2 (fun rank thread -> Fault.No_critical { rank; thread }) rank iter;
      map2 (fun rank func -> Fault.Skip_function { rank; func }) rank func ]

let prop_fault_string_roundtrip =
  qtest "Fault.of_string inverts Fault.to_string" ~count:200 fault_gen
    (fun f -> Fault.of_string (Fault.to_string f) = Ok f)

let test_fault_of_string_malformed () =
  let expect_invalid s =
    match Fault.of_string s with
    | Ok f -> Alcotest.failf "%S accepted as %s" s (Fault.to_string f)
    | Error m -> Alcotest.(check string) s ("Fault.of_string: " ^ s) m
    | exception e -> Alcotest.failf "%S raised %s" s (Printexc.to_string e)
  in
  List.iter expect_invalid
    [ "";
      "bogus";
      "swapBug";
      "swapBug(";
      "swapBug(rank=5)";
      (* a malformed number once leaked [Failure "int_of_string"] *)
      "swapBug(rank=abc,after=1)";
      "swapBug(rank=,after=1)";
      "dlBug(after=1)";
      "wrongSize()";
      "noCritical(rank=1)";
      "skipFunction(rank=1)" ]

(* ------------------------------------------------------------------ *)
(* The persistent analysis store                                      *)
(* ------------------------------------------------------------------ *)

module Jsm = Difftrace_cluster.Jsm
module Context = Difftrace_fca.Context

(* Exact bit-level equality — "same up to epsilon" is not good enough
   for the store, whose whole contract is byte-identical reports. *)
let bits_equal a b =
  Array.length a = Array.length b
  && Array.for_all2
       (fun ra rb ->
         Array.length ra = Array.length rb
         && Array.for_all2
              (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y)
              ra rb)
       a b

(* The store's warm path must be invisible: a second run over the same
   traces sees only memo hits, zero fresh summarizations, and lands on
   the same matrix bit for bit. *)
let prop_store_roundtrip_warm =
  qtest "store round-trip: warm rerun is all-hit and bit-identical"
    ~count:10 recipe_gen
    (fun (recipe, np, seed) ->
      let ts = (run_random ~recipe ~np ~seed).R.traces in
      let dir =
        Filename.concat (Filename.get_temp_dir_name ())
          (Printf.sprintf "difftrace_prop_store_%d_%d_%d" recipe np seed)
      in
      if Sys.file_exists dir then
        Array.iter
          (fun f -> Sys.remove (Filename.concat dir f))
          (Sys.readdir dir);
      let get = function
        | Ok v -> v
        | Error e -> failwith (Store.error_to_string e)
      in
      let config = Config.make ~filter:(F.make []) () in
      let st1 = get (Store.load ~dir) in
      let a1 = Pipeline.analyze ~store:st1 config ts in
      get (Store.flush st1);
      let st2 = get (Store.load ~dir) in
      let a2 = Pipeline.analyze ~store:st2 config ts in
      let s = Memo.stats (Store.memo st2) in
      s.Memo.misses = 0
      && s.Memo.hits > 0
      && a1.Pipeline.jsm.Jsm.labels = a2.Pipeline.jsm.Jsm.labels
      && bits_equal (Jsm.rows a1.Pipeline.jsm) (Jsm.rows a2.Pipeline.jsm))

let () =
  Alcotest.run "properties"
    [ ( "end-to-end",
        [ prop_random_runs_clean;
          prop_self_comparison_is_null;
          prop_archive_roundtrip_random;
          prop_otf2_roundtrip_random;
          prop_lamport_consistency;
          prop_vector_clock_program_order;
          prop_filter_idempotent;
          prop_cct_preserves_call_counts;
          prop_pipeline_jsm_properties;
          prop_fault_sweep_total;
          prop_heat_conservation_shape ] );
      ( "incremental-store",
        [ prop_store_roundtrip_warm ] );
      ( "fault-strings",
        [ prop_fault_string_roundtrip;
          Alcotest.test_case "malformed strings rejected" `Quick
            test_fault_of_string_malformed ] ) ]
