(* MinHash/LSH sketch tier: the probabilistic contracts the sketch-mode
   pipeline rides on, pinned as qcheck properties with explicit failure
   budgets.

   - MinHash error: at the default k, |estimate − exact Jaccard| stays
     within ε for (almost) every pair. k = 64 rows gives a Hoeffding
     bound of 2·exp(−2·64·0.2²) ≈ 1.2% per pair for ε = 0.2, so a 10%
     per-context budget is generous; ε = 0.35 (bound ≈ 3e-7 per pair)
     gets no budget at all.
   - LSH recall: every pair whose exact Jaccard clears the banding
     threshold with margin (0.6 ≫ ~0.177 at the default geometry) lands
     in at least one shared bucket — miss probability (1−0.6²)^32 ≈
     6e-7, so a single miss is a real bug, not noise.
   - Engine/extension identity: [compute_sketch] is a pure function of
     (context, candidates) — bit-identical across sequential and
     parallel engines — and [extend_sketch] over any cold/warm split
     reproduces it bit for bit (candidacy is pairwise in the two
     signatures, so a warm base can never change a verdict).
   - Pruning: on a clustered corpus the sketch tier evaluates strictly
     fewer Jaccard pairs than exact at every size, and under 25% of
     exact's at the largest, counted by [jsm.jaccard_evals]. *)

open Difftrace
module Context = Difftrace_fca.Context
module Sketch = Difftrace_cluster.Sketch
module Bitset = Difftrace_util.Bitset
module Prng = Difftrace_util.Prng

let qtest ?(count = 25) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let seed_gen = QCheck2.Gen.(int_range 0 100_000)

(* a random context over a small attribute pool: pair similarities
   spread over the whole [0, 1] range, including empty sets *)
let random_rows rng n =
  let pool =
    Array.init 16 (fun i -> Printf.sprintf "a%d" i)
  in
  List.init n (fun i ->
      let attrs =
        Array.to_list pool |> List.filter (fun _ -> Prng.bool rng)
      in
      (Printf.sprintf "t%d" i, attrs))

let random_context seed =
  let rng = Prng.create seed in
  let n = 2 + Prng.int rng 11 in
  Context.of_attr_sets (random_rows rng n)

(* a clustered context guaranteeing high-similarity pairs: each base
   object is followed by a near-clone (one attribute dropped), J ≥ 8/9 *)
let clustered_context seed =
  let rng = Prng.create seed in
  let n = 1 + Prng.int rng 5 in
  let rows =
    List.concat
      (List.init n (fun i ->
           let attrs =
             List.init 9 (fun j -> Printf.sprintf "g%d.a%d" i j)
           in
           let clone =
             List.filteri (fun j _ -> j <> Prng.int rng 9) attrs
           in
           [ (Printf.sprintf "t%d" i, attrs);
             (Printf.sprintf "t%d'" i, clone) ]))
  in
  Context.of_attr_sets rows

let prop_minhash_error_bounded =
  qtest "MinHash estimate within ε of exact Jaccard (budgeted)" ~count:50
    seed_gen (fun seed ->
      let ctx = random_context seed in
      let n = Context.n_objects ctx in
      let sigs = Sketch.of_context ctx in
      let pairs = ref 0 and over_soft = ref 0 and over_hard = ref 0 in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          incr pairs;
          let err =
            Float.abs (Sketch.estimate sigs.(i) sigs.(j) -. Context.jaccard ctx i j)
          in
          if err > 0.2 then incr over_soft;
          if err > 0.35 then incr over_hard
        done
      done;
      (* ≤ 10% of pairs may exceed ε = 0.2; none may exceed 0.35 *)
      !over_hard = 0
      && float_of_int !over_soft <= 0.1 *. float_of_int (max 1 !pairs))

let prop_lsh_recall_above_threshold =
  qtest "LSH: every pair above J = 0.6 shares a band bucket" ~count:50
    seed_gen (fun seed ->
      let ctx = clustered_context seed in
      let n = Context.n_objects ctx in
      let candidates = Sketch.candidates (Sketch.of_context ctx) in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          if Context.jaccard ctx i j >= 0.6 && not (Bitset.mem candidates.(i) j)
          then ok := false
        done
      done;
      !ok)

let engines = [ Array.init; Engine.init (Engine.parallel ~domains:3 ()) ]

let jsm_bits_equal a b =
  a.Jsm.labels = b.Jsm.labels
  &&
  let ra = Jsm.rows a and rb = Jsm.rows b in
  Array.for_all2
    (Array.for_all2 (fun x y -> Int64.bits_of_float x = Int64.bits_of_float y))
    ra rb

let prop_compute_sketch_engine_identity =
  qtest "compute_sketch bit-identical across engines" ~count:50 seed_gen
    (fun seed ->
      let ctx = random_context seed in
      let candidates = Sketch.candidates (Sketch.of_context ctx) in
      match
        List.map (fun init -> Jsm.compute_sketch ~init ~candidates ctx) engines
      with
      | [ a; b ] -> jsm_bits_equal a b
      | _ -> false)

(* the cold/warm split idiom from test_properties.ml: non-fresh objects
   come from a previously computed base matrix *)
let random_split seed =
  let rng = Prng.create (seed + 7919) in
  let n = 1 + Prng.int rng 12 in
  let rows = random_rows rng n in
  let fresh = Array.init n (fun _ -> Prng.bool rng) in
  (rows, fresh)

let prop_extend_sketch_equals_compute_sketch =
  qtest "extend_sketch == compute_sketch bit-for-bit, seq and parallel"
    ~count:100 seed_gen (fun seed ->
      let rows, fresh = random_split seed in
      let ctx = Context.of_attr_sets rows in
      let candidates = Sketch.candidates (Sketch.of_context ctx) in
      let warm_rows = List.filteri (fun i _ -> not fresh.(i)) rows in
      let warm_ctx = Context.of_attr_sets warm_rows in
      (* the base the store would hold: the warm subset's own sketch
         matrix — same signatures, so same pairwise verdicts *)
      let base =
        Jsm.compute_sketch ~init:Array.init
          ~candidates:(Sketch.candidates (Sketch.of_context warm_ctx))
          warm_ctx
      in
      let expected = Jsm.compute_sketch ~init:Array.init ~candidates ctx in
      List.for_all
        (fun init ->
          jsm_bits_equal expected
            (Jsm.extend_sketch ~init ~base ~fresh ~candidates ctx))
        engines)

let test_estimate_identical_and_disjoint () =
  let ctx =
    Context.of_attr_sets
      [ ("a", [ "x"; "y"; "z" ]); ("b", [ "x"; "y"; "z" ]); ("c", [ "q" ]);
        ("d", []); ("e", []) ]
  in
  let s = Sketch.of_context ctx in
  Alcotest.(check (float 0.0)) "identical sets estimate 1" 1.0
    (Sketch.estimate s.(0) s.(1));
  Alcotest.(check (float 0.0)) "both-empty sets estimate 1 (as Context.jaccard)"
    1.0
    (Sketch.estimate s.(3) s.(4));
  Alcotest.(check bool) "disjoint sets estimate near 0" true
    (Sketch.estimate s.(0) s.(2) < 0.2)

let test_candidates_shape () =
  let ctx =
    Context.of_attr_sets
      [ ("a", [ "x"; "y" ]); ("b", [ "x"; "y" ]); ("c", [ "z" ]) ]
  in
  let c = Sketch.candidates (Sketch.of_context ctx) in
  Alcotest.(check int) "one adjacency row per object" 3 (Array.length c);
  Alcotest.(check bool) "identical pair is a candidate" true (Bitset.mem c.(0) 1);
  Alcotest.(check bool) "adjacency is symmetric" true (Bitset.mem c.(1) 0);
  Alcotest.(check bool) "no self loops" false (Bitset.mem c.(0) 0)

(* the corpus shape the sketch tier is built for: groups of 12 traces
   sharing 20 core attributes, plus 6 noise attributes per trace — most
   pairs near J = 0, a few behaviour classes with many members *)
let grouped_context n =
  Context.of_attr_sets
    (List.init n (fun i ->
         let g = i / 12 in
         ( Printf.sprintf "t%d" i,
           List.init 20 (fun j -> Printf.sprintf "g%d.c%d" g j)
           @ List.init 6 (fun j -> Printf.sprintf "o%d.n%d" i j) )))

let c_evals = Telemetry.Counter.make "jsm.jaccard_evals"

let evals f =
  let before = Telemetry.Counter.value c_evals in
  ignore (f () : Jsm.t);
  Telemetry.Counter.value c_evals - before

let test_sketch_prunes_evals () =
  Telemetry.enable ();
  Fun.protect ~finally:Telemetry.disable (fun () ->
      List.iter
        (fun n ->
          let ctx = grouped_context n in
          let exact = evals (fun () -> Jsm.compute ~init:Array.init ctx) in
          let sketch =
            evals (fun () ->
                Jsm.compute_sketch ~init:Array.init
                  ~candidates:(Sketch.candidates (Sketch.of_context ctx))
                  ctx)
          in
          Alcotest.(check bool)
            (Printf.sprintf "n=%d: sketch %d < exact %d evals" n sketch exact)
            true (sketch < exact);
          if n = 480 then
            Alcotest.(check bool)
              (Printf.sprintf "n=480: sketch %d < 25%% of exact %d evals" sketch
                 exact)
              true
              (4 * sketch < exact))
        [ 60; 120; 240; 480 ])

let test_hasher_k_validated () =
  let ctx = Context.of_attr_sets [ ("a", [ "x" ]) ] in
  Alcotest.check_raises "k must be positive"
    (Invalid_argument "Sketch.hasher: k must be positive") (fun () ->
      ignore (Sketch.hasher ~k:0 ctx : int -> Sketch.signature))

let () =
  Alcotest.run "sketch"
    [ ( "minhash",
        [ prop_minhash_error_bounded;
          Alcotest.test_case "estimate endpoints" `Quick
            test_estimate_identical_and_disjoint;
          Alcotest.test_case "hasher validates k" `Quick
            test_hasher_k_validated ] );
      ( "lsh",
        [ prop_lsh_recall_above_threshold;
          Alcotest.test_case "candidate adjacency shape" `Quick
            test_candidates_shape;
          Alcotest.test_case "sketch prunes Jaccard evals on clustered corpora"
            `Quick test_sketch_prunes_evals ] );
      ( "jsm",
        [ prop_compute_sketch_engine_identity;
          prop_extend_sketch_equals_compute_sketch ] ) ]
