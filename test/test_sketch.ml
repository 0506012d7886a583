(* MinHash/LSH sketch tier: the contracts the sketch-mode pipeline
   rides on, pinned as qcheck properties.

   - LSH recall: every pair whose exact Jaccard clears the banding
     threshold with margin (0.6 ≫ ~0.177 at the default geometry) lands
     in at least one shared bucket — miss probability (1−0.6²)^32 ≈
     6e-7, so a single miss is a real bug, not noise.
   - Class mask = per-object sketch: a signature depends only on the
     attribute set, so masking the class matrix with the class
     candidate adjacency gives, bit for bit, the matrix of the
     per-object definition (sign every object, a pair is a candidate
     when any band is equal, exact Jaccard for candidates, 0.0
     otherwise, 1.0 on the diagonal) — on random contexts and on
     contexts of repeated rows, on every engine.
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

(* a random attribute set over a small pool: dense sets (p = 1/2) make
   most pairs candidates, sparse ones (p = 1/4 over a wider pool) leave
   many pruned, and both include the empty set now and then *)
let random_set rng ~sparse =
  let pool, keep = if sparse then (24, 4) else (16, 2) in
  List.init pool (fun i -> Printf.sprintf "a%d" i)
  |> List.filter (fun _ -> Prng.int rng keep = 0)

let random_rows rng n =
  let sparse = Prng.bool rng in
  List.init n (fun i -> (Printf.sprintf "t%d" i, random_set rng ~sparse))

let random_context seed =
  let rng = Prng.create seed in
  let n = 2 + Prng.int rng 11 in
  Context.of_attr_sets (random_rows rng n)

(* n objects over exactly d distinct attribute sets (d ∈ {1, 2, 4, n},
   capped at n), each set used at least once, in shuffled order — the
   SPMD shape the class quotient is for *)
let repeated_context seed =
  let rng = Prng.create (seed + 104_729) in
  let n = 1 + Prng.int rng 24 in
  let d = min n (List.nth [ 1; 2; 4; n ] (Prng.int rng 4)) in
  let sparse = Prng.bool rng in
  let sets = ref [] in
  while List.length !sets < d do
    let s = random_set rng ~sparse in
    if not (List.mem s !sets) then sets := s :: !sets
  done;
  let sets = Array.of_list !sets in
  let pick = Array.init n (fun i -> if i < d then i else Prng.int rng d) in
  Prng.shuffle rng pick;
  Context.of_attr_sets
    (Array.to_list
       (Array.mapi (fun i c -> (Printf.sprintf "t%d" i, sets.(c))) pick))

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

let candidate mask ctx i j =
  Bitset.mem mask.(Context.class_of ctx i) (Context.class_of ctx j)

let prop_lsh_recall_above_threshold =
  qtest "LSH: every pair above J = 0.6 shares a band bucket" ~count:50
    seed_gen (fun seed ->
      let ctx = clustered_context seed in
      let n = Context.n_objects ctx in
      let mask = Sketch.class_candidates ctx in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = i + 1 to n - 1 do
          if Context.jaccard ctx i j >= 0.6 && not (candidate mask ctx i j)
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

(* the per-object sketch matrix, built the way sketch mode defined it
   before candidacy moved to classes: every object signed on its own *)
let oracle ctx =
  let n = Context.n_objects ctx in
  let sigs = Array.init n (Sketch.hasher ctx) in
  let k = Sketch.default_k in
  let shares_band i j =
    List.exists
      (fun band ->
        let r0 = band * Sketch.rows_per_band in
        let r1 = if r0 + 1 < k then r0 + 1 else r0 in
        sigs.(i).(r0) = sigs.(j).(r0) && sigs.(i).(r1) = sigs.(j).(r1))
      (List.init (Sketch.bands_for k) Fun.id)
  in
  Jsm.of_dense
    ~labels:(Array.init n (Context.object_label ctx))
    (Array.init n (fun i ->
         Array.init n (fun j ->
             if i = j then 1.0
             else if shares_band i j then Context.jaccard ctx i j
             else 0.0)))

let masked ~init ctx =
  Jsm.compute ~candidates:(Sketch.class_candidates ctx) ~init ctx

let prop_mask_equals_oracle name context =
  qtest
    (Printf.sprintf "%s: mask == per-object oracle, bit for bit" name)
    ~count:100 seed_gen (fun seed ->
      let ctx = context seed in
      let expected = oracle ctx in
      List.for_all (fun init -> jsm_bits_equal expected (masked ~init ctx))
        engines)

let test_candidates_shape () =
  let ctx =
    Context.of_attr_sets
      [ ("a", [ "x"; "y" ]); ("b", [ "x"; "y" ]); ("c", [ "z" ]);
        ("d", [ "x"; "y"; "w" ]) ]
  in
  let c = Sketch.class_candidates ctx in
  Alcotest.(check int) "one adjacency row per class" 3 (Array.length c);
  Alcotest.(check bool) "a class is its own candidate" true (Bitset.mem c.(0) 0);
  Alcotest.(check bool) "disjoint classes are pruned" false (Bitset.mem c.(0) 1);
  Alcotest.(check bool) "similar classes are candidates" true
    (Bitset.mem c.(0) 2);
  Alcotest.(check bool) "adjacency is symmetric" true (Bitset.mem c.(2) 0)

let test_mask_size_validated () =
  let ctx = Context.of_attr_sets [ ("a", [ "x" ]); ("b", [ "y" ]) ] in
  List.iter
    (fun (what, candidates) ->
      Alcotest.check_raises what
        (Invalid_argument "Jsm: the candidate mask is not 2 x 2") (fun () ->
          ignore (Jsm.compute ~candidates ~init:Array.init ctx : Jsm.t)))
    [ ("one mask row per class", [| Bitset.create 2 |]);
      ("one mask column per class", [| Bitset.create 3; Bitset.create 3 |]) ]

let c_signatures = Telemetry.Counter.make "sketch.signatures"

let counted counter f =
  let before = Telemetry.Counter.value counter in
  f ();
  Telemetry.Counter.value counter - before

let prop_one_signature_per_class =
  qtest "class_candidates signs one representative per class" ~count:50
    seed_gen (fun seed ->
      let ctx = repeated_context seed in
      Telemetry.enable ();
      Fun.protect ~finally:Telemetry.disable (fun () ->
          counted c_signatures (fun () ->
              ignore (Sketch.class_candidates ctx : Bitset.t array))
          = Context.n_classes ctx))

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

let evals f = counted c_evals (fun () -> ignore (f () : Jsm.t))

let test_sketch_prunes_evals () =
  Telemetry.enable ();
  Fun.protect ~finally:Telemetry.disable (fun () ->
      List.iter
        (fun n ->
          let ctx = grouped_context n in
          let exact = evals (fun () -> Jsm.compute ~init:Array.init ctx) in
          let sketch = evals (fun () -> masked ~init:Array.init ctx) in
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
        [ Alcotest.test_case "hasher validates k" `Quick
            test_hasher_k_validated;
          prop_one_signature_per_class ] );
      ( "lsh",
        [ prop_lsh_recall_above_threshold;
          Alcotest.test_case "candidate adjacency shape" `Quick
            test_candidates_shape;
          Alcotest.test_case "sketch prunes Jaccard evals on clustered corpora"
            `Quick test_sketch_prunes_evals ] );
      ( "jsm",
        [ prop_mask_equals_oracle "random contexts" random_context;
          prop_mask_equals_oracle "repeated rows" repeated_context;
          Alcotest.test_case "mask size validated" `Quick
            test_mask_size_validated ] ) ]
