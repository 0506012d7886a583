open Difftrace_cluster
module Context = Difftrace_fca.Context

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Linkage                                                             *)
(* ------------------------------------------------------------------ *)

(* hand-checkable 4-point line: 0-1 close, 2-3 close, groups far *)
let line_matrix =
  [| [| 0.; 1.; 8.; 9. |];
     [| 1.; 0.; 7.; 8. |];
     [| 8.; 7.; 0.; 1. |];
     [| 9.; 8.; 1.; 0. |] |]

let test_single_linkage_heights () =
  let t = Linkage.cluster Linkage.Single line_matrix in
  let heights = Array.to_list (Array.map (fun m -> m.Linkage.dist) t.Linkage.merges) in
  Alcotest.(check (list (float 1e-9))) "merge heights" [ 1.0; 1.0; 7.0 ] heights

let test_complete_linkage_heights () =
  let t = Linkage.cluster Linkage.Complete line_matrix in
  let heights = Array.to_list (Array.map (fun m -> m.Linkage.dist) t.Linkage.merges) in
  Alcotest.(check (list (float 1e-9))) "merge heights" [ 1.0; 1.0; 9.0 ] heights

let test_average_linkage_heights () =
  let t = Linkage.cluster Linkage.Average line_matrix in
  let heights = Array.to_list (Array.map (fun m -> m.Linkage.dist) t.Linkage.merges) in
  (* between-group average of {8,9,7,8} = 8 *)
  Alcotest.(check (list (float 1e-9))) "merge heights" [ 1.0; 1.0; 8.0 ] heights

let test_ward_two_points () =
  let m = [| [| 0.; 2. |]; [| 2.; 0. |] |] in
  let t = Linkage.cluster Linkage.Ward m in
  Alcotest.(check int) "one merge" 1 (Array.length t.Linkage.merges);
  Alcotest.(check (float 1e-9)) "height is the distance" 2.0
    t.Linkage.merges.(0).Linkage.dist

let test_merge_sizes () =
  let t = Linkage.cluster Linkage.Ward line_matrix in
  let final = t.Linkage.merges.(Array.length t.Linkage.merges - 1) in
  Alcotest.(check int) "last merge holds all leaves" 4 final.Linkage.size

let test_cut_k () =
  let t = Linkage.cluster Linkage.Average line_matrix in
  Alcotest.(check (array int)) "k=2 groups pairs" [| 0; 0; 1; 1 |] (Linkage.cut_k t 2);
  Alcotest.(check (array int)) "k=4 all singletons" [| 0; 1; 2; 3 |] (Linkage.cut_k t 4);
  Alcotest.(check (array int)) "k=1 one cluster" [| 0; 0; 0; 0 |] (Linkage.cut_k t 1);
  Alcotest.check_raises "k=0 invalid" (Invalid_argument "Linkage.cut_k") (fun () ->
      ignore (Linkage.cut_k t 0))

let test_cut_height () =
  let t = Linkage.cluster Linkage.Single line_matrix in
  Alcotest.(check (array int)) "h=2 groups pairs" [| 0; 0; 1; 1 |]
    (Linkage.cut_height t 2.0);
  Alcotest.(check (array int)) "h=10 everything" [| 0; 0; 0; 0 |]
    (Linkage.cut_height t 10.0);
  Alcotest.(check (array int)) "h=0.5 nothing merged" [| 0; 1; 2; 3 |]
    (Linkage.cut_height t 0.5)

let test_cophenetic () =
  let t = Linkage.cluster Linkage.Single line_matrix in
  let c = Linkage.cophenetic t in
  Alcotest.(check (float 1e-9)) "pair 0-1" 1.0 c.(0).(1);
  Alcotest.(check (float 1e-9)) "cross group" 7.0 c.(0).(3);
  Alcotest.(check (float 1e-9)) "diagonal" 0.0 c.(2).(2)

let test_validation () =
  Alcotest.check_raises "not square" (Invalid_argument "Linkage.cluster: not square")
    (fun () -> ignore (Linkage.cluster Linkage.Single [| [| 0.; 1. |] |]));
  (* a short last row is named, not hit as an out-of-bounds read *)
  Alcotest.check_raises "ragged" (Invalid_argument "Linkage.cluster: not square")
    (fun () ->
      ignore
        (Linkage.cluster Linkage.Single
           [| [| 0.; 1.; 2. |]; [| 1.; 0.; 3. |]; [| 2. |] |]));
  Alcotest.check_raises "asymmetric" (Invalid_argument "Linkage.cluster: not symmetric")
    (fun () ->
      ignore (Linkage.cluster Linkage.Single [| [| 0.; 1. |]; [| 2.; 0. |] |]));
  Alcotest.check_raises "nonzero diagonal"
    (Invalid_argument "Linkage.cluster: nonzero diagonal") (fun () ->
      ignore (Linkage.cluster Linkage.Single [| [| 1. |] |]))

let test_method_names () =
  List.iter
    (fun m ->
      Alcotest.(check bool) "roundtrip" true
        (Linkage.method_of_string (Linkage.method_name m) = Ok m))
    Linkage.all_methods;
  Alcotest.(check bool) "unknown named" true
    (Linkage.method_of_string "bogus"
    = Error "Linkage.method_of_string: bogus");
  Alcotest.(check int) "seven methods" 7 (List.length Linkage.all_methods)

(* The ward sweep over the ilcs-wide shape, 320 traces over 4 distinct
   attribute sets. The working matrix and the per-cluster arrays are
   longer than the minor heap's largest block, so they go straight to
   the major heap; the minor heap sees little more than the merge list,
   about 4k words a call. A boxed float per Lance–Williams update or a
   tuple per row scan (about 400k words a call) fails the bound. The
   mean over 20 calls smooths out the lag in the runtime's allocation
   counters. *)
let test_ward_sweep_allocation () =
  let ctx =
    Context.of_attr_sets
      (List.init 320 (fun i ->
           ( Printf.sprintf "%d.%d" (i / 5) (i mod 5),
             List.init (20 + (i mod 4)) (fun j -> Printf.sprintf "a%d" ((i mod 4) + j)) )))
  in
  let j = Jsm.of_context ctx in
  let calls = 20 in
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    ignore (Sys.opaque_identity (Linkage.of_similarity Linkage.Ward j))
  done;
  let words = (Gc.minor_words () -. before) /. float_of_int calls in
  let bound = 64. *. 320. in
  if words > bound then
    Alcotest.failf "Linkage.of_similarity Ward allocated %.0f minor words a call (bound %.0f)"
      words bound

let dist_gen =
  QCheck2.Gen.(
    let* n = int_range 2 8 in
    let* cells = list_repeat (n * n) (float_bound_inclusive 10.0) in
    let a = Array.of_list cells in
    let m =
      Array.init n (fun i ->
          Array.init n (fun j ->
              if i = j then 0.0
              else
                let x = a.((min i j * n) + max i j) in
                x +. 0.001))
    in
    return m)

let prop_all_methods_terminate =
  qtest "every linkage produces n-1 nondecreasing-size merges" dist_gen (fun m ->
      List.for_all
        (fun meth ->
          let t = Linkage.cluster meth m in
          Array.length t.Linkage.merges = Array.length m - 1
          && t.Linkage.merges.(Array.length t.Linkage.merges - 1).Linkage.size
             = Array.length m)
        Linkage.all_methods)

let prop_single_below_complete =
  qtest "single-linkage heights <= complete-linkage heights" dist_gen (fun m ->
      let hs meth =
        Array.map (fun x -> x.Linkage.dist) (Linkage.cluster meth m).Linkage.merges
      in
      let s = hs Linkage.Single and c = hs Linkage.Complete in
      (* compare the final (root) heights: max pairwise <= is not
         guaranteed stepwise, but the root is *)
      s.(Array.length s - 1) <= c.(Array.length c - 1) +. 1e-9)

let prop_cut_k_counts =
  qtest "cut_k yields exactly k clusters"
    QCheck2.Gen.(pair dist_gen (int_range 1 8))
    (fun (m, k) ->
      let n = Array.length m in
      let k = min k n in
      let t = Linkage.cluster Linkage.Average m in
      let a = Linkage.cut_k t k in
      let distinct = List.sort_uniq Int.compare (Array.to_list a) in
      List.length distinct = k)

let test_cut_height_inversion () =
  (* centroid merges {0,1} at 1.0, then 2 at 0.923 < 1.0: at h = 0.95
     the second merge sits on a refused one, so nothing merges *)
  let m = [| [| 0.; 1.; 1.05 |]; [| 1.; 0.; 1.05 |]; [| 1.05; 1.05; 0. |] |] in
  let t = Linkage.cluster Linkage.Centroid m in
  Alcotest.(check (list (float 1e-3))) "inverted heights" [ 1.0; 0.923 ]
    (Array.to_list (Array.map (fun mg -> mg.Linkage.dist) t.Linkage.merges));
  Alcotest.(check (array int)) "h=0.95 nothing merged" [| 0; 1; 2 |]
    (Linkage.cut_height t 0.95);
  Alcotest.(check (array int)) "h=1.0 everything" [| 0; 0; 0 |]
    (Linkage.cut_height t 1.0)

(* ------------------------------------------------------------------ *)
(* Naive oracles for the clustering fast paths                         *)
(* ------------------------------------------------------------------ *)

(* The full-sweep agglomeration Linkage.cluster must equal bit for bit:
   every step rescans every pair of active ids in ascending (i, j)
   order, and a later pair wins only when smaller by more than 1e-15. *)
let oracle_squared_space = function
  | Linkage.Centroid | Linkage.Median | Linkage.Ward -> true
  | Linkage.Single | Linkage.Complete | Linkage.Average | Linkage.Weighted -> false

let oracle_lance_williams meth ~ni ~nj ~nk dki dkj dij =
  let fi = float_of_int ni
  and fj = float_of_int nj
  and fk = float_of_int nk in
  match meth with
  | Linkage.Single -> Float.min dki dkj
  | Linkage.Complete -> Float.max dki dkj
  | Linkage.Average -> ((fi *. dki) +. (fj *. dkj)) /. (fi +. fj)
  | Linkage.Weighted -> 0.5 *. (dki +. dkj)
  | Linkage.Centroid ->
    let s = fi +. fj in
    ((fi /. s) *. dki) +. ((fj /. s) *. dkj) -. (fi *. fj /. (s *. s) *. dij)
  | Linkage.Median -> (0.5 *. dki) +. (0.5 *. dkj) -. (0.25 *. dij)
  | Linkage.Ward ->
    let s = fk +. fi +. fj in
    (((fk +. fi) *. dki) +. ((fk +. fj) *. dkj) -. (fk *. dij)) /. s

let oracle_cluster meth m =
  let n = Array.length m in
  let sq = oracle_squared_space meth in
  let size = 2 * n in
  let d = Array.make_matrix size size nan in
  for i = 0 to n - 1 do
    for j = 0 to n - 1 do
      d.(i).(j) <- (if sq then m.(i).(j) *. m.(i).(j) else m.(i).(j))
    done
  done;
  let active = Array.make size false in
  let csize = Array.make size 0 in
  for i = 0 to n - 1 do
    active.(i) <- true;
    csize.(i) <- 1
  done;
  let merges = ref [] in
  for step = 0 to n - 2 do
    let best = ref (-1, -1, infinity) in
    for i = 0 to n + step - 1 do
      if active.(i) then
        for j = i + 1 to n + step - 1 do
          if active.(j) then
            let _, _, bd = !best in
            if d.(i).(j) < bd -. 1e-15 then best := (i, j, d.(i).(j))
        done
    done;
    let a, b, dij = !best in
    let newc = n + step in
    let ni = csize.(a) and nj = csize.(b) in
    for k = 0 to newc - 1 do
      if active.(k) && k <> a && k <> b then begin
        let v =
          oracle_lance_williams meth ~ni ~nj ~nk:csize.(k) d.(k).(a) d.(k).(b) dij
        in
        d.(k).(newc) <- v;
        d.(newc).(k) <- v
      end
    done;
    active.(a) <- false;
    active.(b) <- false;
    active.(newc) <- true;
    csize.(newc) <- ni + nj;
    let height = if sq then sqrt (Float.max 0.0 dij) else dij in
    merges := { Linkage.a; b; dist = height; size = ni + nj } :: !merges
  done;
  { Linkage.n; merges = Array.of_list (List.rev !merges) }

(* A cut from scratch: plain union-find over the first n - k merges,
   ids renumbered by first appearance over the leaves. *)
let oracle_cut_k (t : Linkage.t) k =
  let n = t.Linkage.n in
  let parent = Array.init (2 * n) (fun i -> i) in
  let rec find i = if parent.(i) = i then i else find parent.(i) in
  for step = 0 to n - k - 1 do
    let mg = t.Linkage.merges.(step) in
    parent.(find mg.Linkage.a) <- n + step;
    parent.(find mg.Linkage.b) <- n + step
  done;
  let ids = Hashtbl.create 16 in
  Array.init n (fun leaf ->
      let root = find leaf in
      match Hashtbl.find_opt ids root with
      | Some id -> id
      | None ->
        let id = Hashtbl.length ids in
        Hashtbl.add ids root id;
        id)

(* B_k over a dense contingency table *)
let oracle_bk_of_assignments x y =
  let n = Array.length x in
  let kx = 1 + Array.fold_left max 0 x and ky = 1 + Array.fold_left max 0 y in
  let mm = Array.make_matrix kx ky 0 in
  Array.iteri (fun i xi -> mm.(xi).(y.(i)) <- mm.(xi).(y.(i)) + 1) x;
  let tk = ref 0 and pk = ref 0 and qk = ref 0 in
  for a = 0 to kx - 1 do
    let row = Array.fold_left ( + ) 0 mm.(a) in
    Array.iter (fun c -> tk := !tk + (c * c)) mm.(a);
    pk := !pk + (row * row)
  done;
  for b = 0 to ky - 1 do
    let col = ref 0 in
    for a = 0 to kx - 1 do
      col := !col + mm.(a).(b)
    done;
    qk := !qk + (!col * !col)
  done;
  let tk = !tk - n and pk = !pk - n and qk = !qk - n in
  if pk = 0 || qk = 0 then 1.0
  else float_of_int tk /. sqrt (float_of_int pk *. float_of_int qk)

(* (k, B_k) for k = 2 .. n-1, each level from scratch, and their mean *)
let oracle_series (a : Linkage.t) (b : Linkage.t) =
  let n = a.Linkage.n in
  List.init (max 0 (n - 2)) (fun i ->
      let k = i + 2 in
      (k, oracle_bk_of_assignments (oracle_cut_k a k) (oracle_cut_k b k)))

let oracle_score a b =
  match oracle_series a b with
  | [] -> 1.0
  | s -> List.fold_left (fun acc (_, v) -> acc +. v) 0.0 s /. float_of_int (List.length s)

let bits = Int64.bits_of_float

let same_linkage (x : Linkage.t) (y : Linkage.t) =
  x.Linkage.n = y.Linkage.n
  && Array.length x.Linkage.merges = Array.length y.Linkage.merges
  && Array.for_all2
       (fun (p : Linkage.merge) (q : Linkage.merge) ->
         p.Linkage.a = q.Linkage.a && p.Linkage.b = q.Linkage.b
         && p.Linkage.size = q.Linkage.size
         && bits p.Linkage.dist = bits q.Linkage.dist)
       x.Linkage.merges y.Linkage.merges

(* Zero-diagonal, NaN-free matrices that provoke ties: cells take one
   of a few quantised levels (exact ties, and more of them as
   Lance–Williams updates combine equal values), optionally moved by up
   to 4 ulps (near-ties inside the 1e-15 pick tolerance; the two
   triangles move independently, within the symmetry tolerance), or
   are continuous. Built from a seed so large cases stay cheap to
   shrink. *)
type cells = Quantised | Jittered | Continuous

let cells_name = function
  | Quantised -> "quantised"
  | Jittered -> "jittered"
  | Continuous -> "continuous"

let rec ulps k x =
  if k = 0 then x
  else if k > 0 then ulps (k - 1) (Float.succ x)
  else ulps (k + 1) (Float.pred x)

let tie_matrix kind ~levels ~n ~seed =
  let st = Random.State.make [| seed |] in
  let jitter v = ulps (Random.State.int st 9 - 4) v in
  let m = Array.make_matrix n n 0.0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let q = float_of_int (Random.State.int st (levels + 1)) /. 4.0 in
      let v, w =
        match kind with
        | Quantised -> (q, q)
        | Jittered -> (jitter (q +. 0.25), jitter (q +. 0.25))
        | Continuous ->
          let c = Random.State.float st 1.5 in
          (c, c)
      in
      m.(i).(j) <- v;
      m.(j).(i) <- w
    done
  done;
  m

(* (kind, n, levels, seed of the normal run, seed of the faulty run) *)
let tie_case_gen ~nmin ~nmax =
  QCheck2.Gen.(
    let* kind = oneofl [ Quantised; Jittered; Continuous ] in
    let* n = int_range nmin nmax in
    let* levels = int_range 1 6 in
    let* s1 = int_bound 1_000_000 in
    let* s2 = int_bound 1_000_000 in
    return (kind, n, levels, s1, s2))

let print_tie_case (kind, n, levels, s1, s2) =
  Printf.sprintf "%s n=%d levels=%d seeds=%d,%d" (cells_name kind) n levels s1 s2

let oracle_prop ?count name ~nmin ~nmax =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ?count ~name ~print:print_tie_case (tie_case_gen ~nmin ~nmax)
       (fun (kind, n, levels, s1, s2) ->
         let m1 = tie_matrix kind ~levels ~n ~seed:s1
         and m2 = tie_matrix kind ~levels ~n ~seed:s2 in
         List.for_all
           (fun meth ->
             let t1 = Linkage.cluster meth m1 and t2 = Linkage.cluster meth m2 in
             same_linkage t1 (oracle_cluster meth m1)
             && same_linkage t2 (oracle_cluster meth m2)
             && bits (Bscore.score t1 t2) = bits (oracle_score t1 t2)
             && List.for_all2
                  (fun (k, v) (k', v') -> k = k' && bits v = bits v')
                  (Bscore.series t1 t2) (oracle_series t1 t2))
           Linkage.all_methods))

let prop_oracle_small =
  oracle_prop ~count:300 "cluster, score, series = naive oracles (n <= 60)" ~nmin:1
    ~nmax:60

let prop_oracle_large =
  oracle_prop ~count:4 "cluster, score, series = naive oracles (n in 200..400)"
    ~nmin:200 ~nmax:400

let prop_cuts_match_oracle =
  qtest "cut_k and bk = naive oracles"
    QCheck2.Gen.(pair (tie_case_gen ~nmin:1 ~nmax:40) (int_range 1 40))
    (fun ((kind, n, levels, s1, s2), k) ->
      let k = 1 + ((k - 1) mod n) in
      let t1 = Linkage.cluster Linkage.Average (tie_matrix kind ~levels ~n ~seed:s1)
      and t2 = Linkage.cluster Linkage.Ward (tie_matrix kind ~levels ~n ~seed:s2) in
      Linkage.cut_k t1 k = oracle_cut_k t1 k
      && bits (Bscore.bk t1 t2 ~k) = bits (oracle_bk_of_assignments (oracle_cut_k t1 k) (oracle_cut_k t2 k)))

(* ------------------------------------------------------------------ *)
(* Dendrogram                                                          *)
(* ------------------------------------------------------------------ *)

let test_dendrogram_structure () =
  let t = Linkage.cluster Linkage.Average line_matrix in
  let tree = Dendrogram.of_linkage t in
  Alcotest.(check (float 1e-9)) "root height" 8.0 (Dendrogram.height tree);
  let order = Dendrogram.leaf_order tree in
  Alcotest.(check int) "all leaves" 4 (List.length order);
  Alcotest.(check (list int)) "sorted leaves" [ 0; 1; 2; 3 ]
    (List.sort Int.compare order);
  (* pairs {0,1} and {2,3} must be adjacent in the leaf order *)
  let pos x = Option.get (List.find_index (Int.equal x) order) in
  Alcotest.(check int) "0 next to 1" 1 (abs (pos 0 - pos 1));
  Alcotest.(check int) "2 next to 3" 1 (abs (pos 2 - pos 3))

let test_dendrogram_single_leaf () =
  let t = Linkage.cluster Linkage.Single [| [| 0.0 |] |] in
  let tree = Dendrogram.of_linkage t in
  Alcotest.(check (list int)) "one leaf" [ 0 ] (Dendrogram.leaf_order tree);
  Alcotest.(check (float 1e-9)) "zero height" 0.0 (Dendrogram.height tree)

let test_dendrogram_render () =
  let t = Linkage.cluster Linkage.Average line_matrix in
  let s = Dendrogram.render ~labels:[| "a"; "b"; "c"; "d" |] t in
  let contains sub =
    let n = String.length sub and h = String.length s in
    let rec go i = i + n <= h && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "labels shown" true
    (contains "a" && contains "d");
  Alcotest.(check bool) "root height annotated" true (contains "[8.00]")

let prop_dendrogram_leaves_permutation =
  qtest "dendrogram leaf order is a permutation of the leaves" dist_gen (fun m ->
      let t = Linkage.cluster Linkage.Ward m in
      let order = Dendrogram.leaf_order (Dendrogram.of_linkage t) in
      List.sort Int.compare order = List.init (Array.length m) (fun i -> i))

let prop_dendrogram_root_height_is_last_merge =
  qtest "dendrogram root height = final merge height" dist_gen (fun m ->
      let t = Linkage.cluster Linkage.Average m in
      let expected =
        t.Linkage.merges.(Array.length t.Linkage.merges - 1).Linkage.dist
      in
      Float.abs (Dendrogram.height (Dendrogram.of_linkage t) -. expected) < 1e-9)

(* ------------------------------------------------------------------ *)
(* B-score                                                             *)
(* ------------------------------------------------------------------ *)

let test_bk_identical () =
  Alcotest.(check (float 1e-9)) "identical clusterings" 1.0
    (Bscore.bk_of_assignments [| 0; 0; 1; 1 |] [| 1; 1; 0; 0 |])

let test_bk_disjoint () =
  Alcotest.(check (float 1e-9)) "orthogonal clusterings" 0.0
    (Bscore.bk_of_assignments [| 0; 0; 1; 1 |] [| 0; 1; 0; 1 |])

let test_bk_all_singletons () =
  Alcotest.(check (float 1e-9)) "singletons carry no information" 1.0
    (Bscore.bk_of_assignments [| 0; 1; 2 |] [| 2; 1; 0 |])

let test_score_self () =
  let t = Linkage.cluster Linkage.Average line_matrix in
  Alcotest.(check (float 1e-9)) "B(x,x) = 1" 1.0 (Bscore.score t t)

let test_score_differs () =
  let t1 = Linkage.cluster Linkage.Average line_matrix in
  (* a matrix grouping 0-2 and 1-3 instead *)
  let m2 =
    [| [| 0.; 8.; 1.; 9. |];
       [| 8.; 0.; 9.; 1. |];
       [| 1.; 9.; 0.; 8. |];
       [| 9.; 1.; 8.; 0. |] |]
  in
  let t2 = Linkage.cluster Linkage.Average m2 in
  let s = Bscore.score t1 t2 in
  Alcotest.(check bool) "restructured clustering scores below 1" true (s < 1.0);
  Alcotest.(check bool) "and is nonnegative" true (s >= 0.0)

let test_series_range () =
  let t = Linkage.cluster Linkage.Average line_matrix in
  let series = Bscore.series t t in
  Alcotest.(check (list int)) "k ranges 2..n-1" [ 2; 3 ] (List.map fst series)

let test_bk_mismatch () =
  Alcotest.check_raises "leaf count mismatch"
    (Invalid_argument "Bscore: leaf count mismatch") (fun () ->
      ignore (Bscore.bk_of_assignments [| 0 |] [| 0; 1 |]))

let prop_bscore_bounds =
  qtest "B-score in [0, 1] and B(x,x)=1"
    QCheck2.Gen.(pair dist_gen dist_gen)
    (fun (m1, m2) ->
      let n = min (Array.length m1) (Array.length m2) in
      let shrink m = Array.map (fun r -> Array.sub r 0 n) (Array.sub m 0 n) in
      let t1 = Linkage.cluster Linkage.Ward (shrink m1) in
      let t2 = Linkage.cluster Linkage.Ward (shrink m2) in
      let s = Bscore.score t1 t2 in
      s >= -1e-9 && s <= 1.0 +. 1e-9 && Bscore.score t1 t1 = 1.0)

(* ------------------------------------------------------------------ *)
(* JSM                                                                 *)
(* ------------------------------------------------------------------ *)

let ctx l = Context.of_attr_sets l

let test_jsm_of_context () =
  let j =
    Jsm.of_context
      (ctx [ ("a", [ "x"; "y" ]); ("b", [ "x"; "y" ]); ("c", [ "z" ]) ])
  in
  Alcotest.(check int) "size" 3 (Jsm.size j);
  Alcotest.(check (float 1e-9)) "identical objects" 1.0 (Jsm.get j 0 1);
  Alcotest.(check (float 1e-9)) "disjoint objects" 0.0 (Jsm.get j 0 2);
  Alcotest.(check (float 1e-9)) "diagonal" 1.0 (Jsm.get j 2 2)

let test_jsm_diff_aligns_labels () =
  let a = Jsm.of_context (ctx [ ("t0", [ "x" ]); ("t1", [ "x" ]); ("t2", [ "y" ]) ]) in
  let b = Jsm.of_context (ctx [ ("t0", [ "x" ]); ("t2", [ "x" ]) ]) in
  let d = Jsm.diff a b in
  Alcotest.(check (array string)) "common labels only" [| "t0"; "t2" |] d.Jsm.labels;
  (* a: J(t0,t2)=0; b: J(t0,t2)=1 -> |diff| = 1 *)
  Alcotest.(check (float 1e-9)) "restructured pair" 1.0 (Jsm.get d 0 1);
  Alcotest.(check (float 1e-9)) "row change" 1.0 (Jsm.row_change d 0)

let test_jsm_diff_self_zero () =
  let a = Jsm.of_context (ctx [ ("t0", [ "x" ]); ("t1", [ "y" ]) ]) in
  let d = Jsm.diff a a in
  Alcotest.(check (float 1e-9)) "self diff zero" 0.0 (Jsm.row_change d 0)

let test_jsm_to_distance () =
  let a = Jsm.of_context (ctx [ ("t0", [ "x" ]); ("t1", [ "x" ]) ]) in
  let d = Jsm.to_distance a in
  Alcotest.(check (float 1e-9)) "distance = 1 - sim" 0.0 (Jsm.get d 0 1);
  Alcotest.(check (float 1e-9)) "self distance" 0.0 (Jsm.get d 0 0)

let test_jsm_heatmap () =
  let a = Jsm.of_context (ctx [ ("t0", [ "x" ]); ("t1", [ "y" ]) ]) in
  let s = Jsm.heatmap a in
  Alcotest.(check bool) "renders" true (String.length s > 20)

let test_jsm_align_partial_overlap () =
  (* alignment restricted to the label intersection, in first-matrix
     order — the hand-assembled records exercise [align] away from the
     [of_context] invariants *)
  let a =
    Jsm.of_dense ~labels:[| "a"; "b"; "c" |]
      [| [| 1.0; 0.5; 0.2 |]; [| 0.5; 1.0; 0.4 |]; [| 0.2; 0.4; 1.0 |] |]
  in
  let b =
    Jsm.of_dense ~labels:[| "c"; "b"; "d" |]
      [| [| 1.0; 0.1; 0.0 |]; [| 0.1; 1.0; 0.3 |]; [| 0.0; 0.3; 1.0 |] |]
  in
  let a', b' = Jsm.align a b in
  Alcotest.(check (array string)) "intersection, a-order" [| "b"; "c" |]
    a'.Jsm.labels;
  Alcotest.(check (float 1e-9)) "a cell picked" 0.4 (Jsm.get a' 0 1);
  Alcotest.(check (float 1e-9)) "b cell picked (b-indices)" 0.1 (Jsm.get b' 0 1)

let test_jsm_align_ragged_rejected () =
  (* malformed matrices (the partially-failed campaign cell case) are
     diagnosed by name at construction, not as a bare out-of-bounds;
     label/dimension drift is still caught at align time *)
  Alcotest.check_raises "missing row named"
    (Invalid_argument "Jsm.of_dense: 2 labels but 1 rows")
    (fun () ->
      ignore (Jsm.of_dense ~labels:[| "a"; "b" |] [| [| 1.0; 0.0 |] |]));
  Alcotest.check_raises "short row named"
    (Invalid_argument
       "Jsm.of_dense: row 1 (label \"b\") has 1 columns, expected 2")
    (fun () ->
      ignore
        (Jsm.of_dense ~labels:[| "a"; "b" |] [| [| 1.0; 0.0 |]; [| 0.0 |] |]));
  let ok = Jsm.of_dense ~labels:[| "a"; "b" |] [| [| 1.0; 0.0 |]; [| 0.0; 1.0 |] |] in
  let drifted = { ok with Jsm.labels = [| "a" |] } in
  Alcotest.check_raises "label/dimension drift named"
    (Invalid_argument "Jsm.align: second matrix has 1 labels but 2 rows")
    (fun () -> ignore (Jsm.align ok drifted))

let test_jsm_diff_disjoint_labels () =
  (* no common labels: an empty (but well-formed) diff, not a crash *)
  let a = Jsm.of_context (ctx [ ("t0", [ "x" ]) ]) in
  let b = Jsm.of_context (ctx [ ("t9", [ "x" ]) ]) in
  let d = Jsm.diff a b in
  Alcotest.(check int) "empty alignment" 0 (Array.length d.Jsm.labels)

let test_jsm_empty_matrix_views () =
  (* regression: heatmap and row_change once indexed into the 0-trace
     matrix that diffing label-disjoint runs produces *)
  let a = Jsm.of_context (ctx [ ("t0", [ "x" ]) ]) in
  let b = Jsm.of_context (ctx [ ("t9", [ "x" ]) ]) in
  let d = Jsm.diff a b in
  Alcotest.(check string) "heatmap placeholder" "(no traces)\n" (Jsm.heatmap d);
  Alcotest.(check (float 1e-9)) "row change on empty" 0.0 (Jsm.row_change d 0)

(* ------------------------------------------------------------------ *)
(* Class-quotiented JSM: oracles over duplicate-heavy contexts          *)
(* ------------------------------------------------------------------ *)

module Bitset = Difftrace_util.Bitset
module Engine = Difftrace.Engine
module Telemetry = Difftrace_obs.Telemetry

let shuffle st a =
  for i = Array.length a - 1 downto 1 do
    let j = Random.State.int st (i + 1) in
    let t = a.(i) in
    a.(i) <- a.(j);
    a.(j) <- t
  done;
  a

(* n objects over exactly min(d, n) distinct attribute sets, shuffled:
   row r holds the bits of r as attributes "b.." (so rows differ) plus
   a random subset of "x.." extras; row 0 is often the empty set *)
let dup_rows ~n ~d ~seed =
  let st = Random.State.make [| seed |] in
  let d = min d n in
  let empty0 = Random.State.bool st in
  let row r =
    let bits = List.filter (fun k -> (r lsr k) land 1 = 1) (List.init 7 Fun.id) in
    let extras =
      if r = 0 && empty0 then []
      else List.filter (fun _ -> Random.State.int st 3 = 0) (List.init 6 Fun.id)
    in
    Array.to_list
      (shuffle st
         (Array.of_list
            (List.map (Printf.sprintf "b%d") bits @ List.map (Printf.sprintf "x%d") extras)))
  in
  let rows = Array.init d row in
  let pick =
    shuffle st (Array.init n (fun i -> if i < d then i else Random.State.int st d))
  in
  (d, Array.to_list (Array.mapi (fun i r -> (Printf.sprintf "t%d" i, rows.(r))) pick))

let dup_case_gen =
  QCheck2.Gen.(
    let* n = int_range 1 60 in
    let* d = oneofl [ 1; 2; 4; n ] in
    let* seed = int_bound 1_000_000 in
    return (n, d, seed))

let print_dup_case (n, d, seed) = Printf.sprintf "n=%d d=%d seed=%d" n d seed

let dup_test ?(count = 100) name prop =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count ~name ~print:print_dup_case dup_case_gen prop)

let par4 = Engine.init (Engine.parallel ~domains:4 ())

let naive_jsm ctx =
  let n = Context.n_objects ctx in
  Array.init n (fun i -> Array.init n (fun j -> Context.jaccard ctx i j))

let same_bits_rows x y =
  Array.length x = Array.length y
  && Array.for_all2
       (fun r s ->
         Array.length r = Array.length s
         && Array.for_all2 (fun a b -> bits a = bits b) r s)
       x y

let same_jsm (a : Jsm.t) (b : Jsm.t) =
  a.Jsm.labels = b.Jsm.labels && same_bits_rows (Jsm.rows a) (Jsm.rows b)

let prop_classes =
  dup_test "classes: equal bitsets, first-occurrence ids" (fun (n, d, seed) ->
      let d, rows = dup_rows ~n ~d ~seed in
      let ctx = Context.of_attr_sets rows in
      let cls = Array.init n (Context.class_of ctx) in
      let same_class_iff_equal =
        List.for_all
          (fun i ->
            List.for_all
              (fun j ->
                (cls.(i) = cls.(j))
                = Bitset.equal (Context.object_attrs ctx i) (Context.object_attrs ctx j))
              (List.init n Fun.id))
          (List.init n Fun.id)
      in
      let next = ref 0 and first_occurrence = ref true in
      Array.iteri
        (fun i c ->
          if c = !next then begin
            if Context.class_rep ctx c <> i then first_occurrence := false;
            incr next
          end
          else if c > !next then first_occurrence := false)
        cls;
      Context.n_classes ctx = d && !next = d && same_class_iff_equal
      && !first_occurrence)

let c_cells = Telemetry.Counter.make "jsm.cells"
let c_evals = Telemetry.Counter.make "jsm.jaccard_evals"

let counted f =
  Telemetry.enable ();
  Fun.protect ~finally:Telemetry.disable (fun () ->
      let c0 = Telemetry.Counter.value c_cells
      and e0 = Telemetry.Counter.value c_evals in
      let r = f () in
      (r, Telemetry.Counter.value c_cells - c0, Telemetry.Counter.value c_evals - e0))

let prop_compute_oracle =
  dup_test "compute = naive all-pairs Jaccard, d(d+1)/2 evals, seq and 4 domains"
    (fun (n, d, seed) ->
      let d, rows = dup_rows ~n ~d ~seed in
      let ctx = Context.of_attr_sets rows in
      let expected = naive_jsm ctx in
      List.for_all
        (fun init ->
          let j, cells, evals = counted (fun () -> Jsm.compute ~init ctx) in
          same_bits_rows (Jsm.rows j) expected
          && j.Jsm.labels = Array.of_list (List.map fst rows)
          && cells = n * n
          && evals = d * (d + 1) / 2)
        [ Array.init; par4 ])

let prop_of_similarity_oracle =
  dup_test ~count:60 "of_similarity = cluster of rows of to_distance, all methods"
    (fun (n, d, seed) ->
      let _, rows = dup_rows ~n ~d ~seed in
      let j = Jsm.of_context (Context.of_attr_sets rows) in
      List.for_all
        (fun meth ->
          same_linkage (Linkage.of_similarity meth j)
            (Linkage.cluster meth (Jsm.rows (Jsm.to_distance j))))
        Linkage.all_methods)

let test_of_similarity_validation () =
  Alcotest.check_raises "empty"
    (Invalid_argument "Linkage.of_similarity: empty matrix") (fun () ->
      ignore (Linkage.of_similarity Linkage.Ward (Jsm.of_dense ~labels:[||] [||])));
  Alcotest.check_raises "diagonal"
    (Invalid_argument "Linkage.of_similarity: nonzero diagonal") (fun () ->
      ignore
        (Linkage.of_similarity Linkage.Ward
           (Jsm.of_dense ~labels:[| "a"; "b" |] [| [| 1.0; 0.5 |]; [| 0.5; 0.9 |] |])))

(* align as it was specified before its fast path: the common labels in
   a's order, each resolved to its first occurrence on either side *)
let naive_align (a : Jsm.t) (b : Jsm.t) =
  let first labels l =
    let rec go i = if labels.(i) = l then i else go (i + 1) in
    go 0
  in
  let labels =
    Array.of_list
      (List.filter (fun l -> Array.mem l b.Jsm.labels) (Array.to_list a.Jsm.labels))
  in
  let pick (m : Jsm.t) =
    let idx = Array.map (first m.Jsm.labels) labels in
    Jsm.of_dense ~labels
      (Array.map (fun i -> Array.map (fun j -> Jsm.get m i j) idx) idx)
  in
  (pick a, pick b)

let align_case_gen =
  QCheck2.Gen.(
    let* n = int_range 1 30 in
    let* kind = oneofl [ `Same; `Permuted; `Duplicates; `Overlap ] in
    let* seed = int_bound 1_000_000 in
    return (n, kind, seed))

let print_align_case (n, kind, seed) =
  Printf.sprintf "n=%d %s seed=%d" n
    (match kind with
    | `Same -> "same"
    | `Permuted -> "permuted"
    | `Duplicates -> "duplicates"
    | `Overlap -> "overlap")
    seed

let prop_align_oracle =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:200 ~name:"align fast path = general path = naive"
       ~print:print_align_case align_case_gen (fun (n, kind, seed) ->
         let st = Random.State.make [| seed |] in
         let matrix labels =
           let n = Array.length labels in
           let m = Array.make_matrix n n 1.0 in
           for i = 0 to n - 1 do
             for j = i + 1 to n - 1 do
               let v = Random.State.float st 1.0 in
               m.(i).(j) <- v;
               m.(j).(i) <- v
             done
           done;
           Jsm.of_dense ~labels m
         in
         let distinct = Array.init n (Printf.sprintf "t%d") in
         let la, lb =
           match kind with
           | `Same -> (distinct, Array.copy distinct)
           | `Permuted -> (distinct, shuffle st (Array.copy distinct))
           | `Duplicates ->
             let dup = Array.init n (fun _ -> distinct.(Random.State.int st n)) in
             (dup, Array.copy dup)
           | `Overlap ->
             ( Array.init n (fun _ -> distinct.(Random.State.int st n)),
               Array.init n (fun _ -> distinct.(Random.State.int st n)) )
         in
         let a = matrix la and b = matrix lb in
         let a', b' = Jsm.align a b and na, nb = naive_align a b in
         let fast_path_taken = a' == a && b' == b in
         same_jsm a' na && same_jsm b' nb
         && same_jsm (Jsm.diff a b) (Jsm.diff_aligned na nb)
         && (kind <> `Same || fast_path_taken)))

(* ------------------------------------------------------------------ *)
(* Class-level linkage: the class sweep against the dense oracle        *)
(* ------------------------------------------------------------------ *)

module Symmat = Difftrace_util.Symmat

(* [Linkage.cluster] over the dense distance mirror is the oracle; an
   exception is part of the answer (NaN cells can disconnect both) *)
let class_linkage_agrees (j : Jsm.t) =
  let answer f = match f () with t -> Ok t | exception Invalid_argument m -> Error m in
  List.for_all
    (fun meth ->
      match
        ( answer (fun () -> Linkage.of_similarity meth j),
          answer (fun () -> Linkage.cluster meth (Jsm.rows (Jsm.to_distance j))) )
      with
      | Ok x, Ok y -> same_linkage x y
      | Error x, Error y -> x = y
      | Ok _, Error _ | Error _, Ok _ -> false)
    Linkage.all_methods

type variant = Plain | Tied | Near_tie | Nan_cell | Inexact_diagonal

let variant_name = function
  | Plain -> "plain"
  | Tied -> "tied classes"
  | Near_tie -> "class distance <= 2e-15"
  | Nan_cell -> "nan cell"
  | Inexact_diagonal -> "diagonal off 1"

let class_case_gen =
  QCheck2.Gen.(
    let* n = int_range 1 60 in
    let* d = oneof [ return 1; return 2; return n; int_range 1 n ] in
    let* unused = int_bound 2 in
    let* variant = oneofl [ Plain; Plain; Tied; Near_tie; Nan_cell; Inexact_diagonal ] in
    let* seed = int_bound 1_000_000 in
    return (n, d, unused, variant, seed))

let print_class_case (n, d, unused, variant, seed) =
  Printf.sprintf "n=%d d=%d unused=%d %s seed=%d" n d unused (variant_name variant) seed

(* n traces over d classes (every class used, the rest of the traces
   spread at random, so singleton classes are common at large d), a
   class matrix with [unused] more classes that hold no trace, and
   cells drawn from a few levels so that Lance–Williams updates tie *)
let class_jsm (n, d, unused, variant, seed) =
  let st = Random.State.make [| seed |] in
  let cls = shuffle st (Array.init n (fun i -> if i < d then i else Random.State.int st d)) in
  let dm = d + unused in
  let levels = [| 0.0; 0.25; 0.5; 0.75; 0.9; 1.0 /. 3.0 |] in
  let cell () =
    if Random.State.int st 4 = 0 then Random.State.float st 1.0
    else levels.(Random.State.int st (Array.length levels))
  in
  let c = Array.make_matrix dm dm 1.0 in
  for a = 0 to dm - 1 do
    for b = a + 1 to dm - 1 do
      let v = cell () in
      c.(a).(b) <- v;
      c.(b).(a) <- v
    done
  done;
  let set a b v =
    c.(a).(b) <- v;
    c.(b).(a) <- v
  in
  let pick () = Random.State.int st d in
  (match variant with
  | Plain -> ()
  | Tied -> if d > 1 then set 0 1 1.0
  | Near_tie -> if d > 1 then set 0 (1 + Random.State.int st (d - 1)) (1.0 -. 2e-15)
  | Nan_cell -> if d > 1 then set (pick ()) (1 + Random.State.int st (d - 1)) Float.nan
  | Inexact_diagonal -> c.(cls.(0)).(cls.(0)) <- 1.0 -. 1e-13);
  { Jsm.labels = Array.init n (Printf.sprintf "t%d"); cls; m = Symmat.init dm (fun a b -> c.(a).(b)) }

let prop_class_linkage_random =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:400
       ~name:"of_similarity = dense oracle on random class structures, all methods"
       ~print:print_class_case class_case_gen (fun case ->
         class_linkage_agrees (class_jsm case)))

let prop_class_linkage_sketch =
  dup_test ~count:60 "of_similarity = dense oracle on sketch-masked class matrices"
    (fun (n, d, seed) ->
      let _, rows = dup_rows ~n ~d ~seed in
      let ctx = Context.of_attr_sets rows in
      class_linkage_agrees
        (Jsm.compute ~candidates:(Sketch.class_candidates ctx) ~init:Array.init ctx))

(* the trace-by-trace matrix: every trace its own class *)
let dense (j : Jsm.t) = Jsm.of_dense ~labels:j.Jsm.labels (Jsm.rows j)

let same_views (x : Jsm.t) (y : Jsm.t) =
  let n = Jsm.size x and changes = Jsm.row_changes x in
  same_jsm x y
  && List.for_all
       (fun i ->
         bits (Jsm.row_change x i) = bits (Jsm.row_change y i)
         && bits changes.(i) = bits (Jsm.row_change y i)
         && List.for_all
              (fun k -> bits (Jsm.get x i k) = bits (Jsm.get y i k))
              (List.init n Fun.id))
       (List.init n Fun.id)

(* Two runs whose label arrays miss and repeat labels; aligned, their
   class matrices keep classes no trace holds and traces that share a
   row. Clustering, the diff, its row sums and its cells all equal the
   trace-by-trace versions. *)
let prop_class_aligned =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:150
       ~name:"aligned runs with missing and repeated labels: linkage, diff, row_change, get"
       ~print:print_dup_case dup_case_gen (fun (n, d, seed) ->
         let st = Random.State.make [| seed; 1 |] in
         let run seed =
           let _, rows = dup_rows ~n ~d ~seed in
           Context.of_attr_sets
             (List.map
                (fun (_, attrs) -> (Printf.sprintf "t%d" (Random.State.int st (n + 2)), attrs))
                rows)
           |> Jsm.of_context
         in
         let a = run seed and b = run (seed + 1) in
         let a', b' = Jsm.align a b in
         let da', db' = Jsm.align (dense a) (dense b) in
         same_jsm a' da' && same_jsm b' db'
         && same_views (Jsm.diff_aligned a' b') (Jsm.diff_aligned da' db')
         && same_views (Jsm.diff a b) (Jsm.diff (dense a) (dense b))
         && (Jsm.size a' = 0 || (class_linkage_agrees a' && class_linkage_agrees b'))))

let c_updates = Telemetry.Counter.make "linkage.updates"
let c_merges = Telemetry.Counter.make "linkage.merges"

(* An ilcs np=64 compare with 4 workers: 320 traces a run over a few
   attribute classes. The class sweep evaluates at most
   Σ_{A<B} n_A·n_B + d² Lance–Williams updates a run, where the dense
   sweep evaluates (n-1)(n-2)/2, and it still records n - 1 merges. *)
let test_class_linkage_updates () =
  let module Ilcs = Difftrace_workloads.Ilcs in
  let module Fault = Difftrace_simulator.Fault in
  let module P = Difftrace.Pipeline in
  let run fault = (fst (Ilcs.run ~np:64 ~workers:4 ~fault ())).Difftrace_simulator.Runtime.traces in
  let normal = run Fault.No_fault
  and faulty = run (Fault.Wrong_collective_size { rank = 2 }) in
  let config = Difftrace.Config.make () in
  Telemetry.enable ();
  let c, updates, merges =
    Fun.protect ~finally:Telemetry.disable (fun () ->
        let u0 = Telemetry.Counter.value c_updates
        and m0 = Telemetry.Counter.value c_merges in
        let c = P.compare_runs config ~normal ~faulty in
        ( c,
          Telemetry.Counter.value c_updates - u0,
          Telemetry.Counter.value c_merges - m0 ))
  in
  let jn, jf = Jsm.align c.P.normal.P.jsm c.P.faulty.P.jsm in
  let bound (j : Jsm.t) =
    let count = Hashtbl.create 8 in
    Array.iter
      (fun k -> Hashtbl.replace count k (1 + Option.value ~default:0 (Hashtbl.find_opt count k)))
      j.Jsm.cls;
    let sizes = Hashtbl.fold (fun _ v acc -> v :: acc) count [] in
    let total = List.fold_left ( + ) 0 sizes and d = List.length sizes in
    let squares = List.fold_left (fun acc v -> acc + (v * v)) 0 sizes in
    (((total * total) - squares) / 2) + (d * d)
  in
  let n = Jsm.size jn in
  Alcotest.(check int) "320 traces a run" 320 n;
  Alcotest.(check int) "n - 1 merges a run" (2 * (n - 1)) merges;
  let limit = bound jn + bound jf in
  if updates > limit then
    Alcotest.failf "linkage.updates %d above Σ n_A·n_B + d² = %d" updates limit;
  if updates >= (n - 1) * (n - 2) then
    Alcotest.failf "linkage.updates %d not below the dense sweep's %d" updates
      ((n - 1) * (n - 2))

let () =
  Alcotest.run "cluster"
    [ ( "linkage",
        [ Alcotest.test_case "single heights" `Quick test_single_linkage_heights;
          Alcotest.test_case "complete heights" `Quick test_complete_linkage_heights;
          Alcotest.test_case "average heights" `Quick test_average_linkage_heights;
          Alcotest.test_case "ward two points" `Quick test_ward_two_points;
          Alcotest.test_case "merge sizes" `Quick test_merge_sizes;
          Alcotest.test_case "cut_k" `Quick test_cut_k;
          Alcotest.test_case "cut_height" `Quick test_cut_height;
          Alcotest.test_case "cut_height inversion" `Quick test_cut_height_inversion;
          Alcotest.test_case "cophenetic" `Quick test_cophenetic;
          Alcotest.test_case "validation" `Quick test_validation;
          Alcotest.test_case "method names" `Quick test_method_names;
          prop_all_methods_terminate;
          prop_single_below_complete;
          prop_cut_k_counts;
          prop_cuts_match_oracle;
          Alcotest.test_case "ward sweep allocation bound" `Quick
            test_ward_sweep_allocation ] );
      ( "oracle",
        [ prop_oracle_small; prop_oracle_large ] );
      ( "dendrogram",
        [ Alcotest.test_case "structure" `Quick test_dendrogram_structure;
          Alcotest.test_case "single leaf" `Quick test_dendrogram_single_leaf;
          Alcotest.test_case "render" `Quick test_dendrogram_render;
          prop_dendrogram_leaves_permutation;
          prop_dendrogram_root_height_is_last_merge ] );
      ( "bscore",
        [ Alcotest.test_case "identical" `Quick test_bk_identical;
          Alcotest.test_case "orthogonal" `Quick test_bk_disjoint;
          Alcotest.test_case "singleton convention" `Quick test_bk_all_singletons;
          Alcotest.test_case "score self" `Quick test_score_self;
          Alcotest.test_case "score differs" `Quick test_score_differs;
          Alcotest.test_case "series range" `Quick test_series_range;
          Alcotest.test_case "mismatch rejected" `Quick test_bk_mismatch;
          prop_bscore_bounds ] );
      ( "jsm",
        [ Alcotest.test_case "of_context" `Quick test_jsm_of_context;
          Alcotest.test_case "diff aligns labels" `Quick test_jsm_diff_aligns_labels;
          Alcotest.test_case "self diff zero" `Quick test_jsm_diff_self_zero;
          Alcotest.test_case "to_distance" `Quick test_jsm_to_distance;
          Alcotest.test_case "heatmap" `Quick test_jsm_heatmap;
          Alcotest.test_case "align partial overlap" `Quick
            test_jsm_align_partial_overlap;
          Alcotest.test_case "align ragged rejected" `Quick
            test_jsm_align_ragged_rejected;
          Alcotest.test_case "diff disjoint labels" `Quick
            test_jsm_diff_disjoint_labels;
          Alcotest.test_case "empty matrix views" `Quick
            test_jsm_empty_matrix_views ] );
      ( "classes",
        [ prop_classes;
          prop_compute_oracle;
          prop_of_similarity_oracle;
          Alcotest.test_case "of_similarity validation" `Quick
            test_of_similarity_validation;
          prop_align_oracle ] );
      ( "class-link",
        [ prop_class_linkage_random;
          prop_class_linkage_sketch;
          prop_class_aligned;
          Alcotest.test_case "ilcs compare: linkage.updates bound" `Quick
            test_class_linkage_updates ] ) ]
