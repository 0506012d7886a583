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
        (Linkage.method_of_string (Linkage.method_name m) = m))
    Linkage.all_methods;
  Alcotest.(check int) "seven methods" 7 (List.length Linkage.all_methods)

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
          prop_cuts_match_oracle ] );
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
            test_jsm_empty_matrix_views ] ) ]
