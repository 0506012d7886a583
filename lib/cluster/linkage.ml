let c_merges = Difftrace_obs.Telemetry.Counter.make "linkage.merges"

type method_ = Single | Complete | Average | Weighted | Centroid | Median | Ward

let method_name = function
  | Single -> "single"
  | Complete -> "complete"
  | Average -> "average"
  | Weighted -> "weighted"
  | Centroid -> "centroid"
  | Median -> "median"
  | Ward -> "ward"

let method_of_string = function
  | "single" -> Single
  | "complete" -> Complete
  | "average" -> Average
  | "weighted" -> Weighted
  | "centroid" -> Centroid
  | "median" -> Median
  | "ward" -> Ward
  | s -> invalid_arg ("Linkage.method_of_string: " ^ s)

let all_methods = [ Single; Complete; Average; Weighted; Centroid; Median; Ward ]

type merge = { a : int; b : int; dist : float; size : int }
type t = { n : int; merges : merge array }

(* Centroid, median and ward obey Lance–Williams on squared distances;
   the reported height is the square root (SciPy's convention). *)
let squared_space = function Centroid | Median | Ward -> true | Single | Complete | Average | Weighted -> false

(* d(k, i∪j) from d(k,i), d(k,j), d(i,j) and the cluster sizes. *)
let lance_williams meth ~ni ~nj ~nk dki dkj dij =
  let fi = float_of_int ni
  and fj = float_of_int nj
  and fk = float_of_int nk in
  match meth with
  | Single -> Float.min dki dkj
  | Complete -> Float.max dki dkj
  | Average -> ((fi *. dki) +. (fj *. dkj)) /. (fi +. fj)
  | Weighted -> 0.5 *. (dki +. dkj)
  | Centroid ->
    let s = fi +. fj in
    ((fi /. s) *. dki) +. ((fj /. s) *. dkj) -. (fi *. fj /. (s *. s) *. dij)
  | Median -> (0.5 *. dki) +. (0.5 *. dkj) -. (0.25 *. dij)
  | Ward ->
    let s = fk +. fi +. fj in
    (((fk +. fi) *. dki) +. ((fk +. fj) *. dkj) -. (fk *. dij)) /. s

let validate m =
  let n = Array.length m in
  Array.iter
    (fun row -> if Array.length row <> n then invalid_arg "Linkage.cluster: not square")
    m;
  for i = 0 to n - 1 do
    if Float.abs m.(i).(i) > 1e-12 then invalid_arg "Linkage.cluster: nonzero diagonal";
    for j = i + 1 to n - 1 do
      if Float.abs (m.(i).(j) -. m.(j).(i)) > 1e-9 then
        invalid_arg "Linkage.cluster: not symmetric"
    done
  done;
  n

(* Id and value of the smallest non-NaN [row.(own.(q))] over the
   active positions [lo..len-1]; (-1, infinity) when there is none. *)
let row_min row act own lo len =
  let bj = ref (-1) and bv = ref infinity in
  for q = lo to len - 1 do
    let v = row.(own.(q)) in
    if v < !bv then begin
      bj := act.(q);
      bv := v
    end
  done;
  (!bj, !bv)

let cluster meth m =
  let n = validate m in
  if n = 0 then invalid_arg "Linkage.cluster: empty matrix";
  let sq = squared_space meth in
  (* distances between active clusters, in working space; a cluster's
     distances live in the row and column of the slot it owns *)
  let d =
    Array.init n (fun i ->
        Array.init n (fun j -> if sq then m.(i).(j) *. m.(i).(j) else m.(i).(j)))
  in
  (* the active ids in ascending order and their slots: a new cluster
     is the largest id, and takes over the slot of its first child *)
  let act = Array.init n Fun.id and own = Array.init n Fun.id and nact = ref n in
  let csize = Array.make (2 * n) 1 in
  (* rmin.(i) is the smallest non-NaN d(i, j) over active j > i and
     rarg.(i) its j; a row whose rmin cannot pass the pick test holds no
     entry that can, so the sweep skips it *)
  let rmin = Array.make (2 * n) infinity and rarg = Array.make (2 * n) (-1) in
  for p = 0 to n - 1 do
    let j, v = row_min d.(p) act own (p + 1) n in
    rarg.(p) <- j;
    rmin.(p) <- v
  done;
  let merges = ref [] in
  for step = 0 to n - 2 do
    (* the closest active pair, scanned in ascending (a, b) order; a
       later pair wins only when smaller by more than 1e-15 *)
    let ba = ref (-1) and bb = ref (-1) and bd = ref infinity in
    let sa = ref (-1) and sb = ref (-1) in
    for p = 0 to !nact - 1 do
      let i = act.(p) in
      if rmin.(i) < !bd -. 1e-15 then begin
        let row = d.(own.(p)) in
        for q = p + 1 to !nact - 1 do
          let v = row.(own.(q)) in
          if v < !bd -. 1e-15 then begin
            ba := i;
            bb := act.(q);
            bd := v;
            sa := own.(p);
            sb := own.(q)
          end
        done
      end
    done;
    let a = !ba and b = !bb and dij = !bd and sa = !sa and sb = !sb in
    if a < 0 then invalid_arg "Linkage.cluster: disconnected (nan distances?)";
    let newc = n + step in
    let ni = csize.(a) and nj = csize.(b) in
    (* drop a and b, and the distances from every other active cluster
       to the new one overwrite those to a *)
    let len = ref 0 in
    for p = 0 to !nact - 1 do
      let k = act.(p) and sk = own.(p) in
      if k <> a && k <> b then begin
        let v =
          lance_williams meth ~ni ~nj ~nk:csize.(k) d.(sk).(sa) d.(sk).(sb) dij
        in
        d.(sk).(sa) <- v;
        d.(sa).(sk) <- v;
        act.(!len) <- k;
        own.(!len) <- sk;
        incr len
      end
    done;
    act.(!len) <- newc;
    own.(!len) <- sa;
    nact := !len + 1;
    csize.(newc) <- ni + nj;
    (* refresh the row minima: a row that lost its argmin is rescanned,
       every other row only folds in its new entry *)
    for p = 0 to !len - 1 do
      let k = act.(p) in
      if rarg.(k) = a || rarg.(k) = b then begin
        let j, v = row_min d.(own.(p)) act own (p + 1) !nact in
        rarg.(k) <- j;
        rmin.(k) <- v
      end
      else if d.(own.(p)).(sa) < rmin.(k) then begin
        rarg.(k) <- newc;
        rmin.(k) <- d.(own.(p)).(sa)
      end
    done;
    let height = if sq then sqrt (Float.max 0.0 dij) else dij in
    merges := { a; b; dist = height; size = ni + nj } :: !merges
  done;
  Difftrace_obs.Telemetry.Counter.add c_merges (max 0 (n - 1));
  { n; merges = Array.of_list (List.rev !merges) }

(* Flat cuts: a union-find over the merges [applied] selects, with
   cluster ids renumbered by first appearance over the leaves. *)
let assignments t applied =
  let nm = Array.length t.merges in
  let parent = Array.init (t.n + nm) (fun i -> i) in
  let rec find i =
    let p = parent.(i) in
    if p = i then i
    else begin
      parent.(i) <- parent.(p);
      find parent.(i)
    end
  in
  for step = 0 to nm - 1 do
    if applied step then begin
      let mg = t.merges.(step) and c = t.n + step in
      parent.(find mg.a) <- c;
      parent.(find mg.b) <- c
    end
  done;
  let ids = Array.make (t.n + nm) (-1) and next = ref 0 in
  Array.init t.n (fun leaf ->
      let root = find leaf in
      if ids.(root) < 0 then begin
        ids.(root) <- !next;
        incr next
      end;
      ids.(root))

let cut_k t k =
  if k < 1 || k > t.n then invalid_arg "Linkage.cut_k";
  assignments t (fun step -> step < t.n - k)

let cut_height t h =
  (* SciPy's fcluster 'distance' rule: a merge is applied when no merge
     in its subtree, itself included, is above h. Under an inversion
     (centroid, median) a low merge can sit above a refused one. *)
  let maxh = Array.make (t.n + Array.length t.merges) neg_infinity in
  Array.iteri
    (fun step mg ->
      maxh.(t.n + step) <- Float.max mg.dist (Float.max maxh.(mg.a) maxh.(mg.b)))
    t.merges;
  assignments t (fun step -> maxh.(t.n + step) <= h)

let cophenetic t =
  let n = t.n in
  let coph = Array.make_matrix n n 0.0 in
  let members = Array.make (2 * n) [] in
  for i = 0 to n - 1 do
    members.(i) <- [ i ]
  done;
  Array.iteri
    (fun step mg ->
      let la = members.(mg.a) and lb = members.(mg.b) in
      List.iter
        (fun x ->
          List.iter
            (fun y ->
              coph.(x).(y) <- mg.dist;
              coph.(y).(x) <- mg.dist)
            lb)
        la;
      members.(n + step) <- la @ lb)
    t.merges;
  coph
