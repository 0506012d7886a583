module Symmat = Difftrace_util.Symmat
module Counter = Difftrace_obs.Telemetry.Counter

(* [linkage.merges] counts n - 1 merges per dendrogram;
   [linkage.updates] counts Lance–Williams evaluations, (n-1)(n-2)/2
   for a dense sweep over n clusters *)
let c_merges = Counter.make "linkage.merges"
let c_updates = Counter.make "linkage.updates"

type method_ = Single | Complete | Average | Weighted | Centroid | Median | Ward

let method_name = function
  | Single -> "single"
  | Complete -> "complete"
  | Average -> "average"
  | Weighted -> "weighted"
  | Centroid -> "centroid"
  | Median -> "median"
  | Ward -> "ward"

let all_methods = [ Single; Complete; Average; Weighted; Centroid; Median; Ward ]

let method_of_string s =
  match List.find_opt (fun m -> method_name m = s) all_methods with
  | Some m -> Ok m
  | None -> Error ("Linkage.method_of_string: " ^ s)

type merge = { a : int; b : int; dist : float; size : int }
type t = { n : int; merges : merge array }

(* Centroid, median and ward obey Lance–Williams on squared distances;
   the reported height is the square root (SciPy's convention). *)
let squared_space = function Centroid | Median | Ward -> true | Single | Complete | Average | Weighted -> false

(* d(k, i∪j) from d(k,i), d(k,j), d(i,j) and the cluster sizes;
   inlined so the sweep's float stays unboxed *)
let[@inline] lance_williams meth ~ni ~nj ~nk dki dkj dij =
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

(* Sets [rarg.(k)] and [rmin.(k)] to the id and value of the smallest
   non-NaN [row.(own.(q))] over the active positions [lo..len-1], or
   to (-1, infinity) when there is none; no tuple, so no allocation. *)
let row_min ~rarg ~rmin k row act own lo len =
  let bj = ref (-1) and bv = ref infinity in
  for q = lo to len - 1 do
    let v = row.(own.(q)) in
    if v < !bv then begin
      bj := act.(q);
      bv := v
    end
  done;
  rarg.(k) <- !bj;
  rmin.(k) <- !bv

let[@inline] height sq dij = if sq then sqrt (Float.max 0.0 dij) else dij

let no_merge = { a = -1; b = -1; dist = Float.nan; size = 0 }

(* The merge sweep from [act], the ids of the m active clusters in
   ascending order, over [d], their m x m distances in working space:
   row and column [p] belong to [act.(p)], and a new cluster takes over
   the slot of its first child. [csize] holds every cluster's size by
   id; steps [step0 .. n-2] are written to [merges], the cluster formed
   at step [t] being [n + t]. [act], [csize] and [d] are overwritten. *)
let sweep meth ~n ~step0 ~act ~csize d merges =
  let m = Array.length act in
  let sq = squared_space meth in
  let own = Array.init m Fun.id and nact = ref m in
  (* rmin.(i) is the smallest non-NaN d(i, j) over active j > i and
     rarg.(i) its j; a row whose rmin cannot pass the pick test holds no
     entry that can, so the sweep skips it *)
  let rmin = Array.make (2 * n) infinity and rarg = Array.make (2 * n) (-1) in
  for p = 0 to m - 1 do
    row_min ~rarg ~rmin act.(p) d.(p) act own (p + 1) m
  done;
  for step = step0 to n - 2 do
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
      if rarg.(k) = a || rarg.(k) = b then
        row_min ~rarg ~rmin k d.(own.(p)) act own (p + 1) !nact
      else if d.(own.(p)).(sa) < rmin.(k) then begin
        rarg.(k) <- newc;
        rmin.(k) <- d.(own.(p)).(sa)
      end
    done;
    merges.(step) <- { a; b; dist = height sq dij; size = ni + nj }
  done;
  Counter.add c_updates ((m - 1) * (m - 2) / 2)

let cluster meth m =
  let n = validate m in
  if n = 0 then invalid_arg "Linkage.cluster: empty matrix";
  let sq = squared_space meth in
  let merges = Array.make (n - 1) no_merge in
  sweep meth ~n ~step0:0 ~act:(Array.init n Fun.id) ~csize:(Array.make (2 * n) 1)
    (Array.init n (fun i ->
         Array.init n (fun j -> if sq then m.(i).(j) *. m.(i).(j) else m.(i).(j))))
    merges;
  Counter.add c_merges (n - 1);
  { n; merges }

(* The classes of [j] that hold a trace, renumbered by first occurrence
   over the traces: [cls.(i)] is trace i's, and [key.(c)] is class c
   of [j]'s number, or -1 when no trace holds it. Checks the
   similarity diagonal on the way. *)
let used_classes (j : Jsm.t) =
  let s = j.Jsm.m in
  let key = Array.make (Symmat.dim s) (-1) and d = ref 0 in
  let cls =
    Array.map
      (fun c ->
        if key.(c) < 0 then begin
          if Float.abs (1.0 -. Symmat.get s c c) > 1e-12 then
            invalid_arg "Linkage.of_similarity: nonzero diagonal";
          key.(c) <- !d;
          incr d
        end;
        key.(c))
      j.Jsm.cls
  in
  (cls, key, !d)

(* The d x d working distances between the used classes: the same
   [1.0 -. s] as [Jsm.to_distance], squared as [cluster] squares it, so
   the very floats [cluster] would sweep. Read in the packed cells'
   row-major order. *)
let class_distances meth (j : Jsm.t) key d =
  let sq = squared_space meth in
  let cells = Symmat.cells j.Jsm.m and dim = Symmat.dim j.Jsm.m in
  let w = Array.make_matrix d d 0.0 and base = ref 0 in
  for c = 0 to dim - 1 do
    let k = key.(c) in
    if k >= 0 then begin
      let wk = w.(k) in
      for c' = c to dim - 1 do
        let k' = key.(c') in
        if k' >= 0 then begin
          let x = 1.0 -. cells.(!base + (c' - c)) in
          let v = if sq then x *. x else x in
          wk.(k') <- v;
          w.(k').(k) <- v
        end
      done
    end;
    base := !base + (dim - c)
  done;
  w

(* The class sweep's precondition: the traces of a class are at
   distance exactly 0 from each other, and every distance between two
   classes is too large to tie with 0 (more than twice the sweep's
   1e-15 tie margin) and not NaN. *)
let classes_separate w count =
  let d = Array.length w in
  let ok = ref true in
  for k = 0 to d - 1 do
    if count.(k) > 1 && w.(k).(k) <> 0.0 then ok := false;
    for k' = k + 1 to d - 1 do
      if not (w.(k).(k') > 2e-15) then ok := false
    done
  done;
  !ok

(* The within-class merges, steps 0 .. n-d-1, for traces [cls] over d
   classes of [count] members. *)
type within = {
  start : int array;  (* class k's members sit at [start.(k) ..] *)
  slot : int array;
      (* by id: a leaf's index among its class's members; a merged
         cluster takes its first child's *)
  events : int array;  (* the merges' steps, class k's at [start.(k) - k ..] *)
  root : int array;  (* class k's final cluster *)
}

(* While a class has two active members, the dense sweep merges the two
   smallest members of the class whose smallest member is smallest, at
   height 0 (see [of_similarity]). The new cluster is the largest id,
   so per-class queues of active members in ascending id (linked
   through [qnext]) replay those merges without distances. *)
let merge_within meth ~n cls count ~csize merges =
  let d = Array.length count in
  let start = Array.make (d + 1) 0 in
  for k = 0 to d - 1 do
    start.(k + 1) <- start.(k) + count.(k)
  done;
  let leaves = Array.make n 0 and slot = Array.make (2 * n) 0 in
  let fill = Array.sub start 0 d in
  Array.iteri
    (fun i k ->
      leaves.(fill.(k)) <- i;
      slot.(i) <- fill.(k) - start.(k);
      fill.(k) <- fill.(k) + 1)
    cls;
  let qhead = Array.init d (fun k -> leaves.(start.(k)))
  and qtail = Array.init d (fun k -> leaves.(start.(k + 1) - 1))
  and qlen = Array.copy count
  and qnext = Array.make (2 * n) (-1) in
  for k = 0 to d - 1 do
    for p = start.(k) to start.(k + 1) - 2 do
      qnext.(leaves.(p)) <- leaves.(p + 1)
    done
  done;
  let events = Array.make (n - d) 0 and nev = Array.make d 0 in
  let h0 = height (squared_space meth) 0.0 in
  for step = 0 to n - d - 1 do
    let k = ref (-1) in
    for c = 0 to d - 1 do
      if qlen.(c) > 1 && (!k < 0 || qhead.(c) < qhead.(!k)) then k := c
    done;
    let k = !k in
    let a = qhead.(k) in
    let b = qnext.(a) and newc = n + step in
    if qlen.(k) = 2 then qhead.(k) <- newc
    else begin
      qhead.(k) <- qnext.(b);
      qnext.(qtail.(k)) <- newc
    end;
    qtail.(k) <- newc;
    qlen.(k) <- qlen.(k) - 1;
    csize.(newc) <- csize.(a) + csize.(b);
    slot.(newc) <- slot.(a);
    events.(start.(k) - k + nev.(k)) <- step;
    nev.(k) <- nev.(k) + 1;
    merges.(step) <- { a; b; dist = h0; size = csize.(newc) }
  done;
  { start; slot; events; root = qhead }

(* Replays the distances between the clusters of classes [ka] and [kb]
   over a slot matrix, [na] x [nb] in [buf]: each merge in one class
   updates its new cluster's distance to every active cluster of the
   other, with the arguments the dense sweep passes ([dki] to the first
   child, [dkj] to the second, [dij] = 0). Returns the distance between
   the two classes' final clusters and the number of updates. *)
let replay meth ~count ~csize ~w ~within merges buf ka kb =
  let { start; slot; events; root } = within in
  let na = count.(ka) and nb = count.(kb) in
  let m = buf in
  Array.fill m 0 (na * nb) w.(ka).(kb);
  let alive_a = Array.make na true and alive_b = Array.make nb true in
  let size_a = Array.make na 1 and size_b = Array.make nb 1 in
  let updates = ref 0 in
  let ea = ref (start.(ka) - ka) and eb = ref (start.(kb) - kb) in
  let ea_end = !ea + na - 1 and eb_end = !eb + nb - 1 in
  while !ea < ea_end || !eb < eb_end do
    if !eb >= eb_end || (!ea < ea_end && events.(!ea) < events.(!eb)) then begin
      let mg = merges.(events.(!ea)) in
      let sa = slot.(mg.a) * nb and sb = slot.(mg.b) * nb in
      let ni = csize.(mg.a) and nj = csize.(mg.b) in
      for q = 0 to nb - 1 do
        if alive_b.(q) then begin
          m.(sa + q) <-
            lance_williams meth ~ni ~nj ~nk:size_b.(q) m.(sa + q) m.(sb + q) 0.0;
          incr updates
        end
      done;
      alive_a.(slot.(mg.b)) <- false;
      size_a.(slot.(mg.a)) <- mg.size;
      incr ea
    end
    else begin
      let mg = merges.(events.(!eb)) in
      let sa = slot.(mg.a) and sb = slot.(mg.b) in
      let ni = csize.(mg.a) and nj = csize.(mg.b) in
      for p = 0 to na - 1 do
        if alive_a.(p) then begin
          m.((p * nb) + sa) <-
            lance_williams meth ~ni ~nj ~nk:size_a.(p) m.((p * nb) + sa)
              m.((p * nb) + sb) 0.0;
          incr updates
        end
      done;
      alive_b.(sb) <- false;
      size_b.(sa) <- mg.size;
      incr eb
    end
  done;
  (m.((slot.(root.(ka)) * nb) + slot.(root.(kb))), !updates)

(* [of_similarity] clusters the d classes of [j]'s traces instead of
   its n traces, merge for merge the dense sweep's result:

   - While a class has two active members, the dense sweep picks a pair
     inside a class, at distance +0 (every Lance–Williams update maps
     (0, 0, 0) to +0, and a distance between classes stays above
     1e-15, so it never beats 0 under the tie rule): the first such
     pair in (a, b) order. [merge_within] replays these n - d merges.
   - The distance between a cluster of class A and one of class B
     changes only when A or B merges. So each pair of classes replays
     the dense sweep's updates of its own cross distances, in the same
     order and with the same arguments, and ends at the distance
     between the two classes' final clusters, bit for bit: n_A·n_B - 1
     updates for the pair.
   - The sweep continues from those d clusters at step n - d.

   When the precondition fails, every trace is its own class: the same
   code at d = n, which is the dense sweep. *)
let of_similarity meth (j : Jsm.t) =
  let n = Jsm.size j in
  if n = 0 then invalid_arg "Linkage.of_similarity: empty matrix";
  let cls, key, d = used_classes j in
  let w = class_distances meth j key d in
  let count = Array.make d 0 in
  Array.iter (fun k -> count.(k) <- count.(k) + 1) cls;
  (* at d = n every trace already is its own class, in trace order *)
  let cls, w, count =
    if d = n || classes_separate w count then (cls, w, count)
    else
      ( Array.init n Fun.id,
        Array.init n (fun i ->
            let wi = w.(cls.(i)) and row = Array.make n 0.0 in
            Array.iteri (fun j k -> row.(j) <- wi.(k)) cls;
            row),
        Array.make n 1 )
  in
  let d = Array.length w in
  let csize = Array.make (2 * n) 1 and merges = Array.make (n - 1) no_merge in
  (* the d final clusters in ascending id, and their distances; at
     d = n those are the traces, and [w] *)
  let dd, act =
    if d = n then (w, Array.init n Fun.id)
    else begin
      let within = merge_within meth ~n cls count ~csize merges in
      let owner = Array.make (2 * n) (-1) in
      Array.iteri (fun k id -> owner.(id) <- k) within.root;
      let order = Array.of_list (List.filter (fun k -> k >= 0) (Array.to_list owner)) in
      let buf = ref [||] and updates = ref 0 in
      let dd = Array.make_matrix d d 0.0 in
      for p = 0 to d - 1 do
        for q = p + 1 to d - 1 do
          let ka = order.(p) and kb = order.(q) in
          let v =
            if count.(ka) = 1 && count.(kb) = 1 then w.(ka).(kb)
            else begin
              if Array.length !buf < count.(ka) * count.(kb) then
                buf := Array.make (count.(ka) * count.(kb)) 0.0;
              let v, u = replay meth ~count ~csize ~w ~within merges !buf ka kb in
              updates := !updates + u;
              v
            end
          in
          dd.(p).(q) <- v;
          dd.(q).(p) <- v
        done
      done;
      Counter.add c_updates !updates;
      (dd, Array.map (fun k -> within.root.(k)) order)
    end
  in
  sweep meth ~n ~step0:(n - d) ~act ~csize dd merges;
  Counter.add c_merges (n - 1);
  { n; merges }

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
