(* B_k from the pair counts: tk = Σ cell² − n, pk = Σ row² − n,
   qk = Σ col² − n over the contingency table of the two cuts. *)
let bk_of_counts ~tk ~pk ~qk =
  if pk = 0 || qk = 0 then 1.0
  else float_of_int tk /. sqrt (float_of_int pk *. float_of_int qk)

let bk_of_assignments x y =
  let n = Array.length x in
  if Array.length y <> n then invalid_arg "Bscore: leaf count mismatch";
  if n = 0 then invalid_arg "Bscore: empty clusterings";
  let kx = 1 + Array.fold_left max 0 x and ky = 1 + Array.fold_left max 0 y in
  let rows = Array.make kx 0 and cols = Array.make ky 0 in
  for i = 0 to n - 1 do
    rows.(x.(i)) <- rows.(x.(i)) + 1;
    cols.(y.(i)) <- cols.(y.(i)) + 1
  done;
  let sum_sq = Array.fold_left (fun acc c -> acc + (c * c)) 0 in
  (* the occupied cells: equal (x, y) codes are adjacent once sorted *)
  let cells = Array.init n (fun i -> (x.(i) * ky) + y.(i)) in
  Array.sort Int.compare cells;
  let tk = ref 0 and run = ref 1 in
  for i = 1 to n do
    if i < n && cells.(i) = cells.(i - 1) then incr run
    else begin
      tk := !tk + (!run * !run);
      run := 1
    end
  done;
  bk_of_counts ~tk:(!tk - n) ~pk:(sum_sq rows - n) ~qk:(sum_sq cols - n)

let bk a b ~k =
  if a.Linkage.n <> b.Linkage.n then invalid_arg "Bscore.bk: leaf count mismatch";
  bk_of_assignments (Linkage.cut_k a k) (Linkage.cut_k b k)

(* One side of the incremental pass: a union by size over the leaves,
   each cluster named by one of its leaves. *)
type side = {
  rep : int array;  (** cluster id (leaf or n + step) -> its name *)
  label : int array;  (** leaf -> the name of its cluster *)
  members : int list array;  (** name -> leaves *)
  csize : int array;  (** name -> cluster size *)
}

let side_make (t : Linkage.t) =
  let n = t.Linkage.n in
  { rep = Array.init (n + Array.length t.Linkage.merges) (fun i -> i);
    label = Array.init n (fun i -> i);
    members = Array.init n (fun i -> [ i ]);
    csize = Array.make n 1 }

(* B_k for every k = n down to 2 in one walk over both merge lists,
   from all singletons: [out.(k)] gets B_k. The contingency table holds
   only its occupied cells, keyed by the two cluster names; merging two
   clusters moves the smaller one's leaves into the larger one, so each
   leaf moves O(log n) times. *)
let levels (ta : Linkage.t) (tb : Linkage.t) =
  let n = ta.Linkage.n in
  let out = Array.make n 1.0 in
  let sa = side_make ta and sb = side_make tb in
  let cells = Hashtbl.create (2 * n) in
  let count key = Option.value (Hashtbl.find_opt cells key) ~default:0 in
  let bump key dv =
    let v = count key + dv in
    if v = 0 then Hashtbl.remove cells key else Hashtbl.replace cells key v
  in
  for leaf = 0 to n - 1 do
    Hashtbl.replace cells ((leaf * n) + leaf) 1
  done;
  (* merge step [step] of [t] on side [s]; [other] is the opposite side
     and [key this that] the cell of names (this side, that side).
     Returns the deltas of Σ cell² and of Σ size² on this side. *)
  let merge (t : Linkage.t) s other key step =
    let mg = t.Linkage.merges.(step) in
    let c1 = s.rep.(mg.Linkage.a) and c2 = s.rep.(mg.Linkage.b) in
    let small, large = if s.csize.(c1) < s.csize.(c2) then (c1, c2) else (c2, c1) in
    let dsize = 2 * s.csize.(small) * s.csize.(large) in
    let cross =
      List.fold_left
        (fun acc x -> acc + count (key large other.label.(x)))
        0 s.members.(small)
    in
    List.iter
      (fun x ->
        let y = other.label.(x) in
        bump (key small y) (-1);
        bump (key large y) 1;
        s.label.(x) <- large)
      s.members.(small);
    s.members.(large) <- List.rev_append s.members.(small) s.members.(large);
    s.members.(small) <- [];
    s.csize.(large) <- s.csize.(small) + s.csize.(large);
    s.rep.(n + step) <- large;
    (2 * cross, dsize)
  in
  let key_a x y = (x * n) + y and key_b y x = (x * n) + y in
  let tk = ref 0 and pk = ref 0 and qk = ref 0 in
  for k = n - 1 downto 2 do
    let step = n - k - 1 in
    let dt, dp = merge ta sa sb key_a step in
    tk := !tk + dt;
    pk := !pk + dp;
    let dt, dq = merge tb sb sa key_b step in
    tk := !tk + dt;
    qk := !qk + dq;
    out.(k) <- bk_of_counts ~tk:!tk ~pk:!pk ~qk:!qk
  done;
  out

let series a b =
  let n = a.Linkage.n in
  if n <= 2 then []
  else begin
    if b.Linkage.n <> n then invalid_arg "Bscore.bk: leaf count mismatch";
    let out = levels a b in
    List.init (n - 2) (fun i -> (i + 2, out.(i + 2)))
  end

let score a b =
  match series a b with
  | [] -> 1.0
  | s -> List.fold_left (fun acc (_, v) -> acc +. v) 0.0 s /. float_of_int (List.length s)
