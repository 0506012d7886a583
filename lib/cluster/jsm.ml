open Difftrace_fca
module Telemetry = Difftrace_obs.Telemetry
module Symmat = Difftrace_util.Symmat
module Bitset = Difftrace_util.Bitset

(* [jsm.cells] counts matrix cells filled (n², stable across commits),
   bumped once per row so the counter stays off the innermost loop;
   [jsm.jaccard_evals] counts actual Jaccard evaluations: one per
   class pair of the context, d(d+1)/2 for an exact matrix over d
   distinct attribute sets, and only the LSH candidate class pairs for
   a sketch matrix. Rows may run on any engine domain — the atomic adds
   keep the totals deterministic. *)
let c_cells = Telemetry.Counter.make "jsm.cells"
let c_evals = Telemetry.Counter.make "jsm.jaccard_evals"

(* The matrix is symmetric, so only the packed upper triangle is
   stored — n(n+1)/2 cells instead of the former dense n² mirror —
   and structural equality on [t] is matrix equality. *)
type t = { labels : string array; m : Symmat.t }

let get t i j = Symmat.get t.m i j
let rows t = Symmat.to_rows t.m

let of_dense ~labels rows =
  let n = Array.length labels in
  if Array.length rows <> n then
    invalid_arg
      (Printf.sprintf "Jsm.of_dense: %d labels but %d rows" n
         (Array.length rows));
  Array.iteri
    (fun i row ->
      if Array.length row <> n then
        invalid_arg
          (Printf.sprintf
             "Jsm.of_dense: row %d (label %S) has %d columns, expected %d" i
             labels.(i) (Array.length row) n))
    rows;
  { labels; m = Symmat.init n (fun i j -> rows.(i).(j)) }

(* Jaccard depends only on the two attribute sets, so the matrix is a
   lookup into the d x d matrix of its context's classes. Exact mode is
   the full mask: a class row evaluates the pairs that are candidates;
   every other cell holds 0.0, the value of a pair the sketch mask
   pruned. Class rows are fanned over [init] like the matrix rows. *)
let class_matrix ?candidates ~init ctx =
  let d = Context.n_classes ctx in
  let rep = Context.class_rep ctx in
  let candidates =
    match candidates with
    | None -> Array.make d (Bitset.full d)
    | Some adj
      when Array.length adj = d
           && Array.for_all (fun row -> Bitset.capacity row = d) adj ->
      adj
    | Some _ ->
      invalid_arg (Printf.sprintf "Jsm: the candidate mask is not %d x %d" d d)
  in
  Symmat.of_upper_rows ~n:d
    (init d (fun a ->
         let evals = ref 0 in
         let row = Array.make (d - a) 0.0 in
         Bitset.iter
           (fun b ->
             if b >= a then begin
               incr evals;
               row.(b - a) <- Context.jaccard ctx (rep a) (rep b)
             end)
           candidates.(a);
         Telemetry.Counter.add c_evals !evals;
         row))

(* Cell (i, j) is the class cell (class i, class j): the very float
   [Context.jaccard ctx i j] returns, or 0.0 where a sketch mask pruned
   the class pair. Rows are independent, so any
   [Array.init]-contract engine initializer schedules them freely. *)
let compute ?candidates ~init ctx =
  let n = Context.n_objects ctx in
  let labels = Array.init n (Context.object_label ctx) in
  let cm = class_matrix ?candidates ~init ctx in
  let cls = Array.init n (Context.class_of ctx) in
  let m =
    init n (fun i ->
        let crow = Symmat.row cm cls.(i) in
        let row = Array.make (n - i) 0.0 in
        for d = 0 to n - i - 1 do
          row.(d) <- crow.(cls.(i + d))
        done;
        Telemetry.Counter.add c_cells n;
        row)
  in
  { labels; m = Symmat.of_upper_rows ~n m }

let of_context ctx = compute ~init:Array.init ctx

let size t = Array.length t.labels

(* label -> first index, replacing the former linear scan per lookup
   that made [align] O(n³) in trace count *)
let index_table labels =
  let tbl = Hashtbl.create (2 * Array.length labels) in
  Array.iteri (fun i l -> if not (Hashtbl.mem tbl l) then Hashtbl.add tbl l i) labels;
  tbl

(* The packed representation makes ragged rows unrepresentable (they
   used to reach [align] from partially-failed campaign cells via
   hand-assembled dense matrices — that hole is now closed at
   construction time by [of_dense]); what can still go wrong is a
   label array whose length disagrees with the matrix dimension. *)
let check_shape side t =
  let n = Array.length t.labels in
  if Symmat.dim t.m <> n then
    invalid_arg
      (Printf.sprintf "Jsm.align: %s matrix has %d labels but %d rows" side n
         (Symmat.dim t.m))

let same_labels a b =
  a == b
  || (Array.length a = Array.length b && Array.for_all2 String.equal a b)

(* Two matrices over the same distinct labels are already aligned and
   come back as they are; otherwise each side is picked into [a]'s
   order of the common labels, a repeated label taking its first
   occurrence's row. *)
let align a b =
  check_shape "first" a;
  check_shape "second" b;
  let a_index = index_table a.labels in
  if same_labels a.labels b.labels && Hashtbl.length a_index = Array.length a.labels
  then (a, b)
  else begin
    let b_index = index_table b.labels in
    let resolve side tbl l =
      match Hashtbl.find_opt tbl l with
      | Some i -> i
      | None ->
        invalid_arg
          (Printf.sprintf "Jsm.align: label %S missing from the %s matrix" l side)
    in
    let common =
      Array.to_list a.labels |> List.filter (fun l -> Hashtbl.mem b_index l)
    in
    let labels = Array.of_list common in
    let ai = Array.map (fun l -> resolve "first" a_index l) labels in
    let bi = Array.map (fun l -> resolve "second" b_index l) labels in
    ({ labels; m = Symmat.sub a.m ai }, { labels; m = Symmat.sub b.m bi })
  end

let diff_aligned a b =
  if not (same_labels a.labels b.labels) then
    invalid_arg "Jsm.diff_aligned: the matrices are not aligned";
  { labels = a.labels;
    m = Symmat.map2 (fun x y -> Float.abs (y -. x)) a.m b.m }

let diff a b =
  let a', b' = align a b in
  diff_aligned a' b'

(* an aligned diff of two runs sharing no labels is a legal 0-trace
   matrix; scoring and rendering it must degrade, not raise *)
let row_change t i = if Symmat.dim t.m = 0 then 0.0 else Symmat.row_sum t.m i

let to_distance t = { t with m = Symmat.map (fun s -> 1.0 -. s) t.m }

let heatmap t =
  if Array.length t.labels = 0 then "(no traces)\n"
  else Difftrace_util.Texttable.heatmap ~labels:t.labels (rows t)
