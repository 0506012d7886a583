open Difftrace_fca
module Telemetry = Difftrace_obs.Telemetry
module Symmat = Difftrace_util.Symmat
module Bitset = Difftrace_util.Bitset

(* [jsm.cells] counts the n² logical cells of each matrix built (stable
   across commits, whatever the representation); [jsm.jaccard_evals]
   counts actual Jaccard evaluations: one per class pair of the
   context, d(d+1)/2 for an exact matrix over d distinct attribute
   sets, and only the LSH candidate class pairs for a sketch matrix.
   Class rows may run on any engine domain — the atomic adds keep the
   totals deterministic. *)
let c_cells = Telemetry.Counter.make "jsm.cells"
let c_evals = Telemetry.Counter.make "jsm.jaccard_evals"

(* Trace i's cells are its class's: cell (i, j) is class cell
   (cls.(i), cls.(j)) of the packed symmetric class matrix [m], so an
   SPMD run of n traces over d attribute sets stores d(d+1)/2 cells. *)
type t = { labels : string array; cls : int array; m : Symmat.t }

let get t i j = Symmat.get t.m t.cls.(i) t.cls.(j)

(* class c's cells, one per trace, in trace order *)
let class_row t c = Array.map (fun c' -> Symmat.get t.m c c') t.cls

let rows t =
  let crows = Array.make (Symmat.dim t.m) [||] in
  Array.map
    (fun c ->
      if Array.length crows.(c) = 0 then crows.(c) <- class_row t c;
      Array.copy crows.(c))
    t.cls

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
  { labels; cls = Array.init n Fun.id; m = Symmat.init n (fun i j -> rows.(i).(j)) }

(* Jaccard depends only on the two attribute sets, so the matrix is the
   d x d matrix of its context's classes. Exact mode is the full mask:
   a class row evaluates the pairs that are candidates; every other
   cell holds 0.0, the value of a pair the sketch mask pruned. Class
   rows are fanned over [init]. *)
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
   the class pair. *)
let compute ?candidates ~init ctx =
  let n = Context.n_objects ctx in
  let m = class_matrix ?candidates ~init ctx in
  Telemetry.Counter.add c_cells (n * n);
  { labels = Array.init n (Context.object_label ctx);
    cls = Array.init n (Context.class_of ctx);
    m }

let of_context ctx = compute ~init:Array.init ctx

let size t = Array.length t.labels

(* label -> first index, replacing the former linear scan per lookup
   that made [align] O(n³) in trace count *)
let index_table labels =
  let tbl = Hashtbl.create (2 * Array.length labels) in
  Array.iteri (fun i l -> if not (Hashtbl.mem tbl l) then Hashtbl.add tbl l i) labels;
  tbl

(* Ragged rows are unrepresentable (they used to reach [align] from
   partially-failed campaign cells via hand-assembled dense matrices —
   that hole is closed at construction time by [of_dense]); what can
   still go wrong is a label array whose length disagrees with the
   trace count. *)
let check_shape side t =
  let n = Array.length t.labels in
  if Array.length t.cls <> n then
    invalid_arg
      (Printf.sprintf "Jsm.align: %s matrix has %d labels but %d rows" side n
         (Array.length t.cls))

let same_labels a b =
  a == b
  || (Array.length a = Array.length b && Array.for_all2 String.equal a b)

(* Two matrices over the same distinct labels are already aligned and
   come back as they are; otherwise each side picks the classes of
   [a]'s order of the common labels, a repeated label taking its first
   occurrence's, and keeps its class matrix. *)
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
    ( { labels; cls = Array.map (fun i -> a.cls.(i)) ai; m = a.m },
      { labels; cls = Array.map (fun i -> b.cls.(i)) bi; m = b.m } )
  end

(* A diff cell depends only on the two traces' (class in [a], class in
   [b]) pairs, so the diff is a matrix over the joint classes that
   occur, numbered by first occurrence; each cell is the float the
   trace-by-trace diff would hold. *)
let diff_aligned a b =
  if not (same_labels a.labels b.labels) then
    invalid_arg "Jsm.diff_aligned: the matrices are not aligned";
  let db = Symmat.dim b.m in
  let joint = Hashtbl.create 16 in
  let cls =
    Array.mapi
      (fun i ca ->
        let key = (ca * db) + b.cls.(i) in
        match Hashtbl.find_opt joint key with
        | Some c -> c
        | None ->
          let c = Hashtbl.length joint in
          Hashtbl.add joint key c;
          c)
      a.cls
  in
  let dj = Hashtbl.length joint in
  let ja = Array.make dj 0 and jb = Array.make dj 0 in
  Array.iteri
    (fun i c ->
      ja.(c) <- a.cls.(i);
      jb.(c) <- b.cls.(i))
    cls;
  { labels = a.labels;
    cls;
    m =
      Symmat.init dj (fun p q ->
          let x = Symmat.get a.m ja.(p) ja.(q) and y = Symmat.get b.m jb.(p) jb.(q) in
          Float.abs (y -. x)) }

let diff a b =
  let a', b' = align a b in
  diff_aligned a' b'

(* Σ_j cell (c, class j), added in ascending j as a dense row sum adds
   them *)
let class_sum t c =
  let row = Array.init (Symmat.dim t.m) (Symmat.get t.m c) in
  let acc = ref 0.0 in
  for j = 0 to Array.length t.cls - 1 do
    acc := !acc +. row.(t.cls.(j))
  done;
  !acc

(* an aligned diff of two runs sharing no labels is a legal 0-trace
   matrix; scoring and rendering it must degrade, not raise *)
let row_change t i = if size t = 0 then 0.0 else class_sum t t.cls.(i)

let row_changes t =
  let sums = Array.make (Symmat.dim t.m) Float.nan
  and known = Array.make (Symmat.dim t.m) false in
  Array.map
    (fun c ->
      if not known.(c) then begin
        sums.(c) <- class_sum t c;
        known.(c) <- true
      end;
      sums.(c))
    t.cls

let to_distance t = { t with m = Symmat.map (fun s -> 1.0 -. s) t.m }

let heatmap t =
  if Array.length t.labels = 0 then "(no traces)\n"
  else Difftrace_util.Texttable.heatmap ~labels:t.labels (rows t)
