(** Jaccard Similarity Matrices (paper Fig. 4) and their diff JSM_D.

    JSM[i][j] is the Jaccard similarity of traces i and j's attribute
    sets; JSM_D = |JSM_faulty − JSM_normal| is the paper's "diff of
    diffs" that isolates what the fault changed. Matrices carry their
    trace labels so that two runs are aligned by label, not position.

    Jaccard depends only on the two attribute sets, so a matrix is
    stored quotiented by its traces' attribute classes: [cls.(i)] is
    trace [i]'s class and [m] the packed symmetric d×d class matrix
    ({!Difftrace_util.Symmat}), d(d+1)/2 cells for d classes. Cell
    (i, j) is class cell ([cls.(i)], [cls.(j)]); an SPMD run of 320
    traces over 4 attribute sets stores 10 cells. Every view ({!get},
    {!rows}, {!row_change}, {!heatmap}) returns the floats of the
    n×n matrix. A class may hold no trace (after {!align}), and two
    classes may hold equal cells ({!of_dense} gives every trace its
    own class), so structural equality on [t] is matrix equality only
    between matrices built the same way. *)

type t = { labels : string array; cls : int array; m : Difftrace_util.Symmat.t }

(** [get t i j] — cell (i, j) (= (j, i)). *)
val get : t -> int -> int -> float

(** [rows t] — a fresh dense mirror of the matrix, for consumers that
    want plain [float array array] (clustering, heatmaps). *)
val rows : t -> float array array

(** [of_dense ~labels rows] packs a dense square matrix, every trace
    its own class (the upper triangle is kept; a symmetric input
    round-trips through {!rows} exactly). Raises [Invalid_argument] when [rows] is ragged or its
    dimension disagrees with [labels] — the validation that used to
    live in [align] now happens at construction. *)
val of_dense : labels:string array -> float array array -> t

(** [compute ?candidates ~init ctx] — pairwise Jaccard over the
    context's objects. Jaccard depends only on the two attribute sets,
    so it is evaluated once per pair of the context's classes
    ({!Difftrace_fca.Context.class_of}), and the matrix keeps only
    those cells and each trace's class: d(d+1)/2 evaluations for d
    distinct attribute sets — an SPMD run of 320 traces over 4
    distinct sets costs 10 evaluations instead of 51,360, and no n²
    fill. The [jsm.jaccard_evals] counter counts those class pairs
    and [jsm.cells] the n² logical cells. The class rows are delegated
    to [init] (same contract as [Array.init]; a row holds its
    upper-triangle cells), so passing a parallel initializer — e.g.
    the core library's [Engine.init engine] — computes them on several
    domains; because each row lands in its own slot the result is
    identical whatever the schedule, and without a mask every cell is
    the float [Context.jaccard ctx i j] returns.

    [candidates] is the sketch tier's mask: a d×d class adjacency as
    {!Sketch.class_candidates} builds it. With it, only candidate class
    pairs are evaluated and every cell between two classes outside the
    mask reads 0.0 — near-linear instead of quadratic on a corpus of
    many distinct, mostly dissimilar attribute sets. The mask is
    reflexive, so the diagonal still reads 1.0. Raises
    [Invalid_argument] when [candidates] is not d×d. *)
val compute :
  ?candidates:Difftrace_util.Bitset.t array ->
  init:(int -> (int -> float array) -> float array array) ->
  Difftrace_fca.Context.t ->
  t

(** [of_context ctx] = [compute ~init:Array.init ctx]. *)
val of_context : Difftrace_fca.Context.t -> t

(** [size t] is the number of traces. *)
val size : t -> int

(** [align a b] — both matrices restricted to their common labels, in
    [a]'s label order (a repeated label takes its first occurrence's
    row). When both label arrays are equal and hold no duplicate, the
    inputs already are that alignment and come back unchanged, with no
    copy. Otherwise label resolution is hash-indexed and each side
    picks its traces' classes and shares its class matrix: O(n) in
    trace count. *)
val align : t -> t -> t * t

(** [diff_aligned a b] = |b − a| cell-wise, for two matrices already
    aligned by {!align}. Its classes are the (class in [a], class in
    [b]) pairs that occur, so it costs one cell per pair of them.
    Raises [Invalid_argument] when their labels differ. *)
val diff_aligned : t -> t -> t

(** [diff a b] = |b − a| over the traces common to both (in [a]'s
    label order): [diff_aligned] of [align a b]. Traces present in only
    one run are dropped; they are reported separately by the
    pipeline. *)
val diff : t -> t -> t

(** [row_change t i] = Σ_j t[i][j] — how much trace [i]'s similarity
    relation changed; the per-trace suspicion score. 0 on a 0-trace
    matrix (two runs sharing no labels diff to one). The cells are
    added in ascending [j]. *)
val row_change : t -> int -> float

(** [row_changes t] = [Array.init (size t) (row_change t)], summing
    each class's row once. *)
val row_changes : t -> float array

(** [to_distance t] — 1 − similarity, for clustering a plain JSM
    through {!Linkage.cluster}. {!Linkage.of_similarity} clusters a
    JSM straight from its class cells without this copy. *)
val to_distance : t -> t

(** [heatmap t] — text rendering (Fig. 4); ["(no traces)\n"] for a
    0-trace matrix. *)
val heatmap : t -> string
