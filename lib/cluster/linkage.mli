(** Agglomerative hierarchical clustering (paper §III-C).

    A Lance–Williams implementation of the seven SciPy linkage methods
    the paper lists (ward is the one used for every reported table).
    Input is a symmetric dissimilarity matrix; output is a SciPy-style
    merge list: step [t] merges clusters [a] and [b] (leaves are
    [0..n-1], the cluster formed at step [t] is [n+t]) at height
    [dist] into a cluster of [size] leaves. *)

type method_ =
  | Single
  | Complete
  | Average   (** UPGMA *)
  | Weighted  (** WPGMA *)
  | Centroid
  | Median
  | Ward      (** variance minimization — the paper's default *)

val method_name : method_ -> string

val all_methods : method_ list

(** [method_of_string s] parses {!method_name}'s output; anything else
    is [Error "Linkage.method_of_string: S"]. *)
val method_of_string : string -> (method_, string) result

type merge = { a : int; b : int; dist : float; size : int }

(** A dendrogram over [n] leaves: [n - 1] merges in nondecreasing
    height order (heights can locally invert for centroid/median, as in
    SciPy). *)
type t = { n : int; merges : merge array }

(** [cluster method m] — [m] must be square and symmetric with zero
    diagonal. Raises [Invalid_argument] otherwise. A 1×1 input yields
    an empty merge list.

    Tie rule: each step merges the first active pair in ascending
    [(a, b)] order, unless a later pair is smaller by more than 1e-15
    than the pair picked so far (NaN distances are never picked). The
    sweep keeps every row's minimum over the active clusters after it
    and skips the rows whose minimum cannot win, so a step costs O(n)
    plus O(n) per row it scans or rescans: O(n²) time overall on
    typical inputs (O(n³) in the worst case), and O(n²) memory. *)
val cluster : method_ -> float array array -> t

(** [of_similarity method jsm] = [cluster method (Jsm.rows
    (Jsm.to_distance jsm))], merge for merge and bit for bit, without
    either copy, and over the JSM's d attribute classes instead of its
    n traces. Distances are the same [1 − s] (squared for centroid,
    median and ward). A packed matrix is square and symmetric by
    construction, so only the diagonal is checked. Raises
    [Invalid_argument] on an empty matrix or a similarity diagonal
    further than 1e-12 from 1.

    While a class still has two active members, the dense sweep can
    only merge a pair inside a class, at height 0: every
    Lance–Williams update maps (0, 0, 0) to +0, and under the tie rule
    a distance above 1e-15 never beats 0. So the n − d height-0 merges
    are replayed from per-class queues without distances, and each pair
    of classes replays the dense sweep's updates of its cross
    distances in the same order with the same arguments, at most
    n_A·n_B of them. Ward's update of two equal distances need not
    round back to that distance, which is why those updates are
    replayed rather than skipped. The sweep then continues over the d
    classes' final clusters. This needs every class of two or more
    traces to have a diagonal of exactly 1 and every distance between
    two classes to be above 2e-15 and not NaN; otherwise every trace
    is its own class and the sweep is dense over the n traces. The
    [linkage.updates] counter counts Lance–Williams evaluations. *)
val of_similarity : method_ -> Jsm.t -> t

(** [cut_k t k] — the flat clustering with exactly [k] clusters
    (1 ≤ k ≤ n): an array mapping each leaf to a cluster id in
    [0..k-1] (ids are normalized by first appearance). *)
val cut_k : t -> int -> int array

(** [cut_height t h] — the flat clustering obtained by refusing merges
    with [dist > h], and every merge above a refused one (SciPy's
    [fcluster] "distance" rule: a leaf pair shares a cluster iff its
    cophenetic distance is at most [h]). The two differ only under
    the height inversions of centroid and median linkage. Ids are
    normalized as in {!cut_k}. *)
val cut_height : t -> float -> int array

(** [cophenetic t] — the n×n matrix of merge heights at which leaf
    pairs first join (used by tests against hand-computed values). *)
val cophenetic : t -> float array array
