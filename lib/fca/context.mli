(** Formal contexts K = (G, M, I) — paper §II-E, Table IV.

    Objects are traces, attributes are mined strings; the incidence
    relation is stored as one attribute bitset per object, which makes
    the Galois derivations ([common_attrs]/[common_objects]) cheap word
    operations.

    Objects with equal attribute sets form a {e class}. SPMD runs are
    symmetric, so a run of hundreds of traces often has a handful of
    classes; whatever depends only on an object's attribute set (a
    Jaccard value, an attribute digest) is computed once per class.
    Classes are found at construction by hashing each bitset's words
    ({!Difftrace_util.Bitset.hash}) and confirming every hit with
    {!Difftrace_util.Bitset.equal}, and are numbered [0 .. n_classes-1]
    in order of their first object. *)

type t

(** [of_attr_sets rows] builds a context from
    [(object_label, attributes)] pairs. The attribute universe is the
    union, in first-seen order. *)
val of_attr_sets : (string * string list) list -> t

val n_objects : t -> int
val n_attrs : t -> int

(** [object_label t i] / [attr_name t j]. *)
val object_label : t -> int -> string

val attr_name : t -> int -> string

(** [n_classes t] — the number of distinct attribute sets. *)
val n_classes : t -> int

(** [class_of t i] — the class of object [i]: two objects share a
    class exactly when their attribute sets are equal, and class ids
    follow first occurrence (object 0 is in class 0, the next object
    with a new set opens class 1, and so on). *)
val class_of : t -> int -> int

(** [class_rep t c] — the representative of class [c]: its
    lowest-index object. *)
val class_rep : t -> int -> int

(** [has t i j] — does object [i] carry attribute [j]? *)
val has : t -> int -> int -> bool

(** [object_attrs t i] — the intent of the single object [i] (shared,
    do not mutate). *)
val object_attrs : t -> int -> Difftrace_util.Bitset.t

(** [common_attrs t objs] — attributes common to every object in
    [objs]; the full attribute set when [objs] is empty. *)
val common_attrs : t -> Difftrace_util.Bitset.t -> Difftrace_util.Bitset.t

(** [common_objects t attrs] — objects carrying every attribute in
    [attrs]; all objects when [attrs] is empty. *)
val common_objects : t -> Difftrace_util.Bitset.t -> Difftrace_util.Bitset.t

(** [closure t attrs] = [common_attrs (common_objects attrs)]. *)
val closure : t -> Difftrace_util.Bitset.t -> Difftrace_util.Bitset.t

(** [jaccard t i j] — Jaccard similarity of the two objects' attribute
    sets (1.0 when both are empty). *)
val jaccard : t -> int -> int -> float

(** [to_table t] — the cross table (Table IV style). *)
val to_table : t -> string
