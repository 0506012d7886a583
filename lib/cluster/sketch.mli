(** MinHash signatures and LSH candidate bucketing for the JSM.

    A signature is [k] independent min-hashes of an attribute {e name}
    set. Because names (not context-local attribute ids) are hashed, a
    signature depends only on the attribute set, so it is the same in
    every context, run and process. For two sets with Jaccard
    similarity J, each signature row matches with probability exactly
    J.

    The LSH index groups each signature's rows into [k/2] bands of 2
    rows and buckets signatures by band value: a pair becomes a
    {e candidate} iff at least one band matches, which happens with
    probability [1 - (1 - J^2)^(k/2)] — a sharp S-curve around
    {!threshold}. Candidacy is a pairwise predicate of the two
    attribute sets alone (never of the rest of the corpus), so it is
    decided once per pair of a context's classes. *)

(** Number of min-hash rows used when [?k] is omitted: 64. *)
val default_k : int

(** Rows per LSH band (2). *)
val rows_per_band : int

(** [bands_for k] — number of LSH bands at signature length [k]. *)
val bands_for : int -> int

(** [threshold k] = [(1/bands)^(1/rows_per_band)] — the similarity at
    which a pair has ~50% candidacy probability (~0.18 at the default
    k; pairs above ~0.4 are candidates with near-certainty). *)
val threshold : int -> float

(** A signature: [k] row minima. An object with no attributes hashes
    to all-[max_int], so two empty objects share every band, as
    [Context.jaccard] rates two empty sets 1.0. *)
type signature = int array

(** [hasher ?k ctx] precomputes the per-attribute row hashes of [ctx]
    once and returns a function from object index to signature; each
    call counts one [sketch.signatures].
    Raises [Invalid_argument] if [k < 1]. *)
val hasher : ?k:int -> Difftrace_fca.Context.t -> int -> signature

(** [class_candidates ?k ctx] — the LSH adjacency over [ctx]'s classes
    ({!Difftrace_fca.Context.class_of}): bit [b] of row [a] is set iff
    the signatures of classes [a] and [b] share at least one band. A
    signature depends only on the attribute set, so every member of a
    class has its class's signature, and only one representative per
    class is signed ([sketch.signatures] grows by
    [Context.n_classes ctx], not by the object count). Symmetric and
    reflexive — the members of one class share every band — and a pure
    function of the classes' attribute-name sets, so it is the same
    whatever engine later consumes it and in every context holding
    those sets. Off-diagonal candidate class pairs are counted by the
    [sketch.candidate_pairs] telemetry counter. This is the mask
    {!Jsm.compute} takes. Raises [Invalid_argument] if [k < 1]. *)
val class_candidates :
  ?k:int -> Difftrace_fca.Context.t -> Difftrace_util.Bitset.t array
