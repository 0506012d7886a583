(** N-way variational diffing — one merged NLR for a whole run set.

    The paper validates DiffTrace pairwise: one faulty execution
    against one reference. A campaign produces dozens of runs whose
    verdicts (ok / hung / failed) label an entire fault × seed matrix,
    and the question worth answering is not "how does cell 7 differ
    from its reference" but "{e which structural difference appears
    exactly in the runs that went wrong}" — the variational-trace
    question of Meinicke et al. ("Understanding Differences among
    Executions with Variational Traces", PAPERS.md).

    This module merges k NLR element sequences into one {e variational
    NLR} by pairwise-anchored progressive alignment: the two most
    similar runs (by exact Jaccard over their element sets) merge
    first, every later run is aligned against the running profile
    with the same {!Difftrace_diff.Myers} machinery diffNLR uses. The
    result is a single column sequence where every column carries a
    {!Difftrace_util.Bitset} of the runs it appears in; maximal runs of
    columns with one presence set form {e regions}, and a small
    set-cover over the declared condition axes (fault, seed, ...)
    turns a region's presence set into a minimal discriminating
    condition such as [fault=f2 ∧ seed∈{3,7}].

    The alignment is lossless ({!reconstruct} returns every input
    sequence verbatim) and collapses to the classical pairwise diffNLR
    when k = 2 ({!to_diffnlr} renders byte-identically — both are
    property-tested). *)

type run = {
  vr_name : string;  (** stable display name, e.g. a cell label *)
  vr_elems : string list;  (** rendered NLR elements, in trace order *)
  vr_axes : (string * string) list;
      (** condition axes as [(axis, value)], e.g. [("fault", "f2");
          ("seed", "3")]; axes missing on a run read as ["-"] *)
  vr_bad : bool;  (** verdict label: [true] = the run went wrong *)
}

type t = private {
  runs : run array;  (** in input order — run index [i] = input [i] *)
  columns : (string * Difftrace_util.Bitset.t) array;
      (** the merged alignment: element text and the set of run
          indices it is present in (never empty) *)
}

(** [merge runs] — progressive k-way alignment. Raises
    [Invalid_argument] on an empty list. With exactly two runs the
    anchor is always run 0, so the column order is exactly the Myers
    script of run 0 vs. run 1. *)
val merge : run list -> t

val n_runs : t -> int

(** [of_columns runs cols] — rebuild a [t] from persisted columns
    (presence as run-index lists). Raises [Invalid_argument] when a
    column's presence is empty or out of range. The store's
    re-alignment skip path; {!columns_repr} is its inverse. *)
val of_columns : run list -> (string * int list) array -> t

val columns_repr : t -> (string * int list) array

(** [reconstruct t i] — run [i]'s original element sequence, read back
    off the alignment (the losslessness invariant). *)
val reconstruct : t -> int -> string list

(** {1 Regions and conditions} *)

type region = {
  rg_first : int;  (** index of the region's first column *)
  rg_elems : string list;
  rg_present : Difftrace_util.Bitset.t;
}

(** Maximal runs of consecutive columns sharing one presence set, in
    column order. *)
val regions : t -> region list

type condition =
  | Axes of (string * string list) list
      (** conjunction of per-axis value sets, e.g.
          [[("fault", ["f2"]); ("seed", ["3"; "7"])]]; axis order
          follows the runs' declaration order, values are sorted *)
  | Named of string list
      (** no axis conjunction separates the target: fall back to
          naming the runs *)

(** [condition_of t ~target] — the minimal discriminating condition
    for the run subset [target]: the fewest axes (then fewest values)
    whose observed-value conjunction selects {e exactly} [target]. *)
val condition_of : t -> target:Difftrace_util.Bitset.t -> condition

(** ["fault=f2 ∧ seed∈{3,7}"] (["all runs"] for the empty
    conjunction). *)
val condition_to_string : condition -> string

(** {1 Suspects} *)

(** The run indices with [vr_bad = true]. *)
val bad_set : t -> Difftrace_util.Bitset.t

type polarity = Present | Absent

type suspect = {
  sp_region : region;
  sp_polarity : polarity;
      (** which side of the region tracks the bad set: [Absent] means
          the region is missing from (some or all) bad runs *)
  sp_condition : condition;
      (** minimal discriminating condition of the region's
          [sp_polarity] side *)
  sp_exact : bool;
      (** the region's [sp_polarity] side {e equals} the bad set *)
  sp_score : float;  (** Jaccard of that side vs. the bad set *)
}

(** [suspects ?limit t] — partial-presence regions ranked by how well
    they track the bad set: exact matches first (larger regions
    first), then by descending [sp_score]. Empty when no run is bad
    or every run is. [limit] defaults to 4. *)
val suspects : ?limit:int -> t -> suspect list

(** The minimal discriminating condition of the bad set itself —
    [None] when the bad set is empty or full. *)
val discriminating : t -> condition option

(** {1 Rendering} *)

(** The conditioned variational NLR: the run set (bad runs marked),
    every region under its [\[present: ...\]] annotation, the ranked
    suspects, and the bad set's minimal discriminating condition. *)
val render : ?title:string -> t -> string

(** [to_diffnlr t] — [Some] iff [t] has exactly two runs: the
    classical pairwise diffNLR (run 0 = normal, run 1 = faulty),
    byte-identical to {!Difftrace_diff.Diffnlr.of_strings} on the same
    sequences. *)
val to_diffnlr : t -> Difftrace_diff.Diffnlr.t option
