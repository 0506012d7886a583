(** Persistent, content-addressed analysis store.

    {!Memo} amortizes NLR summarization {e within} one process; every
    CLI invocation still starts cold. The store extends that across
    processes: a single on-disk file persists the memo's shared
    symbol/loop tables and three evictable record kinds ({!kinds}), so
    the second [difftrace compare] over the same corpus performs zero
    summarizations and mirrors (almost) every Jaccard cell from disk —
    near-pure I/O instead of O(n²) recompute.

    {2 Correctness model}

    Nothing read from the store is trusted positionally; everything is
    content-addressed:

    - Summaries are keyed by {!Memo.key} — a digest of the filtered,
      symtab-remapped call-ID sequence plus the NLR constants. Keys are
      IDs {e with respect to the store's own persisted symbol table},
      which the loader replays in creation order, so equal keys mean
      equal name sequences; there are no cross-workload collisions.
    - Cached JSM matrices carry one digest per object over its {e
      sorted} attribute-name set. A cached cell is mirrored only when
      both endpoints' digests match the current context, and
      [Context.jaccard] is a pure function of those two attribute sets
      — so mirrored values are bit-identical to recomputation
      ({!Jsm.extend}'s contract). Matrices are namespaced by
      {!Config.digest} purely for lookup efficiency.
    - Sketch-mode matrices ({!Difftrace_cluster.Sketch}) live in their
      own {!Config.digest} namespace and are reused the same way: LSH
      candidacy is a pairwise function of two attribute-name sets, so a
      mirrored cell — evaluated or pruned — is what recomputation would
      produce. MinHash signatures are not persisted: one per attribute
      class is cheaper to recompute than to decode. Stores written
      while they were persisted hold tag-5 signature records; those
      still decode and are checked like any other record, are then
      dropped, and the next {!flush} rewrites the file without them.

    - Merged variational alignments ({!Difftrace_variational}) are
      keyed by a digest over the aligned runs' element sequences in run
      order; a hit replays the persisted column/presence sequence and
      skips the whole progressive re-alignment. Stores that never
      served a vdiff hold no such records, keeping the historical byte
      layout.

    Robustness follows {!Archive}/{!Campaign} discipline, through the
    same {!Difftrace_util.Framed} module: CRC-32/varint record framing,
    atomic rewrite (tmp + rename), and a result-returning loader that
    salvages the valid prefix of a damaged file — or falls back to a
    cold store — instead of raising.

    Telemetry: [store.hits]/[store.misses] (JSM base lookups),
    [store.vdiff_hits]/[store.vdiff_misses] (variational
    alignment lookups), [store.evictions] (gc and flush caps),
    [store.crc_fail] (damaged files/records encountered). *)

type t

type error

val error_to_string : error -> string

(** [load ~dir] — open (or cold-start) the store rooted at [dir]. A
    missing directory or store file is a normal cold start; a damaged
    file is salvaged up to its first bad record (counting
    [store.crc_fail]); only a genuinely unusable path (e.g. [dir] is a
    regular file, or the store file is unreadable) is an [Error]. Never
    raises on file content. *)
val load : dir:string -> (t, error) result

(** The directory the store was loaded from. *)
val dir : t -> string

(** The store's memo, seeded with every persisted summary. Pass it to
    the pipeline as the shared memo; new summaries accumulate in it and
    are persisted by the next {!flush}. *)
val memo : t -> Memo.t

(** [jsm t ~config ~init ctx] — the context's JSM, reusing cached work:
    picks the cached matrix (in [config]'s namespace) sharing the most
    (label, attribute-digest) pairs with [ctx], mirrors those cells via
    {!Jsm.extend}, and evaluates the rest. Falls back to {!Jsm.compute}
    when nothing is reusable. Bit-identical to [Jsm.compute ~init ctx]
    either way. In sketch mode ([config.mode = Sketch]) the same two
    calls take the class candidate mask ({!Config.candidates}), so the
    result is bit-identical to [Jsm.compute ?candidates ~init ctx];
    sketch matrices live in their own {!Config.digest} namespace.
    Counts [store.hits] /
    [store.misses] once per call, and records the finished matrix for
    future runs (unless a cached matrix already covered every
    object). *)
val jsm :
  t ->
  config:Config.t ->
  init:(int -> (int -> float array) -> float array array) ->
  Difftrace_fca.Context.t ->
  Difftrace_cluster.Jsm.t

(** [flush t] — persist new state (atomic rewrite). A no-op when
    nothing changed since {!load}/the last flush, so warm runs do not
    touch the disk. Applies the default retention caps, counting
    [store.evictions]. Creates [dir] if needed. *)
val flush : t -> (unit, error) result

(** The evictable record kinds — summaries, matrices, vdiffs — as
    [(name, cap {!flush} applies, help text)], in the order
    every per-kind list below follows. *)
val kinds : (string * int * string) list

type stats = {
  summaries : int;
  matrices : int;
  kinds : (string * int) list;  (** live entries per kind *)
  symbols : int;
  loop_bodies : int;
  file_bytes : int;  (** store file size on disk; 0 before first flush *)
  salvaged : bool;  (** the last {!load} discarded damaged records *)
}

val stats : t -> stats

(** Text rendering of {!stats} for [difftrace store stats]. The vdiffs
    line appears only when the count is non-zero. *)
val render_stats : stats -> string

(** [gc ?keep t] — per kind, drop all but the newest [n] entries, [n]
    being the kind's cap in [keep] or else its default; ties resolve by
    key. Returns the number dropped per kind, also counted into
    [store.evictions]. Takes effect at the next {!flush}, which
    re-applies the default caps. Symbol/loop tables are never shrunk.
    @raise Invalid_argument on an unknown kind or a negative cap,
    before anything is dropped. *)
val gc : ?keep:(string * int) list -> t -> (string * int) list

(** [store gc]'s line for {!gc}'s result; like the renders above, it
    names vdiffs only when their count is non-zero. *)
val render_evicted : (string * int) list -> string

(** [find_vdiff t ~key] — the persisted variational alignment keyed by
    [key] (a digest over the aligned runs' element sequences, in run
    order — see {!Session.vdiff}), as the column/presence
    representation accepted by [Variational.of_columns]. A hit counts
    [store.vdiff_hits] and lets the caller skip the whole k-way
    progressive re-alignment; a miss counts [store.vdiff_misses]. *)
val find_vdiff : t -> key:string -> (string * int list) array option

(** [add_vdiff t ~key ~nruns cols] — record a merged alignment over
    [nruns] runs for future {!find_vdiff} lookups; persisted at the
    next {!flush}. Replaces any previous entry under [key]. *)
val add_vdiff : t -> key:string -> nruns:int -> (string * int list) array -> unit

type check = {
  c_records : int;
  c_kinds : (string * int) list;  (** valid records per kind *)
  c_symbols : int;
  c_loop_bodies : int;
  c_bytes : int;
  c_damage : string option;  (** [None] when the whole file verifies *)
}

(** [verify ~dir] — read-only integrity scan (CRCs, framing, structural
    references) without adopting anything; [Ok] with [c_damage = Some _]
    means a salvageable file. [Error] only for an unreadable path. *)
val verify : dir:string -> (check, error) result

(** Text rendering of {!check} for [difftrace store verify]. *)
val render_check : check -> string
