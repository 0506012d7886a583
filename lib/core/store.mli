(** Persistent, content-addressed analysis store.

    {!Memo} amortizes NLR summarization {e within} one process; every
    CLI invocation still starts cold. The store extends that across
    processes: a single on-disk file persists the memo's shared
    symbol/loop tables and three record kinds, so the second
    [difftrace compare] over the same corpus performs zero
    summarizations. It keeps only what is costly to recompute: NLR
    summaries, the trace sources that name them, and variational
    alignments. A JSM is not stored; it costs
    one Jaccard per pair of attribute classes, which is less than
    decoding a stored one.

    {2 Correctness model}

    Nothing read from the store is trusted positionally; everything is
    content-addressed:

    - Summaries are keyed by {!Memo.key} — a digest of the filtered,
      symtab-remapped call-ID sequence plus the NLR constants. Keys are
      IDs {e with respect to the store's own persisted symbol table},
      which the loader replays in creation order, so equal keys mean
      equal name sequences; there are no cross-workload collisions.
    - A trace source maps a source key ({!source_key}: an archived
      trace's stream digest, the filter identity, K, repeats and the
      kind's derivation string) to the key of the summary that trace's
      filtered events have in this store. A hit lets an archive-backed
      compare verify the trace's checksums instead of decoding,
      filtering and re-keying it. A source record names a summary
      written before it (a record naming no summary read so far is
      damage); it has no retention cap of its own and is evicted with
      that summary. Stores that never served an archive hold none.
    - Two record kinds are retired: tag-4 JSM matrices and tag-5
      MinHash signatures. Stores written while they were persisted
      still hold such records; they decode and are checked like any
      other record (a damaged one is a salvage point), are then
      dropped, and mark the store dirty, so the next {!flush} rewrites
      the file without them.
    - Merged variational alignments ({!Difftrace_variational}) are
      keyed by a digest over the aligned runs' element sequences in run
      order; a hit replays the persisted column/presence sequence and
      skips the whole progressive re-alignment. Stores that never
      served a vdiff hold no such records.

    Robustness follows {!Archive}/{!Campaign} discipline, through the
    same {!Difftrace_util.Framed} module: CRC-32/varint record framing,
    atomic rewrite (tmp + rename), and a result-returning loader that
    salvages the valid prefix of a damaged file — or falls back to a
    cold store — instead of raising.

    Telemetry: [store.source_hits]/[store.source_misses] (trace source
    lookups), [store.vdiff_hits]/[store.vdiff_misses] (variational
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

(** [jsm t ~config ~init ctx] =
    [Jsm.compute ?candidates:(Config.candidates config ctx) ~init ctx];
    [t] is unused. No library code calls it. It remains for the
    end-to-end benchmark's replay ([bench/e2e/replay.ml]) and goes with
    that file (ROADMAP, the spans item). *)
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

(** The record kinds with a retention cap of their own — summaries,
    vdiffs — as [(name, cap {!flush} applies, help text)]; one
    [store gc --keep-<name>] flag each. Sources ride their summary's
    cap, so they have no entry here, but every per-kind list below
    ({!stats}, {!gc}'s result, {!check}) names them, in the order
    summaries, sources, vdiffs. *)
val kinds : (string * int * string) list

type stats = {
  summaries : int;
  matrices : int;
      (** always 0: the store holds no matrices. It remains for the
          end-to-end benchmark's replay and goes with it (ROADMAP, the
          spans item). *)
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

(** [gc ?keep t] — per capped kind ({!kinds}), drop all but the newest
    [n] entries, [n] being the kind's cap in [keep] or else its
    default; ties resolve by key. Then drop every source whose summary
    went. Returns the number dropped per kind, also counted into
    [store.evictions]. Takes effect at the next {!flush}, which
    re-applies the default caps. Symbol/loop tables are never shrunk.
    @raise Invalid_argument on a kind not in {!kinds} or a negative
    cap, before anything is dropped. *)
val gc : ?keep:(string * int) list -> t -> (string * int) list

(** [store gc]'s line for {!gc}'s result; like the renders above, it
    names vdiffs only when their count is non-zero. *)
val render_evicted : (string * int) list -> string

(** {2 Trace sources} *)

(** [source_key config ~stream] — the key of an archived trace whose
    {!Difftrace_parlot.Archive.stream_digest} is [stream] (in hex, as
    the manifest holds it), under
    [config]'s filter ({!Difftrace_filter.Filter.identity}: custom
    regexes included), K and repeats, and the sources kind's derivation
    string. Equal keys mean equal filtered name sequences, hence one
    summary. [source_key config] can be applied once per run: it
    digests only the stream per trace. *)
val source_key : Config.t -> stream:string -> string

(** [find_source t ~key] — the memo key of the summary filed under
    source [key], when the memo holds it; counts [store.source_hits] or
    [store.source_misses]. *)
val find_source : t -> key:string -> Memo.key option

(** [add_source t ~key summary] — file [summary] (a key the memo holds)
    under source [key]; persisted at the next {!flush}. *)
val add_source : t -> key:string -> Memo.key -> unit

(**/**)

(** The sources kind's derivation string, folded into every
    {!source_key}. Tests bump it to show that a changed derivation
    turns every source record into a miss; nothing else writes it. *)
val source_derivation : string ref

(**/**)

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
