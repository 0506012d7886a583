(** Content-addressed memoization of NLR trace summaries.

    {!Ranking}'s grid sweep and repeated {!Pipeline.compare_runs}
    calls re-summarize identical filtered traces for every grid point:
    two configurations that differ only in FCA attributes or linkage
    produce the exact same per-trace summaries. A memo carries the
    execution-wide shared tables (symbol table + loop table) together
    with a cache keyed by the digest of (filtered call-ID sequence, K,
    repeats), so a summary is computed once per distinct input and
    reused across the whole sweep.

    Cached summaries are only meaningful against the memo's own shared
    tables, which is why the memo {e owns} them: pass the same memo to
    every [analyze]/[compare_runs] call that should share work, and the
    pipeline will use [Memo.symtab]/[Memo.loop_table] as its shared
    tables. Reusing a memo never changes analysis results (B-scores,
    suspect rankings, JSMs); it can only renumber the cosmetic [L]-ids
    of loop bodies interleaved by earlier cached runs, because the
    shared loop table accumulates bodies across all analyses.

    Hit/miss counters are exposed for the bench harness. The structure
    is not thread-safe; the pipeline probes and fills it only from its
    sequential stages. *)

type t

type stats = { hits : int; misses : int }

type key

val create : unit -> t

(** The memo's shared symbol table, used by every analysis that passes
    this memo. *)
val symtab : t -> Difftrace_trace.Symtab.t

(** The memo's shared loop table; cached summaries index into it. *)
val loop_table : t -> Difftrace_nlr.Nlr.Loop_table.t

(** [key ~ids ~k ~repeats] — digest of a filtered, symtab-remapped
    call-ID sequence and the NLR constants: the 16-byte MD5 of the
    ASCII string ["k;repeats;id;…;id"], every number in decimal as
    [string_of_int] writes it (["10;2"] for no IDs). {!Store} persists
    these bytes, so the format cannot change without invalidating
    every store on disk. *)
val key : ids:int array -> k:int -> repeats:int -> key

(** [find t key] — the cached summary, counting a hit or a miss. *)
val find : t -> key -> Difftrace_nlr.Nlr.t option

(** [add t key nlr] — record a summary (expressed in the memo's shared
    loop table). *)
val add : t -> key -> Difftrace_nlr.Nlr.t -> unit

(** {2 Persistence hooks}

    {!Store} persists a memo across processes. Entries cross that
    boundary by their raw key bytes (the 16-byte digest); a restored
    entry must be expressed against the memo's shared tables, which the
    store guarantees by persisting and replaying the tables' intern
    sequences in creation order. *)

(** [restore t ~key nlr] — adopt a persisted entry ([key] is the raw
    digest bytes) without touching the hit/miss counters. *)
val restore : t -> key:string -> Difftrace_nlr.Nlr.t -> unit

(** [of_raw key] / [to_raw key] — a key from / as its raw digest
    bytes, the form {!Store} persists it in. *)
val of_raw : string -> key

val to_raw : key -> string

(** [lookup t ~key] — the entry under the raw key, without hit/miss
    accounting. *)
val lookup : t -> key:string -> Difftrace_nlr.Nlr.t option

(** [fold t ~init ~f] — fold over every cached entry; [f] receives the
    raw key bytes. Iteration order is unspecified. *)
val fold : t -> init:'a -> f:(string -> Difftrace_nlr.Nlr.t -> 'a -> 'a) -> 'a

(** [length t] — number of cached summaries. *)
val length : t -> int

(** Cumulative counters since [create]. *)
val stats : t -> stats

(** [hit_rate s] ∈ [0, 1]; 0 when no lookups happened. *)
val hit_rate : stats -> float
