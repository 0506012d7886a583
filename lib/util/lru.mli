(** A weighted least-recently-used cache with string keys.

    Each entry carries a weight (a caller's measure of what it holds,
    such as events); the cache keeps the total weight at or below its
    budget by dropping the least recently used entries first. An entry
    heavier than the whole budget is never kept. Entries are few (a
    budget's worth of large values), so eviction scans for the oldest
    entry rather than keeping an ordered list. *)

type 'a t

(** [create ~budget] — an empty cache holding at most [budget] weight. *)
val create : budget:int -> 'a t

(** [find t key] — the entry under [key], now the most recently used. *)
val find : 'a t -> string -> 'a option

(** [add t key ~weight v] stores [v] under [key] (replacing any entry
    there) as the most recently used entry, then evicts least recently
    used entries until the total weight fits the budget. When [weight]
    alone exceeds the budget, [v] is not kept and the cache is left as
    it was, less any entry [key] named before. A negative weight counts
    as zero. *)
val add : 'a t -> string -> weight:int -> 'a -> unit

(** [length t] — the number of entries held. *)
val length : 'a t -> int

(** [weight t] — the total weight held, at most the budget. *)
val weight : 'a t -> int
