(** Myers' O(ND) difference algorithm (paper ref [18]) — the engine
    under diffNLR, applied to totally-ordered trace/NLR sequences.

    For sequences of lengths [n] and [m] at edit distance [D], with
    [P = (D - |n - m|) / 2], time is O((P+1)·(n+m)); space is O(n+m)
    plus at most (P+1)·D words of backtracking state in {!diff}. A hung
    trace (a prefix of the normal one) has P near 0, so both are linear.

    {!diff} first gets D from Wu, Manber, Myers and Miller's O(NP) pass
    ("An O(NP) sequence comparison algorithm", IPL 1990), then runs
    Myers' greedy pass only over the band of cells [(d, k)] with
    [d + |n - m - k| <= D]. A band cell reads only band cells, and every
    cell of a D-path to [(n, m)] is in the band, so the script is the
    unbanded pass's, op for op and tie-break for tie-break. *)

type 'a op =
  | Keep of 'a    (** present in both sequences *)
  | Delete of 'a  (** only in the first (normal) sequence *)
  | Insert of 'a  (** only in the second (faulty) sequence *)

(** [diff ~equal a b] is a minimal edit script turning [a] into [b];
    [Keep]s and [Delete]s appear in [a]'s order, [Insert]s in [b]'s. *)
val diff : equal:('a -> 'a -> bool) -> 'a array -> 'a array -> 'a op list

(** [edit_distance ~equal a b] is the number of non-[Keep] operations
    of [diff ~equal a b] (the D in O(ND)). It runs the O(NP) pass only:
    no script and no backtracking state are built. *)
val edit_distance : equal:('a -> 'a -> bool) -> 'a array -> 'a array -> int

(** [apply script] replays the script, returning [(a, b)] — the two
    sequences it encodes. [diff] then [apply] is the identity pair
    (property-tested). *)
val apply : 'a op list -> 'a list * 'a list

(** Contiguous runs of the script, for block-structured display. *)
type 'a block =
  | Common of 'a list  (** the "main stem" *)
  | Changed of { del : 'a list; ins : 'a list }
      (** a differing region: [del] from the first sequence, [ins]
          from the second (either may be empty) *)

(** [blocks script] groups the script into maximal blocks. *)
val blocks : 'a op list -> 'a block list
