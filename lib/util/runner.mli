(** How independent per-item work is scheduled.

    [run n f] must return [[| f 0; ...; f (n-1) |]], evaluating [f] in
    any order (possibly on several domains). The archive loader, the
    ingestion frontends and [Eventdb.build] take one; the core
    engine supplies a parallel one, and every layer below [lib/core]
    can take it without depending on the engine. *)
type t = { run : 'a. int -> (int -> 'a) -> 'a array }

(** [Array.init], in order on the calling domain. *)
val sequential : t
