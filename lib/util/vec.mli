(** Growable arrays ("vectors").

    The NLR reduction stack and the trace encoders are hot paths built on
    this structure; it provides amortized O(1) push/pop and O(1) random
    access without the boxing overhead of lists. Growing a vector of
    fresh (young) values never forces a minor collection. *)

type 'a t

(** [create ()] is an empty vector. *)
val create : unit -> 'a t

(** [with_capacity n] is an empty vector preallocating room for [n]
    elements. *)
val with_capacity : int -> 'a t

(** [length v] is the number of elements. *)
val length : 'a t -> int

(** [is_empty v] is [length v = 0]. *)
val is_empty : 'a t -> bool

(** [get v i] is element [i]. Raises [Invalid_argument] out of range. *)
val get : 'a t -> int -> 'a

(** [set v i x] replaces element [i]. *)
val set : 'a t -> int -> 'a -> unit

(** [push v x] appends [x]. *)
val push : 'a t -> 'a -> unit

(** [pop v] removes and returns the last element.
    Raises [Invalid_argument] if empty. *)
val pop : 'a t -> 'a

(** [peek v i] is the element [i] positions from the top, so [peek v 0]
    is the last element. Raises [Invalid_argument] out of range. *)
val peek : 'a t -> int -> 'a

(** [truncate v n] drops elements so that [length v = n].
    Raises [Invalid_argument] if [n > length v]. *)
val truncate : 'a t -> int -> unit

(** [clear v] removes all elements. *)
val clear : 'a t -> unit

(** [to_array v] is a fresh array of the elements in order. *)
val to_array : 'a t -> 'a array

(** [of_array a] is a vector of the elements of [a]. *)
val of_array : 'a array -> 'a t

(** [to_list v] is the elements in order. *)
val to_list : 'a t -> 'a list

(** [iter f v] applies [f] in order. *)
val iter : ('a -> unit) -> 'a t -> unit

(** [iteri f v] applies [f i x] in order. *)
val iteri : (int -> 'a -> unit) -> 'a t -> unit

(** [fold_left f init v] folds in order. *)
val fold_left : ('acc -> 'a -> 'acc) -> 'acc -> 'a t -> 'acc

(** [sub v pos len] is a fresh array of [len] elements starting at
    [pos]. *)
val sub : 'a t -> int -> int -> 'a array

(** [append_array v a] pushes every element of [a]. *)
val append_array : 'a t -> 'a array -> unit
