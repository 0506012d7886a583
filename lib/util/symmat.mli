(** Packed symmetric float matrices.

    An n x n symmetric matrix stored as its upper triangle only —
    n*(n+1)/2 cells instead of n², and structural equality on the packed
    representation coincides with matrix equality (a dense symmetric
    matrix has two copies of every off-diagonal cell that could
    disagree). Accessors transparently reflect (i, j) to (j, i). *)

type t

(** [dim t] is n. *)
val dim : t -> int

(** [get t i j] = [get t j i]. Raises [Invalid_argument] out of range. *)
val get : t -> int -> int -> float

(** [init n f] fills from [f i j], calling [f] only on the upper
    triangle (i <= j), row by row. *)
val init : int -> (int -> int -> float) -> t

(** [of_upper_rows ~n rows] packs ragged upper-triangle rows: [rows.(i)]
    must hold the n-i cells (i,i)..(i,n-1). Raises [Invalid_argument]
    on a row-count or row-length mismatch. *)
val of_upper_rows : n:int -> float array array -> t

(** [cells t] is the flat packed storage, row-major upper rows: row i's
    cells (i,i)..(i,n-1) start at offset i*n - i*(i-1)/2. Shared, do
    not mutate. *)
val cells : t -> float array

(** [map f t] applies [f] to every stored cell. *)
val map : (float -> float) -> t -> t
