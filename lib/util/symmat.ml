(* Packed symmetric float matrices: the upper triangle (i <= j) stored
   row-major in one flat array, n*(n+1)/2 cells for an n x n matrix.
   Row i owns the n-i cells (i,i)..(i,n-1) at offset i*n - i*(i-1)/2. *)

type t = { n : int; cells : float array }

let cells_for n = n * (n + 1) / 2

let make n =
  if n < 0 then invalid_arg "Symmat.make";
  { n; cells = Array.make (cells_for n) 0.0 }

let dim t = t.n

let offset t i = (i * t.n) - (i * (i - 1) / 2)

let check t i =
  if i < 0 || i >= t.n then invalid_arg "Symmat: index out of range"

let get t i j =
  check t i;
  check t j;
  let i, j = if i <= j then (i, j) else (j, i) in
  t.cells.(offset t i + (j - i))

let init n f =
  if n < 0 then invalid_arg "Symmat.init";
  let t = make n in
  for i = 0 to n - 1 do
    let base = offset t i in
    for j = i to n - 1 do
      t.cells.(base + (j - i)) <- f i j
    done
  done;
  t

let of_upper_rows ~n rows =
  if Array.length rows <> n then
    invalid_arg
      (Printf.sprintf "Symmat.of_upper_rows: %d rows for dimension %d"
         (Array.length rows) n);
  let t = make n in
  Array.iteri
    (fun i row ->
      if Array.length row <> n - i then
        invalid_arg
          (Printf.sprintf
             "Symmat.of_upper_rows: row %d has %d cells, expected %d" i
             (Array.length row) (n - i));
      Array.blit row 0 t.cells (offset t i) (n - i))
    rows;
  t

let cells t = t.cells

let map f t = { t with cells = Array.map f t.cells }
