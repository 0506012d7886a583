(* Order statistics over float samples. *)

let sorted xs =
  let a = Array.of_list xs in
  Array.sort Float.compare a;
  a

let median xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.median: no samples"
  else if n mod 2 = 1 then a.(n / 2)
  else (a.((n / 2) - 1) +. a.(n / 2)) /. 2.0

(* [quantiles ~n xs] — the [n - 1] cut points, computed exactly like
   Python's [statistics.quantiles(xs, n=n)] (the default "exclusive"
   method), so a spread quoted from this harness matches one recomputed
   with Python from the same samples. *)
let quantiles ?(n = 4) xs =
  let a = sorted xs in
  let ld = Array.length a in
  if ld = 0 then invalid_arg "Stats.quantiles: no samples"
  else if ld = 1 then List.init (n - 1) (fun _ -> a.(0))
  else
    let m = ld + 1 in
    List.init (n - 1) (fun i0 ->
        let i = i0 + 1 in
        let j = max 1 (min (ld - 1) (i * m / n)) in
        let delta = (i * m) - (j * n) in
        ((a.(j - 1) *. float_of_int (n - delta)) +. (a.(j) *. float_of_int delta))
        /. float_of_int n)

(* [percentile p xs] — nearest-rank percentile, [p] in (0, 1]: the
   smallest sample with at least [p] of the samples at or below it. *)
let percentile p xs =
  let a = sorted xs in
  let n = Array.length a in
  if n = 0 then invalid_arg "Stats.percentile: no samples"
  else
    let rank = int_of_float (Float.ceil (p *. float_of_int n)) in
    a.(max 0 (min (n - 1) (rank - 1)))
