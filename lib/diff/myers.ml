type 'a op = Keep of 'a | Delete of 'a | Insert of 'a

(* [slide ~equal a b k x] — the end of the snake (the run of equal
   pairs) that starts at (x, x - k) on diagonal k = x - y. *)
let[@inline] slide ~equal a b k x =
  let n = Array.length a and m = Array.length b in
  let x = ref x in
  while !x < n && !x - k < m && equal a.(!x) b.(!x - k) do
    incr x
  done;
  !x

(* one cell of [distance]: the furthest x on diagonal k, from a delete
   off diagonal k-1 or an insert off diagonal k+1, then its snake *)
let np_step ~equal a b fp off k =
  let i = off + k in
  let del = fp.(i - 1) + 1 and ins = fp.(i + 1) in
  fp.(i) <- slide ~equal a b k (if del > ins then del else ins)

(* Wu, Manber, Myers and Miller's O(NP) pass ("An O(NP) sequence
   comparison algorithm", IPL 1990): D, the length of a minimal edit
   script, in (P+1)·(|Δ|+P) cells, where Δ = n - m and P = (D - |Δ|)/2.
   [fp.(off + k)] is the furthest x on diagonal k that a path with at
   most p moves away from Δ reaches (-1: none yet). Round p sweeps the
   diagonals on each side of Δ towards it, then Δ; the first round
   whose Δ cell reaches (n, m) gives D = |Δ| + 2p. Both sequences are
   non-empty. *)
let distance ~equal a b =
  let n = Array.length a and m = Array.length b in
  let delta = n - m in
  let off = m + 1 in
  let fp = Array.make (n + m + 3) (-1) in
  let p = ref (-1) in
  while fp.(off + delta) < n do
    incr p;
    let p = !p in
    if delta >= 0 then begin
      for k = -p to delta - 1 do
        np_step ~equal a b fp off k
      done;
      for k = delta + p downto delta + 1 do
        np_step ~equal a b fp off k
      done
    end
    else begin
      for k = p downto delta + 1 do
        np_step ~equal a b fp off k
      done;
      for k = delta - p to delta - 1 do
        np_step ~equal a b fp off k
      done
    end;
    np_step ~equal a b fp off delta
  done;
  abs delta + (2 * !p)

(* Myers' tie-break at round d, diagonal k: whether the path came by an
   insert off diagonal k+1 (else by a delete off k-1), where
   [cells.(j)] and [cells.(j + 1)] hold round d-1's diagonals k-1 and
   k+1 *)
let[@inline] from_insert (cells : int array) d k j =
  k = -d || (k <> d && cells.(j) < cells.(j + 1))

(* The script: Myers' §4 greedy forward pass, restricted to the band of
   cells a D-path to (n, m) can cross — round d, diagonal k with
   d + |Δ - k| <= D — then backtracking from (n, m). A band cell reads
   only band cells (|Δ - (k±1)| <= |Δ - k| + 1), and every cell of a
   D-path to (n, m) is in the band, so each value backtracking reads and
   each tie-break equals the unbanded pass: the script is the same.
   Rounds 0 .. D-1 are kept, round d's band from [cells.(start.(d))],
   one word per cell in diagonal order. *)
let diff ~equal a b =
  let n = Array.length a and m = Array.length b in
  if n = 0 then List.init m (fun j -> Insert b.(j))
  else if m = 0 then List.init n (fun i -> Delete a.(i))
  else begin
    let d_final = distance ~equal a b in
    let delta = n - m in
    (* round d's band: diagonals lo d, lo d + 2, .., hi d *)
    let lo d = Int.max (-d) (delta - d_final + d)
    and hi d = Int.min d (delta + d_final - d) in
    let start = Array.make (d_final + 1) 0 in
    for d = 1 to d_final do
      start.(d) <- start.(d - 1) + ((hi (d - 1) - lo (d - 1)) / 2) + 1
    done;
    (* where diagonal k-1 of round d-1 sits, for a diagonal k of round d *)
    let below d k = start.(d - 1) + ((k - 1 - lo (d - 1)) asr 1) in
    let cells = Array.make start.(d_final) 0 in
    if d_final > 0 then cells.(0) <- slide ~equal a b 0 0;
    for d = 1 to d_final - 1 do
      let lo_d = lo d and row = start.(d) in
      let j0 = below d lo_d in
      for i = 0 to start.(d + 1) - row - 1 do
        let k = lo_d + (2 * i) and j = j0 + i in
        let x =
          if from_insert cells d k j then cells.(j + 1) else cells.(j) + 1
        in
        cells.(row + i) <- slide ~equal a b k x
      done
    done;
    let ops = ref [] in
    let x = ref n and y = ref m in
    for d = d_final downto 1 do
      let k = !x - !y in
      let j = below d k in
      let ins = from_insert cells d k j in
      let prev_k = if ins then k + 1 else k - 1 in
      let prev_x = cells.(if ins then j + 1 else j) in
      let prev_y = prev_x - prev_k in
      (* snake *)
      while !x > prev_x && !y > prev_y do
        decr x;
        decr y;
        ops := Keep a.(!x) :: !ops
      done;
      if !x = prev_x then begin
        (* came from k+1: an insertion of b.(prev_y) *)
        decr y;
        ops := Insert b.(!y) :: !ops
      end
      else begin
        decr x;
        ops := Delete a.(!x) :: !ops
      end
    done;
    (* leading snake of round 0 *)
    while !x > 0 && !y > 0 do
      decr x;
      decr y;
      ops := Keep a.(!x) :: !ops
    done;
    assert (!x = 0 && !y = 0);
    !ops
  end

let edit_distance ~equal a b =
  let n = Array.length a and m = Array.length b in
  if n = 0 then m else if m = 0 then n else distance ~equal a b

let apply script =
  let a = ref [] and b = ref [] in
  List.iter
    (function
      | Keep x ->
        a := x :: !a;
        b := x :: !b
      | Delete x -> a := x :: !a
      | Insert x -> b := x :: !b)
    script;
  (List.rev !a, List.rev !b)

type 'a block =
  | Common of 'a list
  | Changed of { del : 'a list; ins : 'a list }

let blocks script =
  let out = ref [] in
  let commons = ref [] and dels = ref [] and inss = ref [] in
  let flush_changed () =
    if !dels <> [] || !inss <> [] then begin
      out := Changed { del = List.rev !dels; ins = List.rev !inss } :: !out;
      dels := [];
      inss := []
    end
  in
  let flush_common () =
    if !commons <> [] then begin
      out := Common (List.rev !commons) :: !out;
      commons := []
    end
  in
  List.iter
    (function
      | Keep x ->
        flush_changed ();
        commons := x :: !commons
      | Delete x ->
        flush_common ();
        dels := x :: !dels
      | Insert x ->
        flush_common ();
        inss := x :: !inss)
    script;
  flush_changed ();
  flush_common ();
  List.rev !out
