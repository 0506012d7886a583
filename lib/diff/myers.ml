type 'a op = Keep of 'a | Delete of 'a | Insert of 'a

(* The greedy forward pass of Myers' paper §4: returns D, the length of
   the minimal edit script. Round d reads only the d cells of diagonals
   -(d-1) .. d-1 (step 2) that round d-1 left in [v]; when [rows] is
   given they are saved as [rows.(d)], diagonal j at (j + d - 1) / 2, for
   the backtracking of [diff]. Both sequences are non-empty. *)
let forward ~equal ?rows a b =
  let n = Array.length a and m = Array.length b in
  let max_d = n + m in
  let offset = max_d in
  let v = Array.make ((2 * max_d) + 1) 0 in
  let found = ref (-1) in
  let d = ref 0 in
  while !found < 0 && !d <= max_d do
    let dd = !d in
    (match rows with
    | Some rows -> rows.(dd) <- Array.init dd (fun i -> v.(offset - dd + 1 + (2 * i)))
    | None -> ());
    let k = ref (-dd) in
    while !found < 0 && !k <= dd do
      let kk = !k in
      let x =
        ref
          (if kk = -dd || (kk <> dd && v.(offset + kk - 1) < v.(offset + kk + 1))
           then v.(offset + kk + 1)
           else v.(offset + kk - 1) + 1)
      in
      while !x < n && !x - kk < m && equal a.(!x) b.(!x - kk) do
        incr x
      done;
      v.(offset + kk) <- !x;
      if !x >= n && !x - kk >= m then found := dd;
      k := kk + 2
    done;
    incr d
  done;
  assert (!found >= 0);
  !found

let diff ~equal a b =
  let n = Array.length a and m = Array.length b in
  if n = 0 then List.init m (fun j -> Insert b.(j))
  else if m = 0 then List.init n (fun i -> Delete a.(i))
  else begin
    let rows = Array.make (n + m + 1) [||] in
    let d_final = forward ~equal ~rows a b in
    let ops = ref [] in
    let x = ref n and y = ref m in
    for d = d_final downto 1 do
      (* the cells round d started from, i.e. round d-1's: index them
         with the predecessor k *)
      let row = rows.(d) in
      let v j = row.((j + d - 1) / 2) in
      let k = !x - !y in
      let prev_k = if k = -d || (k <> d && v (k - 1) < v (k + 1)) then k + 1 else k - 1 in
      let prev_x = v prev_k in
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
  if n = 0 then m else if m = 0 then n else forward ~equal a b

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
