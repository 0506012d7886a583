(* N-way variational NLR: progressive alignment + condition mining.
   See variational.mli for the design rationale. *)

module Bitset = Difftrace_util.Bitset
module Myers = Difftrace_diff.Myers
module Diffnlr = Difftrace_diff.Diffnlr
module Context = Difftrace_fca.Context
module Telemetry = Difftrace_obs.Telemetry
module Span = Telemetry.Span

let c_merges = Telemetry.Counter.make "variational.merges"
let c_columns = Telemetry.Counter.make "variational.columns"

type run = {
  vr_name : string;
  vr_elems : string list;
  vr_axes : (string * string) list;
  vr_bad : bool;
}

type t = { runs : run array; columns : (string * Bitset.t) array }

let n_runs t = Array.length t.runs

(* ------------------------------------------------------------------ *)
(* Progressive merge                                                   *)
(* ------------------------------------------------------------------ *)

(* merge order: the two most similar runs anchor the profile, then
   always the unmerged run most similar to anything already merged —
   the classical progressive-alignment guide tree, flattened to a
   greedy chain. Similarity is the exact Jaccard of the runs' element
   sets. Ties break toward lower indices so the order (and therefore
   the column order) is deterministic. *)
let merge_order runs =
  let n = Array.length runs in
  let ctx =
    Context.of_attr_sets
      (Array.to_list
         (Array.mapi
            (fun i r ->
              (Printf.sprintf "r%d" i, List.sort_uniq String.compare r.vr_elems))
            runs))
  in
  let sim = Array.make_matrix n n 0.0 in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let s = Context.jaccard ctx i j in
      sim.(i).(j) <- s;
      sim.(j).(i) <- s
    done
  done;
  let best_pair = ref (0, 1) in
  for i = 0 to n - 1 do
    for j = i + 1 to n - 1 do
      let bi, bj = !best_pair in
      if sim.(i).(j) > sim.(bi).(bj) then best_pair := (i, j)
    done
  done;
  let bi, bj = !best_pair in
  let merged = Array.make n false in
  merged.(bi) <- true;
  merged.(bj) <- true;
  let order = ref [ bj; bi ] in
  for _ = 2 to n - 1 do
    let best = ref (-1) and best_s = ref neg_infinity in
    for i = 0 to n - 1 do
      if not merged.(i) then begin
        let s = ref neg_infinity in
        for j = 0 to n - 1 do
          if merged.(j) && sim.(i).(j) > !s then s := sim.(i).(j)
        done;
        if !s > !best_s then begin
          best := i;
          best_s := !s
        end
      end
    done;
    merged.(!best) <- true;
    order := !best :: !order
  done;
  List.rev !order

(* align run [r] against the running profile: Keep consumes a profile
   column and sets [r]'s bit on it, Delete passes a profile column
   through, Insert opens a fresh column present only in [r]. Column
   order is the Myers script order, which for k = 2 makes the result
   literally the pairwise script. *)
let merge_into ~capacity cols r elems =
  let a = Array.map fst cols in
  let script = Myers.diff ~equal:String.equal a (Array.of_list elems) in
  let out = ref [] in
  let pi = ref 0 in
  List.iter
    (fun op ->
      match op with
      | Myers.Keep _ ->
        let text, present = cols.(!pi) in
        incr pi;
        Bitset.add present r;
        out := (text, present) :: !out
      | Myers.Delete _ ->
        out := cols.(!pi) :: !out;
        incr pi
      | Myers.Insert text ->
        out := (text, Bitset.singleton capacity r) :: !out)
    script;
  Array.of_list (List.rev !out)

let merge = function
  | [] -> invalid_arg "Variational.merge: no runs"
  | runs_list ->
    Span.with_ "variational.merge" @@ fun () ->
    Telemetry.Counter.incr c_merges;
    let runs = Array.of_list runs_list in
    let n = Array.length runs in
    let order =
      (* two runs must reproduce the pairwise diffNLR byte-for-byte,
         so their anchor is pinned to run 0 regardless of similarity *)
      if n <= 2 then List.init n Fun.id else merge_order runs
    in
    let first = List.hd order in
    let cols =
      ref
        (Array.of_list
           (List.map
              (fun e -> (e, Bitset.singleton n first))
              runs.(first).vr_elems))
    in
    List.iter
      (fun r -> cols := merge_into ~capacity:n !cols r runs.(r).vr_elems)
      (List.tl order);
    Telemetry.Counter.add c_columns (Array.length !cols);
    { runs; columns = !cols }

let columns_repr t =
  Array.map (fun (text, present) -> (text, Bitset.to_list present)) t.columns

let of_columns runs_list cols =
  match runs_list with
  | [] -> invalid_arg "Variational.of_columns: no runs"
  | _ ->
    let runs = Array.of_list runs_list in
    let n = Array.length runs in
    let columns =
      Array.map
        (fun (text, present) ->
          if present = [] then
            invalid_arg "Variational.of_columns: empty presence";
          if List.exists (fun i -> i < 0 || i >= n) present then
            invalid_arg "Variational.of_columns: run index out of range";
          (text, Bitset.of_list n present))
        cols
    in
    { runs; columns }

let reconstruct t i =
  Array.to_list t.columns
  |> List.filter_map (fun (text, present) ->
         if Bitset.mem present i then Some text else None)

(* ------------------------------------------------------------------ *)
(* Regions                                                             *)
(* ------------------------------------------------------------------ *)

type region = {
  rg_first : int;
  rg_elems : string list;
  rg_present : Bitset.t;
}

let regions t =
  let out = ref [] in
  let flush first elems present =
    match elems with
    | [] -> ()
    | _ ->
      out :=
        { rg_first = first; rg_elems = List.rev elems; rg_present = present }
        :: !out
  in
  let first = ref 0 and acc = ref [] and cur = ref None in
  Array.iteri
    (fun i (text, present) ->
      match !cur with
      | Some p when Bitset.equal p present -> acc := text :: !acc
      | Some p ->
        flush !first !acc p;
        first := i;
        acc := [ text ];
        cur := Some present
      | None ->
        first := i;
        acc := [ text ];
        cur := Some present)
    t.columns;
  (match !cur with Some p -> flush !first !acc p | None -> ());
  List.rev !out

(* ------------------------------------------------------------------ *)
(* Conditions                                                          *)
(* ------------------------------------------------------------------ *)

type condition = Axes of (string * string list) list | Named of string list

let axis_value run axis =
  Option.value ~default:"-" (List.assoc_opt axis run.vr_axes)

(* axis names in first-declaration order across the run set *)
let axis_names t =
  Array.fold_left
    (fun acc r ->
      List.fold_left
        (fun acc (a, _) -> if List.mem a acc then acc else acc @ [ a ])
        acc r.vr_axes)
    [] t.runs

(* the minimal discriminating condition is a tiny set cover: the
   fewest axes (then the fewest values) whose observed-value
   conjunction selects exactly [target]. The conjunction built from a
   given axis subset is the tightest one containing [target] — its
   value sets are exactly the values [target]'s runs exhibit — so
   testing it for equality with [target] decides that subset in one
   pass, and subsets are enumerated smallest-first. *)
let condition_of t ~target =
  let axes = Array.of_list (axis_names t) in
  let n_axes = Array.length axes in
  let n = n_runs t in
  let in_target i = Bitset.mem target i in
  let values_of axis =
    let vs = ref [] in
    for i = 0 to n - 1 do
      if in_target i then vs := axis_value t.runs.(i) axis :: !vs
    done;
    List.sort_uniq String.compare !vs
  in
  let extension_is_target subset =
    let sel =
      List.map (fun ai -> (axes.(ai), values_of axes.(ai))) subset
    in
    let ok = ref true in
    for i = 0 to n - 1 do
      let matches =
        List.for_all
          (fun (axis, vs) -> List.mem (axis_value t.runs.(i) axis) vs)
          sel
      in
      if matches <> in_target i then ok := false
    done;
    if !ok then Some sel else None
  in
  let subsets_of_size k =
    (* ascending-mask order: for equal size, earlier axes first *)
    let out = ref [] in
    for mask = 1 to (1 lsl n_axes) - 1 do
      let bits = ref [] and cnt = ref 0 in
      for b = n_axes - 1 downto 0 do
        if mask land (1 lsl b) <> 0 then begin
          bits := b :: !bits;
          incr cnt
        end
      done;
      if !cnt = k then out := !bits :: !out
    done;
    List.rev !out
  in
  let total_values sel =
    List.fold_left (fun acc (_, vs) -> acc + List.length vs) 0 sel
  in
  let rec search k =
    if k > n_axes then
      Named
        (List.filter_map
           (fun i ->
             if in_target i then Some t.runs.(i).vr_name else None)
           (List.init n Fun.id))
    else
      let hits = List.filter_map extension_is_target (subsets_of_size k) in
      match hits with
      | [] -> search (k + 1)
      | first :: rest ->
        Axes
          (List.fold_left
             (fun best sel ->
               if total_values sel < total_values best then sel else best)
             first rest)
  in
  if n_axes = 0 then
    Named
      (List.filter_map
         (fun i -> if in_target i then Some t.runs.(i).vr_name else None)
         (List.init n Fun.id))
  else search 1

let condition_to_string = function
  | Axes [] -> "all runs"
  | Axes atoms ->
    String.concat " \xe2\x88\xa7 " (* ∧ *)
      (List.map
         (fun (axis, values) ->
           match values with
           | [ v ] -> Printf.sprintf "%s=%s" axis v
           | vs ->
             Printf.sprintf "%s\xe2\x88\x88{%s}" (* ∈ *) axis
               (String.concat "," vs))
         atoms)
  | Named names -> "runs {" ^ String.concat ", " names ^ "}"

(* ------------------------------------------------------------------ *)
(* Suspects                                                            *)
(* ------------------------------------------------------------------ *)

let bad_set t =
  let s = Bitset.create (n_runs t) in
  Array.iteri (fun i r -> if r.vr_bad then Bitset.add s i) t.runs;
  s

type polarity = Present | Absent

type suspect = {
  sp_region : region;
  sp_polarity : polarity;
  sp_condition : condition;
  sp_exact : bool;
  sp_score : float;
}

let suspects ?(limit = 4) t =
  let bad = bad_set t in
  let nbad = Bitset.cardinal bad in
  if nbad = 0 || nbad = n_runs t then []
  else
    let full = Bitset.full (n_runs t) in
    let of_region rg =
      if Bitset.equal rg.rg_present full then None
      else
        let absent = Bitset.diff full rg.rg_present in
        (* report the side that tracks the bad set better: "this block
           is absent exactly where the fault fired" reads off Absent *)
        let s_present = Bitset.jaccard rg.rg_present bad in
        let s_absent = Bitset.jaccard absent bad in
        let polarity, side, score =
          if s_absent >= s_present then (Absent, absent, s_absent)
          else (Present, rg.rg_present, s_present)
        in
        Some
          { sp_region = rg;
            sp_polarity = polarity;
            sp_condition = condition_of t ~target:side;
            sp_exact = Bitset.equal side bad;
            sp_score = score }
    in
    let all = List.filter_map of_region (regions t) in
    let ranked =
      List.stable_sort
        (fun a b ->
          match Bool.compare b.sp_exact a.sp_exact with
          | 0 -> (
            match compare b.sp_score a.sp_score with
            | 0 ->
              Int.compare
                (List.length b.sp_region.rg_elems)
                (List.length a.sp_region.rg_elems)
            | c -> c)
          | c -> c)
        all
    in
    List.filteri (fun i _ -> i < limit) ranked

let discriminating t =
  let bad = bad_set t in
  let nbad = Bitset.cardinal bad in
  if nbad = 0 || nbad = n_runs t then None
  else Some (condition_of t ~target:bad)

(* ------------------------------------------------------------------ *)
(* Rendering                                                           *)
(* ------------------------------------------------------------------ *)

let region_label rg =
  match rg.rg_elems with
  | [ e ] -> e
  | e :: _ -> Printf.sprintf "%s .. %s" e (List.nth rg.rg_elems
                                             (List.length rg.rg_elems - 1))
  | [] -> ""

let render ?title t =
  let b = Buffer.create 1024 in
  let n = n_runs t in
  let title =
    match title with
    | Some s -> s
    | None -> Printf.sprintf "variational NLR: %d runs" n
  in
  Buffer.add_string b (Printf.sprintf "=== %s ===\n" title);
  Array.iteri
    (fun i r ->
      let axes =
        match r.vr_axes with
        | [] -> ""
        | axes ->
          Printf.sprintf " [%s]"
            (String.concat " "
               (List.map (fun (a, v) -> Printf.sprintf "%s=%s" a v) axes))
      in
      Buffer.add_string b
        (Printf.sprintf "  r%d %s%s%s\n" i r.vr_name axes
           (if r.vr_bad then " BAD" else "")))
    t.runs;
  let rgs = regions t in
  Buffer.add_string b
    (Printf.sprintf "  %d columns in %d regions\n" (Array.length t.columns)
       (List.length rgs));
  let full = Bitset.full n in
  List.iter
    (fun rg ->
      if Bitset.equal rg.rg_present full then
        List.iter
          (fun e -> Buffer.add_string b (Printf.sprintf "    = %s\n" e))
          rg.rg_elems
      else begin
        Buffer.add_string b
          (Printf.sprintf "  [present: %s]\n"
             (condition_to_string (condition_of t ~target:rg.rg_present)));
        List.iter
          (fun e -> Buffer.add_string b (Printf.sprintf "    ~ %s\n" e))
          rg.rg_elems
      end)
    rgs;
  (match suspects t with
  | [] -> ()
  | sps ->
    Buffer.add_string b "suspect regions:\n";
    List.iteri
      (fun i sp ->
        let side =
          match sp.sp_polarity with Present -> "present" | Absent -> "absent"
        in
        Buffer.add_string b
          (Printf.sprintf "  %d. `%s` %s %s %s\n" (i + 1)
             (region_label sp.sp_region) side
             (if sp.sp_exact then "exactly where" else "mostly where")
             (condition_to_string sp.sp_condition)))
      sps);
  (match discriminating t with
  | None -> ()
  | Some c ->
    Buffer.add_string b
      (Printf.sprintf "minimal discriminating condition: %s\n"
         (condition_to_string c)));
  Buffer.contents b

let to_diffnlr t =
  if n_runs t <> 2 then None
  else
    let ops =
      Array.to_list t.columns
      |> List.map (fun (text, present) ->
             match (Bitset.mem present 0, Bitset.mem present 1) with
             | true, true -> Myers.Keep text
             | true, false -> Myers.Delete text
             | false, true -> Myers.Insert text
             | false, false -> assert false)
    in
    Some
      { Diffnlr.blocks = Myers.blocks ops;
        normal_truncated = false;
        faulty_truncated = false }
