open Difftrace_diff

let qtest ?(count = 300) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let diff_str a b =
  Myers.diff ~equal:Char.equal
    (Array.init (String.length a) (String.get a))
    (Array.init (String.length b) (String.get b))

let script_to_string ops =
  String.concat ""
    (List.map
       (function
         | Myers.Keep c -> Printf.sprintf "=%c" c
         | Myers.Delete c -> Printf.sprintf "-%c" c
         | Myers.Insert c -> Printf.sprintf "+%c" c)
       ops)

(* ------------------------------------------------------------------ *)
(* Myers                                                               *)
(* ------------------------------------------------------------------ *)

let test_equal_sequences () =
  Alcotest.(check string) "all keeps" "=a=b=c" (script_to_string (diff_str "abc" "abc"))

let test_empty_cases () =
  Alcotest.(check string) "both empty" "" (script_to_string (diff_str "" ""));
  Alcotest.(check string) "insert all" "+a+b" (script_to_string (diff_str "" "ab"));
  Alcotest.(check string) "delete all" "-a-b" (script_to_string (diff_str "ab" ""))

let test_classic_example () =
  (* Myers' paper example: ABCABBA -> CBABAC has edit distance 5 *)
  Alcotest.(check int) "D = 5" 5
    (Myers.edit_distance ~equal:Char.equal
       [| 'A'; 'B'; 'C'; 'A'; 'B'; 'B'; 'A' |]
       [| 'C'; 'B'; 'A'; 'B'; 'A'; 'C' |])

let test_single_substitution () =
  Alcotest.(check int) "one delete + one insert" 2
    (Myers.edit_distance ~equal:Char.equal [| 'a'; 'x'; 'c' |] [| 'a'; 'y'; 'c' |])

let test_apply_reconstructs () =
  let script = diff_str "kitten" "sitting" in
  let a, b = Myers.apply script in
  Alcotest.(check (list char)) "left" [ 'k'; 'i'; 't'; 't'; 'e'; 'n' ] a;
  Alcotest.(check (list char)) "right" [ 's'; 'i'; 't'; 't'; 'i'; 'n'; 'g' ] b

let gen_seq = QCheck2.Gen.(string_size ~gen:(char_range 'a' 'd') (int_range 0 60))

let prop_apply_roundtrip =
  qtest "apply (diff a b) reconstructs (a, b)"
    QCheck2.Gen.(pair gen_seq gen_seq)
    (fun (a, b) ->
      let script = diff_str a b in
      let a', b' = Myers.apply script in
      let to_s l = String.init (List.length l) (List.nth l) in
      to_s a' = a && to_s b' = b)

let prop_distance_zero_iff_equal =
  qtest "edit distance 0 iff equal"
    QCheck2.Gen.(pair gen_seq gen_seq)
    (fun (a, b) ->
      let d =
        Myers.edit_distance ~equal:Char.equal
          (Array.init (String.length a) (String.get a))
          (Array.init (String.length b) (String.get b))
      in
      (d = 0) = (a = b))

let prop_distance_bounds =
  qtest "0 <= D <= |a| + |b| and D >= ||a| - |b||"
    QCheck2.Gen.(pair gen_seq gen_seq)
    (fun (a, b) ->
      let la = String.length a and lb = String.length b in
      let d =
        Myers.edit_distance ~equal:Char.equal
          (Array.init la (String.get a))
          (Array.init lb (String.get b))
      in
      d >= abs (la - lb) && d <= la + lb && (la + lb - d) mod 2 = 0)

let prop_symmetry =
  qtest "D(a,b) = D(b,a)"
    QCheck2.Gen.(pair gen_seq gen_seq)
    (fun (a, b) ->
      let dist x y =
        Myers.edit_distance ~equal:Char.equal
          (Array.init (String.length x) (String.get x))
          (Array.init (String.length y) (String.get y))
      in
      dist a b = dist b a)

let prop_distance_counts_script =
  qtest "edit_distance = non-Keep ops of diff"
    QCheck2.Gen.(pair gen_seq gen_seq)
    (fun (a, b) ->
      let arr s = Array.init (String.length s) (String.get s) in
      Myers.edit_distance ~equal:Char.equal (arr a) (arr b)
      = List.length
          (List.filter
             (function Myers.Keep _ -> false | Myers.Delete _ | Myers.Insert _ -> true)
             (diff_str a b)))

(* ------------------------------------------------------------------ *)
(* Myers against the textbook implementation                           *)
(* ------------------------------------------------------------------ *)

(* The reference: Myers' §4 greedy pass saving a full copy of V every
   round, backtracking through those copies. [Myers.diff] must return
   exactly this script — same ops, same tie-breaks. *)
let naive_diff ~equal a b =
  let n = Array.length a and m = Array.length b in
  if n = 0 then List.init m (fun j -> Myers.Insert b.(j))
  else if m = 0 then List.init n (fun i -> Myers.Delete a.(i))
  else begin
    let max_d = n + m in
    let offset = max_d in
    let v = Array.make ((2 * max_d) + 1) 0 in
    let trace = ref [] in
    let found = ref None in
    let d = ref 0 in
    while !found = None && !d <= max_d do
      trace := Array.copy v :: !trace;
      let dd = !d in
      let k = ref (-dd) in
      while !found = None && !k <= dd do
        let kk = !k in
        let x =
          if kk = -dd || (kk <> dd && v.(offset + kk - 1) < v.(offset + kk + 1))
          then v.(offset + kk + 1)
          else v.(offset + kk - 1) + 1
        in
        let x = ref x in
        let y () = !x - kk in
        while !x < n && y () < m && equal a.(!x) b.(y ()) do
          incr x
        done;
        v.(offset + kk) <- !x;
        if !x >= n && y () >= m then found := Some dd;
        k := !k + 2
      done;
      incr d
    done;
    let d_final = match !found with Some d -> d | None -> assert false in
    let traces = Array.of_list (List.rev !trace) in
    let ops = ref [] in
    let x = ref n and y = ref m in
    for d = d_final downto 1 do
      let v = traces.(d) in
      let k = !x - !y in
      let prev_k =
        if k = -d || (k <> d && v.(offset + k - 1) < v.(offset + k + 1)) then
          k + 1
        else k - 1
      in
      let prev_x = v.(offset + prev_k) in
      let prev_y = prev_x - prev_k in
      while !x > prev_x && !y > prev_y do
        decr x;
        decr y;
        ops := Myers.Keep a.(!x) :: !ops
      done;
      if !x = prev_x then begin
        decr y;
        ops := Myers.Insert b.(!y) :: !ops
      end
      else begin
        decr x;
        ops := Myers.Delete a.(!x) :: !ops
      end
    done;
    while !x > 0 && !y > 0 do
      decr x;
      decr y;
      ops := Myers.Keep a.(!x) :: !ops
    done;
    !ops
  end

let gen_ints ~alpha lo hi =
  QCheck2.Gen.(map Array.of_list (list_size (int_range lo hi) (int_range 0 (alpha - 1))))

(* random pairs over alphabets of 1 to 4 symbols *)
let gen_small_pair =
  QCheck2.Gen.(
    let* alpha = int_range 1 4 in
    pair (gen_ints ~alpha 0 60) (gen_ints ~alpha 0 60))

(* one side empty, either side *)
let gen_empty_side =
  QCheck2.Gen.(
    let* s = gen_ints ~alpha:4 0 60 in
    oneofl [ (s, [||]); ([||], s) ])

let gen_identical = QCheck2.Gen.(map (fun s -> (s, Array.copy s)) (gen_ints ~alpha:4 0 200))

(* a hung trace: a long normal run against a short faulty one, and the
   mirror *)
let gen_hung =
  QCheck2.Gen.(
    let* alpha = int_range 1 12 in
    let* long = gen_ints ~alpha 0 400 and* short = gen_ints ~alpha 0 15 in
    oneofl [ (long, short); (short, long) ])

(* a hung trace that drifted just before it stopped: a prefix of the
   long run with 1-6 deletes, inserts or substitutions near the cut, so
   P >= 1 where [gen_hung] nearly always has P = 0; either orientation *)
let gen_near_hung =
  QCheck2.Gen.(
    let* alpha = int_range 1 12 in
    let* long = gen_ints ~alpha 0 400 in
    let* cut = int_range 0 (min 15 (Array.length long)) in
    let edit = triple (int_range 0 2) (int_range 0 4) (int_range 0 (alpha + 3)) in
    let+ edits = list_size (int_range 1 6) edit in
    let apply s (kind, back, sym) =
      let len = Array.length s in
      let pos = max 0 (len - back) in
      match kind with
      | 0 when pos < len ->
        Array.append (Array.sub s 0 pos) (Array.sub s (pos + 1) (len - pos - 1))
      | 1 when pos < len ->
        let s = Array.copy s in
        s.(pos) <- sym;
        s
      | _ -> Array.concat [ Array.sub s 0 pos; [| sym |]; Array.sub s pos (len - pos) ]
    in
    let short = List.fold_left apply (Array.sub long 0 cut) edits in
    if cut mod 2 = 0 then (long, short) else (short, long))

let parity name ?count gen =
  qtest ?count ("diff = reference: " ^ name) gen (fun (a, b) ->
      Myers.diff ~equal:Int.equal a b = naive_diff ~equal:Int.equal a b)

(* [edit_distance] is the O(NP) pass alone: it must still count the
   reference script's edits *)
let distance_parity name ?count gen =
  qtest ?count ("D = reference: " ^ name) gen (fun (a, b) ->
      Myers.edit_distance ~equal:Int.equal a b
      = List.length
          (List.filter
             (function Myers.Keep _ -> false | Myers.Delete _ | Myers.Insert _ -> true)
             (naive_diff ~equal:Int.equal a b)))

(* A hung-run shape: 1700 calls of the normal run against the first 11
   the faulty run made before it stopped, so D = 1689 and P = 0; then
   the same run with the last 3 of 14 calls off the normal path, so
   D = 1692 and P = 3. [Myers.diff] keeps at most P+1 band cells a
   round, so it allocates linearly in n+m: ~13.6 k words a call on the
   first pair (8·(n+m); the script alone is 8.5 k) and ~18.7 k on the
   second (11·(n+m)). Quadratic backtracking state (~D²/2 = 1.43 M
   words here) fails the bound. The mean over 100 calls smooths out
   the lag in the runtime's allocation counters. *)
let test_hung_allocation_bound () =
  let a = Array.init 1700 (fun i -> (i * 37) mod 11) in
  let check ~name ~d b =
    let n = Array.length a and m = Array.length b in
    Alcotest.(check int) (name ^ " D") d (Myers.edit_distance ~equal:Int.equal a b);
    Alcotest.(check int) (name ^ " script length") ((n + m + d) / 2)
      (List.length (Myers.diff ~equal:Int.equal a b));
    let words () = Gc.allocated_bytes () /. float_of_int (Sys.word_size / 8) in
    let calls = 100 in
    let before = words () in
    for _ = 1 to calls do
      ignore (Sys.opaque_identity (Myers.diff ~equal:Int.equal a b))
    done;
    let allocated = (words () -. before) /. float_of_int calls in
    let bound = 24. *. float_of_int (n + m) in
    if allocated > bound then
      Alcotest.failf "Myers.diff allocated %.0f words a call on the %s pair (bound %.0f)"
        allocated name bound
  in
  check ~name:"1700x11" ~d:1689 (Array.sub a 0 11);
  (* the last 3 calls replaced by ones the normal run never makes *)
  check ~name:"1700x14" ~d:1692
    (Array.mapi (fun i x -> if i >= 11 then 11 + x else x) (Array.sub a 0 14))

(* ------------------------------------------------------------------ *)
(* blocks                                                              *)
(* ------------------------------------------------------------------ *)

let test_blocks_grouping () =
  let script = diff_str "abXcd" "abYcd" in
  match Myers.blocks script with
  | [ Myers.Common [ 'a'; 'b' ]; Myers.Changed { del = [ 'X' ]; ins = [ 'Y' ] };
      Myers.Common [ 'c'; 'd' ] ] ->
    ()
  | bs -> Alcotest.fail (Printf.sprintf "unexpected blocks (%d)" (List.length bs))

let test_blocks_trailing_change () =
  match Myers.blocks (diff_str "ab" "abXY") with
  | [ Myers.Common [ 'a'; 'b' ]; Myers.Changed { del = []; ins = [ 'X'; 'Y' ] } ] -> ()
  | _ -> Alcotest.fail "unexpected blocks"

let prop_blocks_preserve_content =
  qtest "blocks flatten back to the script content"
    QCheck2.Gen.(pair gen_seq gen_seq)
    (fun (a, b) ->
      let script = diff_str a b in
      let blocks = Myers.blocks script in
      let left =
        List.concat_map
          (function
            | Myers.Common l -> l
            | Myers.Changed { del; _ } -> del)
          blocks
      in
      let right =
        List.concat_map
          (function
            | Myers.Common l -> l
            | Myers.Changed { ins; _ } -> ins)
          blocks
      in
      let to_s l = String.init (List.length l) (List.nth l) in
      to_s left = a && to_s right = b)

(* ------------------------------------------------------------------ *)
(* diffNLR                                                             *)
(* ------------------------------------------------------------------ *)

let test_diffnlr_of_strings () =
  let d =
    Diffnlr.of_strings
      ~normal:[ "MPI_Init"; "L1^16"; "MPI_Finalize" ]
      ~faulty:[ "MPI_Init"; "L1^7"; "L0^9"; "MPI_Finalize" ]
  in
  Alcotest.(check int) "common stem" 2 (Diffnlr.common_length d);
  Alcotest.(check int) "changed" 3 (Diffnlr.changed_length d);
  let r = Diffnlr.render ~title:"swapBug" d in
  let contains sub s =
    let n = String.length sub and h = String.length s in
    let rec go i = i + n <= h && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "title shown" true (contains "swapBug" r);
  Alcotest.(check bool) "stem marker" true (contains "= MPI_Init" r);
  Alcotest.(check bool) "changed marker" true (contains "~ L1^16" r)

let test_diffnlr_truncation_note () =
  let symtab = Difftrace_trace.Symtab.create () in
  let table = Difftrace_nlr.Nlr.Loop_table.create () in
  let mk s =
    Difftrace_nlr.Nlr.of_ids ~table
      (Array.of_list
         (List.map (fun c -> Difftrace_trace.Symtab.intern symtab (String.make 1 c))
            (List.init (String.length s) (String.get s))))
  in
  let d = Diffnlr.make symtab ~normal:(mk "abc", false) ~faulty:(mk "ab", true) in
  let r = Diffnlr.render d in
  let contains sub s =
    let n = String.length sub and h = String.length s in
    let rec go i = i + n <= h && (String.sub s i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "truncation reported" true (contains "TRUNCATED" r)

(* The Printf-per-line renderer [Diffnlr.render] had before it wrote
   into one buffer, kept as the byte-for-byte oracle. *)
let render_oracle ~title (t : Diffnlr.t) =
  let width =
    List.fold_left
      (fun acc b ->
        let lens =
          match b with
          | Myers.Common l -> List.map String.length l
          | Myers.Changed { del; ins } ->
            List.map String.length del @ List.map String.length ins
        in
        List.fold_left max acc lens)
      12 t.Diffnlr.blocks
  in
  let pad s = s ^ String.make (max 0 (width - String.length s)) ' ' in
  let buf = Buffer.create 16 in
  let line fmt = Printf.bprintf buf fmt in
  line "=== %s ===\n" title;
  line "    %s | %s\n" (pad "normal") (pad "faulty");
  let rule () = line "    %s-+-%s\n" (String.make width '-') (String.make width '-') in
  rule ();
  List.iter
    (fun block ->
      (match block with
      | Myers.Common lines -> List.iter (fun l -> line "  = %s | %s\n" (pad l) (pad l)) lines
      | Myers.Changed { del; ins } ->
        let rec zip d i =
          match (d, i) with
          | [], [] -> ()
          | dh :: dt, [] -> line "  < %s | %s\n" (pad dh) (pad ""); zip dt []
          | [], ih :: it -> line "  > %s | %s\n" (pad "") (pad ih); zip [] it
          | dh :: dt, ih :: it -> line "  ~ %s | %s\n" (pad dh) (pad ih); zip dt it
        in
        zip del ins);
      rule ())
    t.Diffnlr.blocks;
  (match (t.Diffnlr.normal_truncated, t.Diffnlr.faulty_truncated) with
  | false, true ->
    line "    faulty trace is TRUNCATED: the thread hung inside its last call\n"
  | true, false -> line "    normal trace is TRUNCATED (unexpected)\n"
  | true, true -> line "    both traces are TRUNCATED\n"
  | false, false -> ());
  Buffer.contents buf

(* element strings from a small alphabet, some wider than the
   12-column minimum *)
let gen_render =
  let open QCheck2.Gen in
  let elem = map (fun (c, n) -> String.make n c) (pair (char_range 'a' 'c') (int_range 1 20)) in
  let side = list_size (int_range 0 12) elem in
  tup5 side side bool bool (string_size ~gen:printable (int_range 0 10))

let prop_render_oracle =
  qtest "render = oracle, length exact" gen_render
    (fun (normal, faulty, tn, tf, title) ->
      let d = Diffnlr.of_strings ~normal ~faulty in
      let d = { d with Diffnlr.normal_truncated = tn; faulty_truncated = tf } in
      let r = Diffnlr.render ~title d in
      let buf = Buffer.create 1 in
      Buffer.add_string buf "head\n";
      Diffnlr.render_to buf ~title d;
      r = render_oracle ~title d
      && String.length r = Diffnlr.rendered_length ~title d
      && Buffer.contents buf = "head\n" ^ r
      && Diffnlr.render d = render_oracle ~title:"diffNLR" d)

(* ------------------------------------------------------------------ *)
(* Phase-aware diffing                                                 *)
(* ------------------------------------------------------------------ *)

let test_phase_split () =
  let phases =
    Phasediff.split ~markers:Phasediff.default_markers
      [ "a"; "b"; "MPI_Barrier"; "c"; "MPI_Allreduce"; "d" ]
  in
  Alcotest.(check (list (list string))) "three phases"
    [ [ "a"; "b"; "MPI_Barrier" ]; [ "c"; "MPI_Allreduce" ]; [ "d" ] ]
    phases;
  Alcotest.(check (list (list string))) "empty input" []
    (Phasediff.split ~markers:Phasediff.default_markers [])

let test_phase_compare_localizes () =
  let normal =
    [ "init"; "MPI_Barrier"; "work"; "work"; "MPI_Allreduce"; "work";
      "MPI_Allreduce"; "fini" ]
  in
  let faulty =
    [ "init"; "MPI_Barrier"; "work"; "work"; "MPI_Allreduce"; "work"; "extra";
      "MPI_Allreduce"; "fini" ]
  in
  let t = Phasediff.compare ~normal ~faulty () in
  Alcotest.(check int) "four phases" 4 t.Phasediff.total_phases;
  Alcotest.(check (option int)) "divergence in phase 2" (Some 2)
    t.Phasediff.first_divergent;
  let p0 = List.nth t.Phasediff.phases 0 in
  Alcotest.(check int) "phase 0 identical" 0 p0.Phasediff.distance;
  let p2 = List.nth t.Phasediff.phases 2 in
  Alcotest.(check int) "phase 2 distance 1" 1 p2.Phasediff.distance

let test_phase_extra_phases () =
  let t =
    Phasediff.compare ~normal:[ "a"; "MPI_Barrier" ]
      ~faulty:[ "a"; "MPI_Barrier"; "b"; "MPI_Barrier" ]
      ()
  in
  Alcotest.(check int) "faulty has an extra phase" 2 t.Phasediff.total_phases;
  Alcotest.(check (option int)) "extra phase divergent" (Some 1)
    t.Phasediff.first_divergent

let test_phase_identical () =
  let calls = [ "x"; "MPI_Barrier"; "y" ] in
  let t = Phasediff.compare ~normal:calls ~faulty:calls () in
  Alcotest.(check (option int)) "no divergence" None t.Phasediff.first_divergent;
  Alcotest.(check bool) "render mentions identical" true
    (String.length (Phasediff.render t) > 10)

let test_phase_render_ragged () =
  (* a hand-assembled (or damaged) report whose [first_divergent]
     points past the recorded phase list: render must degrade to a
     note, where a raw [List.nth] used to die with [Failure "nth"] *)
  let p =
    { Phasediff.index = 2;
      normal_phase = [ "a" ];
      faulty_phase = [ "b" ];
      distance = 2 }
  in
  let ragged =
    { Phasediff.phases = [ p ]; first_divergent = Some 0; total_phases = 3 }
  in
  let r = Phasediff.render ragged in
  let contains sub s =
    let n = String.length sub in
    let rec go i =
      i + n <= String.length s && (String.sub s i n = sub || go (i + 1))
    in
    go 0
  in
  Alcotest.(check bool) "missing phase noted" true
    (contains "no report recorded for phase 0" r);
  (* a divergent index that IS recorded still renders its diff *)
  let found =
    Phasediff.render
      { Phasediff.phases = [ p ]; first_divergent = Some 2; total_phases = 3 }
  in
  Alcotest.(check bool) "recorded phase diffed" true (contains "phase 2" found)

let test_phase_pipeline_integration () =
  let module Heat = Difftrace_workloads.Heat in
  let module R = Difftrace_simulator.Runtime in
  let module Fault = Difftrace_simulator.Fault in
  let normal, _ = Heat.run ~np:4 ~max_iters:8 ~fault:Fault.No_fault () in
  let faulty, _ =
    Heat.run ~np:4 ~max_iters:8
      ~fault:(Fault.Swap_send_recv { rank = 1; after_iter = 4 })
      ()
  in
  let c =
    Difftrace.Pipeline.compare_runs
      (Difftrace.Config.make ~filter:(Difftrace_filter.Filter.make []) ())
      ~normal:normal.R.traces ~faulty:faulty.R.traces
  in
  let t =
    match Difftrace.Pipeline.find_phasediff c "1.0" with
    | Ok t -> t
    | Error e -> Alcotest.fail (Difftrace.Pipeline.lookup_error_to_string e)
  in
  (match t.Phasediff.first_divergent with
  | Some i ->
    (* the fault fires after iteration 4: early phases must be clean *)
    Alcotest.(check bool) "divergence not in the first phases" true (i >= 3)
  | None -> Alcotest.fail "expected divergence");
  (* the unaffected rank 3 never diverges *)
  let t3 =
    match Difftrace.Pipeline.find_phasediff c "3.0" with
    | Ok t -> t
    | Error e -> Alcotest.fail (Difftrace.Pipeline.lookup_error_to_string e)
  in
  Alcotest.(check (option int)) "rank 3 identical" None t3.Phasediff.first_divergent

let () =
  Alcotest.run "diff"
    [ ( "myers",
        [ Alcotest.test_case "equal sequences" `Quick test_equal_sequences;
          Alcotest.test_case "empty cases" `Quick test_empty_cases;
          Alcotest.test_case "Myers' ABCABBA example" `Quick test_classic_example;
          Alcotest.test_case "substitution" `Quick test_single_substitution;
          Alcotest.test_case "apply reconstructs" `Quick test_apply_reconstructs;
          prop_apply_roundtrip;
          prop_distance_zero_iff_equal;
          prop_distance_bounds;
          prop_symmetry;
          prop_distance_counts_script ] );
      ( "myers-ref",
        [ parity "alphabets 1-4" gen_small_pair;
          parity "empty side" gen_empty_side;
          parity "identical" gen_identical;
          parity "hung shapes" ~count:100 gen_hung;
          Alcotest.test_case "hung allocation bound" `Quick test_hung_allocation_bound;
          parity "near-hung shapes" ~count:200 gen_near_hung;
          distance_parity "alphabets 1-4" gen_small_pair;
          distance_parity "empty side" gen_empty_side;
          distance_parity "identical" gen_identical;
          distance_parity "hung shapes" ~count:100 gen_hung;
          distance_parity "near-hung shapes" ~count:200 gen_near_hung ] );
      ( "blocks",
        [ Alcotest.test_case "grouping" `Quick test_blocks_grouping;
          Alcotest.test_case "trailing change" `Quick test_blocks_trailing_change;
          prop_blocks_preserve_content ] );
      ( "phasediff",
        [ Alcotest.test_case "split" `Quick test_phase_split;
          Alcotest.test_case "localizes divergence" `Quick test_phase_compare_localizes;
          Alcotest.test_case "extra phases" `Quick test_phase_extra_phases;
          Alcotest.test_case "identical" `Quick test_phase_identical;
          Alcotest.test_case "ragged render" `Quick test_phase_render_ragged;
          Alcotest.test_case "pipeline integration" `Quick
            test_phase_pipeline_integration ] );
      ( "diffnlr",
        [ Alcotest.test_case "of_strings + render" `Quick test_diffnlr_of_strings;
          Alcotest.test_case "truncation note" `Quick test_diffnlr_truncation_note;
          prop_render_oracle ] ) ]
