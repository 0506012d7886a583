open Difftrace_nlr
open Difftrace_trace

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let symtab_of names =
  let t = Symtab.create () in
  List.iter (fun n -> ignore (Symtab.intern t n)) names;
  t

(* builds an ID sequence from single-letter names *)
let seq symtab s =
  Array.of_list
    (List.map
       (fun c -> Symtab.intern symtab (String.make 1 c))
       (List.init (String.length s) (String.get s)))

let summarize ?(k = 10) ?repeats ?table symtab s =
  let table = match table with Some t -> t | None -> Nlr.Loop_table.create () in
  (Nlr.of_ids ~table ~k ?repeats (seq symtab s), table)

let strings symtab nlr = String.concat ";" (Nlr.to_strings symtab nlr)

let test_no_loop () =
  let st = symtab_of [] in
  let nlr, _ = summarize st "abcdef" in
  Alcotest.(check string) "unchanged" "a;b;c;d;e;f" (strings st nlr)

let test_simple_loop () =
  let st = symtab_of [] in
  let nlr, table = summarize st "abababab" in
  Alcotest.(check string) "folded" "L0^4" (strings st nlr);
  Alcotest.(check string) "body" "[a-b]" (Nlr.body_to_string ~table st 0)

let test_two_iteration_loop () =
  (* Table III needs L0^2 from just two iterations (repeats = 2) *)
  let st = symtab_of [] in
  let nlr, _ = summarize st "xyxy" in
  Alcotest.(check string) "two copies fold" "L0^2" (strings st nlr)

let test_repeats_three_threshold () =
  let st = symtab_of [] in
  let nlr, _ = summarize ~repeats:3 st "xyxy" in
  Alcotest.(check string) "two copies do NOT fold at repeats=3" "x;y;x;y"
    (strings st nlr);
  let nlr, _ = summarize ~repeats:3 st "xyxyxy" in
  Alcotest.(check string) "three copies fold" "L0^3" (strings st nlr)

let test_loop_with_prefix_suffix () =
  let st = symtab_of [] in
  let nlr, _ = summarize st "iababababf" in
  Alcotest.(check string) "stem kept" "i;L0^4;f" (strings st nlr)

let test_single_symbol_loop () =
  let st = symtab_of [] in
  let nlr, _ = summarize st "aaaaa" in
  Alcotest.(check string) "unary body" "L0^5" (strings st nlr)

let test_nested_loops () =
  let st = symtab_of [] in
  (* (a b b)(a b b) : inner bb folds first, then the outer pair *)
  let nlr, table = summarize st "abbabb" in
  Alcotest.(check string) "outer loop" "L1^2" (strings st nlr);
  Alcotest.(check string) "outer body references inner loop" "[a-L0^2]"
    (Nlr.body_to_string ~table st 1)

let test_k_bounds_window () =
  let st = symtab_of [] in
  (* repeating unit of length 4 is not folded when k = 3 *)
  let nlr, _ = summarize ~k:3 st "abcdabcd" in
  Alcotest.(check string) "k too small" "a;b;c;d;a;b;c;d" (strings st nlr);
  let nlr, _ = summarize ~k:4 st "abcdabcd" in
  Alcotest.(check string) "k sufficient" "L0^2" (strings st nlr)

let test_different_counts_not_isomorphic () =
  let st = symtab_of [] in
  (* aa b aaa b : L(a)^2 and L(a)^3 differ, so the outer pair must NOT fold *)
  let nlr, _ = summarize st "aabaaab" in
  Alcotest.(check string) "counts distinguish loops" "L0^2;b;L0^3;b" (strings st nlr)

let test_table_shared_across_traces () =
  let st = symtab_of [] in
  let table = Nlr.Loop_table.create () in
  let nlr1, _ = summarize ~table st "srsrsrsr" in
  let nlr2, _ = summarize ~table st "rsrsrs" in
  (* Loop IDs must be consistent across traces of one execution *)
  Alcotest.(check string) "first trace uses L0" "L0^4" (strings st nlr1);
  Alcotest.(check string) "second trace's distinct body gets L1" "L1^3"
    (strings st nlr2);
  Alcotest.(check int) "two shared bodies" 2 (Nlr.Loop_table.size table);
  (* a later trace with the first body shape reuses L0 *)
  let nlr3, _ = summarize ~table st "srsr" in
  Alcotest.(check string) "L0 reused across traces" "L0^2" (strings st nlr3)

let test_paper_odd_even () =
  (* the §II example: traces reduce to Table III *)
  let st = symtab_of [ "I"; "R"; "K"; "s"; "r"; "F" ] in
  let table = Nlr.Loop_table.create () in
  let t0, _ = summarize ~table st "IRKsrsrF" in
  let t1, _ = summarize ~table st "IRKrsrsrsrsF" in
  Alcotest.(check string) "T0 = prologue L^2 epilogue" "I;R;K;L0^2;F" (strings st t0);
  Alcotest.(check string) "T1 = prologue L'^4 epilogue" "I;R;K;L1^4;F" (strings st t1)

let test_length_and_factor () =
  let st = symtab_of [] in
  let nlr, _ = summarize st "abababab" in
  Alcotest.(check int) "length" 1 (Nlr.length nlr);
  Alcotest.(check (float 1e-9)) "factor" 8.0 (Nlr.reduction_factor nlr);
  let empty, _ = summarize st "" in
  Alcotest.(check (float 1e-9)) "empty factor" 1.0 (Nlr.reduction_factor empty)

let test_token_multiplicity () =
  let st = symtab_of [] in
  let nlr, _ = summarize st "cabababd" in
  match nlr.Nlr.elems with
  | [| Nlr.Sym c; Nlr.Loop _ as l; Nlr.Sym d |] ->
    Alcotest.(check string) "sym token" "c" (Nlr.token st (Nlr.Sym c));
    Alcotest.(check string) "loop token" "L0" (Nlr.token st l);
    Alcotest.(check int) "sym multiplicity" 1 (Nlr.multiplicity (Nlr.Sym d));
    Alcotest.(check int) "loop multiplicity" 3 (Nlr.multiplicity l)
  | _ -> Alcotest.fail "unexpected structure"

let test_validation () =
  let table = Nlr.Loop_table.create () in
  Alcotest.check_raises "k >= 1" (Invalid_argument "Nlr.of_ids: k must be >= 1")
    (fun () -> ignore (Nlr.of_ids ~table ~k:0 [| 1 |]));
  Alcotest.check_raises "repeats >= 2"
    (Invalid_argument "Nlr.of_ids: repeats must be >= 2") (fun () ->
      ignore (Nlr.of_ids ~table ~repeats:1 [| 1 |]));
  Alcotest.check_raises "unknown body" (Invalid_argument "Loop_table.body")
    (fun () -> ignore (Nlr.Loop_table.body table 3))

(* --- the key property: NLR is a lossless abstraction ---------------- *)

let ids_gen =
  QCheck2.Gen.(
    let* alpha = int_range 1 5 in
    let* n = int_range 0 300 in
    let* l = list_repeat n (int_range 0 (alpha - 1)) in
    return (Array.of_list l))

let prop_lossless =
  qtest "expand (of_ids ids) = ids" ~count:500 ids_gen (fun ids ->
      let table = Nlr.Loop_table.create () in
      let nlr = Nlr.of_ids ~table ~k:6 ids in
      Nlr.expand ~table nlr = ids)

let prop_lossless_various_k =
  qtest "lossless for every k"
    QCheck2.Gen.(pair ids_gen (int_range 1 20))
    (fun (ids, k) ->
      let table = Nlr.Loop_table.create () in
      let nlr = Nlr.of_ids ~table ~k ids in
      Nlr.expand ~table nlr = ids)

let prop_never_longer =
  qtest "summary never longer than input" ids_gen (fun ids ->
      let table = Nlr.Loop_table.create () in
      Nlr.length (Nlr.of_ids ~table ids) <= Array.length ids)

let prop_shared_table_lossless =
  qtest "sharing a loop table across traces stays lossless"
    QCheck2.Gen.(pair ids_gen ids_gen)
    (fun (a, b) ->
      let table = Nlr.Loop_table.create () in
      let na = Nlr.of_ids ~table ~k:6 a in
      let nb = Nlr.of_ids ~table ~k:6 b in
      Nlr.expand ~table na = a && Nlr.expand ~table nb = b)

(* --- the array-stack reduction against the textbook one -------------- *)

module Vec = Difftrace_util.Vec

(* The reference: Procedure 1 over a [Vec] stack, polymorphic equality,
   every window compared in full. [Nlr.of_ids] must match it element for
   element and intern the same bodies in the same order. *)
let naive_reduce_step ~table ~k ~repeats stack =
  let len = Vec.length stack in
  let exception Changed in
  try
    for b = 1 to k do
      (if len >= b + 1 then
         match Vec.peek stack b with
         | Nlr.Loop { body; count } ->
           let bd = Nlr.Loop_table.body table body in
           if
             Array.length bd = b
             && (let ok = ref true in
                 for i = 0 to b - 1 do
                   if not (bd.(i) = Vec.peek stack (b - 1 - i)) then ok := false
                 done;
                 !ok)
           then begin
             Vec.truncate stack (len - b - 1);
             Vec.push stack (Nlr.Loop { body; count = count + 1 });
             raise Changed
           end
         | Nlr.Sym _ -> ());
      if len >= repeats * b then begin
        let window w i = Vec.get stack (len - ((w + 1) * b) + i) in
        let all_equal = ref true in
        for w = 1 to repeats - 1 do
          for i = 0 to b - 1 do
            if not (window 0 i = window w i) then all_equal := false
          done
        done;
        if !all_equal then begin
          let body = Array.init b (fun i -> window 0 i) in
          let id = Nlr.Loop_table.intern table body in
          Vec.truncate stack (len - (repeats * b));
          Vec.push stack (Nlr.Loop { body = id; count = repeats });
          raise Changed
        end
      end
    done;
    false
  with Changed -> true

let naive_of_ids ~table ~k ~repeats ids =
  let stack = Vec.with_capacity (Array.length ids) in
  Array.iter
    (fun id ->
      Vec.push stack (Nlr.Sym id);
      while naive_reduce_step ~table ~k ~repeats stack do
        ()
      done)
    ids;
  { Nlr.elems = Vec.to_array stack; input_length = Array.length ids }

(* traces made of repeated random chunks, so loops — nested ones too —
   are created and extended, mixed with plain random runs *)
let structured_ids_gen =
  QCheck2.Gen.(
    let* alpha = int_range 1 6 in
    let sym = int_range 0 (alpha - 1) in
    let chunk =
      let* body = list_size (int_range 1 5) sym and* times = int_range 1 6 in
      return (List.concat (List.init times (fun _ -> body)))
    in
    let* parts = list_size (int_range 0 12) chunk in
    return (Array.of_list (List.concat parts)))

let prop_matches_reference =
  qtest "of_ids = reference, shared table" ~count:300
    QCheck2.Gen.(
      triple (int_range 1 12) (int_range 2 4)
        (list_size (int_range 1 5) (oneof [ ids_gen; structured_ids_gen ])))
    (fun (k, repeats, traces) ->
      let table = Nlr.Loop_table.create () and ref_table = Nlr.Loop_table.create () in
      List.for_all
        (fun ids ->
          let got = Nlr.of_ids ~table ~k ~repeats ids in
          let want = naive_of_ids ~table:ref_table ~k ~repeats ids in
          got.Nlr.elems = want.Nlr.elems && got.Nlr.input_length = want.Nlr.input_length)
        traces
      && Nlr.Loop_table.size table = Nlr.Loop_table.size ref_table
      && List.for_all
           (fun i -> Nlr.Loop_table.body table i = Nlr.Loop_table.body ref_table i)
           (List.init (Nlr.Loop_table.size table) Fun.id))

(* traces built from loops of loops: an outer repetition of chunks that
   themselves repeat, so bodies reference earlier bodies *)
let nested_ids_gen =
  QCheck2.Gen.(
    let* alpha = int_range 1 8 in
    let sym = int_range 0 (alpha - 1) in
    let repeat times l = List.concat (List.init times (fun _ -> l)) in
    let inner =
      let* body = list_size (int_range 1 4) sym and* times = int_range 2 5 in
      return (repeat times body)
    in
    let outer =
      let* parts = list_size (int_range 1 4) (oneof [ inner; map (fun s -> [ s ]) sym ])
      and* times = int_range 2 4 in
      return (repeat times (List.concat parts))
    in
    let* parts = list_size (int_range 0 6) (oneof [ outer; inner; list_size (int_range 1 3) sym ]) in
    return (Array.of_list (List.concat parts)))

(* The last trace meets a table that earlier traces filled, so a window
   it folds may intern to an existing body, and the stack then extends
   that loop through the body cache loaded from the table. The earlier
   traces are reduced by the reference alone into both tables. *)
let prop_matches_reference_preseeded =
  qtest "of_ids = reference, k <= 50, table pre-seeded" ~count:300
    QCheck2.Gen.(
      let* k = int_range 1 50
      and* repeats = int_range 2 3
      and* seeds = list_size (int_range 1 4) (oneof [ nested_ids_gen; structured_ids_gen ]) in
      let* last = oneof [ nested_ids_gen; oneofl seeds ] in
      return (k, repeats, seeds, last))
    (fun (k, repeats, seeds, last) ->
      let table = Nlr.Loop_table.create () and ref_table = Nlr.Loop_table.create () in
      List.iter
        (fun ids ->
          ignore (naive_of_ids ~table ~k ~repeats ids);
          ignore (naive_of_ids ~table:ref_table ~k ~repeats ids))
        seeds;
      let got = Nlr.of_ids ~table ~k ~repeats last in
      let want = naive_of_ids ~table:ref_table ~k ~repeats last in
      got.Nlr.elems = want.Nlr.elems
      && Nlr.Loop_table.size table = Nlr.Loop_table.size ref_table
      && List.for_all
           (fun i -> Nlr.Loop_table.body table i = Nlr.Loop_table.body ref_table i)
           (List.init (Nlr.Loop_table.size table) Fun.id))

(* --- the element codec ---------------------------------------------- *)

let encode elems =
  let b = Buffer.create 16 in
  Nlr.write_elems b elems;
  Buffer.contents b

let test_codec_roundtrip () =
  let elems = [| Nlr.Sym 0; Nlr.Loop { body = 1; count = 2 }; Nlr.Sym 3 |] in
  let s = encode elems in
  let got, pos = Nlr.read_elems ~n_syms:4 ~n_bodies:2 s 0 in
  Alcotest.(check bool) "same elements" true (got = elems);
  Alcotest.(check int) "consumed everything" (String.length s) pos

(* no reduction makes a loop of fewer than two iterations; a record
   holding one is damage, not a loop to render as "L0^0" *)
let test_codec_rejects_short_loops () =
  List.iter
    (fun count ->
      let s = encode [| Nlr.Sym 0; Nlr.Loop { body = 0; count } |] in
      Alcotest.check_raises
        (Printf.sprintf "count %d" count)
        (Nlr.Corrupt (Printf.sprintf "loop count %d below 2" count))
        (fun () -> ignore (Nlr.read_elems ~n_syms:1 ~n_bodies:1 s 0)))
    [ 0; 1 ]

let () =
  Alcotest.run "nlr"
    [ ( "reduce",
        [ Alcotest.test_case "no loop" `Quick test_no_loop;
          Alcotest.test_case "simple loop" `Quick test_simple_loop;
          Alcotest.test_case "two iterations fold" `Quick test_two_iteration_loop;
          Alcotest.test_case "repeats=3 threshold" `Quick test_repeats_three_threshold;
          Alcotest.test_case "prefix/suffix stem" `Quick test_loop_with_prefix_suffix;
          Alcotest.test_case "unary body" `Quick test_single_symbol_loop;
          Alcotest.test_case "nested" `Quick test_nested_loops;
          Alcotest.test_case "k bounds window" `Quick test_k_bounds_window;
          Alcotest.test_case "counts distinguish" `Quick
            test_different_counts_not_isomorphic ] );
      ( "table",
        [ Alcotest.test_case "shared across traces" `Quick
            test_table_shared_across_traces;
          Alcotest.test_case "paper odd/even (Table III)" `Quick test_paper_odd_even ] );
      ( "accessors",
        [ Alcotest.test_case "length/factor" `Quick test_length_and_factor;
          Alcotest.test_case "token/multiplicity" `Quick test_token_multiplicity;
          Alcotest.test_case "validation" `Quick test_validation ] );
      ( "properties",
        [ prop_lossless; prop_lossless_various_k; prop_never_longer;
          prop_shared_table_lossless; prop_matches_reference;
          prop_matches_reference_preseeded ] );
      ( "codec",
        [ Alcotest.test_case "round trip" `Quick test_codec_roundtrip;
          Alcotest.test_case "loop count below 2 is corrupt" `Quick
            test_codec_rejects_short_loops ] ) ]
