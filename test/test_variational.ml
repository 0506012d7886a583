(* lib/variational: n-way merge invariants. The two load-bearing
   contracts are (1) the alignment is lossless — every input sequence
   reads back verbatim — and (2) with exactly two runs the merged
   render collapses byte-identically to the classical pairwise diffNLR,
   so vdiff is a strict generalization of what PR 0 shipped. *)

open Difftrace
module V = Variational
module Bitset = Difftrace_util.Bitset

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

let mk ?(axes = fun _ -> []) ?(bad = fun _ -> false) seqs =
  List.mapi
    (fun i elems ->
      { V.vr_name = Printf.sprintf "run%d" i;
        vr_elems = elems;
        vr_axes = axes i;
        vr_bad = bad i })
    seqs

(* short alphabets make collisions (shared elements) common, which is
   where alignment logic actually gets exercised *)
let elem_gen = QCheck2.Gen.(map (Printf.sprintf "f%d") (int_range 0 5))
let seq_gen = QCheck2.Gen.(list_size (int_range 0 30) elem_gen)

let seqs_gen k = QCheck2.Gen.(list_size (return k) seq_gen)
let any_seqs_gen = QCheck2.Gen.(int_range 2 6 >>= seqs_gen)

(* --- the qcheck properties ------------------------------------------- *)

let lossless runs =
  let v = V.merge runs in
  List.for_all Fun.id
    (List.mapi (fun i r -> V.reconstruct v i = r.V.vr_elems) runs)

let prop_lossless =
  qtest "merge is lossless for every run" any_seqs_gen (fun seqs ->
      lossless (mk seqs))

(* a campaign's run family, longer and wider than the generator draws:
   a shared 120-call core, one [bad] block only the faulty half carries,
   and stride-17 per-run noise (scheduler jitter) *)
let run_family k =
  let len = 120 in
  let bad i = i >= k / 2 in
  mk ~bad
    ~axes:(fun i ->
      [ ("fault", if bad i then "f1" else "none"); ("seed", string_of_int i) ])
    (List.init k (fun i ->
         List.concat_map
           (fun j ->
             let core = Printf.sprintf "f%d" j in
             if bad i && j = len / 2 then [ core; Printf.sprintf "bad%d" j ]
             else if (j + i) mod 17 = 0 then
               [ core; Printf.sprintf "r%d.n%d" i j ]
             else [ core ])
           (List.init len Fun.id)))

let test_lossless_run_family () =
  List.iter
    (fun k ->
      Alcotest.(check bool)
        (Printf.sprintf "k=%d family reads back verbatim" k)
        true
        (lossless (run_family k)))
    [ 2; 4; 8 ]

let prop_presence_nonempty =
  qtest "every column's presence set is non-empty and in range" any_seqs_gen
    (fun seqs ->
      let v = V.merge (mk seqs) in
      let n = V.n_runs v in
      Array.for_all
        (fun (_, present) ->
          Bitset.cardinal present > 0
          && List.for_all (fun i -> i >= 0 && i < n) (Bitset.to_list present))
        v.V.columns)

let prop_regions_partition =
  qtest "regions partition the columns in order" any_seqs_gen (fun seqs ->
      let v = V.merge (mk seqs) in
      let rgs = V.regions v in
      (* concatenated region elements = column texts, in order *)
      List.concat_map (fun rg -> rg.V.rg_elems) rgs
      = (Array.to_list v.V.columns |> List.map fst)
      (* adjacent regions differ in presence (maximality) *)
      && fst
           (List.fold_left
              (fun (ok, prev) rg ->
                ( (ok
                  &&
                  match prev with
                  | None -> true
                  | Some p -> not (Bitset.equal p rg.V.rg_present)),
                  Some rg.V.rg_present ))
              (true, None) rgs))

let prop_two_run_diffnlr_identical =
  qtest "2-run merge renders byte-identically to the pairwise diffNLR"
    (seqs_gen 2) (fun seqs ->
      match seqs with
      | [ a; b ] ->
        let v = V.merge (mk seqs) in
        let d =
          match V.to_diffnlr v with
          | Some d -> d
          | None -> failwith "to_diffnlr: expected Some for 2 runs"
        in
        Diffnlr.render d = Diffnlr.render (Diffnlr.of_strings ~normal:a ~faulty:b)
      | _ -> false)

let prop_columns_roundtrip =
  qtest "of_columns (columns_repr v) rebuilds an identical alignment"
    any_seqs_gen (fun seqs ->
      let runs = mk seqs in
      let v = V.merge runs in
      let v' = V.of_columns runs (V.columns_repr v) in
      Array.length v.V.columns = Array.length v'.V.columns
      && Array.for_all2
           (fun (t, p) (t', p') -> t = t' && Bitset.equal p p')
           v.V.columns v'.V.columns)

let prop_condition_exact =
  (* conditions computed over a one-axis family select exactly their
     target: every run's axis value is its own index, so every subset
     of runs is expressible and condition_of must return Axes, and its
     extension must be the target itself *)
  qtest "condition_of is exact when the axes can express the target"
    QCheck2.Gen.(pair (seqs_gen 4) (int_range 1 14))
    (fun (seqs, mask) ->
      let runs = mk ~axes:(fun i -> [ ("run", string_of_int i) ]) seqs in
      let v = V.merge runs in
      let target = Bitset.of_list 4 (List.filter (fun i -> mask land (1 lsl i) <> 0) [ 0; 1; 2; 3 ]) in
      match V.condition_of v ~target with
      | V.Axes [ ("run", vals) ] ->
        List.sort compare vals
        = List.sort compare
            (List.map string_of_int (Bitset.to_list target))
      | _ -> false)

(* --- unit tests ------------------------------------------------------- *)

let test_discriminating_fault_axis () =
  (* 2 faults x 2 seeds + 2 references: the bad runs differ from the
     good ones by one block, and the minimal condition is the fault
     axis alone — the campaign acceptance shape in miniature *)
  let core = [ "init"; "work"; "fini" ] in
  let bad_seq = [ "init"; "work"; "extra"; "fini" ] in
  let axes = [| ("none", 1); ("none", 2); ("f1", 1); ("f1", 2); ("f2", 1); ("f2", 2) |] in
  let seqs = [ core; core; core; core; bad_seq; bad_seq ] in
  let runs =
    mk
      ~axes:(fun i ->
        let f, s = axes.(i) in
        [ ("fault", f); ("seed", string_of_int s) ])
      ~bad:(fun i -> i >= 4)
      seqs
  in
  let v = V.merge runs in
  (match V.discriminating v with
  | Some c -> Alcotest.(check string) "condition" "fault=f2" (V.condition_to_string c)
  | None -> Alcotest.fail "expected a discriminating condition");
  match V.suspects v with
  | sp :: _ ->
    Alcotest.(check bool) "top suspect exact" true sp.V.sp_exact;
    Alcotest.(check string) "suspect condition" "fault=f2"
      (V.condition_to_string sp.V.sp_condition)
  | [] -> Alcotest.fail "expected a suspect region"

let test_condition_multi_axis () =
  (* no single axis separates {f1@s2}: the minimal condition needs the
     conjunction of both *)
  let seqs = [ [ "a" ]; [ "a" ]; [ "a"; "x" ]; [ "a" ] ] in
  let axes = [| ("f1", 1); ("f1", 2); ("f2", 1); ("f2", 2) |] in
  let runs =
    mk
      ~axes:(fun i ->
        let f, s = axes.(i) in
        [ ("fault", f); ("seed", string_of_int s) ])
      seqs
  in
  let v = V.merge runs in
  let c = V.condition_of v ~target:(Bitset.singleton 4 2) in
  Alcotest.(check string) "conjunction" "fault=f2 \xe2\x88\xa7 seed=1"
    (V.condition_to_string c)

let test_condition_named_fallback () =
  (* two runs sharing every axis value cannot be separated by axes:
     the condition falls back to naming the runs *)
  let seqs = [ [ "a"; "x" ]; [ "a" ] ] in
  let runs = mk ~axes:(fun _ -> [ ("fault", "f1") ]) seqs in
  let v = V.merge runs in
  match V.condition_of v ~target:(Bitset.singleton 2 0) with
  | V.Named [ "run0" ] -> ()
  | c -> Alcotest.failf "expected Named [run0], got %s" (V.condition_to_string c)

let test_of_columns_validates () =
  let runs = mk [ [ "a" ]; [ "a" ] ] in
  Alcotest.check_raises "empty presence"
    (Invalid_argument "Variational.of_columns: empty presence") (fun () ->
      ignore (V.of_columns runs [| ("a", []) |]));
  (match V.of_columns runs [| ("a", [ 0; 7 ]) |] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "out-of-range run index accepted")

let test_merge_empty_rejected () =
  match V.merge [] with
  | exception Invalid_argument _ -> ()
  | _ -> Alcotest.fail "empty run list accepted"

let () =
  Alcotest.run "variational"
    [ ( "properties",
        [ prop_lossless;
          prop_presence_nonempty;
          prop_regions_partition;
          prop_two_run_diffnlr_identical;
          prop_columns_roundtrip;
          prop_condition_exact;
          Alcotest.test_case "merge is lossless for a k=2/4/8 run family"
            `Quick test_lossless_run_family ] );
      ( "conditions",
        [ Alcotest.test_case "discriminating fault axis" `Quick
            test_discriminating_fault_axis;
          Alcotest.test_case "multi-axis conjunction" `Quick
            test_condition_multi_axis;
          Alcotest.test_case "named fallback" `Quick
            test_condition_named_fallback;
          Alcotest.test_case "of_columns validates" `Quick
            test_of_columns_validates;
          Alcotest.test_case "empty merge rejected" `Quick
            test_merge_empty_rejected ] ) ]
