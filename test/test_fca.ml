open Difftrace_fca
module Bitset = Difftrace_util.Bitset
module Symtab = Difftrace_trace.Symtab
module Nlr = Difftrace_nlr.Nlr

let qtest ?(count = 100) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Attributes (Table V)                                                *)
(* ------------------------------------------------------------------ *)

let nlr_of ?(k = 10) names_string =
  let st = Symtab.create () in
  let ids =
    Array.of_list
      (List.map
         (fun c -> Symtab.intern st (String.make 1 c))
         (List.init (String.length names_string) (String.get names_string)))
  in
  let table = Nlr.Loop_table.create () in
  (st, Nlr.of_ids ~table ~k ids)

let spec g f = { Attributes.granularity = g; freq_mode = f }

let test_attr_names () =
  Alcotest.(check string) "sing.actual" "sing.actual"
    (Attributes.name (spec Attributes.Single Attributes.Actual));
  Alcotest.(check string) "doub.noFreq" "doub.noFreq"
    (Attributes.name (spec Attributes.Double Attributes.No_freq));
  Alcotest.(check int) "six specs" 6 (List.length Attributes.all);
  List.iter
    (fun s ->
      let s' = Attributes.of_name (Attributes.name s) in
      Alcotest.(check string) "roundtrip" (Attributes.name s) (Attributes.name s'))
    Attributes.all;
  Alcotest.check_raises "bad name" (Invalid_argument "Attributes.of_name: nope")
    (fun () -> ignore (Attributes.of_name "nope"));
  List.iter
    (fun s ->
      Alcotest.(check bool) ("parse " ^ s) true
        (Attributes.parse s = Error ("Attributes.of_name: " ^ s)))
    [ "nope"; "sing"; "sing.noFreq.x"; "Sing.noFreq"; "" ]

let test_single_nofreq () =
  let st, nlr = nlr_of "abab" in
  Alcotest.(check (list string)) "loop token once" [ "L0" ]
    (Attributes.of_nlr (spec Attributes.Single Attributes.No_freq) st nlr)

let test_single_actual_counts_loop_multiplicity () =
  let st, nlr = nlr_of "cababab" in
  Alcotest.(check (list string)) "frequency includes loop count"
    [ "L0:3"; "c:1" ]
    (Attributes.of_nlr (spec Attributes.Single Attributes.Actual) st nlr)

let test_single_log10_buckets () =
  let st, nlr = nlr_of (String.concat "" (List.init 150 (fun _ -> "ab"))) in
  Alcotest.(check (list string)) "150 iterations -> bucket e2" [ "L0:e2" ]
    (Attributes.of_nlr (spec Attributes.Single Attributes.Log10) st nlr)

let test_double_pairs () =
  let st, nlr = nlr_of "xyz" in
  Alcotest.(check (list string)) "consecutive pairs"
    [ "x->y:1"; "y->z:1" ]
    (Attributes.of_nlr (spec Attributes.Double Attributes.Actual) st nlr)

let test_double_nofreq_dedupes () =
  let st, nlr = nlr_of ~k:1 "xyxzxyxz" in
  let attrs = Attributes.of_nlr (spec Attributes.Double Attributes.No_freq) st nlr in
  Alcotest.(check bool) "pair x->y present once" true (List.mem "x->y" attrs);
  Alcotest.(check bool) "sorted unique" true
    (List.sort_uniq String.compare attrs = attrs)

(* ------------------------------------------------------------------ *)
(* Context                                                             *)
(* ------------------------------------------------------------------ *)

(* the paper's Table IV *)
let odd_even_context () =
  let common = [ "MPI_Init"; "MPI_Comm_size"; "MPI_Comm_rank"; "MPI_Finalize" ] in
  Context.of_attr_sets
    [ ("T0", "L0" :: common); ("T1", "L1" :: common); ("T2", "L0" :: common);
      ("T3", "L1" :: common) ]

let test_context_shape () =
  let ctx = odd_even_context () in
  Alcotest.(check int) "objects" 4 (Context.n_objects ctx);
  Alcotest.(check int) "attrs" 6 (Context.n_attrs ctx);
  Alcotest.(check string) "label" "T2" (Context.object_label ctx 2);
  Alcotest.(check bool) "T0 has L0" true
    (Context.has ctx 0 0 (* "L0" was first seen *));
  Alcotest.(check bool) "T1 lacks L0" false (Context.has ctx 1 0)

let test_context_derivations () =
  let ctx = odd_even_context () in
  let evens = Bitset.of_list 4 [ 0; 2 ] in
  let common = Context.common_attrs ctx evens in
  (* L0 + the 4 shared functions *)
  Alcotest.(check int) "evens share 5 attrs" 5 (Bitset.cardinal common);
  let back = Context.common_objects ctx common in
  Alcotest.(check (list int)) "closure extent" [ 0; 2 ] (Bitset.to_list back);
  (* empty object set -> all attributes *)
  Alcotest.(check int) "common_attrs of none = all" 6
    (Bitset.cardinal (Context.common_attrs ctx (Bitset.create 4)))

let test_context_jaccard () =
  let ctx = odd_even_context () in
  Alcotest.(check (float 1e-9)) "same group" 1.0 (Context.jaccard ctx 0 2);
  Alcotest.(check (float 1e-9)) "cross group (4 shared / 6 union)" (4.0 /. 6.0)
    (Context.jaccard ctx 0 1)

let test_context_table_render () =
  let s = Context.to_table (odd_even_context ()) in
  Alcotest.(check bool) "mentions T3" true
    (String.split_on_char '\n' s
    |> List.exists (fun l -> String.length l > 2 && String.sub l 0 2 = "| "))

(* ------------------------------------------------------------------ *)
(* Lattice                                                             *)
(* ------------------------------------------------------------------ *)

let test_lattice_odd_even () =
  let ctx = odd_even_context () in
  let lat = Lattice.of_context_incremental ctx in
  (* Fig. 3: top, two mid concepts, bottom *)
  Alcotest.(check int) "four concepts" 4 (Lattice.size lat);
  let top = Lattice.top lat and bottom = Lattice.bottom lat in
  Alcotest.(check int) "top has all objects" 4 (Bitset.cardinal top.Lattice.extent);
  Alcotest.(check int) "top intent = shared 4" 4 (Bitset.cardinal top.Lattice.intent);
  Alcotest.(check int) "bottom empty extent" 0 (Bitset.cardinal bottom.Lattice.extent);
  Alcotest.(check int) "bottom full intent" 6 (Bitset.cardinal bottom.Lattice.intent)

let test_lattice_object_concept () =
  let ctx = odd_even_context () in
  let lat = Lattice.of_context_incremental ctx in
  let c = Lattice.object_concept lat 1 in
  Alcotest.(check (list int)) "T1's concept groups odds" [ 1; 3 ]
    (Bitset.to_list c.Lattice.extent)

let test_lattice_covers () =
  let ctx = odd_even_context () in
  let lat = Lattice.of_context_incremental ctx in
  let covers = Lattice.covers lat in
  (* diamond: bottom covered by two mids, two mids covered by top *)
  Alcotest.(check int) "four covering edges" 4 (List.length covers)

let test_batch_equals_incremental_fixture () =
  let ctx = odd_even_context () in
  Alcotest.(check bool) "same lattice" true
    (Lattice.equal (Lattice.of_context_batch ctx) (Lattice.of_context_incremental ctx))

let test_lattice_empty_context () =
  let ctx = Context.of_attr_sets [] in
  let lat_b = Lattice.of_context_batch ctx in
  let lat_i = Lattice.of_context_incremental ctx in
  Alcotest.(check bool) "both degenerate and equal" true (Lattice.equal lat_b lat_i)

let test_lattice_object_with_all_attrs () =
  (* one object carries every attribute: bottom extent is nonempty *)
  let ctx =
    Context.of_attr_sets [ ("rich", [ "a"; "b"; "c" ]); ("poor", [ "a" ]) ]
  in
  let lat = Lattice.of_context_incremental ctx in
  let bottom = Lattice.bottom lat in
  Alcotest.(check (list int)) "bottom holds the rich object" [ 0 ]
    (Bitset.to_list bottom.Lattice.extent);
  Alcotest.(check bool) "batch agrees" true
    (Lattice.equal lat (Lattice.of_context_batch ctx))

let test_lattice_to_dot () =
  let ctx = odd_even_context () in
  let lat = Lattice.of_context_incremental ctx in
  let dot = Lattice.to_dot ~title:"Fig. 3" ctx lat in
  let contains sub =
    let n = String.length sub and h = String.length dot in
    let rec go i = i + n <= h && (String.sub dot i n = sub || go (i + 1)) in
    go 0
  in
  Alcotest.(check bool) "digraph" true (contains "digraph lattice");
  Alcotest.(check bool) "title" true (contains "Fig. 3");
  Alcotest.(check bool) "four nodes" true
    (contains "c0 [" && contains "c3 [");
  Alcotest.(check bool) "an edge" true (contains "->");
  Alcotest.(check bool) "attribute appears" true (contains "L0")

let ctx_gen =
  QCheck2.Gen.(
    let* n_obj = int_range 0 7 in
    let* n_attr = int_range 1 8 in
    let* rows =
      list_repeat n_obj
        (list_size (int_range 0 n_attr) (int_range 0 (n_attr - 1)))
    in
    return
      (Context.of_attr_sets
         (List.mapi
            (fun i attrs ->
              ( Printf.sprintf "o%d" i,
                List.sort_uniq String.compare
                  (List.map (Printf.sprintf "a%d") attrs) ))
            rows)))

let prop_godin_equals_next_closure =
  qtest "Godin incremental = Ganter NextClosure" ~count:300 ctx_gen (fun ctx ->
      Lattice.equal (Lattice.of_context_batch ctx) (Lattice.of_context_incremental ctx))

let prop_concepts_are_closed =
  qtest "every concept is a Galois fixpoint" ctx_gen (fun ctx ->
      let lat = Lattice.of_context_incremental ctx in
      Array.for_all
        (fun c ->
          Bitset.equal (Context.common_attrs ctx c.Lattice.extent) c.Lattice.intent
          && Bitset.equal (Context.common_objects ctx c.Lattice.intent) c.Lattice.extent)
        (Lattice.concepts lat))

let prop_lattice_jaccard_equals_context =
  qtest "lattice-derived JSM = context JSM (paper §II-E)" ctx_gen (fun ctx ->
      let n = Context.n_objects ctx in
      n = 0
      ||
      let lat = Lattice.of_context_incremental ctx in
      let ok = ref true in
      for i = 0 to n - 1 do
        for j = 0 to n - 1 do
          if Float.abs (Lattice.jaccard lat i j -. Context.jaccard ctx i j) > 1e-9
          then ok := false
        done
      done;
      !ok)

let prop_closure_extensive_idempotent =
  qtest "closure is extensive, monotone and idempotent"
    QCheck2.Gen.(
      let* ctx = ctx_gen in
      let n = Context.n_attrs ctx in
      let* attrs =
        if n = 0 then return [] else list_size (int_range 0 n) (int_range 0 (n - 1))
      in
      return (ctx, attrs))
    (fun (ctx, attrs) ->
      let a = Bitset.of_list (Context.n_attrs ctx) attrs in
      let c = Context.closure ctx a in
      Bitset.subset a c && Bitset.equal (Context.closure ctx c) c)

let () =
  Alcotest.run "fca"
    [ ( "attributes",
        [ Alcotest.test_case "names" `Quick test_attr_names;
          Alcotest.test_case "single noFreq" `Quick test_single_nofreq;
          Alcotest.test_case "single actual + loop multiplicity" `Quick
            test_single_actual_counts_loop_multiplicity;
          Alcotest.test_case "single log10 buckets" `Quick test_single_log10_buckets;
          Alcotest.test_case "double pairs" `Quick test_double_pairs;
          Alcotest.test_case "double noFreq dedupe" `Quick test_double_nofreq_dedupes ] );
      ( "context",
        [ Alcotest.test_case "shape (Table IV)" `Quick test_context_shape;
          Alcotest.test_case "Galois derivations" `Quick test_context_derivations;
          Alcotest.test_case "jaccard" `Quick test_context_jaccard;
          Alcotest.test_case "table render" `Quick test_context_table_render ] );
      ( "lattice",
        [ Alcotest.test_case "odd/even (Fig. 3)" `Quick test_lattice_odd_even;
          Alcotest.test_case "object concept" `Quick test_lattice_object_concept;
          Alcotest.test_case "covering edges" `Quick test_lattice_covers;
          Alcotest.test_case "batch = incremental (fixture)" `Quick
            test_batch_equals_incremental_fixture;
          Alcotest.test_case "empty context" `Quick test_lattice_empty_context;
          Alcotest.test_case "object with all attrs" `Quick
            test_lattice_object_with_all_attrs;
          Alcotest.test_case "to_dot" `Quick test_lattice_to_dot;
          prop_godin_equals_next_closure;
          prop_concepts_are_closed;
          prop_lattice_jaccard_equals_context;
          prop_closure_extensive_idempotent ] ) ]
