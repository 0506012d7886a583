open Difftrace_util

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* Bitset                                                              *)
(* ------------------------------------------------------------------ *)

let test_bitset_basic () =
  let s = Bitset.create 100 in
  Alcotest.(check bool) "fresh set is empty" true (Bitset.is_empty s);
  Bitset.add s 0;
  Bitset.add s 63;
  Bitset.add s 64;
  Bitset.add s 99;
  Alcotest.(check int) "cardinal" 4 (Bitset.cardinal s);
  Alcotest.(check bool) "mem 63" true (Bitset.mem s 63);
  Alcotest.(check bool) "mem 64" true (Bitset.mem s 64);
  Alcotest.(check bool) "not mem 1" false (Bitset.mem s 1);
  Bitset.remove s 63;
  Alcotest.(check bool) "removed" false (Bitset.mem s 63);
  Alcotest.(check int) "cardinal after remove" 3 (Bitset.cardinal s)

let test_bitset_bounds () =
  let s = Bitset.create 10 in
  Alcotest.check_raises "add out of range" (Invalid_argument "Bitset: index out of range")
    (fun () -> Bitset.add s 10);
  Alcotest.check_raises "mem negative" (Invalid_argument "Bitset: index out of range")
    (fun () -> ignore (Bitset.mem s (-1)))

let test_bitset_ops () =
  let a = Bitset.of_list 10 [ 1; 2; 3 ] and b = Bitset.of_list 10 [ 2; 3; 4 ] in
  Alcotest.(check (list int)) "inter" [ 2; 3 ] (Bitset.to_list (Bitset.inter a b));
  Alcotest.(check (list int)) "union" [ 1; 2; 3; 4 ] (Bitset.to_list (Bitset.union a b));
  Alcotest.(check (list int)) "diff" [ 1 ] (Bitset.to_list (Bitset.diff a b));
  Alcotest.(check int) "inter_cardinal" 2 (Bitset.inter_cardinal a b);
  Alcotest.(check int) "union_cardinal" 4 (Bitset.union_cardinal a b);
  Alcotest.(check (float 1e-9)) "jaccard" 0.5 (Bitset.jaccard a b);
  Alcotest.(check bool) "subset no" false (Bitset.subset a b);
  Alcotest.(check bool) "subset yes" true
    (Bitset.subset (Bitset.of_list 10 [ 2; 3 ]) b)

let test_bitset_jaccard_empty () =
  let a = Bitset.create 8 and b = Bitset.create 8 in
  Alcotest.(check (float 1e-9)) "both empty -> 1.0" 1.0 (Bitset.jaccard a b)

let test_bitset_full_singleton () =
  Alcotest.(check int) "full cardinal" 70 (Bitset.cardinal (Bitset.full 70));
  Alcotest.(check (list int)) "singleton" [ 5 ] (Bitset.to_list (Bitset.singleton 9 5))

let test_bitset_inplace () =
  let a = Bitset.of_list 130 [ 0; 64; 128 ] in
  let b = Bitset.of_list 130 [ 64; 100 ] in
  Bitset.add_all a b;
  Alcotest.(check (list int)) "add_all" [ 0; 64; 100; 128 ] (Bitset.to_list a);
  Bitset.inter_into a b;
  Alcotest.(check (list int)) "inter_into" [ 64; 100 ] (Bitset.to_list a)

let test_bitset_capacity_mismatch () =
  let a = Bitset.create 8 and b = Bitset.create 9 in
  Alcotest.check_raises "inter mismatch" (Invalid_argument "Bitset: capacity mismatch")
    (fun () -> ignore (Bitset.inter a b))

let bitset_gen =
  QCheck2.Gen.(
    let* n = int_range 1 200 in
    let* l = list_size (int_range 0 50) (int_range 0 (n - 1)) in
    return (n, l))

let prop_bitset_roundtrip =
  qtest "bitset of_list/to_list is sorted-dedup" bitset_gen (fun (n, l) ->
      let s = Bitset.of_list n l in
      Bitset.to_list s = List.sort_uniq Int.compare l)

let prop_bitset_demorgan =
  qtest "bitset |a∪b| + |a∩b| = |a| + |b|"
    QCheck2.Gen.(
      let* n = int_range 1 150 in
      let* l1 = list_size (int_range 0 60) (int_range 0 (n - 1)) in
      let* l2 = list_size (int_range 0 60) (int_range 0 (n - 1)) in
      return (n, l1, l2))
    (fun (n, l1, l2) ->
      let a = Bitset.of_list n l1 and b = Bitset.of_list n l2 in
      Bitset.union_cardinal a b + Bitset.inter_cardinal a b
      = Bitset.cardinal a + Bitset.cardinal b)

let prop_bitset_hash_equal =
  qtest "bitset equal implies equal hash" bitset_gen (fun (n, l) ->
      let a = Bitset.of_list n l and b = Bitset.of_list n (List.rev l) in
      Bitset.equal a b && Bitset.hash a = Bitset.hash b)

(* ------------------------------------------------------------------ *)
(* Vec                                                                 *)
(* ------------------------------------------------------------------ *)

let test_vec_push_pop () =
  let v = Vec.create () in
  for i = 0 to 99 do
    Vec.push v i
  done;
  Alcotest.(check int) "length" 100 (Vec.length v);
  Alcotest.(check int) "get 42" 42 (Vec.get v 42);
  Alcotest.(check int) "pop" 99 (Vec.pop v);
  Alcotest.(check int) "length after pop" 99 (Vec.length v);
  Alcotest.(check int) "peek 0" 98 (Vec.peek v 0);
  Alcotest.(check int) "peek 3" 95 (Vec.peek v 3)

let test_vec_truncate () =
  let v = Vec.of_array [| 1; 2; 3; 4; 5 |] in
  Vec.truncate v 2;
  Alcotest.(check (list int)) "truncated" [ 1; 2 ] (Vec.to_list v);
  Alcotest.check_raises "truncate grows" (Invalid_argument "Vec.truncate")
    (fun () -> Vec.truncate v 10)

let test_vec_float () =
  (* exercises the flat float array representation *)
  let v = Vec.create () in
  for i = 0 to 999 do
    Vec.push v (float_of_int i *. 0.5)
  done;
  Alcotest.(check (float 1e-9)) "float get" 250.0 (Vec.get v 500)

let test_vec_sub_iter () =
  let v = Vec.of_array [| 10; 20; 30; 40 |] in
  Alcotest.(check (array int)) "sub" [| 20; 30 |] (Vec.sub v 1 2);
  let acc = ref 0 in
  Vec.iter (fun x -> acc := !acc + x) v;
  Alcotest.(check int) "iter sum" 100 !acc;
  Alcotest.(check int) "fold" 100 (Vec.fold_left ( + ) 0 v);
  Vec.append_array v [| 50 |];
  Alcotest.(check int) "append" 50 (Vec.get v 4)

let test_vec_empty_errors () =
  let v : int Vec.t = Vec.create () in
  Alcotest.check_raises "pop empty" (Invalid_argument "Vec.pop: empty") (fun () ->
      ignore (Vec.pop v))

(* OCaml 5's [Array.make] forces a minor collection for any array above
   256 words filled with a young block; growing a vector of fresh
   values must not go through it, neither by doubling nor through the
   [with_capacity] preallocation *)
let test_vec_growth_no_minor_gc () =
  Gc.full_major ();
  let before = (Gc.quick_stat ()).Gc.minor_collections in
  let v = Vec.create () in
  for i = 1 to 4096 do
    Vec.push v (ref i)
  done;
  let w = Vec.with_capacity 4096 in
  Vec.push w (ref 0);
  let forced = (Gc.quick_stat ()).Gc.minor_collections - before in
  Alcotest.(check bool)
    (Printf.sprintf "at most 1 minor collection (saw %d)" forced)
    true (forced <= 1);
  Alcotest.(check int) "contents kept" 4096 !(Vec.get v 4095);
  Alcotest.(check int) "preallocated push" 0 !(Vec.get w 0)

let test_vec_with_capacity_sizes () =
  List.iter
    (fun n ->
      let v = Vec.with_capacity n and f = Vec.with_capacity n in
      for i = 0 to n + 9 do
        Vec.push v i;
        Vec.push f (float_of_int i)
      done;
      Alcotest.(check (list int)) (Printf.sprintf "ints, capacity %d" n)
        (List.init (n + 10) Fun.id) (Vec.to_list v);
      Alcotest.(check (list (float 0.)))
        (Printf.sprintf "floats, capacity %d" n)
        (List.init (n + 10) float_of_int) (Vec.to_list f))
    [ 0; 1; 255; 256; 257; 1001; 4097 ]

let prop_vec_roundtrip =
  qtest "vec of_array/to_array roundtrip"
    QCheck2.Gen.(list int)
    (fun l ->
      let v = Vec.of_array (Array.of_list l) in
      Vec.to_list v = l)

(* ------------------------------------------------------------------ *)
(* Varint                                                              *)
(* ------------------------------------------------------------------ *)

let test_varint_examples () =
  let enc n =
    let b = Buffer.create 8 in
    Varint.write b n;
    Buffer.contents b
  in
  Alcotest.(check int) "small is 1 byte" 1 (String.length (enc 0));
  Alcotest.(check int) "127 is 1 byte" 1 (String.length (enc 127));
  Alcotest.(check int) "128 is 2 bytes" 2 (String.length (enc 128));
  Alcotest.(check int) "size agrees" (String.length (enc 300)) (Varint.size 300);
  Alcotest.check_raises "negative" (Invalid_argument "Varint.write: negative")
    (fun () -> ignore (enc (-1)))

let test_varint_truncated () =
  Alcotest.check_raises "truncated" (Invalid_argument "Varint.read: truncated input")
    (fun () -> ignore (Varint.read "\x80" 0))

let test_varint_overflow () =
  (* more continuation bytes than a 63-bit int can hold must be
     rejected, not silently wrapped to a negative or truncated value *)
  let overlong = String.make 9 '\x80' ^ "\x01" in
  Alcotest.check_raises "shift overflow"
    (Invalid_argument "Varint.read: overflow") (fun () ->
      ignore (Varint.read overlong 0));
  (* 9 bytes whose 63rd bit would be set: fits the shift cap but not
     the sign bit *)
  let negative = String.make 8 '\xff' ^ "\x7f" in
  Alcotest.check_raises "sign overflow"
    (Invalid_argument "Varint.read: overflow") (fun () ->
      ignore (Varint.read negative 0));
  (* max_int itself still roundtrips *)
  let b = Buffer.create 10 in
  Varint.write b max_int;
  let v, _ = Varint.read (Buffer.contents b) 0 in
  Alcotest.(check int) "max_int roundtrips" max_int v

(* ------------------------------------------------------------------ *)
(* Crc32                                                               *)
(* ------------------------------------------------------------------ *)

let test_crc32_vectors () =
  (* the standard IEEE 802.3 check value *)
  Alcotest.(check int) "check vector" 0xCBF43926 (Crc32.string "123456789");
  Alcotest.(check int) "empty" 0 (Crc32.string "")

let test_crc32_incremental () =
  let s = "a trace archive chunk of modest length, fed in pieces" in
  let crc = ref Crc32.init in
  String.iteri
    (fun i _ -> crc := Crc32.update !crc s ~pos:i ~len:1)
    s;
  Alcotest.(check int) "byte-at-a-time = one-shot" (Crc32.string s)
    (Crc32.finish !crc)

let test_crc32_le_bytes () =
  List.iter
    (fun s ->
      let d = Crc32.string s in
      Alcotest.(check int) "LE footer roundtrips" d
        (Crc32.of_le_bytes (Crc32.to_le_bytes d) 0))
    [ ""; "x"; "123456789"; String.make 1000 '\xff' ]

let test_crc32_detects_flip () =
  let s = Bytes.of_string "archive payload bytes" in
  let before = Crc32.string (Bytes.to_string s) in
  Bytes.set s 3 (Char.chr (Char.code (Bytes.get s 3) lxor 0x10));
  Alcotest.(check bool) "single bit flip changes digest" true
    (before <> Crc32.string (Bytes.to_string s))

(* ------------------------------------------------------------------ *)
(* Framed                                                              *)
(* ------------------------------------------------------------------ *)

let framed_magic = "test-framed 1\n"

(* magic + records "a", "bc", "def", each one length byte + payload + 4
   CRC bytes: the records start at bytes 14, 20 and 27, and end at 35 *)
let framed_image () =
  let buf = Buffer.create 64 in
  Buffer.add_string buf framed_magic;
  List.iter (Framed.add_record buf) [ "a"; "bc"; "def" ];
  Buffer.contents buf

let collect ?(f = fun acc p -> Ok (p :: acc)) image =
  let acc, damage = Framed.fold ~magic:framed_magic image ~init:[] ~f in
  (List.rev acc, damage)

let test_framed_fold () =
  let image = framed_image () in
  let damaged = Alcotest.(pair (list string) (option string)) in
  Alcotest.check damaged "clean" ([ "a"; "bc"; "def" ], None) (collect image);
  Alcotest.check damaged "bad magic"
    ([], Some "unrecognized magic/version")
    (collect ("x" ^ image));
  Alcotest.check damaged "truncated"
    ([ "a"; "bc" ], Some "truncated record at byte 27")
    (collect (String.sub image 0 (String.length image - 1)));
  let flipped = Bytes.of_string image in
  Bytes.set flipped 21 'X';
  Alcotest.check damaged "CRC"
    ([ "a" ], Some "CRC mismatch at byte 20")
    (collect (Bytes.to_string flipped));
  Alcotest.check damaged "malformed length"
    ([ "a"; "bc"; "def" ], Some "malformed framing at byte 35")
    (collect (image ^ "\xff"));
  Alcotest.check damaged "rejected payload"
    ([ "a" ], Some "no bc at byte 20")
    (collect image ~f:(fun acc p ->
         if p = "bc" then Error "no bc" else Ok (p :: acc)));
  Alcotest.check damaged "decoder raising Invalid_argument"
    ([ "a"; "bc" ], Some "malformed framing at byte 27")
    (collect image ~f:(fun acc p ->
         if p = "def" then invalid_arg "truncated varint" else Ok (p :: acc)))

let test_framed_seal () =
  let body = "deadlocked 4\ntimed_out false\n" in
  let sealed = Framed.seal body in
  Alcotest.(check string) "footer line"
    (Printf.sprintf "crc %08x\n" (Crc32.string body))
    (String.sub sealed (String.length body) 13);
  let outcome = function
    | Ok b -> "ok " ^ b
    | Error `Missing -> "missing"
    | Error `Mismatch -> "mismatch"
  in
  Alcotest.(check string) "unseal" ("ok " ^ body) (outcome (Framed.unseal sealed));
  Alcotest.(check string) "no footer" "missing" (outcome (Framed.unseal (body ^ body)));
  Alcotest.(check string) "only a footer" "missing"
    (outcome (Framed.unseal (Framed.seal "")));
  Alcotest.(check string) "body changed" "mismatch"
    (outcome (Framed.unseal ("x" ^ sealed)))

let test_framed_files () =
  let base = Filename.concat (Filename.get_temp_dir_name ()) "difftrace_framed" in
  let dir = Filename.concat (Filename.concat base "a") "b" in
  let path = Filename.concat dir "f" in
  (try Sys.remove path with Sys_error _ -> ());
  Alcotest.(check bool) "mkdir_p nested" true (Framed.mkdir_p dir = Ok ());
  Alcotest.(check bool) "mkdir_p existing" true (Framed.mkdir_p dir = Ok ());
  Alcotest.(check bool) "write" true (Framed.write_atomic ~path "one" = Ok ());
  Alcotest.(check bool) "replace" true (Framed.write_atomic ~path "two" = Ok ());
  Alcotest.(check bool) "read back" true (Framed.read_file path = Ok "two");
  let sibling p = Printf.sprintf "%s.tmp%d" p (Unix.getpid ()) in
  Alcotest.(check bool) "no sibling left" false (Sys.file_exists (sibling path));
  (* the sibling carries the writer's pid: another writer's temporary
     of the same path is neither used nor removed *)
  let other = path ^ ".tmp1" in
  Out_channel.with_open_bin other (fun oc -> output_string oc "theirs");
  Alcotest.(check bool) "write beside another writer" true
    (Framed.write_atomic ~path "three" = Ok ());
  Alcotest.(check bool) "ours landed" true (Framed.read_file path = Ok "three");
  Alcotest.(check bool) "theirs untouched" true
    (Framed.read_file other = Ok "theirs");
  Sys.remove other;
  Alcotest.(check bool) "mkdir_p over a file" true
    (Framed.mkdir_p (Filename.concat path "sub")
    = Error (path ^ " exists and is not a directory"));
  (* a failed write (the target is a directory) leaves no sibling *)
  Alcotest.(check bool) "failed write" true
    (Result.is_error (Framed.write_atomic ~path:dir "x"));
  Alcotest.(check bool) "failed write cleaned up" false
    (Sys.file_exists (sibling dir));
  Alcotest.(check bool) "missing file" true
    (Result.is_error (Framed.read_file (Filename.concat dir "absent")))

let prop_varint_roundtrip =
  qtest "varint roundtrip"
    QCheck2.Gen.(int_range 0 max_int)
    (fun n ->
      let b = Buffer.create 8 in
      Varint.write b n;
      let v, pos = Varint.read (Buffer.contents b) 0 in
      v = n && pos = Buffer.length b)

let prop_varint_list =
  qtest "varint list roundtrip"
    QCheck2.Gen.(list (int_range 0 1_000_000))
    (fun l ->
      let b = Buffer.create 8 in
      Varint.write_list b l;
      let l', _ = Varint.read_list (Buffer.contents b) 0 in
      l = l')

(* ------------------------------------------------------------------ *)
(* Prng                                                                *)
(* ------------------------------------------------------------------ *)

let test_prng_deterministic () =
  let a = Prng.create 42 and b = Prng.create 42 in
  for _ = 1 to 100 do
    Alcotest.(check int64) "same stream" (Prng.next a) (Prng.next b)
  done

let test_prng_bounds () =
  let g = Prng.create 7 in
  for _ = 1 to 1000 do
    let v = Prng.int g 13 in
    if v < 0 || v >= 13 then Alcotest.fail "out of bounds"
  done;
  Alcotest.check_raises "zero bound" (Invalid_argument "Prng.int: bound must be positive")
    (fun () -> ignore (Prng.int g 0))

let test_prng_float_range () =
  let g = Prng.create 11 in
  for _ = 1 to 1000 do
    let f = Prng.float g in
    if f < 0.0 || f >= 1.0 then Alcotest.fail "float out of [0,1)"
  done

let test_prng_shuffle_permutation () =
  let g = Prng.create 3 in
  let a = Array.init 50 (fun i -> i) in
  Prng.shuffle g a;
  let sorted = Array.copy a in
  Array.sort Int.compare sorted;
  Alcotest.(check (array int)) "is a permutation" (Array.init 50 (fun i -> i)) sorted

let test_prng_split_independent () =
  let g = Prng.create 5 in
  let h = Prng.split g in
  let a = Prng.next g and b = Prng.next h in
  Alcotest.(check bool) "split streams differ" true (a <> b)

(* ------------------------------------------------------------------ *)
(* Texttable and Stats                                                 *)
(* ------------------------------------------------------------------ *)

let test_texttable_render () =
  let s = Texttable.render ~headers:[ "a"; "bb" ] [ [ "1"; "2" ]; [ "333"; "4" ] ] in
  Alcotest.(check bool) "contains header" true
    (String.length s > 0 && String.split_on_char '\n' s <> []);
  let lines = String.split_on_char '\n' s in
  let widths = List.filter (fun l -> l <> "") lines |> List.map String.length in
  match widths with
  | w :: rest -> List.iter (fun w' -> Alcotest.(check int) "equal widths" w w') rest
  | [] -> Alcotest.fail "no output"

let test_texttable_ragged () =
  Alcotest.check_raises "ragged row" (Invalid_argument "Texttable.render: ragged row")
    (fun () -> ignore (Texttable.render ~headers:[ "a" ] [ [ "1"; "2" ] ]))

let contains ~sub s =
  let n = String.length sub and h = String.length s in
  let rec go i = i + n <= h && (String.sub s i n = sub || go (i + 1)) in
  go 0

let test_texttable_heatmap () =
  let s =
    Texttable.heatmap ~labels:[| "x"; "y" |] [| [| 1.0; 0.5 |]; [| 0.5; 1.0 |] |]
  in
  Alcotest.(check bool) "has 0.50 cell" true (contains ~sub:"0.50" s);
  Alcotest.(check bool) "has label" true (contains ~sub:" x " s)

let test_stats () =
  let a = [| 1.0; 2.0; 3.0; 4.0 |] in
  Alcotest.(check (float 1e-9)) "mean" 2.5 (Stats.mean a);
  Alcotest.(check (float 1e-9)) "variance" 1.25 (Stats.variance a);
  Alcotest.(check (float 1e-9)) "median even" 2.5 (Stats.median a);
  Alcotest.(check (float 1e-9)) "median odd" 2.0 (Stats.median [| 3.0; 1.0; 2.0 |]);
  Alcotest.(check (float 1e-9)) "min" 1.0 (Stats.minimum a);
  Alcotest.(check (float 1e-9)) "max" 4.0 (Stats.maximum a);
  Alcotest.(check (float 1e-9)) "sum" 10.0 (Stats.sum a);
  Alcotest.(check (float 1e-9)) "geomean" 2.0 (Stats.geomean [| 1.0; 2.0; 4.0 |]);
  Alcotest.check_raises "empty mean" (Invalid_argument "Stats: empty array")
    (fun () -> ignore (Stats.mean [||]))

(* ------------------------------------------------------------------ *)
(* Lru                                                                 *)
(* ------------------------------------------------------------------ *)

let test_lru_evicts_least_recent () =
  let t = Lru.create ~budget:10 in
  Lru.add t "a" ~weight:4 1;
  Lru.add t "b" ~weight:4 2;
  Alcotest.(check (option int)) "a held" (Some 1) (Lru.find t "a");
  (* b is now the least recently used *)
  Lru.add t "c" ~weight:4 3;
  Alcotest.(check (option int)) "b evicted" None (Lru.find t "b");
  Alcotest.(check (option int)) "a kept" (Some 1) (Lru.find t "a");
  Alcotest.(check (option int)) "c kept" (Some 3) (Lru.find t "c");
  Alcotest.(check int) "weight" 8 (Lru.weight t);
  Lru.add t "a" ~weight:2 9;
  Alcotest.(check (option int)) "replaced" (Some 9) (Lru.find t "a");
  Alcotest.(check int) "replaced weight" 6 (Lru.weight t);
  Lru.add t "big" ~weight:11 4;
  Alcotest.(check (option int)) "over budget: not kept" None (Lru.find t "big");
  Alcotest.(check int) "over budget: others stay" 2 (Lru.length t);
  Lru.add t "c" ~weight:11 5;
  Alcotest.(check (option int)) "over budget: old entry gone" None (Lru.find t "c");
  Alcotest.(check int) "over budget: weight" 2 (Lru.weight t);
  let z = Lru.create ~budget:0 in
  Lru.add z "free" ~weight:0 1;
  Lru.add z "costly" ~weight:1 2;
  Alcotest.(check (list (option int))) "zero budget" [ Some 1; None ]
    [ Lru.find z "free"; Lru.find z "costly" ]

(* against a list model, most recent first: every find answers as the
   model does and the weight never passes the budget *)
let prop_lru_model =
  let op =
    QCheck2.Gen.(
      pair bool (pair (int_range 0 5) (int_range 0 6)))
  in
  qtest "lru = list model"
    QCheck2.Gen.(pair (int_range 0 12) (list_size (0 -- 60) op))
    (fun (budget, ops) ->
      let t = Lru.create ~budget in
      let model = ref [] in
      let total l = List.fold_left (fun n (_, (w, _)) -> n + w) 0 l in
      List.for_all
        (fun (is_add, (k, w)) ->
          let key = string_of_int k in
          if is_add then begin
            Lru.add t key ~weight:w (k * w);
            let rest = List.remove_assoc key !model in
            if w <= budget then begin
              let rec fit l =
                if total l <= budget then l
                else fit (List.rev (List.tl (List.rev l)))
              in
              model := fit ((key, (w, k * w)) :: rest)
            end
            else model := rest;
            Lru.weight t = total !model && Lru.length t = List.length !model
          end
          else
            let want = Option.map snd (List.assoc_opt key !model) in
            (match List.assoc_opt key !model with
            | Some v -> model := (key, v) :: List.remove_assoc key !model
            | None -> ());
            Lru.find t key = want)
        ops)

let () =
  Alcotest.run "util"
    [ ( "bitset",
        [ Alcotest.test_case "basic" `Quick test_bitset_basic;
          Alcotest.test_case "bounds" `Quick test_bitset_bounds;
          Alcotest.test_case "set ops" `Quick test_bitset_ops;
          Alcotest.test_case "jaccard empty" `Quick test_bitset_jaccard_empty;
          Alcotest.test_case "full/singleton" `Quick test_bitset_full_singleton;
          Alcotest.test_case "in-place ops" `Quick test_bitset_inplace;
          Alcotest.test_case "capacity mismatch" `Quick test_bitset_capacity_mismatch;
          prop_bitset_roundtrip;
          prop_bitset_demorgan;
          prop_bitset_hash_equal ] );
      ( "vec",
        [ Alcotest.test_case "push/pop/peek" `Quick test_vec_push_pop;
          Alcotest.test_case "truncate" `Quick test_vec_truncate;
          Alcotest.test_case "floats" `Quick test_vec_float;
          Alcotest.test_case "sub/iter/fold" `Quick test_vec_sub_iter;
          Alcotest.test_case "empty errors" `Quick test_vec_empty_errors;
          Alcotest.test_case "growth forces no GC" `Quick test_vec_growth_no_minor_gc;
          Alcotest.test_case "with_capacity sizes" `Quick test_vec_with_capacity_sizes;
          prop_vec_roundtrip ] );
      ( "varint",
        [ Alcotest.test_case "examples" `Quick test_varint_examples;
          Alcotest.test_case "truncated input" `Quick test_varint_truncated;
          Alcotest.test_case "overflow rejected" `Quick test_varint_overflow;
          prop_varint_roundtrip;
          prop_varint_list ] );
      ( "crc32",
        [ Alcotest.test_case "check vectors" `Quick test_crc32_vectors;
          Alcotest.test_case "incremental" `Quick test_crc32_incremental;
          Alcotest.test_case "LE footer" `Quick test_crc32_le_bytes;
          Alcotest.test_case "detects bit flip" `Quick test_crc32_detects_flip ] );
      ( "framed",
        [ Alcotest.test_case "fold and damage messages" `Quick test_framed_fold;
          Alcotest.test_case "seal/unseal" `Quick test_framed_seal;
          Alcotest.test_case "files" `Quick test_framed_files ] );
      ( "prng",
        [ Alcotest.test_case "deterministic" `Quick test_prng_deterministic;
          Alcotest.test_case "int bounds" `Quick test_prng_bounds;
          Alcotest.test_case "float range" `Quick test_prng_float_range;
          Alcotest.test_case "shuffle is permutation" `Quick test_prng_shuffle_permutation;
          Alcotest.test_case "split independence" `Quick test_prng_split_independent ] );
      ( "texttable+stats",
        [ Alcotest.test_case "render alignment" `Quick test_texttable_render;
          Alcotest.test_case "ragged rejected" `Quick test_texttable_ragged;
          Alcotest.test_case "heatmap" `Quick test_texttable_heatmap;
          Alcotest.test_case "stats" `Quick test_stats ] );
      ( "lru",
        [ Alcotest.test_case "evicts least recent" `Quick
            test_lru_evicts_least_recent;
          prop_lru_model ] ) ]
