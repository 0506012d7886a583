open Difftrace_parlot
open Difftrace_trace

let qtest ?(count = 200) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* ------------------------------------------------------------------ *)
(* LZW codec                                                           *)
(* ------------------------------------------------------------------ *)

let test_lzw_empty () =
  Alcotest.(check string) "empty roundtrip" "" (Lzw.decompress (Lzw.compress ""))

let test_lzw_simple () =
  let s = "abcabcabcabc" in
  Alcotest.(check string) "roundtrip" s (Lzw.decompress (Lzw.compress s))

let test_lzw_kwkwk () =
  (* the classic pathological case: a phrase referenced while being
     defined (runs of one character exercise it immediately) *)
  let s = String.make 64 'a' in
  Alcotest.(check string) "KwKwK" s (Lzw.decompress (Lzw.compress s))

let test_lzw_compresses_repetition () =
  let s = String.concat "" (List.init 500 (fun _ -> "MPI_Send;MPI_Recv;")) in
  let c = Lzw.compress s in
  Alcotest.(check bool) "repetitive input shrinks" true
    (String.length c < String.length s / 4);
  Alcotest.(check string) "and still roundtrips" s (Lzw.decompress c)

let test_lzw_streaming_matches_oneshot () =
  let s = "the quick brown fox jumps over the lazy dog the quick brown fox" in
  let e = Lzw.encoder () in
  String.iter (Lzw.feed e) s;
  Alcotest.(check int) "input size counted" (String.length s) (Lzw.input_size e);
  let streamed = Lzw.finish e in
  Alcotest.(check string) "same output as one-shot" (Lzw.compress s) streamed

let test_lzw_output_grows_incrementally () =
  let e = Lzw.encoder () in
  Lzw.feed_string e "abababababababababab";
  let mid = Lzw.output_size e in
  Alcotest.(check bool) "emitted codes before finish" true (mid > 0)

let test_lzw_corrupt () =
  Alcotest.check_raises "missing EOS"
    (Invalid_argument "Lzw.decompress: missing end-of-stream") (fun () ->
      ignore (Lzw.decompress "\x05"))

let varints codes =
  let b = Buffer.create 8 in
  List.iter (Difftrace_util.Varint.write b) codes;
  Buffer.contents b

let test_lzw_first_code_phrase () =
  (* a stream whose very first code references the phrase table, which
     is necessarily empty at that point: must be rejected cleanly *)
  Alcotest.check_raises "phrase code first"
    (Invalid_argument "Lzw.decompress: bad code") (fun () ->
      ignore (Lzw.decompress (varints [ 257; 256 ])))

let test_lzw_trailing_bytes () =
  Alcotest.check_raises "bytes after EOS"
    (Invalid_argument "Lzw.decompress: trailing bytes after end-of-stream")
    (fun () -> ignore (Lzw.decompress (Lzw.compress "abc" ^ "\x00")))

let test_lzw_code_out_of_range () =
  (* first literal is fine, but the next code skips far past the one
     phrase the decoder could know about *)
  Alcotest.check_raises "undefined phrase code"
    (Invalid_argument "Lzw.decompress: bad code") (fun () ->
      ignore (Lzw.decompress (varints [ Char.code 'a'; 300; 256 ])))

let test_lzw_decoder_streaming_parity () =
  (* byte-at-a-time incremental decode = one-shot, across chunk cuts
     that split varint codes *)
  let s = String.concat "" (List.init 50 (fun i -> Printf.sprintf "fn_%d;" (i mod 7))) in
  let c = Lzw.compress s in
  let d = Lzw.decoder () in
  let out = Buffer.create (String.length s) in
  String.iter
    (fun ch ->
      Lzw.decode_feed d (String.make 1 ch);
      Buffer.add_string out (Lzw.decode_take d))
    c;
  Buffer.add_string out (Lzw.decode_finish d);
  Alcotest.(check bool) "decoder reports completion" true (Lzw.decode_finished d);
  Alcotest.(check string) "streaming = one-shot" s (Buffer.contents out)

let prop_lzw_roundtrip =
  qtest "lzw roundtrip on small-alphabet strings" ~count:300
    QCheck2.Gen.(string_size ~gen:(char_range 'a' 'f') (int_range 0 500))
    (fun s -> Lzw.decompress (Lzw.compress s) = s)

let prop_lzw_roundtrip_binary =
  qtest "lzw roundtrip on binary strings"
    QCheck2.Gen.(string_size (int_range 0 300))
    (fun s -> Lzw.decompress (Lzw.compress s) = s)

(* ------------------------------------------------------------------ *)
(* Tracer                                                              *)
(* ------------------------------------------------------------------ *)

let mk_tracer ?(level = Tracer.Main_image) () =
  let symtab = Symtab.create () in
  (symtab, Tracer.create ~symtab ~level ~pid:1 ~tid:2)

let test_tracer_records_and_decodes () =
  let symtab, tr = mk_tracer () in
  Tracer.on_call tr "main";
  Tracer.on_call tr "MPI_Init";
  Tracer.on_return tr "MPI_Init";
  Tracer.on_return tr "main";
  Alcotest.(check int) "events recorded" 4 (Tracer.events_recorded tr);
  let data, truncated = Tracer.finish tr in
  Alcotest.(check bool) "not truncated" false truncated;
  let t = Tracer.decode ~symtab ~pid:1 ~tid:2 ~truncated data in
  Alcotest.(check int) "pid" 1 t.Trace.pid;
  Alcotest.(check int) "tid" 2 t.Trace.tid;
  Alcotest.(check (list string)) "decoded events"
    [ "main"; "MPI_Init"; "ret MPI_Init"; "ret main" ]
    (Trace.to_strings symtab t)

let test_tracer_image_filter () =
  let _, tr = mk_tracer ~level:Tracer.Main_image () in
  Tracer.on_call tr "user_fn";
  Tracer.on_call ~image:Tracer.Library tr "memcpy";
  Alcotest.(check int) "library call dropped in main-image" 1
    (Tracer.events_recorded tr);
  let _, tr2 = mk_tracer ~level:Tracer.All_images () in
  Tracer.on_call tr2 "user_fn";
  Tracer.on_call ~image:Tracer.Library tr2 "memcpy";
  Alcotest.(check int) "library call kept in all-images" 2
    (Tracer.events_recorded tr2)

let test_tracer_scoped_exception () =
  let symtab, tr = mk_tracer () in
  (try Tracer.scoped tr "f" (fun () -> failwith "boom") with Failure _ -> ());
  Tracer.set_truncated tr;
  let data, truncated = Tracer.finish tr in
  let t = Tracer.decode ~symtab ~pid:1 ~tid:2 ~truncated data in
  Alcotest.(check bool) "marked truncated" true t.Trace.truncated;
  Alcotest.(check (list string)) "no return after exception" [ "f" ]
    (Trace.to_strings symtab t)

let prop_tracer_roundtrip =
  qtest "tracer records arbitrary call/return streams" ~count:100
    QCheck2.Gen.(list_size (int_range 0 200) (pair (int_range 0 20) bool))
    (fun evs ->
      let symtab = Symtab.create () in
      let tr = Tracer.create ~symtab ~level:Tracer.All_images ~pid:0 ~tid:0 in
      let names = List.map (fun (i, c) -> (Printf.sprintf "fn%d" i, c)) evs in
      List.iter
        (fun (n, c) -> if c then Tracer.on_call tr n else Tracer.on_return tr n)
        names;
      let data, _ = Tracer.finish tr in
      let t = Tracer.decode ~symtab ~pid:0 ~tid:0 ~truncated:false data in
      Trace.to_strings symtab t
      = List.map (fun (n, c) -> if c then n else "ret " ^ n) names)

(* ------------------------------------------------------------------ *)
(* Parity with the naive decoder                                       *)
(* ------------------------------------------------------------------ *)

(* The straightforward decoder that the flat-array one replaced, kept as
   the oracle: phrases are (prefix, last byte) pairs in a Vec, walked
   recursively per code; decoded bytes are copied out of a Buffer and
   parsed with a per-byte closure into a Vec of freshly decoded events.
   The fast decoder must match it byte for byte, event for event,
   message for message — also on damaged input and after salvage. *)
module Naive = struct
  module Vec = Difftrace_util.Vec

  let eos_code = 256
  let first_code = 257

  type decoder = {
    phrases : (int * char) Vec.t;
    dout : Buffer.t;
    mutable prev : int;
    mutable acc : int;
    mutable shift : int;
    mutable eos : bool;
  }

  let decoder () =
    { phrases = Vec.create ();
      dout = Buffer.create 256;
      prev = -1;
      acc = 0;
      shift = 0;
      eos = false }

  let phrase_bytes d buf code =
    let rec go code =
      if code < 256 then Buffer.add_char buf (Char.chr code)
      else begin
        let prefix, last = Vec.get d.phrases (code - first_code) in
        go prefix;
        Buffer.add_char buf last
      end
    in
    go code

  let first_byte d code =
    let rec go code =
      if code < 256 then Char.chr code
      else
        let prefix, _ = Vec.get d.phrases (code - first_code) in
        go prefix
    in
    go code

  let decode_code d code =
    if code = eos_code then d.eos <- true
    else begin
      let valid_max = first_code + Vec.length d.phrases in
      if code > valid_max || code < 0 then invalid_arg "Lzw.decompress: bad code";
      if d.prev < 0 && code >= first_code then
        invalid_arg "Lzw.decompress: bad code";
      if d.prev >= 0 then begin
        let last =
          if code = valid_max then first_byte d d.prev else first_byte d code
        in
        Vec.push d.phrases (d.prev, last)
      end;
      phrase_bytes d d.dout code;
      d.prev <- code
    end

  let decode_feed d s =
    String.iter
      (fun c ->
        if d.eos then
          invalid_arg "Lzw.decompress: trailing bytes after end-of-stream";
        let b = Char.code c in
        if d.shift > 56 then invalid_arg "Lzw.decompress: bad code";
        d.acc <- d.acc lor ((b land 0x7f) lsl d.shift);
        if d.acc < 0 then invalid_arg "Lzw.decompress: bad code";
        if b land 0x80 = 0 then begin
          let code = d.acc in
          d.acc <- 0;
          d.shift <- 0;
          decode_code d code
        end
        else d.shift <- d.shift + 7)
      s

  let decode_take d =
    let s = Buffer.contents d.dout in
    Buffer.clear d.dout;
    s

  let decode_finish d =
    if not d.eos then invalid_arg "Lzw.decompress: missing end-of-stream";
    decode_take d

  type stream = {
    lzw : decoder;
    s_events : Event.t Vec.t;
    mutable s_acc : int;
    mutable s_shift : int;
    mutable s_partial : bool;
    mutable s_bytes : int;
  }

  let stream () =
    { lzw = decoder ();
      s_events = Vec.create ();
      s_acc = 0;
      s_shift = 0;
      s_partial = false;
      s_bytes = 0 }

  let drain st =
    let raw = decode_take st.lzw in
    String.iter
      (fun c ->
        let b = Char.code c in
        if st.s_shift > 56 then invalid_arg "Tracer.decode: event varint overflow";
        st.s_acc <- st.s_acc lor ((b land 0x7f) lsl st.s_shift);
        if st.s_acc < 0 then invalid_arg "Tracer.decode: event varint overflow";
        if b land 0x80 = 0 then begin
          Vec.push st.s_events (Event.decode st.s_acc);
          st.s_acc <- 0;
          st.s_shift <- 0;
          st.s_partial <- false
        end
        else begin
          st.s_shift <- st.s_shift + 7;
          st.s_partial <- true
        end)
      raw

  let stream_feed st data =
    st.s_bytes <- st.s_bytes + String.length data;
    decode_feed st.lzw data;
    drain st

  let stream_events st = Vec.length st.s_events

  let stream_complete st =
    drain st;
    st.s_bytes = 0 || (st.lzw.eos && not st.s_partial)

  let stream_trace st ~pid ~tid ~truncated =
    Trace.make ~pid ~tid ~truncated (Vec.to_array st.s_events)

  let stream_finish st ~pid ~tid ~truncated =
    drain st;
    if st.s_bytes > 0 then ignore (decode_finish st.lzw);
    if st.s_partial then invalid_arg "Tracer.decode: truncated event stream";
    stream_trace st ~pid ~tid ~truncated

  let stream_salvage st ~pid ~tid =
    (try drain st with Invalid_argument _ -> ());
    stream_trace st ~pid ~tid ~truncated:true
end

(* A compressed stream, possibly damaged, and the slice lengths it is
   fed in (cycled; all-ones feeds it a byte at a time). The plaintext is
   either an event stream — small id alphabets make long phrases and
   KwKwK codes, ids past 2048 leave the shared-event table — or raw
   bytes, whose varints may run long or stop mid-event. *)
type damage = Intact | Flip of int * int | Cut of int | Append of string

let gen_damaged =
  let open QCheck2.Gen in
  let events =
    let* hi = oneofl [ 3; 40; 5000 ] in
    let* evs = list_size (int_range 0 400) (pair (int_range 0 hi) bool) in
    let b = Buffer.create 256 in
    List.iter
      (fun (id, call) ->
        Difftrace_util.Varint.write b
          (Event.encode (if call then Event.Call id else Event.Return id)))
      evs;
    return (Buffer.contents b)
  in
  (* runs of continuation bytes: nine or more overflow an event varint *)
  let raw =
    let* runs =
      list_size (int_range 0 30)
        (triple (int_range 0 11) (oneofl [ '\x80'; '\xff' ]) (oneofl [ '\x00'; '\x01'; 'a' ]))
    in
    return (String.concat "" (List.map (fun (k, c, stop) -> String.make k c ^ String.make 1 stop) runs))
  in
  let* plain = oneof [ events; events; raw ] in
  let* damage =
    oneof
      [ pure Intact;
        map2 (fun p x -> Flip (p, x)) nat (int_range 1 255);
        map (fun p -> Cut p) nat;
        map (fun s -> Append s) (string_size (int_range 1 3)) ]
  in
  let* cuts = oneof [ pure [ 1 ]; list_size (int_range 1 6) (int_range 1 64) ] in
  let c = Lzw.compress plain in
  let n = String.length c in
  let c =
    match damage with
    | Intact -> c
    | Flip (p, x) ->
      String.mapi (fun i ch -> if i = p mod n then Char.chr (Char.code ch lxor x) else ch) c
    | Cut p -> String.sub c 0 (p mod (n + 1))
    | Append s -> c ^ s
  in
  return (c, cuts)

let print_damaged (c, cuts) =
  Printf.sprintf "%S fed in slices %s" c
    (String.concat "," (List.map string_of_int cuts))

(* the slices of [c]: lengths cycle through [cuts] *)
let slices c cuts =
  let cuts = Array.of_list cuts in
  let rec go pos i acc =
    if pos >= String.length c then List.rev acc
    else
      let len = min cuts.(i mod Array.length cuts) (String.length c - pos) in
      go (pos + len) (i + 1) ((pos, len) :: acc)
  in
  go 0 0 []

let outcome f = match f () with x -> Ok x | exception Invalid_argument m -> Error m

(* feed slices until the first error, logging [step ()] after each
   feed; the flag says whether every feed went through *)
let run_feeds feed c cuts step =
  let rec go acc = function
    | [] -> (List.rev acc, true)
    | sl :: rest -> (
      match outcome (fun () -> feed sl) with
      | Ok () ->
        let s = step () in
        go (s :: acc) rest
      | Error m -> (List.rev (("error: " ^ m) :: acc), false))
  in
  go [] (slices c cuts)

let prop_lzw_parity =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:400 ~print:print_damaged
       ~name:"lzw decoder = naive oracle on sliced, damaged streams" gen_damaged
       (fun (c, cuts) ->
         let fast = Lzw.decoder () and naive = Naive.decoder () in
         let log_fast, ok_fast =
           run_feeds (fun (pos, len) -> Lzw.decode_feed_sub fast c ~pos ~len) c cuts
             (fun () -> Lzw.decode_take fast)
         in
         let log_naive, ok_naive =
           run_feeds (fun (pos, len) -> Naive.decode_feed naive (String.sub c pos len))
             c cuts (fun () -> Naive.decode_take naive)
         in
         log_fast = log_naive && ok_fast = ok_naive
         && (if ok_fast then
               outcome (fun () -> Lzw.decode_finish fast)
               = outcome (fun () -> Naive.decode_finish naive)
             (* everything decoded before the bad byte stays takeable *)
             else Lzw.decode_take fast = Naive.decode_take naive)))

let prop_stream_parity =
  QCheck_alcotest.to_alcotest
    (QCheck2.Test.make ~count:400 ~print:print_damaged
       ~name:"tracer stream = naive oracle on sliced, damaged streams"
       gen_damaged (fun (c, cuts) ->
         (* a deliberately wrong count hint: both growth and trimming run *)
         let fast () =
           let st = Tracer.stream ~expect:(String.length c) () in
           ( st,
             run_feeds
               (fun (pos, len) -> Tracer.stream_feed_sub st c ~pos ~len)
               c cuts
               (fun () -> string_of_int (Tracer.stream_events st)) )
         and naive () =
           let st = Naive.stream () in
           ( st,
             run_feeds
               (fun (pos, len) -> Naive.stream_feed st (String.sub c pos len))
               c cuts
               (fun () -> string_of_int (Naive.stream_events st)) )
         in
         let (f1, log_fast), (n1, log_naive) = (fast (), naive ()) in
         let finished =
           (not (snd log_fast))
           || ( Tracer.stream_complete f1,
                outcome (fun () ->
                    Tracer.stream_finish f1 ~pid:1 ~tid:2 ~truncated:false) )
              = ( Naive.stream_complete n1,
                  outcome (fun () ->
                      Naive.stream_finish n1 ~pid:1 ~tid:2 ~truncated:false) )
         in
         let (f2, _), (n2, _) = (fast (), naive ()) in
         log_fast = log_naive && finished
         && Tracer.stream_salvage f2 ~pid:1 ~tid:2
            = Naive.stream_salvage n2 ~pid:1 ~tid:2))

(* ------------------------------------------------------------------ *)
(* Capture                                                             *)
(* ------------------------------------------------------------------ *)

let test_capture_shared_symtab_and_stats () =
  let cap = Capture.create () in
  let t00 = Capture.tracer cap ~pid:0 ~tid:0 in
  let t01 = Capture.tracer cap ~pid:0 ~tid:1 in
  let again = Capture.tracer cap ~pid:0 ~tid:0 in
  Alcotest.(check bool) "same tracer handed back" true (t00 == again);
  Tracer.on_call t00 "f";
  Tracer.on_call t01 "f";
  Tracer.on_call t01 "g";
  let ts = Capture.finish cap in
  Alcotest.(check int) "two traces" 2 (Trace_set.cardinal ts);
  Alcotest.(check int) "shared symbol ids" 2 (Symtab.size (Trace_set.symtab ts));
  let stats = Capture.stats cap ts in
  Alcotest.(check int) "threads" 2 stats.Capture.threads;
  Alcotest.(check int) "events" 3 stats.Capture.total_events;
  Alcotest.(check bool) "compressed bytes positive" true
    (stats.Capture.total_compressed_bytes > 0)

let test_capture_stats_compression () =
  (* a long repetitive stream must compress well and the ratio must be
     reflected in the stats *)
  let cap = Capture.create () in
  let tr = Capture.tracer cap ~pid:0 ~tid:0 in
  for _ = 1 to 5000 do
    Tracer.on_call tr "MPI_Send";
    Tracer.on_return tr "MPI_Send";
    Tracer.on_call tr "MPI_Recv";
    Tracer.on_return tr "MPI_Recv"
  done;
  let ts = Capture.finish cap in
  let stats = Capture.stats cap ts in
  Alcotest.(check int) "20k events" 20000 stats.Capture.total_events;
  Alcotest.(check bool) "ratio well above 10x" true
    (stats.Capture.compression_ratio > 10.0);
  Alcotest.(check bool) "compressed under 2KB" true
    (stats.Capture.total_compressed_bytes < 2048)

let () =
  Alcotest.run "parlot"
    [ ( "lzw",
        [ Alcotest.test_case "empty" `Quick test_lzw_empty;
          Alcotest.test_case "simple" `Quick test_lzw_simple;
          Alcotest.test_case "KwKwK" `Quick test_lzw_kwkwk;
          Alcotest.test_case "compresses repetition" `Quick test_lzw_compresses_repetition;
          Alcotest.test_case "streaming = one-shot" `Quick test_lzw_streaming_matches_oneshot;
          Alcotest.test_case "incremental output" `Quick test_lzw_output_grows_incrementally;
          Alcotest.test_case "corrupt input" `Quick test_lzw_corrupt;
          Alcotest.test_case "first code is phrase" `Quick test_lzw_first_code_phrase;
          Alcotest.test_case "trailing bytes" `Quick test_lzw_trailing_bytes;
          Alcotest.test_case "code out of range" `Quick test_lzw_code_out_of_range;
          Alcotest.test_case "streaming decoder parity" `Quick
            test_lzw_decoder_streaming_parity;
          prop_lzw_roundtrip;
          prop_lzw_roundtrip_binary ] );
      ( "tracer",
        [ Alcotest.test_case "records and decodes" `Quick test_tracer_records_and_decodes;
          Alcotest.test_case "image filter" `Quick test_tracer_image_filter;
          Alcotest.test_case "scoped exception truncates" `Quick test_tracer_scoped_exception;
          prop_tracer_roundtrip ] );
      ("parity", [ prop_lzw_parity; prop_stream_parity ]);
      ( "capture",
        [ Alcotest.test_case "shared symtab + stats" `Quick
            test_capture_shared_symtab_and_stats;
          Alcotest.test_case "compression stats" `Quick
            test_capture_stats_compression ] ) ]
