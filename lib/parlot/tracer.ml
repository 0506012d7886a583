open Difftrace_util
open Difftrace_trace
module Telemetry = Difftrace_obs.Telemetry

let c_captured = Telemetry.Counter.make "parlot.events.captured"
let c_compressed = Telemetry.Counter.make "parlot.bytes.compressed"
let c_decoded_traces = Telemetry.Counter.make "parlot.traces.decoded"
let c_decoded_events = Telemetry.Counter.make "parlot.events.decoded"

type image = Main | Library
type level = Main_image | All_images

type t = {
  symtab : Symtab.t;
  level : level;
  pid : int;
  tid : int;
  encoder : Lzw.encoder;
  scratch : Buffer.t;
  mutable nevents : int;
  mutable truncated : bool;
}

let create ~symtab ~level ~pid ~tid =
  { symtab;
    level;
    pid;
    tid;
    encoder = Lzw.encoder ();
    scratch = Buffer.create 16;
    nevents = 0;
    truncated = false }

let pid t = t.pid
let tid t = t.tid
let keeps t image = match (t.level, image) with All_images, _ | Main_image, Main -> true | Main_image, Library -> false

let record t event =
  Buffer.clear t.scratch;
  Varint.write t.scratch (Event.encode event);
  Lzw.feed_string t.encoder (Buffer.contents t.scratch);
  Telemetry.Counter.incr c_captured;
  t.nevents <- t.nevents + 1

let on_call ?(image = Main) t name =
  if keeps t image then record t (Event.Call (Symtab.intern t.symtab name))

let on_return ?(image = Main) t name =
  if keeps t image then record t (Event.Return (Symtab.intern t.symtab name))

let scoped ?image t name f =
  on_call ?image t name;
  let r = f () in
  on_return ?image t name;
  r

let set_truncated t = t.truncated <- true
let events_recorded t = t.nevents
let compressed_so_far t = Lzw.output_size t.encoder
let finish t =
  let data = Lzw.finish t.encoder in
  Telemetry.Counter.add c_compressed (String.length data);
  (data, t.truncated)

(* Streaming decode: compressed bytes go through the incremental LZW
   decoder, and the decompressed varint-event stream is parsed in place
   as it drains — a partial event varint is carried across feeds, so
   the archive layer can push arbitrary chunk slices.

   Events land in a plain array sized from the caller's count hint.
   Growing it never forces a minor collection: OCaml 5's [Array.make]
   does so for any array above 256 words filled with a young block, so
   fresh arrays are filled with [filler], a static constant. Events
   come from [Event.decode], which shares one immutable value per
   small encoding, so a decoded trace allocates nothing per event in
   the common case. *)

let filler = Event.Call 0
let max_expect = 1 lsl 16

type stream = {
  lzw : Lzw.decoder;
  mutable s_events : Event.t array;
  mutable s_len : int;
  mutable s_acc : int; (* partial event varint *)
  mutable s_shift : int;
  mutable s_partial : bool; (* an event varint is in flight *)
  mutable s_bytes : int; (* compressed bytes fed so far *)
}

let stream ?(expect = 0) () =
  { lzw = Lzw.decoder ();
    s_events = Array.make (max 0 (min expect max_expect)) filler;
    s_len = 0;
    s_acc = 0;
    s_shift = 0;
    s_partial = false;
    s_bytes = 0 }

let push st ev =
  let cap = Array.length st.s_events in
  if st.s_len = cap then begin
    let a = Array.make (max 64 (2 * cap)) filler in
    Array.blit st.s_events 0 a 0 st.s_len;
    st.s_events <- a
  end;
  Array.unsafe_set st.s_events st.s_len ev;
  st.s_len <- st.s_len + 1

let drain st =
  Lzw.decode_drain st.lzw (fun raw n ->
      for i = 0 to n - 1 do
        let b = Char.code (Bytes.unsafe_get raw i) in
        if st.s_shift > 56 then invalid_arg "Tracer.decode: event varint overflow";
        st.s_acc <- st.s_acc lor ((b land 0x7f) lsl st.s_shift);
        if st.s_acc < 0 then invalid_arg "Tracer.decode: event varint overflow";
        if b land 0x80 = 0 then begin
          let v = st.s_acc in
          push st (Event.decode v);
          st.s_acc <- 0;
          st.s_shift <- 0;
          st.s_partial <- false
        end
        else begin
          st.s_shift <- st.s_shift + 7;
          st.s_partial <- true
        end
      done)

let stream_feed_sub st data ~pos ~len =
  st.s_bytes <- st.s_bytes + len;
  Lzw.decode_feed_sub st.lzw data ~pos ~len;
  drain st

let stream_feed st data = stream_feed_sub st data ~pos:0 ~len:(String.length data)

let stream_events st = st.s_len

(* a zero-byte stream is a complete empty trace — the streaming analogue
   of [Lzw.decompress ""] = "" — not a missing end-of-stream marker *)
let stream_complete st =
  drain st;
  st.s_bytes = 0 || (Lzw.decode_finished st.lzw && not st.s_partial)

let stream_trace st ~pid ~tid ~truncated =
  Telemetry.Counter.incr c_decoded_traces;
  Telemetry.Counter.add c_decoded_events st.s_len;
  (* a full array is handed over as is: the next push would replace it *)
  let events =
    if st.s_len = Array.length st.s_events then st.s_events
    else Array.sub st.s_events 0 st.s_len
  in
  Trace.make ~pid ~tid ~truncated events

let stream_finish st ~pid ~tid ~truncated =
  drain st;
  if st.s_bytes > 0 then ignore (Lzw.decode_finish st.lzw);
  if st.s_partial then invalid_arg "Tracer.decode: truncated event stream";
  stream_trace st ~pid ~tid ~truncated

(* Salvage: keep every event that decoded cleanly, drop a trailing
   partial varint, and force the truncation flag — the archive's
   recovery path for damaged trace files. *)
let stream_salvage st ~pid ~tid =
  (try drain st with Invalid_argument _ -> ());
  stream_trace st ~pid ~tid ~truncated:true

let decode ?expect ~symtab ~pid ~tid ~truncated data =
  ignore symtab;
  let st = stream ?expect () in
  stream_feed st data;
  stream_finish st ~pid ~tid ~truncated
