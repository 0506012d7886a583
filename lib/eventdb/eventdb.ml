module Event = Difftrace_trace.Event
module Symtab = Difftrace_trace.Symtab
module Trace = Difftrace_trace.Trace
module Trace_set = Difftrace_trace.Trace_set
module Nlr = Difftrace_nlr.Nlr
module Varint = Difftrace_util.Varint
module Framed = Difftrace_util.Framed
module Runner = Difftrace_util.Runner
module Telemetry = Difftrace_obs.Telemetry

let c_builds = Telemetry.Counter.make "eventdb.builds"
let c_loads = Telemetry.Counter.make "eventdb.loads"
let c_saved = Telemetry.Counter.make "eventdb.saved"
let c_damaged = Telemetry.Counter.make "eventdb.damaged"

type loop_span = { lp_body : int; lp_count : int; lp_start : int; lp_stop : int }

type thread = {
  th_pid : int;
  th_tid : int;
  th_truncated : bool;
  th_events : Event.t array;
  th_postings : int array array;
  th_intervals : Intervals.t array;
  th_loops : loop_span array;
}

type t = {
  db_digest : string;
  db_symtab : Symtab.t;
  db_table : Nlr.Loop_table.t;
  db_threads : thread array;
}

let label th =
  if th.th_tid = 0 then string_of_int th.th_pid
  else Printf.sprintf "%d.%d" th.th_pid th.th_tid

let long_label th = Printf.sprintf "%d.%d" th.th_pid th.th_tid

let find_thread db l =
  Array.find_opt (fun th -> label th = l || long_label th = l) db.db_threads

(* {2 Content digest} *)

(* The symbol names in ID order, then each thread's identity and
   stream digest ({!Trace.stream_digest}): the stream digest pins the
   events up to ID renaming and names them, and the symbol table pins
   the IDs, so this names the exact event streams. An archive manifest
   holds every part, so the name of a run's index is known before a
   trace is decoded. *)
let digest_of ~symbols threads =
  let buf = Buffer.create 4096 in
  Buffer.add_string buf "difftrace-eventdb-digest 2\n";
  Varint.write buf (Array.length symbols);
  Array.iter
    (fun name ->
      Varint.write buf (String.length name);
      Buffer.add_string buf name)
    symbols;
  Varint.write buf (Array.length threads);
  Array.iter
    (fun (pid, tid, truncated, stream) ->
      Varint.write buf pid;
      Varint.write buf tid;
      Buffer.add_char buf (if truncated then '\x01' else '\x00');
      Varint.write buf (String.length stream);
      Buffer.add_string buf stream)
    threads;
  Digest.to_hex (Digest.string (Buffer.contents buf))

let digest ts =
  let symtab = Trace_set.symtab ts in
  digest_of ~symbols:(Symtab.names symtab)
    (Array.map
       (fun tr ->
         ( tr.Trace.pid,
           tr.Trace.tid,
           tr.Trace.truncated,
           Digest.to_hex (Trace.stream_digest symtab tr) ))
       (Trace_set.traces ts))

(* {2 Loop spans}

   Loops are recognized over the call-ID sequence, so spans live in
   call-ordinal space first and are mapped to event positions through
   the positions of the thread's [Call] events: a span runs from the
   position of its first call to the position of the first call after
   it (or the end of the stream). *)

let body_expanded table memo id =
  let rec body id =
    match Hashtbl.find_opt memo id with
    | Some v -> v
    | None ->
      let v = Array.fold_left (fun acc e -> acc + elem e) 0 (Nlr.Loop_table.body table id) in
      Hashtbl.add memo id v;
      v
  and elem = function
    | Nlr.Sym _ -> 1
    | Nlr.Loop { body = b; count } -> count * body b
  in
  body id

let loop_spans ~table ~call_pos ~n_events (nlr : Nlr.t) =
  let memo = Hashtbl.create 16 in
  let ncalls = Array.length call_pos in
  let pos c = if c < ncalls then call_pos.(c) else n_events in
  let spans = ref [] in
  (* every loop instance at every nesting level gets a span, so [under
     Lk] is a plain span-membership test; the instance count is bounded
     by the call count, keeping this linear *)
  let rec walk elems cursor =
    Array.fold_left
      (fun c e ->
        match e with
        | Nlr.Sym _ -> c + 1
        | Nlr.Loop { body; count } ->
          let blen = body_expanded table memo body in
          let len = count * blen in
          spans :=
            { lp_body = body; lp_count = count; lp_start = pos c;
              lp_stop = pos (c + len) }
            :: !spans;
          for i = 0 to count - 1 do
            ignore (walk (Nlr.Loop_table.body table body) (c + (i * blen)))
          done;
          c + len)
      cursor elems
  in
  ignore (walk nlr.Nlr.elems 0);
  Array.of_list (List.rev !spans)

let body_contains table ~outer ~inner =
  let rec go outer =
    outer = inner
    || Array.exists
         (function
           | Nlr.Loop { body; _ } -> go body
           | Nlr.Sym _ -> false)
         (Nlr.Loop_table.body table outer)
  in
  go outer

(* {2 Build}

   Per-thread indexing is independent work fanned over the runner; each
   thread summarizes into a private loop table, and the private tables
   are re-interned into the shared one sequentially in thread order —
   the same determinism recipe the pipeline uses, so sequential and
   parallel builds are structurally identical. *)

type built = {
  b_postings : int array array;
  b_intervals : Intervals.t array;
  b_table : Nlr.Loop_table.t;
  b_spans : loop_span array;
}

let index_events ~n_funcs events =
  let postings = Array.make n_funcs [] in
  let calls = ref [] in
  let ncalls = ref 0 in
  Array.iteri
    (fun pos e ->
      match e with
      | Event.Call id ->
        postings.(id) <- pos :: postings.(id);
        calls := pos :: !calls;
        incr ncalls
      | Event.Return _ -> ())
    events;
  let call_pos = Array.make !ncalls 0 in
  List.iteri (fun i p -> call_pos.(!ncalls - 1 - i) <- p) !calls;
  let postings =
    Array.map (fun ps -> Array.of_list (List.rev ps)) postings
  in
  (postings, call_pos)

let build ?(runner = Runner.sequential) ?digest:dg ts =
  Telemetry.Counter.incr c_builds;
  let symtab = Trace_set.symtab ts in
  let n_funcs = Symtab.size symtab in
  let traces = Trace_set.traces ts in
  let built =
    runner.Runner.run (Array.length traces) (fun i ->
        let tr = traces.(i) in
        let postings, call_pos = index_events ~n_funcs tr.Trace.events in
        let table = Nlr.Loop_table.create () in
        let nlr = Nlr.of_ids ~table (Trace.call_ids tr) in
        let spans =
          loop_spans ~table ~call_pos
            ~n_events:(Array.length tr.Trace.events)
            nlr
        in
        { b_postings = postings;
          b_intervals = Intervals.of_events tr.Trace.events;
          b_table = table;
          b_spans = spans })
  in
  let shared = Nlr.Loop_table.create () in
  let threads =
    Array.mapi
      (fun i b ->
        let tr = traces.(i) in
        let map = Nlr.Loop_table.remap ~from:b.b_table ~into:shared in
        { th_pid = tr.Trace.pid;
          th_tid = tr.Trace.tid;
          th_truncated = tr.Trace.truncated;
          th_events = tr.Trace.events;
          th_postings = b.b_postings;
          th_intervals = b.b_intervals;
          th_loops =
            Array.map (fun sp -> { sp with lp_body = map.(sp.lp_body) }) b.b_spans
        })
      built
  in
  { db_digest = (match dg with Some d -> d | None -> digest ts);
    db_symtab = symtab; db_table = shared; db_threads = threads }

(* {2 On-disk encoding}

   A magic line, then {!Framed} records in backwards-reference order:
   symbols, loop bodies, then per thread the event log (tag 3)
   followed by its postings (tag 4, one record per called function,
   varint-delta positions), intervals (tag 5) and loop spans (tag 6). *)

let magic = "difftrace-eventdb 1\n"

let tag_symbol = 1
let tag_body = 2
let tag_thread = 3
let tag_postings = 4
let tag_intervals = 5
let tag_loops = 6

exception Bad of string

let bad fmt = Printf.ksprintf (fun s -> raise (Bad s)) fmt

let payload tag f =
  let b = Buffer.create 128 in
  Buffer.add_char b (Char.chr tag);
  f b;
  Buffer.contents b

let encode db =
  let buf = Buffer.create 65536 in
  Buffer.add_string buf magic;
  Array.iter
    (fun name ->
      Framed.add_record buf (payload tag_symbol (fun b -> Buffer.add_string b name)))
    (Symtab.names db.db_symtab);
  for id = 0 to Nlr.Loop_table.size db.db_table - 1 do
    Framed.add_record buf
      (payload tag_body (fun b -> Nlr.write_elems b (Nlr.Loop_table.body db.db_table id)))
  done;
  Array.iteri
    (fun ti th ->
      Framed.add_record buf
        (payload tag_thread (fun b ->
             Varint.write b th.th_pid;
             Varint.write b th.th_tid;
             Varint.write b (if th.th_truncated then 1 else 0);
             Varint.write b (Array.length th.th_events);
             Array.iter (fun e -> Varint.write b (Event.encode e)) th.th_events));
      Array.iteri
        (fun func positions ->
          if Array.length positions > 0 then
            Framed.add_record buf
              (payload tag_postings (fun b ->
                   Varint.write b ti;
                   Varint.write b func;
                   Varint.write b (Array.length positions);
                   let prev = ref 0 in
                   Array.iter
                     (fun p ->
                       Varint.write b (p - !prev);
                       prev := p)
                     positions)))
        th.th_postings;
      Framed.add_record buf
        (payload tag_intervals (fun b ->
             Varint.write b ti;
             Varint.write b (Array.length th.th_intervals);
             let prev = ref 0 in
             Array.iter
               (fun (iv : Intervals.t) ->
                 Varint.write b iv.Intervals.iv_func;
                 Varint.write b (iv.Intervals.iv_start - !prev);
                 prev := iv.Intervals.iv_start;
                 Varint.write b (iv.Intervals.iv_stop - iv.Intervals.iv_start);
                 Varint.write b iv.Intervals.iv_depth;
                 Varint.write b (iv.Intervals.iv_caller + 1))
               th.th_intervals));
      Framed.add_record buf
        (payload tag_loops (fun b ->
             Varint.write b ti;
             Varint.write b (Array.length th.th_loops);
             Array.iter
               (fun sp ->
                 Varint.write b sp.lp_body;
                 Varint.write b sp.lp_count;
                 Varint.write b sp.lp_start;
                 Varint.write b (sp.lp_stop - sp.lp_start))
               th.th_loops)))
    db.db_threads;
  Buffer.contents buf

let index_file ~dir ~digest = Filename.concat dir (digest ^ ".edb")

let ( let* ) = Result.bind

let save ~dir db =
  let* () = Framed.mkdir_p dir in
  let* () =
    Framed.write_atomic ~path:(index_file ~dir ~digest:db.db_digest) (encode db)
  in
  Telemetry.Counter.incr c_saved;
  Ok ()

(* decoding: strict — structural surprises are damage, and damage means
   rebuild, so there is no salvage path to keep consistent *)

type partial = {
  mutable p_truncated : bool;
  mutable p_events : Event.t array;
  mutable p_postings : (int * int array) list;
  mutable p_intervals : Intervals.t array;
  mutable p_loops : loop_span array;
}

(* a count of items each at least [width] bytes long: one the rest of
   the record cannot hold is corruption, not a huge allocation *)
let read_count ~width what (c : Varint.cursor) =
  let n = Varint.next c in
  if n > (String.length c.Varint.src - c.Varint.pos) / width then
    bad "%s count %d overruns record" what n;
  n

let finish_record what (c : Varint.cursor) =
  if c.Varint.pos <> String.length c.Varint.src then
    bad "trailing bytes in %s record" what

(* Every varint goes through one cursor per record, so a read allocates
   nothing; an event below [Event.decode]'s bound is a shared value. *)
let decode ~digest image =
  let symtab = Symtab.create () in
  let table = Nlr.Loop_table.create () in
  let threads = ref [] in
  let nthreads = ref 0 in
  (* record index -> (pid, tid) and the thread's parts so far *)
  let partials = Hashtbl.create 8 in
  let nth ti =
    match Hashtbl.find_opt partials ti with
    | Some p -> p
    | None -> bad "postings/intervals for unknown thread %d" ti
  in
  let record s =
    if String.length s = 0 then bad "empty record";
    let tag = Char.code s.[0] in
    let c = Varint.cursor s 1 in
    let next () = Varint.next c in
    if tag = tag_symbol then
      ignore (Symtab.intern symtab (String.sub s 1 (String.length s - 1)))
    else if tag = tag_body then begin
      let elems, pos =
        Nlr.read_elems ~n_syms:(Symtab.size symtab)
          ~n_bodies:(Nlr.Loop_table.size table) s 1
      in
      if pos <> String.length s then bad "trailing bytes in body record";
      ignore (Nlr.Loop_table.intern table elems)
    end
    else if tag = tag_thread then begin
      let pid = next () in
      let tid = next () in
      let trunc = next () in
      let n = read_count ~width:1 "event" c in
      let events = Array.init n (fun _ -> Event.decode (next ())) in
      finish_record "thread" c;
      let p =
        { p_truncated = trunc <> 0;
          p_events = events;
          p_postings = [];
          p_intervals = [||];
          p_loops = [||] }
      in
      Hashtbl.replace partials !nthreads p;
      incr nthreads;
      threads := (pid, tid) :: !threads
    end
    else if tag = tag_postings then begin
      let ti = next () in
      let func = next () in
      let n = read_count ~width:1 "position" c in
      let positions = Array.make n 0 in
      let prev = ref 0 in
      for i = 0 to n - 1 do
        prev := !prev + next ();
        positions.(i) <- !prev
      done;
      finish_record "postings" c;
      if func >= Symtab.size symtab then bad "postings for unknown function";
      let p = nth ti in
      p.p_postings <- (func, positions) :: p.p_postings
    end
    else if tag = tag_intervals then begin
      let ti = next () in
      let n = read_count ~width:5 "interval" c in
      let prev = ref 0 in
      let ivs =
        Array.init n (fun _ ->
            let func = next () in
            let dstart = next () in
            let len = next () in
            let depth = next () in
            let caller1 = next () in
            prev := !prev + dstart;
            { Intervals.iv_func = func;
              iv_start = !prev;
              iv_stop = !prev + len;
              iv_depth = depth;
              iv_caller = caller1 - 1 })
      in
      finish_record "interval" c;
      (nth ti).p_intervals <- ivs
    end
    else if tag = tag_loops then begin
      let ti = next () in
      let n = read_count ~width:4 "span" c in
      let spans =
        Array.init n (fun _ ->
            let body = next () in
            let count = next () in
            let start = next () in
            let len = next () in
            if body >= Nlr.Loop_table.size table then
              bad "span for unknown loop body";
            { lp_body = body; lp_count = count; lp_start = start;
              lp_stop = start + len })
      in
      finish_record "loop" c;
      (nth ti).p_loops <- spans
    end
    else bad "unknown record tag %d" tag
  in
  match
    Framed.fold ~magic image ~init:() ~f:(fun () s ->
        match record s with
        | () -> Ok ()
        | exception (Bad reason | Nlr.Corrupt reason) -> Error reason)
  with
  | (), Some damage -> Error damage
  | (), None ->
    let n_funcs = Symtab.size symtab in
    let ids = Array.of_list (List.rev !threads) in
    let threads =
      Array.mapi
        (fun ti (pid, tid) ->
          let p = Hashtbl.find partials ti in
          let postings = Array.make n_funcs [||] in
          List.iter (fun (func, ps) -> postings.(func) <- ps) p.p_postings;
          { th_pid = pid;
            th_tid = tid;
            th_truncated = p.p_truncated;
            th_events = p.p_events;
            th_postings = postings;
            th_intervals = p.p_intervals;
            th_loops = p.p_loops })
        ids
    in
    Ok { db_digest = digest; db_symtab = symtab; db_table = table;
         db_threads = threads }

let load ~dir ~digest =
  let path = index_file ~dir ~digest in
  if not (Sys.file_exists path) then Error "no index"
  else
    match Result.bind (Framed.read_file path) (decode ~digest) with
    | Ok db ->
      Telemetry.Counter.incr c_loads;
      Ok db
    | Error _ as e ->
      Telemetry.Counter.incr c_damaged;
      e

let open_ ?(runner = Runner.sequential) ?dir ?digest:dg ts =
  let dg = match dg with Some d -> d | None -> digest ts in
  match dir with
  | None -> (build ~runner ~digest:dg ts, `Built)
  | Some d -> (
    match load ~dir:d ~digest:dg with
    | Ok db -> (db, `Loaded)
    | Error _ ->
      let db = build ~runner ~digest:dg ts in
      (* best-effort persist: an unwritable store directory costs the
         warm path, never the query *)
      (match save ~dir:d db with Ok () | Error _ -> ());
      (db, `Built))

(* {2 Divergence} *)

let events_equal syma ea symb eb =
  match (ea, eb) with
  | Event.Call a, Event.Call b | Event.Return a, Event.Return b ->
    String.equal (Symtab.name syma a) (Symtab.name symb b)
  | _ -> false

let stream_divergence syma a symb b =
  let na = Array.length a and nb = Array.length b in
  let n = min na nb in
  let rec go i =
    if i < n then
      if events_equal syma a.(i) symb b.(i) then go (i + 1) else Some i
    else if na <> nb then Some n
    else None
  in
  go 0

let find_by_label ts l =
  Array.find_opt
    (fun tr -> Trace.label ~short:true tr = l || Trace.label tr = l)
    (Trace_set.traces ts)

let divergence_note ~normal ~faulty ~label =
  match (find_by_label normal label, find_by_label faulty label) with
  | Some n, Some f -> (
    let nsym = Trace_set.symtab normal and fsym = Trace_set.symtab faulty in
    match stream_divergence nsym n.Trace.events fsym f.Trace.events with
    | None ->
      Some
        (Printf.sprintf "  event db: trace %s: streams identical (%d events)\n"
           label (Array.length n.Trace.events))
    | Some pos ->
      let side sym (tr : Trace.t) =
        if pos < Array.length tr.Trace.events then
          Event.to_string sym tr.Trace.events.(pos)
        else "end of trace"
      in
      let hint =
        match
          if pos < Array.length f.Trace.events then Some (fsym, f.Trace.events.(pos))
          else if pos < Array.length n.Trace.events then Some (nsym, n.Trace.events.(pos))
          else None
        with
        | Some (sym, Event.Call id) ->
          Printf.sprintf "list %s on %s in %d..%d" (Symtab.name sym id) label pos
            (pos + 10)
        | _ -> Printf.sprintf "diverge on %s" label
      in
      Some
        (Printf.sprintf
           "  event db: trace %s: first divergence at event %d (normal: %s, \
            faulty: %s); drill down: difftrace query '%s'\n"
           label pos (side nsym n) (side fsym f) hint))
  | _ -> None
