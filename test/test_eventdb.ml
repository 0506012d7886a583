(* Event DB: the index must agree with a linear scan of the raw events
   under every engine, survive a save/load round trip byte-identically,
   and rebuild (never crash) on a damaged index file. *)

open Difftrace
module R = Difftrace_simulator.Runtime
module Api = Difftrace_simulator.Api
module Fault = Difftrace_simulator.Fault
module Event = Difftrace_trace.Event
module Trace = Difftrace_trace.Trace
module Trace_set = Difftrace_trace.Trace_set
module Symtab = Difftrace_trace.Symtab
module Heat = Difftrace_workloads.Heat
module Odd_even = Difftrace_workloads.Odd_even
module Intervals = Difftrace_eventdb.Intervals

let qtest ?(count = 10) name gen prop =
  QCheck_alcotest.to_alcotest (QCheck2.Test.make ~count ~name gen prop)

(* the same randomized mixed-API program family as test_properties *)
let random_program ~recipe env =
  let rng = Difftrace_util.Prng.create (recipe + (R.pid env * 31)) in
  let shared_rng = Difftrace_util.Prng.create recipe in
  Api.call env "main" (fun () ->
      Api.mpi_init env;
      let rank = Api.comm_rank env in
      let np = Api.comm_size env in
      let rounds = 1 + Difftrace_util.Prng.int shared_rng 4 in
      for round = 1 to rounds do
        Api.call env "phase" (fun () ->
            for _ = 1 to Difftrace_util.Prng.int rng 4 do
              Api.call env "compute" (fun () -> ())
            done;
            let next = (rank + 1) mod np and prev = (rank + np - 1) mod np in
            let r = Api.irecv env ~src:prev ~tag:round () in
            Api.send env ~dst:next ~tag:round [| rank; round |];
            ignore (Api.wait env r);
            ignore (Api.allreduce env ~op:R.Op_sum [| rank |]))
      done;
      Api.barrier env;
      Api.mpi_finalize env)

let random_traces ~recipe ~np ~seed =
  (R.run ~np ~seed (random_program ~recipe)).R.traces

let recipe_gen =
  QCheck2.Gen.(triple (int_range 0 500) (int_range 2 6) (int_range 0 500))

let parallel_runner = Engine.runner (Engine.Parallel { domains = 2 })

(* --- the linear-scan oracle ---------------------------------------- *)

let oracle_postings (events : Event.t array) ~nsyms =
  let acc = Array.make nsyms [] in
  Array.iteri
    (fun pos e ->
      match e with
      | Event.Call f -> acc.(f) <- pos :: acc.(f)
      | Event.Return _ -> ())
    events;
  Array.map (fun l -> Array.of_list (List.rev l)) acc

let check_thread_against_oracle ~nsyms (th : Eventdb.thread) =
  let want = oracle_postings th.Eventdb.th_events ~nsyms in
  let got = th.Eventdb.th_postings in
  Array.length got <= nsyms
  && Array.for_all Fun.id
       (Array.init nsyms (fun f ->
            let g = if f < Array.length got then got.(f) else [||] in
            g = want.(f)))
  (* one interval per call, starting at that call's position *)
  && Array.length th.Eventdb.th_intervals
     = Array.fold_left (fun n p -> n + Array.length p) 0 want
  && Array.for_all
       (fun (iv : Intervals.t) ->
         iv.Intervals.iv_start < Array.length th.Eventdb.th_events
         && th.Eventdb.th_events.(iv.Intervals.iv_start)
            = Event.Call iv.Intervals.iv_func
         && iv.Intervals.iv_stop > iv.Intervals.iv_start
         && iv.Intervals.iv_stop <= Array.length th.Eventdb.th_events)
       th.Eventdb.th_intervals
  (* loop spans sit inside the event log and cover only call positions *)
  && Array.for_all
       (fun (lp : Eventdb.loop_span) ->
         lp.Eventdb.lp_start >= 0
         && lp.Eventdb.lp_start <= lp.Eventdb.lp_stop
         && lp.Eventdb.lp_stop <= Array.length th.Eventdb.th_events)
       th.Eventdb.th_loops

let prop_index_matches_oracle =
  qtest "index == linear scan (sequential and parallel engines)" recipe_gen
    (fun (recipe, np, seed) ->
      let ts = random_traces ~recipe ~np ~seed in
      let nsyms = Symtab.size (Trace_set.symtab ts) in
      let db_seq = Eventdb.build ts in
      let db_par = Eventdb.build ~runner:parallel_runner ts in
      Array.for_all (check_thread_against_oracle ~nsyms) db_seq.Eventdb.db_threads
      (* both engines produce the same database *)
      && db_seq.Eventdb.db_digest = db_par.Eventdb.db_digest
      && Array.length db_seq.Eventdb.db_threads
         = Array.length db_par.Eventdb.db_threads
      && Array.for_all2
           (fun (a : Eventdb.thread) (b : Eventdb.thread) ->
             a.Eventdb.th_events = b.Eventdb.th_events
             && a.Eventdb.th_postings = b.Eventdb.th_postings
             && a.Eventdb.th_intervals = b.Eventdb.th_intervals
             && a.Eventdb.th_loops = b.Eventdb.th_loops)
           db_seq.Eventdb.db_threads db_par.Eventdb.db_threads)

let prop_count_query_matches_oracle =
  qtest "count/list queries == linear scan" recipe_gen
    (fun (recipe, np, seed) ->
      let ts = random_traces ~recipe ~np ~seed in
      let db = Eventdb.build ts in
      List.for_all
        (fun fn ->
          let want =
            Array.fold_left
              (fun n (th : Eventdb.thread) ->
                Array.fold_left
                  (fun n e -> match e with
                     | Event.Call f
                       when Symtab.name db.Eventdb.db_symtab f = fn -> n + 1
                     | _ -> n)
                  n th.Eventdb.th_events)
              0 db.Eventdb.db_threads
          in
          match Query.parse (Printf.sprintf "count %s" fn) with
          | Error _ -> false
          | Ok q -> (
            match Query.eval db q with
            | Ok (Query.R_count { total; _ }) -> total = want
            | _ -> false))
        [ "MPI_Send"; "compute"; "phase"; "never_called" ])

(* --- divergence ----------------------------------------------------- *)

let prop_divergence_matches_oracle =
  qtest "stream divergence == first naive mismatch"
    QCheck2.Gen.(triple (int_range 0 200) (int_range 2 5) (int_range 0 200))
    (fun (recipe, np, seed) ->
      let a = random_traces ~recipe ~np ~seed in
      let b = random_traces ~recipe:(recipe + 1) ~np ~seed in
      let syma = Trace_set.symtab a and symb = Trace_set.symtab b in
      Array.for_all2
        (fun (ta : Trace.t) (tb : Trace.t) ->
          let naive =
            let ea = ta.Trace.events and eb = tb.Trace.events in
            let n = min (Array.length ea) (Array.length eb) in
            let rec go i =
              if i >= n then
                if Array.length ea = Array.length eb then None else Some n
              else if
                Event.to_string syma ea.(i) <> Event.to_string symb eb.(i)
              then Some i
              else go (i + 1)
            in
            go 0
          in
          Eventdb.stream_divergence syma ta.Trace.events symb tb.Trace.events
          = naive)
        (Trace_set.traces a) (Trace_set.traces b))

(* --- persistence ----------------------------------------------------- *)

let rec rm_rf path =
  if Sys.file_exists path then
    if Sys.is_directory path then begin
      Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
      Sys.rmdir path
    end
    else Sys.remove path

let tmpdir name =
  let dir =
    Filename.concat (Filename.get_temp_dir_name ()) ("difftrace_edb_" ^ name)
  in
  rm_rf dir;
  dir

let heat_traces =
  lazy (fst (Heat.run ~fault:Fault.No_fault ())).R.traces

let query_render db q =
  match Query.parse q with
  | Error m -> Alcotest.failf "parse %S: %s" q m
  | Ok ast -> (
    match Query.eval db ast with
    | Ok r -> Query.render r
    | Error e -> Alcotest.failf "eval %S: %s" q (Query.error_to_string e))

let test_save_load_roundtrip () =
  let dir = tmpdir "roundtrip" in
  let ts = Lazy.force heat_traces in
  let db = Eventdb.build ts in
  (match Eventdb.save ~dir db with
  | Ok () -> ()
  | Error m -> Alcotest.failf "save: %s" m);
  match Eventdb.load ~dir ~digest:db.Eventdb.db_digest with
  | Error m -> Alcotest.failf "load: %s" m
  | Ok db' ->
    Alcotest.(check string) "digest" db.Eventdb.db_digest db'.Eventdb.db_digest;
    Alcotest.(check int) "threads"
      (Array.length db.Eventdb.db_threads)
      (Array.length db'.Eventdb.db_threads);
    Array.iter2
      (fun (a : Eventdb.thread) (b : Eventdb.thread) ->
        Alcotest.(check bool) "thread identical" true
          (a.Eventdb.th_pid = b.Eventdb.th_pid
          && a.Eventdb.th_tid = b.Eventdb.th_tid
          && a.Eventdb.th_truncated = b.Eventdb.th_truncated
          && a.Eventdb.th_events = b.Eventdb.th_events
          && a.Eventdb.th_postings = b.Eventdb.th_postings
          && a.Eventdb.th_intervals = b.Eventdb.th_intervals
          && a.Eventdb.th_loops = b.Eventdb.th_loops))
      db.Eventdb.db_threads db'.Eventdb.db_threads;
    (* the loaded database answers queries byte-identically *)
    List.iter
      (fun q ->
        Alcotest.(check string) q (query_render db q) (query_render db' q))
      [ "threads"; "funcs"; "loops"; "count MPI_Send"; "sites MPI_Send" ]

let test_corrupt_index_rebuilds () =
  let dir = tmpdir "corrupt" in
  let ts = Lazy.force heat_traces in
  let db = Eventdb.build ts in
  (match Eventdb.save ~dir db with
  | Ok () -> ()
  | Error m -> Alcotest.failf "save: %s" m);
  let path = Filename.concat dir (db.Eventdb.db_digest ^ ".edb") in
  let text =
    let ic = open_in_bin path in
    let s = really_input_string ic (in_channel_length ic) in
    close_in ic;
    s
  in
  let mid = String.length text / 2 in
  let flipped = Bytes.of_string text in
  Bytes.set flipped mid (Char.chr (Char.code text.[mid] lxor 0xff));
  let oc = open_out_bin path in
  output_bytes oc flipped;
  close_out oc;
  (match Eventdb.load ~dir ~digest:db.Eventdb.db_digest with
  | Error _ -> ()
  | Ok _ -> Alcotest.fail "loaded a corrupted index");
  (* the warm path falls back to a rebuild and heals the file *)
  let db2, how = Eventdb.open_ ~dir ts in
  Alcotest.(check bool) "rebuilt" true (how = `Built);
  Alcotest.(check string) "same database" db.Eventdb.db_digest
    db2.Eventdb.db_digest;
  match Eventdb.load ~dir ~digest:db.Eventdb.db_digest with
  | Error m -> Alcotest.failf "index not healed: %s" m
  | Ok _ -> ()

(* CRC-valid but hostile indexes: counts and ids taken on trust used to
   reach [Array.init] and the loop table unchecked. Each must load as
   an [Error] and send the warm path to a rebuild that heals the file,
   with no exception escaping. *)
let test_crafted_index_rebuilds () =
  let ts = Lazy.force heat_traces in
  let digest = Eventdb.digest ts in
  let record tag fields =
    let b = Buffer.create 16 in
    Buffer.add_char b (Char.chr tag);
    List.iter (Difftrace_util.Varint.write b) fields;
    Buffer.contents b
  in
  let symbol = "\x01MPI_Init" in
  List.iter
    (fun (name, records) ->
      let dir = tmpdir "crafted" in
      let image = Buffer.create 64 in
      Buffer.add_string image "difftrace-eventdb 1\n";
      List.iter (Difftrace_util.Framed.add_record image) records;
      Sys.mkdir dir 0o755;
      Out_channel.with_open_bin
        (Filename.concat dir (digest ^ ".edb"))
        (fun oc -> Buffer.output_buffer oc image);
      (match Eventdb.load ~dir ~digest with
      | Error _ -> ()
      | Ok _ -> Alcotest.failf "%s: loaded" name);
      let db, how = Eventdb.open_ ~dir ts in
      Alcotest.(check bool) (name ^ ": rebuilt") true (how = `Built);
      Alcotest.(check string) (name ^ ": same database") digest
        db.Eventdb.db_digest;
      match Eventdb.load ~dir ~digest with
      | Error m -> Alcotest.failf "%s: index not healed: %s" name m
      | Ok _ -> ())
    [ (* one readable element, then a count no record can hold *)
      ("huge element count", [ symbol; record 2 [ 1 lsl 40; 0; 0 ] ]);
      ("symbol id out of range", [ symbol; record 2 [ 1; 0; 99 ] ]);
      ("loop body out of range", [ symbol; record 2 [ 1; 1; 3; 2 ] ]);
      ("huge event count", [ symbol; record 3 [ 0; 0; 0; 1 lsl 40; 0 ] ]) ]

let test_open_warm () =
  let dir = tmpdir "warm" in
  let ts = Lazy.force heat_traces in
  let _, first = Eventdb.open_ ~dir ts in
  let _, second = Eventdb.open_ ~dir ts in
  Alcotest.(check bool) "cold build" true (first = `Built);
  Alcotest.(check bool) "warm load" true (second = `Loaded)

(* A load allocates about what it keeps: the payload copies, the
   interval and span records and the small arrays go through the minor
   heap, the event and posting arrays mostly straight to the major
   heap. A tuple per varint read or a fresh value per event (about
   nine times the database's words on this run) fails the bound. The
   mean over 20 loads smooths out the lag in the runtime's allocation
   counters. *)
let test_load_allocation () =
  let dir = tmpdir "alloc" in
  let ts =
    (fst (Odd_even.run ~np:32 ~seed:1 ~fault:Fault.No_fault ())).R.traces
  in
  let db = Eventdb.build ts in
  (match Eventdb.save ~dir db with
  | Ok () -> ()
  | Error m -> Alcotest.failf "save: %s" m);
  let digest = db.Eventdb.db_digest in
  let load () =
    match Eventdb.load ~dir ~digest with
    | Ok db -> db
    | Error m -> Alcotest.failf "load: %s" m
  in
  let words = float_of_int (Obj.reachable_words (Obj.repr (load ()))) in
  let calls = 20 in
  let before = Gc.minor_words () in
  for _ = 1 to calls do
    ignore (Sys.opaque_identity (load ()))
  done;
  let minor = (Gc.minor_words () -. before) /. float_of_int calls in
  if minor > 2. *. words then
    Alcotest.failf
      "Eventdb.load allocated %.0f minor words a load for a %.0f-word \
       database (bound: twice its words)"
      minor words

(* --- query semantics pinned on a deterministic workload -------------- *)

let test_between_markers () =
  let db = Eventdb.build (Lazy.force heat_traces) in
  (* the window from ExchangeHalo#1 to ExchangeHalo#2 holds exactly the
     sends of the first halo exchange *)
  match Query.parse "count MPI_Send on 3 between ExchangeHalo#1 and ExchangeHalo#2" with
  | Error m -> Alcotest.failf "parse: %s" m
  | Ok q -> (
    match Query.eval db q with
    | Ok (Query.R_count { total; _ }) ->
      Alcotest.(check int) "window count" 2 total
    | Ok _ -> Alcotest.fail "wrong result shape"
    | Error e -> Alcotest.failf "eval: %s" (Query.error_to_string e))

let test_under_function () =
  let db = Eventdb.build (Lazy.force heat_traces) in
  match Query.parse "sites MPI_Send under ExchangeHalo" with
  | Error m -> Alcotest.failf "parse: %s" m
  | Ok q -> (
    match Query.eval db q with
    | Ok (Query.R_sites { rows; _ }) ->
      Alcotest.(check bool) "has sites" true (rows <> []);
      List.iter
        (fun (_, caller, _, _) ->
          Alcotest.(check string) "caller" "ExchangeHalo" caller)
        rows
    | Ok _ -> Alcotest.fail "wrong result shape"
    | Error e -> Alcotest.failf "eval: %s" (Query.error_to_string e))

let test_unknown_thread_is_typed () =
  let db = Eventdb.build (Lazy.force heat_traces) in
  match Query.parse "count MPI_Send on 99" with
  | Error m -> Alcotest.failf "parse: %s" m
  | Ok q -> (
    match Query.eval db q with
    | Error (Query.Unknown_thread "99") -> ()
    | Error e -> Alcotest.failf "wrong error: %s" (Query.error_to_string e)
    | Ok _ -> Alcotest.fail "accepted an unknown thread")

(* A session keeps the event DBs it opens and hands the same value to
   every later query of the same digest, so evaluating a query must not
   change a DB: no symbol interned, no loop body added, no array
   touched. Every query shape, including the ones that fail on an
   unknown name, thread or loop, runs twice over a built and a loaded
   DB (and one against the other); the marshalled bytes of each DB are
   the same before and after. *)
let test_queries_leave_db_unchanged () =
  let dir = tmpdir "unchanged" in
  let built = Eventdb.build (Lazy.force heat_traces) in
  (match Eventdb.save ~dir built with
  | Ok () -> ()
  | Error m -> Alcotest.failf "save: %s" m);
  let loaded =
    match Eventdb.load ~dir ~digest:built.Eventdb.db_digest with
    | Ok db -> db
    | Error m -> Alcotest.failf "load: %s" m
  in
  let snapshot (db : Eventdb.t) = Marshal.to_string db [] in
  let before = List.map snapshot [ built; loaded ] in
  let queries =
    [ "count MPI_Send"; "count MPI_Send on 3 in 0..50";
      "count MPI_Send on 3 between ExchangeHalo#1 and ExchangeHalo#2";
      "count no_such_function"; "count MPI_Send on 99";
      "list MPI_Recv limit 4"; "list MPI_Recv on 1 in 10..90 limit 2";
      "list unseen_function between a and b";
      "sites MPI_Send"; "sites MPI_Send under ExchangeHalo";
      "sites MPI_Send under L0 on 2"; "sites MPI_Send under L999";
      "sites MPI_Send under never_called";
      "loops"; "loops on 2"; "loops on 77";
      "diverge"; "diverge on 1"; "diverge on 42";
      "threads"; "funcs"; "funcs limit 3" ]
  in
  for _ = 1 to 2 do
    List.iter
      (fun text ->
        match Query.parse text with
        | Error m -> Alcotest.failf "parse %S: %s" text m
        | Ok q ->
          List.iter
            (fun (db, against) -> ignore (Query.eval db ~against q))
            [ (built, loaded); (loaded, built) ])
      queries
  done;
  Alcotest.(check (list string)) "marshalled DBs" before
    (List.map snapshot [ built; loaded ])

(* adversarial parser coverage: whatever bytes arrive — NULs, huge
   integers, deeply repeated clauses — parse returns Ok or Error, never
   an exception *)

let query_bytes_gen =
  QCheck2.Gen.(string_size ~gen:(char_range '\000' '\255') (0 -- 300))

(* random walks over the grammar's own vocabulary, which get much
   deeper into the clause parser than raw bytes do *)
let query_tokens_gen =
  QCheck2.Gen.(
    let word =
      oneof
        [ oneofl
            [ "count"; "list"; "sites"; "loops"; "diverge"; "threads"; "funcs";
              "on"; "in"; "between"; "and"; "limit"; "under"; "MPI_Send" ];
          map (Printf.sprintf "L%d") (0 -- 99);
          return "L99999999999999999999999999999999";
          return "99999999999999999999999999999999";
          map (fun (a, b) -> Printf.sprintf "%d..%d" a b) (pair (0 -- 99) (0 -- 99));
          map (Printf.sprintf "f#%d") (0 -- 99);
          return "\000";
          string_size (0 -- 8) ]
    in
    map (String.concat " ") (list_size (0 -- 30) word))

let never_raises name gen =
  qtest ~count:500 name gen (fun text ->
      match Query.parse text with Ok _ | Error _ -> true)

let prop_parse_total_bytes = never_raises "parse total on raw bytes" query_bytes_gen
let prop_parse_total_tokens =
  never_raises "parse total on grammar-shaped tokens" query_tokens_gen

let test_parse_adversarial_pinned () =
  List.iter
    (fun (q, want) ->
      match Query.parse q with
      | Ok _ -> Alcotest.failf "accepted %S" q
      | Error e -> Alcotest.(check string) q want e)
    [ ( "sites f under L99999999999999999999999999999999",
        "loop label \"L99999999999999999999999999999999\" is out of range" );
      ( "list f limit 99999999999999999999999999999999",
        "limit: expected a number, got \"99999999999999999999999999999999\"" );
      ( "count f in 0..99999999999999999999999999999999",
        "bad interval \"0..99999999999999999999999999999999\" (want LO..HI, 0 \
         <= LO <= HI)" );
      ("count f\000g on", "'on' needs a thread label") ]

let () =
  Alcotest.run "eventdb"
    [ ( "oracle",
        [ prop_index_matches_oracle;
          prop_count_query_matches_oracle;
          prop_divergence_matches_oracle ] );
      ( "persistence",
        [ Alcotest.test_case "save/load roundtrip" `Quick
            test_save_load_roundtrip;
          Alcotest.test_case "corrupt index rebuilds" `Quick
            test_corrupt_index_rebuilds;
          Alcotest.test_case "warm open loads" `Quick test_open_warm;
          Alcotest.test_case "crafted index rebuilds" `Quick
            test_crafted_index_rebuilds;
          Alcotest.test_case "load allocation bound" `Quick
            test_load_allocation ] );
      ( "query",
        [ Alcotest.test_case "between markers" `Quick test_between_markers;
          Alcotest.test_case "under function" `Quick test_under_function;
          Alcotest.test_case "unknown thread typed" `Quick
            test_unknown_thread_is_typed;
          Alcotest.test_case "queries leave a DB unchanged" `Quick
            test_queries_leave_db_unchanged ] );
      ( "parser-adversarial",
        [ prop_parse_total_bytes;
          prop_parse_total_tokens;
          Alcotest.test_case "pinned error renders" `Quick
            test_parse_adversarial_pinned ] ) ]
