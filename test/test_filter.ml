open Difftrace_filter
open Difftrace_trace

let mk_events symtab names =
  Array.of_list
    (List.map
       (fun n ->
         if String.length n > 4 && String.sub n 0 4 = "ret:" then
           Event.Return (Symtab.intern symtab (String.sub n 4 (String.length n - 4)))
         else Event.Call (Symtab.intern symtab n))
       names)

let apply_names filter names =
  let symtab = Symtab.create () in
  let evs = mk_events symtab names in
  Array.to_list (Array.map (Event.to_string symtab) (Filter.apply filter symtab evs))

let test_returns_filter () =
  let f = Filter.make ~drop_returns:true ~drop_plt:false [] in
  Alcotest.(check (list string)) "returns dropped" [ "a"; "b" ]
    (apply_names f [ "a"; "ret:a"; "b"; "ret:b" ]);
  let f = Filter.make ~drop_returns:false ~drop_plt:false [] in
  Alcotest.(check (list string)) "returns kept" [ "a"; "ret a" ]
    (apply_names f [ "a"; "ret:a" ])

let test_plt_filter () =
  let f = Filter.make ~drop_returns:false ~drop_plt:true [] in
  Alcotest.(check (list string)) "plt dropped" [ "memcpy" ]
    (apply_names f [ "memcpy.plt"; "memcpy" ]);
  let f = Filter.make ~drop_returns:false ~drop_plt:false [] in
  Alcotest.(check (list string)) "plt kept" [ "memcpy.plt"; "memcpy" ]
    (apply_names f [ "memcpy.plt"; "memcpy" ])

let sample =
  [ "main"; "MPI_Init"; "MPI_Send"; "MPI_Barrier"; "MPI_Allreduce"; "MPID_Send";
    "GOMP_parallel_start"; "GOMP_critical_start"; "GOMP_critical_end";
    "omp_get_thread_num"; "memcpy"; "malloc"; "socket"; "poll"; "sched_yield";
    "strlen"; "pthread_mutex_lock"; "CPU_Exec" ]

let keeps k = apply_names (Filter.make ~drop_returns:true ~drop_plt:true [ k ]) sample

let test_mpi_all () =
  Alcotest.(check (list string)) "MPI_ prefix"
    [ "MPI_Init"; "MPI_Send"; "MPI_Barrier"; "MPI_Allreduce" ]
    (keeps Filter.Mpi_all)

let test_mpi_collectives () =
  Alcotest.(check (list string)) "collectives" [ "MPI_Barrier"; "MPI_Allreduce" ]
    (keeps Filter.Mpi_collectives)

let test_mpi_send_recv () =
  Alcotest.(check (list string)) "send/recv" [ "MPI_Send" ] (keeps Filter.Mpi_send_recv)

let test_mpi_internal () =
  Alcotest.(check (list string)) "MPID frames" [ "MPID_Send" ] (keeps Filter.Mpi_internal)

let test_omp_all () =
  Alcotest.(check (list string)) "GOMP/omp"
    [ "GOMP_parallel_start"; "GOMP_critical_start"; "GOMP_critical_end";
      "omp_get_thread_num" ]
    (keeps Filter.Omp_all)

let test_omp_critical () =
  Alcotest.(check (list string)) "critical only"
    [ "GOMP_critical_start"; "GOMP_critical_end" ]
    (keeps Filter.Omp_critical)

let test_omp_mutex () =
  Alcotest.(check (list string)) "mutex" [ "pthread_mutex_lock" ] (keeps Filter.Omp_mutex)

let test_sys_categories () =
  Alcotest.(check (list string)) "memory" [ "memcpy"; "malloc" ] (keeps Filter.Sys_memory);
  Alcotest.(check (list string)) "network" [ "socket"; "sched_yield" ]
    (keeps Filter.Sys_network);
  Alcotest.(check (list string)) "poll" [ "poll"; "sched_yield" ] (keeps Filter.Sys_poll);
  Alcotest.(check (list string)) "string" [ "strlen" ] (keeps Filter.Sys_string)

let test_custom_regex () =
  Alcotest.(check (list string)) "regex" [ "main"; "CPU_Exec" ]
    (keeps (Filter.Custom "^main$|^CPU_"))

let test_everything () =
  Alcotest.(check int) "identity keep" (List.length sample)
    (List.length (keeps Filter.Everything))

let test_union_of_keeps () =
  let f = Filter.make [ Filter.Mpi_collectives; Filter.Sys_memory ] in
  Alcotest.(check (list string)) "union"
    [ "MPI_Barrier"; "MPI_Allreduce"; "memcpy"; "malloc" ]
    (apply_names f sample)

let test_no_keeps_means_all () =
  let f = Filter.make [] in
  Alcotest.(check int) "only drops apply" (List.length sample)
    (List.length (apply_names f sample))

let test_spec_roundtrip () =
  let specs =
    [ "11.mpiall"; "01.mem.ompcrit"; "10.mpicol.cust"; "11.all"; "00.poll.str" ]
  in
  List.iter
    (fun s ->
      Alcotest.(check string) ("roundtrip " ^ s) s (Filter.name (Filter.of_spec s)))
    specs

let test_spec_custom_binding () =
  let f = Filter.of_spec ~custom:[ "^CPU_" ] "11.cust" in
  Alcotest.(check bool) "custom bound" true (Filter.matches f "CPU_Exec");
  Alcotest.(check bool) "custom excludes" false (Filter.matches f "main")

let test_spec_errors () =
  Alcotest.check_raises "bad digits" (Invalid_argument "Filter.of_spec: bad drop digits in 2x.mpiall")
    (fun () -> ignore (Filter.of_spec "2x.mpiall"));
  Alcotest.check_raises "unknown keep" (Invalid_argument "Filter.of_spec: unknown component nope")
    (fun () -> ignore (Filter.of_spec "11.nope"));
  (* a regex that does not compile is refused at parse time, named *)
  List.iter
    (fun (custom, spec, expect) ->
      Alcotest.(check (result string string)) spec expect
        (Result.map Filter.name (Filter.parse ~custom spec)))
    [ ([ "(" ], "11.cust", Error "Filter.of_spec: bad custom regex \"(\"");
      ([ "^CPU_"; "[" ], "11.cust.cust",
        Error "Filter.of_spec: bad custom regex \"[\"");
      ([ "^CPU_" ], "11.cust", Ok "11.cust");
      ([], "", Error "Filter.of_spec: bad drop digits in ") ]

let test_apply_set_shares_decision () =
  let symtab = Symtab.create () in
  let evs = mk_events symtab [ "MPI_Send"; "work"; "ret:MPI_Send" ] in
  let ts =
    Trace_set.create symtab
      [ Trace.make ~pid:0 ~tid:0 ~truncated:false evs;
        Trace.make ~pid:1 ~tid:0 ~truncated:false evs ]
  in
  let ts' = Filter.apply_set (Filter.make [ Filter.Mpi_all ]) ts in
  Alcotest.(check int) "both traces filtered" 2 (Trace_set.total_events ts')

let test_predefined_catalog () =
  Alcotest.(check int) "Table I has 15 rows" 15 (List.length Filter.predefined)

let () =
  Alcotest.run "filter"
    [ ( "primary",
        [ Alcotest.test_case "returns" `Quick test_returns_filter;
          Alcotest.test_case "plt" `Quick test_plt_filter ] );
      ( "categories",
        [ Alcotest.test_case "mpi all" `Quick test_mpi_all;
          Alcotest.test_case "mpi collectives" `Quick test_mpi_collectives;
          Alcotest.test_case "mpi send/recv" `Quick test_mpi_send_recv;
          Alcotest.test_case "mpi internal" `Quick test_mpi_internal;
          Alcotest.test_case "omp all" `Quick test_omp_all;
          Alcotest.test_case "omp critical" `Quick test_omp_critical;
          Alcotest.test_case "omp mutex" `Quick test_omp_mutex;
          Alcotest.test_case "system" `Quick test_sys_categories;
          Alcotest.test_case "custom regex" `Quick test_custom_regex;
          Alcotest.test_case "everything" `Quick test_everything;
          Alcotest.test_case "union of keeps" `Quick test_union_of_keeps;
          Alcotest.test_case "no keeps = all" `Quick test_no_keeps_means_all ] );
      ( "specs",
        [ Alcotest.test_case "name/of_spec roundtrip" `Quick test_spec_roundtrip;
          Alcotest.test_case "custom binding" `Quick test_spec_custom_binding;
          Alcotest.test_case "errors" `Quick test_spec_errors ] );
      ( "sets",
        [ Alcotest.test_case "apply_set" `Quick test_apply_set_shares_decision;
          Alcotest.test_case "Table I catalog" `Quick test_predefined_catalog ] ) ]
