(* DiffTrace as a playground (paper §II-A): bring your own workload,
   your own fault, your own filters and attributes.

   The workload here is a token-ring pipeline: rank 0 injects tokens,
   every rank transforms and forwards them, rank 0 collects. The
   "upgrade" (our faulty version) makes rank 3 drop every third token —
   a silent semantic change: nothing crashes, the program completes,
   only the result and the looping behaviour change. DiffTrace's
   relative-debugging loop localizes it. *)

open Difftrace
module R = Runtime
module F = Filter
module A = Attributes

let ring ~tokens ~drop_at env =
  Api.call env "main" (fun () ->
      Api.mpi_init env;
      let rank = Api.comm_rank env in
      let np = Api.comm_size env in
      let next = (rank + 1) mod np and prev = (rank + np - 1) mod np in
      Api.call env "pipelineLoop" (fun () ->
          if rank = 0 then begin
            for t = 1 to tokens do
              Api.call env "injectToken" (fun () ->
                  Api.send env ~dst:next [| t |])
            done;
            (* collect whatever survives; a sentinel closes the ring *)
            Api.send env ~dst:next [| -1 |];
            let closed = ref false in
            while not !closed do
              let v = Api.recv env ~src:prev () in
              if v.(0) = -1 then closed := true
              else Api.call env "collectToken" (fun () -> ())
            done
          end
          else begin
            let closed = ref false in
            while not !closed do
              let v = Api.recv env ~src:prev () in
              if v.(0) = -1 then begin
                Api.send env ~dst:next v;
                closed := true
              end
              else begin
                let dropped =
                  match drop_at with
                  | Some (r, modulo) -> r = rank && v.(0) mod modulo = 0
                  | None -> false
                in
                if dropped then Api.call env "auditToken" (fun () -> ())
                else
                  Api.call env "transformToken" (fun () ->
                      Api.send env ~dst:next [| v.(0) * 2 |])
              end
            done
          end);
      Api.mpi_finalize env)

let () =
  let np = 6 and tokens = 12 in
  let normal = R.run ~np ~seed:3 (ring ~tokens ~drop_at:None) in
  let faulty = R.run ~np ~seed:3 (ring ~tokens ~drop_at:(Some (3, 3))) in
  Printf.printf "normal deadlocks: %d, faulty deadlocks: %d (silent bug!)\n"
    (List.length normal.R.deadlocked)
    (List.length faulty.R.deadlocked);

  (* a custom filter keeping only this application's own verbs *)
  let app_filter =
    F.make [ F.Custom "Token$"; F.Mpi_send_recv ]
  in
  (match
     Ranking.sweep ~filters:[ app_filter ]
       ~attrs:
         [ { A.granularity = A.Single; freq_mode = A.Actual };
           { A.granularity = A.Double; freq_mode = A.Actual } ]
       ~normal:normal.R.traces ~faulty:faulty.R.traces ()
   with
  | Ok s -> print_string (Ranking.render s.Ranking.rows)
  | Error e -> prerr_endline (Session.error_to_string e));

  let c =
    Pipeline.compare_runs
      (Config.default
      |> Config.with_filter app_filter
      |> Config.with_attrs { A.granularity = A.Single; freq_mode = A.Actual })
      ~normal:normal.R.traces ~faulty:faulty.R.traces
  in
  let suspect, score = c.Pipeline.suspects.(0) in
  Printf.printf "top suspect: rank %s (row change %.2f)\n" suspect score;
  match Pipeline.find_diffnlr c suspect with
  | Ok d ->
    print_string
      (Diffnlr.render
         ~title:(Printf.sprintf "diffNLR(%s) — the dropped tokens" suspect)
         d)
  | Error e -> prerr_endline (Pipeline.lookup_error_to_string e)
