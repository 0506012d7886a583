open Difftrace_simulator
open Runtime

type result = { global_champion : int; rounds : int array }

(* Ranks are encoded into the low bits of the champion-owner Allreduce
   so MPI_MINLOC can be expressed with a plain MIN. *)
let rank_bits = 6

let max_np = 1 lsl rank_bits

let run ?(np = 8) ?(workers = 4) ?(seed = 1) ?level ?(cities = 12)
    ?(seeds_per_worker = 40) ?(threshold = 3) ?max_steps ?jitter ~fault () =
  if np > max_np then invalid_arg "Ilcs.run: np too large";
  let rounds = Array.make np 0 in
  let best = ref max_int in
  let outcome =
    Runtime.run ~np ~seed ?level ?max_steps ?jitter (fun env ->
        Api.call env "main" (fun () ->
            Api.mpi_init env;
            let my_rank = Api.comm_rank env in
            ignore (Api.comm_size env);
            (* total number of CPUs / GPUs (Listing 1 lines 7-8) *)
            ignore (Api.reduce env ~root:0 ~op:Op_sum [| workers |]);
            ignore (Api.reduce env ~root:0 ~op:Op_sum [| 0 |]);
            (* identical problem instance on every rank *)
            let tsp = Tsp.make ~cities ~seed:4242 in
            ignore (Api.call env "CPU_Init" (fun () -> Tsp.n_cities tsp));
            Api.barrier env;
            let champ =
              Array.init (workers + 1) (fun t ->
                  Shm.cell ~protected_:true (Printf.sprintf "champ[%d]" t)
                    max_int)
            in
            let bcast_buffer = Shm.cell ~protected_:true "bcast_buffer" max_int in
            let cont = Shm.cell "cont" 1 in
            Api.parallel env ~num_threads:(workers + 1) (fun tenv ->
                let trank = Api.omp_get_thread_num tenv in
                if trank <> 0 then begin
                  (* worker thread: evaluate seeds, record improvements *)
                  let base = (my_rank * 7919) + (trank * 104729) + seed in
                  let i = ref 0 in
                  while Shm.read tenv cont = 1 && !i < seeds_per_worker do
                    let sd = base + !i in
                    let result =
                      Api.call tenv "CPU_Exec" (fun () -> Tsp.solve tsp ~seed:sd)
                    in
                    if result < Shm.read tenv champ.(trank) then begin
                      let update () =
                        Api.libc tenv "memcpy";
                        Shm.write tenv champ.(trank) result
                      in
                      let skip_critical =
                        match fault with
                        | Fault.No_critical { rank; thread } ->
                          rank = my_rank && thread = trank
                        | Fault.No_fault | Fault.Swap_send_recv _
                        | Fault.Deadlock_recv _ | Fault.Wrong_collective_size _
                        | Fault.Wrong_collective_op _ | Fault.Skip_function _ ->
                          false
                      in
                      if skip_critical then update () else Api.critical tenv update
                    end;
                    incr i;
                    Api.yield tenv
                  done
                end
                else begin
                  (* master thread: global reduction / broadcast rounds.
                     The loop condition depends only on globally agreed
                     values, so every master executes the same number of
                     collectives. *)
                  let prev_global = ref max_int in
                  let no_change = ref 0 in
                  while !no_change < threshold do
                    let local = ref max_int in
                    for t = 1 to workers do
                      let v = Shm.read tenv champ.(t) in
                      if v < !local then local := v
                    done;
                    let op =
                      match fault with
                      | Fault.Wrong_collective_op { rank } when rank = my_rank ->
                        Op_max
                      | Fault.Wrong_collective_op _ | Fault.No_fault
                      | Fault.Swap_send_recv _ | Fault.Deadlock_recv _
                      | Fault.Wrong_collective_size _ | Fault.No_critical _
                      | Fault.Skip_function _ -> Op_min
                    in
                    let count =
                      match fault with
                      | Fault.Wrong_collective_size { rank } when rank = my_rank ->
                        Some 2
                      | Fault.Wrong_collective_size _ | Fault.No_fault
                      | Fault.Swap_send_recv _ | Fault.Deadlock_recv _
                      | Fault.Wrong_collective_op _ | Fault.No_critical _
                      | Fault.Skip_function _ -> None
                    in
                    (* broadcast the global champion (value) *)
                    let g = Api.allreduce tenv ?count ~op [| !local |] in
                    let gchamp = g.(0) in
                    (* broadcast the global champion P_id *)
                    let enc =
                      ((if !local = max_int then (1 lsl 40) - 1 else !local)
                      lsl rank_bits)
                      lor my_rank
                    in
                    let gp = Api.allreduce tenv ~op:Op_min [| enc |] in
                    let champion_pid = gp.(0) land ((1 lsl rank_bits) - 1) in
                    if my_rank = champion_pid then
                      Api.critical tenv (fun () ->
                          Api.libc tenv "memcpy";
                          Shm.write tenv bcast_buffer !local);
                    ignore
                      (Api.bcast tenv ~root:champion_pid
                         [| Shm.read tenv bcast_buffer |]);
                    if gchamp < !prev_global then begin
                      prev_global := gchamp;
                      no_change := 0
                    end
                    else incr no_change;
                    rounds.(my_rank) <- rounds.(my_rank) + 1;
                    if my_rank = 0 && gchamp < !best then best := gchamp;
                    Api.yield tenv
                  done;
                  Shm.write tenv cont 0
                end);
            if my_rank = 0 then
              ignore (Api.call env "CPU_Output" (fun () -> ()));
            Api.mpi_finalize env))
  in
  (outcome, { global_champion = !best; rounds })
