(** ILCS — Iterative Local Champion Search framework (paper §IV,
    Listing 1) running TSP 2-opt as its user code.

    Per rank: a master thread (OpenMP rank 0) plus [workers] worker
    threads. Workers repeatedly evaluate seeds with [CPU_Exec] (TSP
    2-opt) and update their local champion under an OpenMP critical
    section; the master repeatedly Allreduces the local champion value
    and champion owner, has the owner fill the broadcast buffer under
    the critical section, Bcasts it, and terminates the search once the
    global champion has not improved for [threshold] rounds — a
    condition computed from global values only, so all masters agree on
    the round count.

    Supported faults (the paper's three ILCS experiments):
    - [No_critical {rank; thread}] — that worker updates its champion
      without the critical section (§IV-B);
    - [Wrong_collective_size {rank}] — that master passes a wrong count
      to the first Allreduce: real deadlock (§IV-C);
    - [Wrong_collective_op {rank}] — that master passes MAX for MIN;
      since the simulator applies rank 0's operator, injecting into
      rank 0 silently flips the search's semantics (§IV-D). *)

(** The largest rank count [run] accepts: 64. Ranks are packed into the
    low 6 bits of the champion-owner Allreduce. *)
val max_np : int

(** Result summary of a clean run. *)
type result = {
  global_champion : int;  (** best tour length found *)
  rounds : int array;     (** per-rank master round count *)
}

val run :
  ?np:int ->
  ?workers:int ->
  ?seed:int ->
  ?level:Difftrace_parlot.Tracer.level ->
  ?cities:int ->
  ?seeds_per_worker:int ->
  ?threshold:int ->
  ?max_steps:int ->
  ?jitter:float ->
  fault:Difftrace_simulator.Fault.t ->
  unit ->
  Difftrace_simulator.Runtime.outcome * result
