(** The bundled-workload table: the one place that maps a workload
    name onto its simulator program, so the CLI, the daemon and
    campaign cells cannot disagree about what "ilcs" runs. Adding a
    bundled workload is one entry here. *)

(** The bundled names, sorted: ["heat"; "heat2d"; "ilcs"; "lulesh";
    "oddeven"]. *)
val names : string list

(** [max_np name] — the largest rank count workload [name] accepts
    below the runner's own cap: [Some 64] for ilcs, [None] for the
    other bundled workloads and for names that are not bundled. *)
val max_np : string -> int option

(** [run ?level ?max_steps name ~np ~seed ~fault] executes workload
    [name] once with [np] ranks; [None] when [name] is not bundled.
    heat2d arranges its [np] ranks as an [np/2 × 2] grid ([1 × 1] for
    [np = 1]). Exceptions escaping the program propagate. *)
val run :
  ?level:Difftrace_parlot.Tracer.level ->
  ?max_steps:int ->
  string ->
  np:int ->
  seed:int ->
  fault:Difftrace_simulator.Fault.t ->
  Difftrace_simulator.Runtime.outcome option
