(** Typed fault injection.

    The paper evaluates DiffTrace by planting faults by hand (§II-G,
    §IV, §V). This module makes each of those faults a first-class
    value so workloads can be run as [normal = run No_fault] vs.
    [faulty = run f] with everything else identical — the precondition
    for trace diffing. *)

type t =
  | No_fault
  | Swap_send_recv of { rank : int; after_iter : int }
      (** §II-G [swapBug]: swap the Recv;Send order in [rank] after
          iteration [after_iter], risking head-to-head sends under a low
          eager limit. *)
  | Deadlock_recv of { rank : int; after_iter : int }
      (** §II-G [dlBug]: [rank] posts a receive nobody sends, an actual
          deadlock at the same location. *)
  | Wrong_collective_size of { rank : int }
      (** §IV-C: [rank] calls MPI_Allreduce with a wrong count; the
          collective can never complete — a real deadlock. *)
  | Wrong_collective_op of { rank : int }
      (** §IV-D: [rank] passes MPI_MAX where MPI_MIN was intended; the
          run terminates but computes the worst answer. *)
  | No_critical of { rank : int; thread : int }
      (** §IV-B: OpenMP thread [thread] of process [rank] performs its
          shared-memory update outside the critical section. *)
  | Skip_function of { rank : int; func : string }
      (** §V: [rank] never invokes [func] (LULESH: LagrangeLeapFrog). *)

val equal : t -> t -> bool

(** [to_string f] — compact human-readable form, e.g.
    ["swapBug(rank=5,after=7)"]. *)
val to_string : t -> string

(** [of_string s] parses [to_string]'s output; malformed input is
    [Error "Fault.of_string: S"]. *)
val of_string : string -> (t, string) result

val pp : Format.formatter -> t -> unit
