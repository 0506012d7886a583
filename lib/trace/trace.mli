(** A per-thread whole-program trace.

    One value of this type corresponds to one ParLOT trace file: the
    ordered call/return events of a single thread, identified by
    [(pid, tid)] — the paper labels these "process.thread", e.g. trace
    [6.4] is thread 4 of process 6. *)

type t = {
  pid : int;  (** MPI rank of the owning process *)
  tid : int;  (** thread within the process; 0 is the master thread *)
  events : Event.t array;
  truncated : bool;
      (** [true] when the thread never terminated (deadlock / hang):
          the trace ends mid-execution, exactly as a ParLOT file of a
          hung process would. *)
}

(** [make ~pid ~tid ~truncated events]. *)
val make : pid:int -> tid:int -> truncated:bool -> Event.t array -> t

(** [label t] is the paper's "pid.tid" label, e.g. ["6.4"]. Threads of a
    single-threaded run ([tid = 0]) are labeled just ["6"] when
    [short:true]. *)
val label : ?short:bool -> t -> string

(** [length t] is the number of events. *)
val length : t -> int

(** [call_ids t] is the sequence of function IDs of the [Call] events
    only, in order — the input to the NLR and FCA stages once returns
    have been filtered. *)
val call_ids : t -> int array

(** [distinct_functions t] is the number of distinct function IDs
    appearing in [t]. *)
val distinct_functions : t -> int

(** [stream_digest symtab t] — the MD5 of [t]'s events with their IDs
    renumbered in first-use order, followed by the names in that order.
    Two traces have equal digests exactly when they make the same calls
    and returns by name, whatever the order of their symbol tables, so
    runs recorded with differently ordered tables still share digests.
    The archive writes it on each manifest thread line, and the event
    database's digest is built from it. *)
val stream_digest : Symtab.t -> t -> Digest.t

(** [to_strings symtab t] renders each event. *)
val to_strings : Symtab.t -> t -> string list

(** [pp symtab ppf t] prints the label and events. *)
val pp : Symtab.t -> Format.formatter -> t -> unit
