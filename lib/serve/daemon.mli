(** The resident analysis daemon.

    One daemon holds one {!Difftrace_core.Session.t} — one optional
    {!Difftrace_core.Store}, one {!Difftrace_core.Memo}, the registered
    runs — warm across requests, and speaks [difftrace-rpc/1]
    ({!Protocol}) over stdio or a Unix-domain socket.

    The protocol core is deliberately transport-free: {!on_line} maps
    one request line to emitted response/event lines, so tests drive a
    daemon (multiple interleaved clients included) without sockets or
    processes. {!serve_stdio} and {!serve_socket} are thin transports
    over it.

    Requests are handled one at a time, in arrival order — the session
    state is single-threaded by design — so concurrency means many
    clients multiplexed over one warm engine, never data races. Each
    request runs under a telemetry span [rpc.<method>] and bumps the
    [rpc.requests] / [rpc.errors] counters, so [--profile-json] yields
    a per-method profile of the daemon's lifetime. *)

module Session = Difftrace_core.Session

type t

(** [create ?store ?state_dir ~default_engine ()]. [state_dir] is where
    [record] archives runs when the request names no directory
    ([<state_dir>/runs/<name>]); without it, unarchived records are
    registered in memory only. [default_engine] serves requests whose
    config names no engine. *)
val create :
  ?store:Difftrace_core.Store.t ->
  ?state_dir:string ->
  default_engine:Difftrace_core.Engine.t ->
  unit ->
  t

val session : t -> Session.t

(** Requests decoded and dispatched so far (the in-flight request
    included, so [status] counts itself). *)
val requests_served : t -> int

(** [run_workload ws] — execute [ws] on the simulator: the one runner
    behind [record], workload sources and the CLI's run, export,
    explore, table, autotune and report. Total: a bad fault spec or
    [np < 1] is [Invalid], an unknown name [Unknown_workload], and an
    exception from the run [Run_failed]. *)
val run_workload :
  Protocol.workload_spec ->
  (Difftrace_simulator.Runtime.outcome, Session.error) result

(** One line to deliver to one client. Broadcasts to subscribers are
    pre-expanded into one [Send] per subscribed client. *)
type directive = Send of { client : int; line : string }

(** [handle t ~client ~emit call] runs one call against the daemon's
    session — the one request path behind both {!on_line} and the
    one-shot CLI subcommands. Total: bad input is a typed error before
    anything runs, and an exception escaping the session is a bug,
    answered as [Internal] with its backtrace logged to stderr. [emit]
    receives the events the call broadcasts to subscribers. A call
    whose every source is a [file] source runs under
    {!Difftrace_core.Config.foreign} of its config (the [11.all] default
    filter). Unlike {!on_line} it opens no telemetry span, counts no
    request and flushes nothing; the caller owns those. *)
val handle :
  t ->
  client:int ->
  emit:(directive -> unit) ->
  Protocol.call ->
  (Protocol.payload, Session.error) result

(** [on_line t ~client ~emit line] handles one request line from
    [client]: decodes it, dispatches, and emits the response (and any
    events due to subscribers) via [emit]. Total — a malformed,
    oversized or unknown-method line emits a structured error response
    carrying the best-effort request id and the daemon keeps serving.
    [`Shutdown] is returned only for a [shutdown] request, after its
    response was emitted and the store flushed. *)
val on_line :
  t -> client:int -> emit:(directive -> unit) -> string -> [ `Continue | `Shutdown ]

(** Forget a disconnected client (drops its event subscription). *)
val on_disconnect : t -> client:int -> unit

(** {2 Transports} *)

(** Serve requests from stdin (one client, id 0), responses to stdout.
    Returns on [shutdown] or EOF (both flush the store). The transport
    of the cram transcripts. *)
val serve_stdio : t -> unit

(** Bind [path] (removing a stale socket file), then accept and
    multiplex clients with a single-threaded select loop until a
    [shutdown] request arrives. A client whose unterminated line
    exceeds {!Protocol.max_line_bytes} gets an error response and the
    oversized line is discarded, not buffered. A raising accept
    ([ECONNABORTED], [EMFILE], [EINTR], ...) never stops the loop:
    the failure is counted by [rpc.accept_errors] and the connected
    clients keep being served. [accept] substitutes the accept call —
    a test hook for injecting exactly such failures. *)
val serve_socket :
  ?accept:(Unix.file_descr -> Unix.file_descr * Unix.sockaddr) ->
  t ->
  path:string ->
  unit
