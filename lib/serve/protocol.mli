(** [difftrace-rpc/1] — the daemon's typed, versioned, line-delimited
    JSON protocol.

    One JSON object per LF-terminated line, at most {!max_line_bytes}
    bytes. Three message shapes:

    {v
    request   {"difftrace-rpc":1,"id":"r1","method":"compare","params":{...}}
    response  {"difftrace-rpc":1,"id":"r1","ok":{"method":"compare",...}}
              {"difftrace-rpc":1,"id":"r1","error":{"kind":"...","message":"..."}}
    event     {"difftrace-rpc":1,"event":"record.trace","done":3,"total":8}
    v}

    Requests carry a client-chosen [id] echoed on the response; events
    are pushed to subscribed clients and carry no id. Every [ok]
    payload includes an [output] field holding the report exactly as
    the equivalent one-shot CLI subcommand prints it.

    Everything here is {e total}: [decode_*] never raises on malformed,
    truncated, oversized or adversarial input — it returns the
    structured error the daemon answers with, carrying the offending
    request id when one can still be recovered from the broken line
    (see {!scan_id}). The full message reference lives in MANUAL.md;
    the executable spec is test/serve.t. *)

module Json = Difftrace_obs.Telemetry.Json
module Session = Difftrace_core.Session

(** Protocol version; bumped on any incompatible change. *)
val version : int

(** ["difftrace-rpc/1"], the banner form. *)
val version_string : string

(** Hard cap on one request line (1 MiB). Longer lines yield an
    [invalid-request] error response, never unbounded buffering. *)
val max_line_bytes : int

(** {2 Requests} *)

(** Analysis-configuration parameters; every field optional on the
    wire, defaulting to the CLI's defaults. [pc_engine = None] uses the
    daemon's default engine ([difftrace serve --engine]). [pc_mode]
    is ["exact"] or ["sketch"] (the MinHash/LSH JSM tier). *)
type config_params = {
  pc_filter : string;
  pc_custom : string list;
  pc_attrs : string;
  pc_k : int;
  pc_linkage : string;
  pc_engine : string option;
  pc_mode : string;
}

val default_config : config_params

(** [config_of_params ~default_engine p] — the {!Config.t}, or
    [Invalid] naming the bad field. *)
val config_of_params :
  default_engine:Difftrace_core.Engine.t ->
  config_params ->
  (Difftrace_core.Config.t, Session.error) result

type workload_spec = {
  ws_workload : string;
  ws_np : int;  (** ranks, at least 1 *)
  ws_seed : int;
  ws_fault : string;  (** {!Difftrace_simulator.Fault.of_string} syntax *)
  ws_all_images : bool;
}

(** [default_workload name] — workload [name] with every optional
    field at its wire default: np 8, seed 1, fault ["none"], main image
    only. The CLI's flags default to the same values. *)
val default_workload : string -> workload_spec

(** A [triage] request's default outlier limit (8). *)
val default_limit : int

(** Where a request's traces come from: a run registered by [record],
    an on-disk archive, a workload the daemon executes, or a
    foreign-format file ingested through a registered frontend
    ([{"file": "a.log", "frontend": "cilog"}] on the wire). *)
type source_spec =
  | Src_run of string
  | Src_archive of { dir : string; salvage : bool }
  | Src_workload of workload_spec
  | Src_ingest of { path : string; frontend : string }

(** One run of an n-way [vdiff] request: display name, trace source,
    condition axes ([axes] object on the wire, e.g.
    [{"fault":"f2","seed":"3"}]) and the bad/good verdict label. *)
type vdiff_run_spec = {
  vs_name : string;
  vs_source : source_spec;
  vs_axes : (string * string) list;
  vs_bad : bool;
}

type call =
  | Record of {
      rq_workload : workload_spec;
      rq_name : string option;  (** register warm under this name *)
      rq_out : string option;  (** archive here (default: state dir) *)
    }
  | Compare of {
      rq_normal : source_spec;
      rq_faulty : source_spec;
      rq_config : config_params;
      rq_diffnlr : string option;
    }
  | Analyze of {
      rq_normal : source_spec;
      rq_faulty : source_spec;
      rq_config : config_params;
      rq_diffnlr : string option;
    }
  | Triage of {
      rq_subject : source_spec;
      rq_config : config_params;
      rq_limit : int;  (** default {!default_limit} *)
    }
  | Query of {
      rq_q : string;  (** one event-DB query (grammar in MANUAL.md) *)
      rq_source : source_spec;
      rq_against : source_spec option;
          (** second run for two-run queries ([diverge]) *)
      rq_config : config_params;  (** only the engine matters here *)
    }
  | Vdiff of {
      rq_runs : vdiff_run_spec list;  (** at least two *)
      rq_trace : string option;
          (** trace label to align; default: first common label *)
      rq_config : config_params;
    }
  | Status
  | Subscribe of { rq_events : bool }
  | Shutdown

type request = { req_id : string; req_call : call }

(** The wire name of a call ("record", "compare", ...), read off the
    same per-method field table that encodes and decodes it. *)
val method_name : call -> string

(** {2 Responses} *)

type payload =
  | P_record of {
      pr_files : int;
      pr_traces : int;
      pr_events : int;
      pr_hung : int;
      pr_run : string option;
      pr_output : string;
    }
  | P_report of {
      pr_style : [ `Compare | `Analyze ];
      pr_bscore : float;
      pr_top_processes : int list;
      pr_top_threads : string list;
      pr_suspects : (string * float) list;
      pr_output : string;
    }
  | P_triage of {
      pr_outliers : (string * float * bool) list;  (** label, score, truncated *)
      pr_output : string;
    }
  | P_query of {
      pq_kind : string;  (** stable query-form tag ("count", "list", ...) *)
      pq_size : int;  (** matches / rows behind the rendered output *)
      pq_warm : bool;  (** every event DB came from the store, no rebuild *)
      pq_output : string;
    }
  | P_vdiff of {
      pv_nruns : int;
      pv_columns : int;  (** merged alignment width *)
      pv_regions : int;
      pv_warm : bool;  (** the alignment replayed from the store *)
      pv_condition : string option;
          (** the bad set's minimal discriminating condition *)
      pv_output : string;
    }
  | P_status of {
      pr_requests : int;
      pr_runs : (string * int) list;
      pr_summaries : int;
      pr_hits : int;
      pr_misses : int;
      pr_store : (int * int) option;
          (** store summaries, and matrices, which always reads 0: the
              store no longer holds matrices *)
      pr_output : string;
    }
  | P_subscribe of { pr_events : bool; pr_output : string }
  | P_shutdown of { pr_output : string }

(** The payload's CLI-identical report text. *)
val payload_output : payload -> string

type error_body = { err_kind : string; err_message : string }

val error_body_of : Session.error -> error_body

(** [rsp_id = None] answers a line whose id could not be recovered. *)
type response = { rsp_id : string option; rsp_body : (payload, error_body) result }

val error_response : id:string option -> Session.error -> response

(** {2 Events} *)

type event = { ev_name : string; ev_fields : (string * Json.t) list }

(** {2 Encode / decode — total, result-returning} *)

val encode_request : request -> string
val encode_response : response -> string
val encode_event : event -> string

(** [decode_request line] — the typed request, or the best-effort
    request id plus the error to answer with. Enforces
    {!max_line_bytes}. *)
val decode_request : string -> (request, string option * Session.error) result

type message = Response of response | Event of event

(** Client-side decode of one daemon line. *)
val decode_message : string -> (message, string) result

val decode_response : string -> (response, string) result

(** Best-effort ["id"] extraction from a line that failed to parse —
    a lexical scan, so a malformed or oversized request can still be
    answered with its own id. *)
val scan_id : string -> string option
