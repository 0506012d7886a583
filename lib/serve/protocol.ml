(* difftrace-rpc/1 — total encode/decode over the obs JSON machinery.
   See protocol.mli for the wire contract; test/serve.t is the
   executable transcript of it. *)

module Json = Difftrace_obs.Telemetry.Json
module Session = Difftrace_core.Session
module Config = Difftrace_core.Config
module Engine = Difftrace_core.Engine
module Filter = Difftrace_filter.Filter
module Attributes = Difftrace_fca.Attributes
module Linkage = Difftrace_cluster.Linkage

let version = 1
let version_string = Printf.sprintf "difftrace-rpc/%d" version
let max_line_bytes = 1 lsl 20

let ( let* ) = Result.bind

(* --- typed surface --------------------------------------------------- *)

type config_params = {
  pc_filter : string;
  pc_custom : string list;
  pc_attrs : string;
  pc_k : int;
  pc_linkage : string;
  pc_engine : string option;
  pc_mode : string;
}

let default_config =
  { pc_filter = "11.mpiall";
    pc_custom = [];
    pc_attrs = "sing.noFreq";
    pc_k = 10;
    pc_linkage = "ward";
    pc_engine = None;
    pc_mode = "exact" }

let config_of_params ~default_engine p =
  let invalid r = Result.map_error (fun m -> Session.Invalid m) r in
  let* engine =
    match p.pc_engine with
    | None -> Ok default_engine
    | Some s -> invalid (Engine.of_string s)
  in
  let* filter = invalid (Filter.parse ~custom:p.pc_custom p.pc_filter) in
  let* attrs = invalid (Attributes.parse p.pc_attrs) in
  let* () = invalid (Config.check_k p.pc_k) in
  let* linkage = invalid (Linkage.method_of_string p.pc_linkage) in
  let* mode = invalid (Config.mode_of_string p.pc_mode) in
  Ok (Config.make ~filter ~attrs ~k:p.pc_k ~linkage ~engine ~mode ())

type workload_spec = {
  ws_workload : string;
  ws_np : int;
  ws_seed : int;
  ws_fault : string;
  ws_all_images : bool;
}

let default_workload ws_workload =
  { ws_workload; ws_np = 8; ws_seed = 1; ws_fault = "none";
    ws_all_images = false }

let default_limit = 8

type source_spec =
  | Src_run of string
  | Src_archive of { dir : string; salvage : bool }
  | Src_workload of workload_spec
  | Src_ingest of { path : string; frontend : string }

type vdiff_run_spec = {
  vs_name : string;
  vs_source : source_spec;
  vs_axes : (string * string) list;
  vs_bad : bool;
}


type call =
  | Record of {
      rq_workload : workload_spec;
      rq_name : string option;
      rq_out : string option;
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
      rq_limit : int;
    }
  | Query of {
      rq_q : string;
      rq_source : source_spec;
      rq_against : source_spec option;
      rq_config : config_params;
    }
  | Vdiff of {
      rq_runs : vdiff_run_spec list;
      rq_trace : string option;
      rq_config : config_params;
    }
  | Status
  | Subscribe of { rq_events : bool }
  | Shutdown

type request = { req_id : string; req_call : call }

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
      pr_outliers : (string * float * bool) list;
      pr_output : string;
    }
  | P_query of {
      pq_kind : string;
      pq_size : int;
      pq_warm : bool;
      pq_output : string;
    }
  | P_vdiff of {
      pv_nruns : int;
      pv_columns : int;
      pv_regions : int;
      pv_warm : bool;
      pv_condition : string option;
      pv_output : string;
    }
  | P_status of {
      pr_requests : int;
      pr_runs : (string * int) list;
      pr_summaries : int;
      pr_hits : int;
      pr_misses : int;
      pr_store : (int * int) option;
      pr_output : string;
    }
  | P_subscribe of { pr_events : bool; pr_output : string }
  | P_shutdown of { pr_output : string }

let payload_output = function
  | P_record { pr_output; _ }
  | P_report { pr_output; _ }
  | P_triage { pr_output; _ }
  | P_status { pr_output; _ }
  | P_subscribe { pr_output; _ }
  | P_shutdown { pr_output } -> pr_output
  | P_query { pq_output; _ } -> pq_output
  | P_vdiff { pv_output; _ } -> pv_output

type error_body = { err_kind : string; err_message : string }

let error_body_of e =
  { err_kind = Session.error_kind e; err_message = Session.error_to_string e }

type response = {
  rsp_id : string option;
  rsp_body : (payload, error_body) result;
}

let error_response ~id e = { rsp_id = id; rsp_body = Error (error_body_of e) }

type event = { ev_name : string; ev_fields : (string * Json.t) list }

(* --- one field list per message ---------------------------------------- *)

(* Every wire object is described once, as a list of fields: encoding
   writes them in list order, decoding reads them back in the same
   order and the first bad field wins. A message's values travel as a
   heterogeneous list ([H.t]) whose shape its field list fixes, so
   [inj]/[prj] are the only per-message code. *)

module H = struct
  type _ t = [] : unit t | ( :: ) : 'a * 'b t -> ('a * 'b) t
end

module F = struct
  (* one JSON value both ways; [dec ctx name j] names the field at fault *)
  type 'a codec = {
    enc : 'a -> Json.t;
    dec : string -> string -> Json.t -> ('a, string) result;
  }

  type 'a field =
    | Req of { name : string; what : string; codec : 'a codec }
        (* absent or null: "missing <what>" *)
    | Opt of { name : string; codec : 'a codec; default : 'a }
    | Inline of 'a shape  (* another shape's fields, flattened in *)

  and _ t = [] : unit t | ( :: ) : 'a field * 'b t -> ('a * 'b) t

  (* an object shape; for one constructor of a sum type, [name] is its
     wire tag and [prj] answers [None] for the other constructors *)
  and 'a shape =
    | Shape : {
        name : string;
        fields : 'v t;
        inj : 'v H.t -> 'a;
        prj : 'a -> 'v H.t option;
      }
        -> 'a shape
end

let fail fmt = Printf.ksprintf (fun m -> Error m) fmt
let wrong_type ctx name = fail "%s: field %S has the wrong type" ctx name

let rec enc_fields : type v. v F.t -> v H.t -> (string * Json.t) list =
 fun fs vs ->
  match (fs, vs) with
  | [], [] -> []
  | (Req { name; codec; _ } | Opt { name; codec; _ }) :: fs, v :: vs ->
    (name, codec.enc v) :: enc_fields fs vs
  | Inline s :: fs, v :: vs -> snd (encode [ s ] v) @ enc_fields fs vs

(* the tag of the shape that projects [x], and [x]'s fields *)
and encode : type a. a F.shape list -> a -> string * (string * Json.t) list =
 fun shapes x ->
  Option.get
    (List.find_map
       (fun (F.Shape s) ->
         Option.map (fun vs -> (s.name, enc_fields s.fields vs)) (s.prj x))
       shapes)

let rec dec_fields :
    type v. string -> Json.t -> v F.t -> (v H.t, string) result =
 fun ctx obj -> function
  | [] -> Ok []
  | f :: fs ->
    let* v = dec_field ctx obj f in
    let* vs = dec_fields ctx obj fs in
    Ok H.(v :: vs)

and dec_field : type a. string -> Json.t -> a F.field -> (a, string) result =
 fun ctx obj -> function
  | Req { name; what; codec } -> (
    match Json.member name obj with
    | None | Some Json.Null -> fail "%s: missing %s %S" ctx what name
    | Some j -> codec.dec ctx name j)
  | Opt { name; codec; default } -> (
    match Json.member name obj with
    | None | Some Json.Null -> Ok default
    | Some j -> codec.dec ctx name j)
  | Inline s -> decode ctx obj s

and decode : type a. string -> Json.t -> a F.shape -> (a, string) result =
 fun ctx obj (F.Shape s) -> Result.map s.inj (dec_fields ctx obj s.fields)

let find_shape shapes tag =
  List.find_opt (fun (F.Shape s) -> s.name = tag) shapes

let shape_names shapes = List.map (fun (F.Shape s) -> s.name) shapes
let case name fields inj prj = F.Shape { name; fields; inj; prj }

let record fields inj prj =
  F.Shape { name = ""; fields; inj; prj = (fun x -> Some (prj x)) }

let req ?(what = "field") name codec = F.Req { name; what; codec }
let opt name codec default = F.Opt { name; codec; default }

(* --- codecs ----------------------------------------------------------- *)

let scalar enc conv =
  { F.enc;
    dec =
      (fun ctx name j ->
        match conv j with Some x -> Ok x | None -> wrong_type ctx name) }

let str =
  scalar (fun s -> Json.String s) (function Json.String s -> Some s | _ -> None)

let int =
  scalar
    (fun i -> Json.Int i)
    (function
      | Json.Int i -> Some i
      | Json.Float f when Float.is_integer f -> Some (int_of_float f)
      | _ -> None)

let float =
  scalar
    (fun f -> Json.Float f)
    (function
      | Json.Float f -> Some f
      | Json.Int i -> Some (float_of_int i)
      | _ -> None)

let bool =
  scalar (fun b -> Json.Bool b) (function Json.Bool b -> Some b | _ -> None)

(* [None] is null, which an [opt] field reads as its default *)
let nullable c =
  { F.enc = (function None -> Json.Null | Some v -> c.F.enc v);
    dec = (fun ctx name j -> Result.map Option.some (c.F.dec ctx name j)) }

(* a nested object whose errors name their own path, [ctx.name] *)
let obj s =
  { F.enc = (fun x -> Json.Obj (snd (encode [ s ] x)));
    dec =
      (fun ctx name -> function
        | Json.Obj _ as o -> decode (ctx ^ "." ^ name) o s
        | _ -> wrong_type ctx name) }

(* any error inside reads as this field having the wrong type *)
let opaque c =
  { c with
    F.dec =
      (fun ctx name j ->
        match c.F.dec ctx name j with
        | Ok _ as r -> r
        | Error _ -> wrong_type ctx name) }

let elements ctx name dec = function
  | Json.List l ->
    let rec go acc i = function
      | [] -> Ok (List.rev acc)
      | j :: tl ->
        let* x = dec i j in
        go (x :: acc) (i + 1) tl
    in
    go [] 0 l
  | _ -> wrong_type ctx name

let list c =
  let c = opaque c in
  { F.enc = (fun l -> Json.List (List.map c.F.enc l));
    dec = (fun ctx name -> elements ctx name (fun _ -> c.F.dec ctx name)) }

(* a list of objects, element [i]'s errors naming it [ctx.name[i]] *)
let objects s =
  { F.enc = (fun l -> Json.List (List.map (obj s).F.enc l));
    dec =
      (fun ctx name ->
        elements ctx name (fun i j ->
            let ctx = Printf.sprintf "%s.%s[%d]" ctx name i in
            match j with
            | Json.Obj _ -> decode ctx j s
            | _ -> fail "%s: must be an object" ctx)) }

let axes =
  scalar
    (fun l -> Json.Obj (List.map (fun (k, v) -> (k, Json.String v)) l))
    (function
      | Json.Obj fields ->
        let rec go acc = function
          | [] -> Some (List.rev acc)
          | (k, Json.String v) :: tl -> go ((k, v) :: acc) tl
          | _ -> None
        in
        go [] fields
      | _ -> None)

let pair a b =
  obj (record F.[ a; b ] (fun H.[ x; y ] -> (x, y)) (fun (x, y) -> H.[ x; y ]))

(* --- the messages ------------------------------------------------------ *)

let workload =
  let d = default_workload "" in
  record
    F.[ req "workload" str; opt "np" int d.ws_np; opt "seed" int d.ws_seed;
        opt "fault" str d.ws_fault; opt "all_images" bool d.ws_all_images ]
    (fun H.[ ws_workload; ws_np; ws_seed; ws_fault; ws_all_images ] ->
      { ws_workload; ws_np; ws_seed; ws_fault; ws_all_images })
    (fun w ->
      H.[ w.ws_workload; w.ws_np; w.ws_seed; w.ws_fault; w.ws_all_images ])

let config =
  let d = default_config in
  record
    F.[ opt "filter" str d.pc_filter; opt "custom" (list str) d.pc_custom;
        opt "attrs" str d.pc_attrs; opt "k" int d.pc_k;
        opt "linkage" str d.pc_linkage; opt "engine" (nullable str) d.pc_engine;
        opt "mode" str d.pc_mode ]
    (fun H.[ pc_filter; pc_custom; pc_attrs; pc_k; pc_linkage; pc_engine;
             pc_mode ] ->
      { pc_filter; pc_custom; pc_attrs; pc_k; pc_linkage; pc_engine; pc_mode })
    (fun p ->
      H.[ p.pc_filter; p.pc_custom; p.pc_attrs; p.pc_k; p.pc_linkage;
          p.pc_engine; p.pc_mode ])

(* each source kind is tagged by the key naming it *)
let sources =
  [ case "run" F.[ req "run" str ]
      (fun H.[ r ] -> Src_run r)
      (function Src_run r -> Some H.[ r ] | _ -> None);
    case "archive" F.[ req "archive" str; opt "salvage" bool false ]
      (fun H.[ dir; salvage ] -> Src_archive { dir; salvage })
      (function
        | Src_archive { dir; salvage } -> Some H.[ dir; salvage ] | _ -> None);
    case "workload" F.[ Inline workload ]
      (fun H.[ ws ] -> Src_workload ws)
      (function Src_workload ws -> Some H.[ ws ] | _ -> None);
    case "file" F.[ req "file" str; req "frontend" str ]
      (fun H.[ path; frontend ] -> Src_ingest { path; frontend })
      (function
        | Src_ingest { path; frontend } -> Some H.[ path; frontend ]
        | _ -> None) ]

let source =
  { F.enc = (fun s -> Json.Obj (snd (encode sources s)));
    dec =
      (fun ctx name -> function
        (* shorthand: a bare string names a registered run *)
        | Json.String s -> Ok (Src_run s)
        | Json.Obj _ as o -> (
          let tag =
            match
              ( Json.member "run" o,
                Json.member "archive" o,
                Json.member "workload" o,
                Json.member "file" o )
            with
            | Some (Json.String _), None, None, None -> Some "run"
            | None, Some (Json.String _), None, None -> Some "archive"
            | None, None, Some _, None -> Some "workload"
            | None, None, None, Some (Json.String _) -> Some "file"
            | _ -> None
          in
          match Option.bind tag (find_shape sources) with
          | Some s -> decode ctx o s
          | None ->
            fail
              "%s: source %S needs exactly one of \"run\", \"archive\", \
               \"workload\" or \"file\""
              ctx name)
        | _ -> fail "%s: source %S must be a string or an object" ctx name) }

(* a recorded run's name becomes a directory under the daemon's state
   directory, so it must be one plain path component *)
let run_name =
  { str with
    F.dec =
      (fun ctx name j ->
        let* s = str.F.dec ctx name j in
        if
          s = "" || s = "." || s = ".."
          || String.exists (fun c -> c = '/' || c = '\\' || c = '\000') s
        then
          fail
            "%s: field %S must be a plain run name (not empty, \".\" or \"..\", \
             no '/', '\\' or NUL), got %S"
            ctx name s
        else Ok s) }

let src name = req ~what:"source" name source
let config_field = opt "config" (obj config) default_config
let str_opt name = opt name (nullable str) None

let vdiff_run =
  record
    F.[ req "name" str; src "source"; opt "axes" axes []; opt "bad" bool false ]
    (fun H.[ vs_name; vs_source; vs_axes; vs_bad ] ->
      { vs_name; vs_source; vs_axes; vs_bad })
    (fun r -> H.[ r.vs_name; r.vs_source; r.vs_axes; r.vs_bad ])

let compare_fields =
  F.[ src "normal"; src "faulty"; config_field; str_opt "diffnlr" ]

(* the methods, in the order the unknown-method error lists them *)
let calls =
  [ case "record"
      F.[ Inline workload; opt "name" (nullable run_name) None; str_opt "out" ]
      (fun H.[ rq_workload; rq_name; rq_out ] ->
        Record { rq_workload; rq_name; rq_out })
      (function
        | Record r -> Some H.[ r.rq_workload; r.rq_name; r.rq_out ]
        | _ -> None);
    case "analyze" compare_fields
      (fun H.[ rq_normal; rq_faulty; rq_config; rq_diffnlr ] ->
        Analyze { rq_normal; rq_faulty; rq_config; rq_diffnlr })
      (function
        | Analyze r ->
          Some H.[ r.rq_normal; r.rq_faulty; r.rq_config; r.rq_diffnlr ]
        | _ -> None);
    case "compare" compare_fields
      (fun H.[ rq_normal; rq_faulty; rq_config; rq_diffnlr ] ->
        Compare { rq_normal; rq_faulty; rq_config; rq_diffnlr })
      (function
        | Compare r ->
          Some H.[ r.rq_normal; r.rq_faulty; r.rq_config; r.rq_diffnlr ]
        | _ -> None);
    case "triage"
      F.[ src "subject"; config_field; opt "limit" int default_limit ]
      (fun H.[ rq_subject; rq_config; rq_limit ] ->
        Triage { rq_subject; rq_config; rq_limit })
      (function
        | Triage r -> Some H.[ r.rq_subject; r.rq_config; r.rq_limit ]
        | _ -> None);
    case "query"
      F.[ req "q" str; src "source"; opt "against" (nullable source) None;
          config_field ]
      (fun H.[ rq_q; rq_source; rq_against; rq_config ] ->
        Query { rq_q; rq_source; rq_against; rq_config })
      (function
        | Query r -> Some H.[ r.rq_q; r.rq_source; r.rq_against; r.rq_config ]
        | _ -> None);
    case "vdiff"
      F.[ req "runs" (objects vdiff_run); str_opt "trace"; config_field ]
      (fun H.[ rq_runs; rq_trace; rq_config ] ->
        Vdiff { rq_runs; rq_trace; rq_config })
      (function
        | Vdiff r -> Some H.[ r.rq_runs; r.rq_trace; r.rq_config ] | _ -> None);
    case "status" F.[]
      (fun H.[] -> Status)
      (function Status -> Some H.[] | _ -> None);
    case "subscribe" F.[ opt "events" bool true ]
      (fun H.[ rq_events ] -> Subscribe { rq_events })
      (function Subscribe { rq_events } -> Some H.[ rq_events ] | _ -> None);
    case "shutdown" F.[]
      (fun H.[] -> Shutdown)
      (function Shutdown -> Some H.[] | _ -> None) ]

let method_name c = fst (encode calls c)

(* every payload ends with the report as the CLI prints it *)
let output = req "output" str

let report style =
  case
    (match style with `Compare -> "compare" | `Analyze -> "analyze")
    F.[ req "bscore" float; req "top_processes" (list int);
        req "top_threads" (list str);
        req "suspects" (list (pair (req "trace" str) (req "score" float)));
        output ]
    (fun H.[ pr_bscore; pr_top_processes; pr_top_threads; pr_suspects;
             pr_output ] ->
      P_report { pr_style = style; pr_bscore; pr_top_processes; pr_top_threads;
                 pr_suspects; pr_output })
    (function
      | P_report r when r.pr_style = style ->
        Some H.[ r.pr_bscore; r.pr_top_processes; r.pr_top_threads;
                 r.pr_suspects; r.pr_output ]
      | _ -> None)

let outlier =
  record
    F.[ req "trace" str; req "score" float; req "truncated" bool ]
    (fun H.[ l; s; tr ] -> (l, s, tr))
    (fun (l, s, tr) -> H.[ l; s; tr ])

let payloads =
  [ case "record"
      F.[ req "files" int; req "traces" int; req "events" int; req "hung" int;
          str_opt "run"; output ]
      (fun H.[ pr_files; pr_traces; pr_events; pr_hung; pr_run; pr_output ] ->
        P_record { pr_files; pr_traces; pr_events; pr_hung; pr_run; pr_output })
      (function
        | P_record r ->
          Some H.[ r.pr_files; r.pr_traces; r.pr_events; r.pr_hung; r.pr_run;
                   r.pr_output ]
        | _ -> None);
    report `Compare;
    report `Analyze;
    case "triage" F.[ req "outliers" (list (obj outlier)); output ]
      (fun H.[ pr_outliers; pr_output ] -> P_triage { pr_outliers; pr_output })
      (function
        | P_triage r -> Some H.[ r.pr_outliers; r.pr_output ] | _ -> None);
    case "query" F.[ req "kind" str; req "size" int; req "warm" bool; output ]
      (fun H.[ pq_kind; pq_size; pq_warm; pq_output ] ->
        P_query { pq_kind; pq_size; pq_warm; pq_output })
      (function
        | P_query r -> Some H.[ r.pq_kind; r.pq_size; r.pq_warm; r.pq_output ]
        | _ -> None);
    case "vdiff"
      F.[ req "nruns" int; req "columns" int; req "regions" int;
          req "warm" bool; str_opt "condition"; output ]
      (fun H.[ pv_nruns; pv_columns; pv_regions; pv_warm; pv_condition;
               pv_output ] ->
        P_vdiff { pv_nruns; pv_columns; pv_regions; pv_warm; pv_condition;
                  pv_output })
      (function
        | P_vdiff r ->
          Some H.[ r.pv_nruns; r.pv_columns; r.pv_regions; r.pv_warm;
                   r.pv_condition; r.pv_output ]
        | _ -> None);
    case "status"
      F.[ req "requests" int;
          req "runs" (list (pair (req "name" str) (req "traces" int)));
          req "summaries" int; req "hits" int; req "misses" int;
          opt "store"
            (nullable
               (opaque (pair (req "summaries" int) (req "matrices" int))))
            None;
          output ]
      (fun H.[ pr_requests; pr_runs; pr_summaries; pr_hits; pr_misses;
               pr_store; pr_output ] ->
        P_status { pr_requests; pr_runs; pr_summaries; pr_hits; pr_misses;
                   pr_store; pr_output })
      (function
        | P_status r ->
          Some H.[ r.pr_requests; r.pr_runs; r.pr_summaries; r.pr_hits;
                   r.pr_misses; r.pr_store; r.pr_output ]
        | _ -> None);
    case "subscribe" F.[ req "events" bool; output ]
      (fun H.[ pr_events; pr_output ] -> P_subscribe { pr_events; pr_output })
      (function
        | P_subscribe r -> Some H.[ r.pr_events; r.pr_output ] | _ -> None);
    case "shutdown" F.[ output ]
      (fun H.[ pr_output ] -> P_shutdown { pr_output })
      (function P_shutdown { pr_output } -> Some H.[ pr_output ] | _ -> None) ]

(* Best-effort lexical extraction of the "id" field from a line that
   failed to parse, so even a malformed request is answered under its
   own id. *)
let scan_id line =
  let n = String.length line in
  let rec find i =
    if i + 4 > n then None
    else if String.sub line i 4 = {|"id"|} then Some (i + 4)
    else find (i + 1)
  in
  let rec skip_ws i = if i < n && (line.[i] = ' ' || line.[i] = '\t') then skip_ws (i + 1) else i in
  match find 0 with
  | None -> None
  | Some i -> (
    let i = skip_ws i in
    if i >= n || line.[i] <> ':' then None
    else
      let i = skip_ws (i + 1) in
      if i >= n || line.[i] <> '"' then None
      else
        let buf = Buffer.create 16 in
        let rec go i =
          if i >= n then None
          else
            match line.[i] with
            | '"' -> Some (Buffer.contents buf)
            | '\\' when i + 1 < n -> (
              let add c = Buffer.add_char buf c; go (i + 2) in
              match line.[i + 1] with
              | '"' -> add '"'
              | '\\' -> add '\\'
              | '/' -> add '/'
              | 'n' -> add '\n'
              | 't' -> add '\t'
              | 'r' -> add '\r'
              | 'b' -> add '\b'
              | 'f' -> add '\012'
              | _ -> None)
            | c -> Buffer.add_char buf c; go (i + 1)
        in
        go (i + 1))

let check_version ctx obj =
  match Json.member "difftrace-rpc" obj with
  | Some (Json.Int v) when v = version -> Ok ()
  | Some (Json.Int v) ->
    Error
      (Session.Protocol
         (Printf.sprintf "%s: unsupported protocol version %d (this daemon \
                          speaks %s)" ctx v version_string))
  | _ ->
    Error
      (Session.Protocol
         (Printf.sprintf "%s: missing \"difftrace-rpc\" version field" ctx))

let decode_request line =
  if String.length line > max_line_bytes then
    Error
      ( scan_id (String.sub line 0 (min (String.length line) 4096)),
        Session.Protocol
          (Printf.sprintf "request line exceeds %d bytes (%d)" max_line_bytes
             (String.length line)) )
  else
    match Json.of_string line with
    | exception Json.Parse_error m ->
      Error (scan_id line, Session.Protocol ("malformed JSON: " ^ m))
    | Json.Obj _ as obj -> (
      let id =
        match Json.member "id" obj with Some (Json.String s) -> Some s | _ -> None
      in
      let fail e = Error (id, e) in
      match check_version "request" obj with
      | Error e -> fail e
      | Ok () -> (
        match id with
        | None ->
          fail (Session.Protocol "request: missing string \"id\" field")
        | Some req_id -> (
          match Json.member "method" obj with
          | Some (Json.String meth) -> (
            let params =
              match Json.member "params" obj with
              | Some (Json.Obj _ as p) -> Ok p
              | None | Some Json.Null -> Ok (Json.Obj [])
              | Some _ ->
                Error (Session.Invalid "request: \"params\" must be an object")
            in
            match params with
            | Error e -> fail e
            | Ok params -> (
              match find_shape calls meth with
              | None ->
                fail
                  (Session.Protocol
                     (Printf.sprintf "unknown method %S (methods: %s)" meth
                        (String.concat ", " (shape_names calls))))
              | Some c -> (
                match decode meth params c with
                | Ok req_call -> Ok { req_id; req_call }
                | Error m -> fail (Session.Invalid m))))
          | _ ->
            fail (Session.Protocol "request: missing string \"method\" field"))))
    | _ ->
      Error (None, Session.Protocol "malformed JSON: expected an object")


(* --- encode ----------------------------------------------------------- *)

let encode_request r =
  let meth, params = encode calls r.req_call in
  Json.to_string
    (Json.Obj
       [ ("difftrace-rpc", Json.Int version);
         ("id", Json.String r.req_id);
         ("method", Json.String meth);
         ("params", Json.Obj params) ])

let encode_response r =
  let body =
    match r.rsp_body with
    | Ok p ->
      let meth, fields = encode payloads p in
      ("ok", Json.Obj (("method", Json.String meth) :: fields))
    | Error e ->
      ( "error",
        Json.Obj
          [ ("kind", Json.String e.err_kind);
            ("message", Json.String e.err_message) ] )
  in
  Json.to_string
    (Json.Obj
       [ ("difftrace-rpc", Json.Int version);
         ("id", (nullable str).F.enc r.rsp_id);
         body ])

let encode_event ev =
  Json.to_string
    (Json.Obj
       (("difftrace-rpc", Json.Int version)
       :: ("event", Json.String ev.ev_name)
       :: ev.ev_fields))

(* --- response / message decode (client side) -------------------------- *)

let payload_of_json obj =
  let* meth = dec_field "ok" obj (req "method" str) in
  let ctx = "ok." ^ meth in
  (* a missing output is reported before any method-specific field *)
  let* _ = dec_field ctx obj output in
  match find_shape payloads meth with
  | Some s -> decode ctx obj s
  | None -> fail "ok: unknown method %S in response" meth

type message = Response of response | Event of event

let decode_message line =
  match Json.of_string line with
  | exception Json.Parse_error m -> fail "malformed JSON: %s" m
  | Json.Obj fields as obj -> (
    match check_version "message" obj with
    | Error e -> Error (Session.error_to_string e)
    | Ok () -> (
      match Json.member "event" obj with
      | Some (Json.String ev_name) ->
        let ev_fields =
          List.filter
            (fun (k, _) -> k <> "difftrace-rpc" && k <> "event")
            fields
        in
        Ok (Event { ev_name; ev_fields })
      | _ -> (
        let rsp_id =
          match Json.member "id" obj with
          | Some (Json.String s) -> Some s
          | _ -> None
        in
        match (Json.member "ok" obj, Json.member "error" obj) with
        | Some (Json.Obj _ as ok), None ->
          let* p = payload_of_json ok in
          Ok (Response { rsp_id; rsp_body = Ok p })
        | None, Some (Json.Obj _ as err) ->
          let* err_kind = dec_field "error" err (req "kind" str) in
          let* err_message = dec_field "error" err (req "message" str) in
          Ok (Response { rsp_id; rsp_body = Error { err_kind; err_message } })
        | _ -> Error "message: expected exactly one of \"ok\" or \"error\"")))
  | _ -> Error "malformed JSON: expected an object"

let decode_response line =
  match decode_message line with
  | Ok (Response r) -> Ok r
  | Ok (Event _) -> Error "expected a response, got an event"
  | Error m -> Error m
