(* Exact mode is the pinned default: every byte of today's reports.
   Sketch mode swaps the JSM construction for the MinHash/LSH tier —
   same pipeline, candidate-pruned matrix. *)
type mode = Exact | Sketch

let mode_name = function Exact -> "exact" | Sketch -> "sketch"

let mode_of_string = function
  | "exact" -> Ok Exact
  | "sketch" -> Ok Sketch
  | s ->
    Error
      (Printf.sprintf "unknown similarity mode %S (expected exact or sketch)" s)

type t = {
  filter : Difftrace_filter.Filter.t;
  attrs : Difftrace_fca.Attributes.spec;
  k : int;
  repeats : int;
  linkage : Difftrace_cluster.Linkage.method_;
  engine : Engine.t;
  mode : mode;
}

let make ?filter ?attrs ?(k = 10) ?(repeats = 2) ?linkage
    ?(engine = Engine.Sequential) ?(mode = Exact) () =
  { filter =
      (match filter with
      | Some f -> f
      | None -> Difftrace_filter.Filter.make [ Difftrace_filter.Filter.Mpi_all ]);
    attrs =
      (match attrs with
      | Some a -> a
      | None ->
        { Difftrace_fca.Attributes.granularity = Difftrace_fca.Attributes.Single;
          freq_mode = Difftrace_fca.Attributes.No_freq });
    k;
    repeats;
    linkage =
      (match linkage with Some l -> l | None -> Difftrace_cluster.Linkage.Ward);
    engine;
    mode }

let default = make ()

let with_filter filter t = { t with filter }
let with_attrs attrs t = { t with attrs }
(* the NLR window: [Nlr.of_ids] would raise mid-run on a K below 1 *)
let check_k k =
  if k >= 1 then Ok ()
  else Error (Printf.sprintf "config: NLR constant K must be >= 1, got %d" k)

let with_k k t = { t with k }
let with_repeats repeats t = { t with repeats }
let with_linkage linkage t = { t with linkage }
let with_engine engine t = { t with engine }
let with_mode mode t = { t with mode }

(* foreign traces (CI logs, strace captures) carry no MPI_* calls, so
   the MPI default filter would empty them *)
let foreign t =
  if t.filter = default.filter then
    let open Difftrace_filter.Filter in
    { t with filter = make [ Everything ] }
  else t

let filter_name t =
  Printf.sprintf "%s.K%d" (Difftrace_filter.Filter.name t.filter) t.k

let attrs_name t = Difftrace_fca.Attributes.name t.attrs

(* Exact mode renders exactly as before — its name is pinned all over
   the cram transcripts; only sketch mode announces itself. *)
let name t =
  Printf.sprintf "%s / %s / %s%s" (filter_name t) (attrs_name t)
    (Difftrace_cluster.Linkage.method_name t.linkage)
    (match t.mode with Exact -> "" | Sketch -> " [sketch]")

let candidates t ctx =
  match t.mode with
  | Exact -> None
  | Sketch -> Some (Difftrace_cluster.Sketch.class_candidates ctx)

let to_json t =
  let module Json = Difftrace_obs.Telemetry.Json in
  Json.Obj
    ([ ("filter", Json.String (Difftrace_filter.Filter.name t.filter));
       ("attrs", Json.String (attrs_name t));
       ("k", Json.Int t.k);
       ("repeats", Json.Int t.repeats);
       ( "linkage",
         Json.String (Difftrace_cluster.Linkage.method_name t.linkage) );
       ("engine", Json.String (Engine.to_string t.engine)) ]
    @
    (* emitted only in sketch mode so exact-mode profile JSON keeps its
       historical fields *)
    match t.mode with
    | Exact -> []
    | Sketch -> [ ("mode", Json.String (mode_name t.mode)) ])
