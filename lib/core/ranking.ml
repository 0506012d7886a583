module Filter = Difftrace_filter.Filter
module Attributes = Difftrace_fca.Attributes
module Linkage = Difftrace_cluster.Linkage
module Telemetry = Difftrace_obs.Telemetry

let c_evaluated = Telemetry.Counter.make "autotune.configs.evaluated"

type row = {
  config : Config.t;
  bscore : float;
  concentration : float;
  top_processes : int list;
  top_threads : string list;
  top_suspect : string option;
}

type sweep = { rows : row list; cache : Memo.stats }

(* the cross product in nesting order filters, attrs, K, linkage; an
   empty axis or a K below 1 is the same typed error a parsed config
   gives *)
let grid ~engine ~filters ~attrs ~ks ~linkages =
  let empty_axes =
    List.filter_map
      (fun (name, empty) -> if empty then Some name else None)
      [ ("filters", filters = []);
        ("attrs", attrs = []);
        ("K", ks = []);
        ("linkages", linkages = []) ]
  in
  let valid_ks =
    List.fold_left (fun ok k -> Result.bind ok (fun () -> Config.check_k k))
      (Ok ()) ks
  in
  match (empty_axes, valid_ks) with
  | _ :: _, _ ->
    Error
      (Session.Invalid
         (Printf.sprintf "autotune: empty parameter axis (%s): nothing to sweep"
            (String.concat ", " empty_axes)))
  | [], Error m -> Error (Session.Invalid m)
  | [], Ok () ->
    Ok
      (List.concat_map
         (fun filter ->
           List.concat_map
             (fun attr ->
               List.concat_map
                 (fun k ->
                   List.map
                     (fun linkage ->
                       Config.make ~filter ~attrs:attr ~k ~linkage ~engine ())
                     linkages)
                 ks)
             attrs)
         filters)

let evaluate ~memo config ~normal ~faulty =
  Telemetry.Counter.incr c_evaluated;
  let c = Pipeline.compare_runs ~memo config ~normal ~faulty in
  let suspects = c.Pipeline.suspects in
  let total = Array.fold_left (fun acc (_, s) -> acc +. s) 0.0 suspects in
  { config;
    bscore = c.Pipeline.bscore;
    concentration =
      (if total <= 1e-12 || Array.length suspects = 0 then 0.0
       else snd suspects.(0) /. total);
    top_processes = Pipeline.top_processes c;
    top_threads = Pipeline.top_threads c;
    top_suspect =
      (if Array.length suspects > 0 && snd suspects.(0) > 1e-9 then
         Some (fst suspects.(0))
       else None) }

let sweep ?store ?(engine = Engine.Sequential) ?filters
    ?(attrs = Attributes.all) ?(ks = [ 10 ]) ?(linkages = [ Linkage.Ward ])
    ~normal ~faulty () =
  let filters =
    match filters with
    | Some f -> f
    | None -> [ Filter.make [ Filter.Mpi_all ]; Filter.make [ Filter.Everything ] ]
  in
  Result.map
    (fun configs ->
      Telemetry.Span.with_ "ranking.sweep" @@ fun () ->
      (* one cache for the whole sweep: grid points that differ only in
         attributes or linkage reuse every NLR summary. A store brings
         its own memo (pre-warmed from disk) and persists the work. *)
      let memo =
        match store with Some st -> Store.memo st | None -> Memo.create ()
      in
      let before = Memo.stats memo in
      let rows =
        List.map
          (fun config -> evaluate ~memo config ~normal ~faulty)
          configs
      in
      let after = Memo.stats memo in
      { rows = List.stable_sort (fun a b -> Float.compare a.bscore b.bscore) rows;
        cache =
          { Memo.hits = after.Memo.hits - before.Memo.hits;
            misses = after.Memo.misses - before.Memo.misses } })
    (grid ~engine ~filters ~attrs ~ks ~linkages)

let refine rows =
  List.stable_sort
    (fun a b ->
      match Float.compare a.bscore b.bscore with
      | 0 -> Float.compare b.concentration a.concentration
      | c -> c)
    rows

let render ?max_rows rows =
  let rows =
    match max_rows with
    | None -> rows
    | Some n -> List.filteri (fun i _ -> i < n) rows
  in
  Difftrace_util.Texttable.render
    ~headers:[ "Filter"; "Attributes"; "B-score"; "Top Processes"; "Top Threads" ]
    (List.map
       (fun r ->
         [ Config.filter_name r.config;
           Config.attrs_name r.config;
           Printf.sprintf "%.3f" r.bscore;
           String.concat ", " (List.map string_of_int r.top_processes);
           String.concat ", " r.top_threads ])
       rows)

let render_refined rows =
  Difftrace_util.Texttable.render
    ~headers:[ "Configuration"; "B-score"; "Concentration"; "Top suspect" ]
    (List.map
       (fun r ->
         [ Config.name r.config;
           Printf.sprintf "%.3f" r.bscore;
           Printf.sprintf "%.2f" r.concentration;
           Option.value ~default:"-" r.top_suspect ])
       rows)
