open Difftrace_trace

type t = {
  symtab : Symtab.t;
  level : Tracer.level;
  tracers : (int * int, Tracer.t) Hashtbl.t;
}

let create ?(level = Tracer.Main_image) () =
  { symtab = Symtab.create (); level; tracers = Hashtbl.create 64 }

let symtab t = t.symtab
let level t = t.level

let tracer t ~pid ~tid =
  match Hashtbl.find_opt t.tracers (pid, tid) with
  | Some tr -> tr
  | None ->
    let tr = Tracer.create ~symtab:t.symtab ~level:t.level ~pid ~tid in
    Hashtbl.add t.tracers (pid, tid) tr;
    tr

let finish t =
  let traces =
    Hashtbl.fold
      (fun (pid, tid) tr acc ->
        let data, truncated = Tracer.finish tr in
        Tracer.decode ~expect:(Tracer.events_recorded tr) ~symtab:t.symtab ~pid
          ~tid ~truncated data
        :: acc)
      t.tracers []
  in
  Trace_set.create t.symtab traces

type stats = {
  threads : int;
  total_events : int;
  total_compressed_bytes : int;
  mean_compressed_bytes : float;
  mean_events_per_process : float;
  mean_distinct_functions : float;
  compression_ratio : float;
}

let stats t ts =
  let threads = Hashtbl.length t.tracers in
  let total_events = Trace_set.total_events ts in
  (* Raw size: each event as a varint, i.e. what an uncompressed ParLOT
     stream would occupy. *)
  let raw_bytes =
    Array.fold_left
      (fun acc tr ->
        Array.fold_left
          (fun acc e -> acc + Difftrace_util.Varint.size (Event.encode e))
          acc tr.Trace.events)
      0 (Trace_set.traces ts)
  in
  let total_compressed_bytes =
    Hashtbl.fold
      (fun _ tr acc -> acc + Tracer.compressed_so_far tr)
      t.tracers 0
  in
  let procs = Trace_set.processes ts in
  let nprocs = max 1 (List.length procs) in
  let per_process_events =
    List.map
      (fun pid ->
        Array.fold_left
          (fun acc tr ->
            if tr.Trace.pid = pid then acc + Trace.length tr else acc)
          0 (Trace_set.traces ts))
      procs
  in
  let per_process_distinct =
    List.map
      (fun pid ->
        let seen = Hashtbl.create 256 in
        Array.iter
          (fun tr ->
            if tr.Trace.pid = pid then
              Array.iter (fun e -> Hashtbl.replace seen (Event.id e) ()) tr.Trace.events)
          (Trace_set.traces ts);
        Hashtbl.length seen)
      procs
  in
  let meanl l =
    float_of_int (List.fold_left ( + ) 0 l) /. float_of_int nprocs
  in
  { threads;
    total_events;
    total_compressed_bytes;
    mean_compressed_bytes =
      float_of_int total_compressed_bytes /. float_of_int (max 1 threads);
    mean_events_per_process = meanl per_process_events;
    mean_distinct_functions = meanl per_process_distinct;
    compression_ratio =
      (if total_compressed_bytes = 0 then 1.0
       else float_of_int raw_bytes /. float_of_int total_compressed_bytes) }

let pp_stats ppf s =
  Format.fprintf ppf
    "@[<v>threads: %d@ events: %d@ compressed bytes: %d (%.1f/thread)@ \
     events/process: %.0f@ distinct functions/process: %.0f@ compression \
     ratio: %.2fx@]"
    s.threads s.total_events s.total_compressed_bytes s.mean_compressed_bytes
    s.mean_events_per_process s.mean_distinct_functions s.compression_ratio
