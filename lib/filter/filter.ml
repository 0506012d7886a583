open Difftrace_trace

type keep =
  | Mpi_all
  | Mpi_collectives
  | Mpi_send_recv
  | Mpi_internal
  | Omp_all
  | Omp_critical
  | Omp_mutex
  | Sys_memory
  | Sys_network
  | Sys_poll
  | Sys_string
  | Custom of string
  | Everything

type t = { drop_returns : bool; drop_plt : bool; keeps : keep list }

let make ?(drop_returns = true) ?(drop_plt = true) keeps =
  { drop_returns; drop_plt; keeps }

let keep_name = function
  | Mpi_all -> "mpiall"
  | Mpi_collectives -> "mpicol"
  | Mpi_send_recv -> "mpisr"
  | Mpi_internal -> "mpilib"
  | Omp_all -> "ompall"
  | Omp_critical -> "ompcrit"
  | Omp_mutex -> "ompmutex"
  | Sys_memory -> "mem"
  | Sys_network -> "net"
  | Sys_poll -> "poll"
  | Sys_string -> "str"
  | Custom _ -> "cust"
  | Everything -> "all"

let name t =
  let digit b = if b then "1" else "0" in
  String.concat "."
    (Printf.sprintf "%s%s" (digit t.drop_returns) (digit t.drop_plt)
    :: List.map keep_name t.keeps)

let keep_of_name = function
  | "mpi" -> Some Mpi_all
  | "omp" -> Some Omp_all
  | n ->
    List.find_opt
      (fun k -> keep_name k = n)
      [ Mpi_all; Mpi_collectives; Mpi_send_recv; Mpi_internal; Omp_all;
        Omp_critical; Omp_mutex; Sys_memory; Sys_network; Sys_poll;
        Sys_string; Custom ".*"; Everything ]

let compiles re =
  match Re.compile (Re.Perl.re re) with
  | _ -> true
  | exception (Re.Perl.Parse_error | Re.Perl.Not_supported) -> false

let parse ?(custom = []) s =
  let fail fmt = Printf.ksprintf (fun m -> Error ("Filter.of_spec: " ^ m)) fmt in
  (* each "cust" takes the next regex *)
  let rec keeps customs = function
    | [] -> Ok []
    | name :: rest -> (
      match (keep_of_name name, customs) with
      | None, _ -> fail "unknown component %s" name
      | Some (Custom _), re :: customs ->
        Result.map (List.cons (Custom re)) (keeps customs rest)
      | Some k, _ -> Result.map (List.cons k) (keeps customs rest))
  in
  match String.split_on_char '.' s with
  | [] -> fail "empty spec"
  | digits :: _
    when String.length digits <> 2
         || String.exists (fun c -> c <> '0' && c <> '1') digits ->
    fail "bad drop digits in %s" s
  | digits :: rest -> (
    match List.find_opt (fun re -> not (compiles re)) custom with
    | Some re -> fail "bad custom regex %S" re
    | None ->
      Result.map
        (fun keeps ->
          { drop_returns = digits.[0] = '1'; drop_plt = digits.[1] = '1'; keeps })
        (keeps custom rest))

let of_spec ?custom s = Result.fold ~ok:Fun.id ~error:invalid_arg (parse ?custom s)

let contains_any hay needles =
  List.exists
    (fun needle ->
      let nl = String.length needle and hl = String.length hay in
      let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
      go 0)
    needles

let starts_with prefix s = String.starts_with ~prefix s

let collectives =
  [ "MPI_Barrier"; "MPI_Allreduce"; "MPI_Reduce"; "MPI_Bcast"; "MPI_Allgather";
    "MPI_Gather"; "MPI_Scatter"; "MPI_Alltoall"; "MPI_Scan" ]

let send_recvs = [ "MPI_Send"; "MPI_Isend"; "MPI_Recv"; "MPI_Irecv"; "MPI_Wait"; "MPI_Waitall" ]

(* the keep test of [k]; a [Custom] regex is compiled per call *)
let matcher = function
  | Mpi_all -> starts_with "MPI_"
  | Mpi_collectives -> fun f -> List.mem f collectives
  | Mpi_send_recv -> fun f -> List.mem f send_recvs
  | Mpi_internal -> starts_with "MPID"
  | Omp_all -> fun f -> starts_with "GOMP_" f || starts_with "omp_" f
  | Omp_critical -> fun f -> f = "GOMP_critical_start" || f = "GOMP_critical_end"
  | Omp_mutex ->
    fun f -> contains_any f [ "mutex" ] || f = "omp_set_lock" || f = "omp_unset_lock"
  | Sys_memory -> fun f -> contains_any f [ "memcpy"; "memchk"; "memset"; "memmove"; "alloc" ]
  | Sys_network -> fun f -> contains_any f [ "network"; "tcp"; "socket"; "sched" ]
  | Sys_poll -> fun f -> contains_any f [ "poll"; "yield"; "sched" ]
  | Sys_string -> starts_with "str"
  | Custom re -> Re.execp (Re.compile (Re.Perl.re re))
  | Everything -> fun _ -> true

let matches t fname = t.keeps = [] || List.exists (fun k -> matcher k fname) t.keeps

(* Per-symbol keep decision, precompiled once per (filter, symtab). *)
let keep_table t symtab =
  let compiled = List.map matcher t.keeps in
  let names = Symtab.names symtab in
  Array.map
    (fun fname ->
      let plt = String.length fname > 4 && String.ends_with ~suffix:".plt" fname in
      let kept = compiled = [] || List.exists (fun f -> f fname) compiled in
      kept && not (t.drop_plt && plt))
    names

let apply_with_table t table events =
  let out = Difftrace_util.Vec.with_capacity (Array.length events) in
  Array.iter
    (fun e ->
      let keep =
        (match e with
        | Event.Return _ when t.drop_returns -> false
        | Event.Call id | Event.Return id -> table.(id))
      in
      if keep then Difftrace_util.Vec.push out e)
    events;
  Difftrace_util.Vec.to_array out

let compile t symtab = apply_with_table t (keep_table t symtab)

let apply t symtab events = compile t symtab events

let apply_set t ts =
  let f = compile t (Trace_set.symtab ts) in
  Trace_set.map_events (fun tr -> f tr.Trace.events) ts

let identity t =
  let part s = Printf.sprintf "%d:%s" (String.length s) s in
  String.concat ""
    (part (name t)
    :: List.filter_map (function Custom re -> Some (part re) | _ -> None) t.keeps)

let predefined =
  [ ("Primary", "Returns", "Filter out all returns");
    ("Primary", "PLT", "Filter out the \".plt\" stub calls for dynamically resolved externals");
    ("MPI", "MPI All", "Only keep functions that start with \"MPI_\"");
    ("MPI", "MPI Collectives", "Only keep MPI collective calls (MPI_Barrier, MPI_Allreduce, ...)");
    ("MPI", "MPI Send/Recv", "Only keep MPI_Send, MPI_Isend, MPI_Recv, MPI_Irecv and MPI_Wait");
    ("MPI", "MPI Internal Library", "Keep all inner MPI library calls");
    ("OMP", "OMP All", "Only keep OMP calls (starting with GOMP_)");
    ("OMP", "OMP Critical", "Only keep GOMP_critical_start and GOMP_critical_end");
    ("OMP", "OMP Mutex", "Only keep OMP mutex/lock calls");
    ("System", "Memory", "Keep any memory related functions (memcpy, memchk, alloc, malloc, ...)");
    ("System", "Network", "Keep any network related functions (network, tcp, sched, ...)");
    ("System", "Poll", "Keep any poll related functions (poll, yield, sched, ...)");
    ("System", "String", "Keep any string related functions (strlen, strcpy, ...)");
    ("Advanced", "Custom", "Any regular expression can be captured");
    ("Advanced", "Everything", "Does not filter anything") ]
