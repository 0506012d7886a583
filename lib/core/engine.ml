module Telemetry = Difftrace_obs.Telemetry

type t = Sequential | Parallel of { domains : int }

let sequential = Sequential

let auto_domains () = max 1 (min 16 (Domain.recommended_domain_count ()))

let parallel ?domains () =
  let domains = match domains with Some d -> d | None -> auto_domains () in
  if domains < 1 then invalid_arg "Engine.parallel: domains must be >= 1";
  Parallel { domains }

(* OCaml 5's default cap on live domains: one request asking for more
   would only fail inside [Domain.spawn] *)
let max_domains = 128

let bounded what n =
  if n <= max_domains then Ok (Parallel { domains = n })
  else Error (Printf.sprintf "%s exceeds %d domains" what max_domains)

let of_jobs n =
  if n = 1 then Ok Sequential
  else if n <= 0 then Ok (parallel ())
  else bounded (Printf.sprintf "Engine.of_jobs: %d" n) n

let domains = function Sequential -> 1 | Parallel { domains } -> domains

let to_string = function
  | Sequential -> "sequential"
  | Parallel { domains } -> Printf.sprintf "parallel:%d" domains

let of_string s =
  let s = String.lowercase_ascii s in
  let count =
    match String.index_opt s ':' with
    | Some i when List.mem (String.sub s 0 i) [ "parallel"; "par" ] ->
      int_of_string_opt (String.sub s (i + 1) (String.length s - i - 1))
    | _ -> None
  in
  match (s, count) with
  | ("sequential" | "seq"), _ -> Ok Sequential
  | ("parallel" | "par"), _ -> Ok (parallel ())
  | _, Some n when n >= 1 -> bounded ("Engine.of_string: " ^ s) n
  | _ -> Error ("Engine.of_string: " ^ s)

(* Work-stealing chunked map: a mutex-protected cursor hands out chunks
   of indices; every domain (the caller included) loops claiming the
   next chunk until the range is exhausted. Each result is written to
   its own slot, so the output is independent of the schedule. *)
let chunked_init ~domains n f =
  let results = Array.make n None in
  let cursor = ref 0 in
  let mu = Mutex.create () in
  (* small chunks relative to n/domains so an unlucky domain stuck on a
     heavy item does not serialize the tail *)
  let chunk = max 1 (1 + ((n - 1) / (domains * 8))) in
  let claim () =
    Mutex.lock mu;
    let start = !cursor in
    cursor := start + chunk;
    Mutex.unlock mu;
    start
  in
  (* the span is anchored at the root so the caller's share and every
     helper domain's share aggregate under one "engine.worker" path *)
  let worker () =
    Telemetry.Span.with_root "engine.worker" (fun () ->
        let running = ref true in
        while !running do
          let start = claim () in
          if start >= n then running := false
          else
            for i = start to min n (start + chunk) - 1 do
              results.(i) <-
                Some
                  (match f i with
                  | v -> Ok v
                  | exception e -> Error (e, Printexc.get_raw_backtrace ()))
            done
        done)
  in
  let helpers =
    List.init (min domains n - 1) (fun _ -> Domain.spawn worker)
  in
  worker ();
  List.iter Domain.join helpers;
  Array.map
    (function
      | Some (Ok v) -> v
      | Some (Error (e, bt)) -> Printexc.raise_with_backtrace e bt
      | None -> assert false)
    results

let init t n f =
  if n < 0 then invalid_arg "Engine.init";
  match t with
  | Sequential -> Array.init n f
  | Parallel { domains } ->
    if domains <= 1 || n <= 1 then Array.init n f
    else chunked_init ~domains n f

let map t f arr = init t (Array.length arr) (fun i -> f arr.(i))

let runner t = { Difftrace_util.Runner.run = (fun n f -> init t n f) }
