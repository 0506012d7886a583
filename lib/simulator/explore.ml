module Trace = Difftrace_trace.Trace
module Trace_set = Difftrace_trace.Trace_set

type verdict = {
  seed : int;
  deadlocked : bool;
  timed_out : bool;
  races : int;
  fingerprint : int;
}

type summary = {
  verdicts : verdict list;
  deadlock_seeds : int list;
  timeout_seeds : int list;
  distinct_outcomes : int;
}

(* A full digest of every event of every trace: Hashtbl.hash samples
   only a bounded prefix of a structure and would collide on traces
   that differ late. *)
let fingerprint_of ts =
  let buf = Buffer.create 4096 in
  Array.iter
    (fun (tr : Trace.t) ->
      Buffer.add_string buf
        (Printf.sprintf "%d.%d:%b|" tr.Trace.pid tr.Trace.tid tr.Trace.truncated);
      List.iter
        (fun s ->
          Buffer.add_string buf s;
          Buffer.add_char buf ';')
        (Trace.to_strings (Trace_set.symtab ts) tr))
    (Trace_set.traces ts);
  let d = Digest.string (Buffer.contents buf) in
  (* fold the 16 digest bytes into a positive int *)
  let acc = ref 0 in
  String.iter (fun c -> acc := (!acc * 257) lxor Char.code c) d;
  !acc land max_int

let summarize verdicts =
  (* a timed-out run's trace shape is an artifact of where the step
     budget happened to cut it, so its fingerprint says nothing about
     schedule diversity: such seeds are surfaced in [timeout_seeds]
     and excluded from [distinct_outcomes] *)
  let fps =
    List.sort_uniq Int.compare
      (List.filter_map
         (fun v -> if v.timed_out then None else Some v.fingerprint)
         verdicts)
  in
  { verdicts;
    deadlock_seeds =
      List.filter_map (fun v -> if v.deadlocked then Some v.seed else None) verdicts;
    timeout_seeds =
      List.filter_map (fun v -> if v.timed_out then Some v.seed else None) verdicts;
    distinct_outcomes = List.length fps }

let classify ~seed o =
  { seed;
    deadlocked = o.Runtime.deadlocked <> [];
    timed_out = o.Runtime.timed_out;
    races = List.length o.Runtime.races;
    fingerprint = fingerprint_of o.Runtime.traces }

let verdict_of ?np ?eager_limit ?max_steps ~seed program =
  classify ~seed (Runtime.run ?np ?eager_limit ?max_steps ~seed program)

let run ?np ?eager_limit ?max_steps ?on_verdict ~seeds program =
  if seeds = [] then invalid_arg "Explore.run: no seeds";
  let verdicts =
    List.map
      (fun seed ->
        let v = verdict_of ?np ?eager_limit ?max_steps ~seed program in
        (match on_verdict with Some f -> f v | None -> ());
        v)
      (List.sort_uniq Int.compare seeds)
  in
  summarize verdicts

let render s =
  let rows =
    List.map
      (fun v ->
        [ string_of_int v.seed;
          (if v.deadlocked then "DEADLOCK" else if v.timed_out then "TIMEOUT" else "ok");
          string_of_int v.races;
          Printf.sprintf "%08x" (v.fingerprint land 0xFFFFFFFF) ])
      s.verdicts
  in
  let seed_list = function
    | [] -> "none"
    | seeds -> String.concat "," (List.map string_of_int seeds)
  in
  Difftrace_util.Texttable.render
    ~headers:[ "Seed"; "Outcome"; "Races"; "Trace fingerprint" ]
    rows
  ^ Printf.sprintf "distinct outcomes: %d; deadlocking seeds: %s\n"
      s.distinct_outcomes
      (seed_list s.deadlock_seeds)
  ^
  if s.timeout_seeds = [] then ""
  else Printf.sprintf "timed-out seeds (excluded from outcome count): %s\n"
         (seed_list s.timeout_seeds)
