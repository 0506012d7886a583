module Nlr = Difftrace_nlr.Nlr
module Telemetry = Difftrace_obs.Telemetry

(* process-wide telemetry view of every memo instance's traffic *)
let c_hits = Telemetry.Counter.make "memo.hits"
let c_misses = Telemetry.Counter.make "memo.misses"

type stats = { hits : int; misses : int }

type key = string

type t = {
  symtab : Difftrace_trace.Symtab.t;
  loop_table : Nlr.Loop_table.t;
  cache : (key, Nlr.t) Hashtbl.t;
  mutable hits : int;
  mutable misses : int;
}

let create () =
  { symtab = Difftrace_trace.Symtab.create ();
    loop_table = Nlr.Loop_table.create ();
    cache = Hashtbl.create 64;
    hits = 0;
    misses = 0 }

let symtab t = t.symtab
let loop_table t = t.loop_table

(* [decimal_length n] is [String.length (string_of_int n)]; it counts
   on the non-positive side so [min_int] needs no special case. *)
let decimal_length n =
  let rec digits m acc = if m > -10 then acc else digits (m / 10) (acc + 1) in
  if n < 0 then digits n 2 else digits (-n) 1

(* [write_decimal b stop n] writes [string_of_int n] into [b] so that
   it ends just before [stop], and returns where it starts. *)
let write_decimal b stop n =
  let rec digits m pos =
    let pos = pos - 1 in
    Bytes.unsafe_set b pos (Char.unsafe_chr (48 - (m mod 10)));
    if m > -10 then pos else digits (m / 10) pos
  in
  if n < 0 then begin
    let pos = digits n stop - 1 in
    Bytes.unsafe_set b pos '-';
    pos
  end
  else digits (-n) stop

(* The digest of ["k;repeats;id;...;id"] in decimal. The buffer is sized
   exactly, then filled from its end backwards. *)
let key ~ids ~k ~repeats =
  let size = ref (decimal_length k + 1 + decimal_length repeats) in
  Array.iter (fun id -> size := !size + 1 + decimal_length id) ids;
  let b = Bytes.create !size in
  let pos = ref !size in
  for i = Array.length ids - 1 downto 0 do
    let p = write_decimal b !pos ids.(i) - 1 in
    Bytes.unsafe_set b p ';';
    pos := p
  done;
  let p = write_decimal b !pos repeats - 1 in
  Bytes.unsafe_set b p ';';
  assert (write_decimal b p k = 0);
  Digest.bytes b

let find t key =
  match Hashtbl.find_opt t.cache key with
  | Some _ as hit ->
    t.hits <- t.hits + 1;
    Telemetry.Counter.incr c_hits;
    hit
  | None ->
    t.misses <- t.misses + 1;
    Telemetry.Counter.incr c_misses;
    None

let add t key nlr = Hashtbl.replace t.cache key nlr

(* persistence hooks for the analysis store: adopt a disk entry
   without disturbing the hit/miss counters, and enumerate and read
   the cache for rewriting. Keys are exposed as their raw digest bytes. *)
let restore t ~key nlr = Hashtbl.replace t.cache key nlr

let of_raw key = key
let to_raw key = key

let lookup t ~key = Hashtbl.find_opt t.cache key

let fold t ~init ~f = Hashtbl.fold (fun key nlr acc -> f key nlr acc) t.cache init

let length t = Hashtbl.length t.cache

let stats t = { hits = t.hits; misses = t.misses }

let hit_rate (s : stats) =
  let total = s.hits + s.misses in
  if total = 0 then 0.0 else float_of_int s.hits /. float_of_int total
