open Difftrace_fca
module Bitset = Difftrace_util.Bitset
module Telemetry = Difftrace_obs.Telemetry

(* MinHash signatures computed from attribute sets, and the LSH banding
   index that turns them into a candidate adjacency over a context's
   classes. Everything here is a pure function of the attribute *names*
   (never the context-local attribute ids), so a class's signature is
   the same in every context that holds its attribute set. *)

let c_signatures = Telemetry.Counter.make "sketch.signatures"
let c_candidate_pairs = Telemetry.Counter.make "sketch.candidate_pairs"

let default_k = 64
let rows_per_band = 2

let bands_for k = max 1 (k / rows_per_band)

let threshold k =
  (1.0 /. float_of_int (bands_for k))
  ** (1.0 /. float_of_int rows_per_band)

type signature = int array

(* FNV-1a-style rolling hash of an attribute name, masked non-negative.
   Sketch output is pinned across runs, so these hashes must stay
   deterministic across processes and OCaml versions: it uses only
   native int arithmetic
   (fixed 63-bit semantics on every 64-bit platform) and no
   [Hashtbl.hash]-style seeding. *)
let base_hash s =
  let h = ref 0x1000193 in
  String.iter
    (fun c -> h := (!h lxor Char.code c) * 0x100000001B3 land max_int)
    s;
  !h

(* splitmix-style remix of a base hash into the hash for MinHash row
   [row]: one multiplicative injection of the row index, then two
   xor-shift-multiply rounds. The multipliers fit OCaml's 62-bit
   positive literal range. *)
let row_hash base row =
  let z = (base lxor ((row + 1) * 0x2545F4914F6CDD1D)) land max_int in
  let z = (z lxor (z lsr 29)) * 0x369DEA0F31A53F85 land max_int in
  let z = (z lxor (z lsr 27)) * 0x27D4EB2F165667C5 land max_int in
  z lxor (z lsr 31)

let hasher ?(k = default_k) ctx =
  if k < 1 then invalid_arg "Sketch.hasher: k must be positive";
  let na = Context.n_attrs ctx in
  (* one flat row-hash table, attr-major: hs.(a*k + r) is attribute
     [a]'s hash under MinHash row [r] *)
  let hs = Array.make (max 1 (na * k)) 0 in
  for a = 0 to na - 1 do
    let b = base_hash (Context.attr_name ctx a) in
    for r = 0 to k - 1 do
      hs.((a * k) + r) <- row_hash b r
    done
  done;
  fun i ->
    let mins = Array.make k max_int in
    Bitset.iter
      (fun a ->
        let off = a * k in
        for r = 0 to k - 1 do
          let h = hs.(off + r) in
          if h < mins.(r) then mins.(r) <- h
        done)
      (Context.object_attrs ctx i);
    Telemetry.Counter.incr c_signatures;
    mins

(* Every member of a class has the class representative's attribute
   set, hence its signature, so candidacy is decided once per class
   pair: d signatures instead of n, and the banding buckets d keys. *)
let class_candidates ?(k = default_k) ctx =
  let h = hasher ~k ctx in
  let d = Context.n_classes ctx in
  let sigs = Array.init d (fun c -> h (Context.class_rep ctx c)) in
  (* a class is its own candidate: its members' signatures share every
     band *)
  let adj =
    Array.init d (fun a ->
        let row = Bitset.create d in
        Bitset.add row a;
        row)
  in
  (* one bucket table per band, keyed by the band's min values; two
     signatures land in the same bucket iff the band is equal, so the
     adjacency is exactly "shares >= 1 band" — a pairwise predicate of
     two attribute sets *)
  let tbl = Hashtbl.create (2 * d) in
  for band = 0 to bands_for k - 1 do
    Hashtbl.reset tbl;
    let r0 = band * rows_per_band in
    let r1 = if r0 + 1 < k then r0 + 1 else r0 in
    for a = 0 to d - 1 do
      let key = (sigs.(a).(r0), sigs.(a).(r1)) in
      let prev = Option.value (Hashtbl.find_opt tbl key) ~default:[] in
      List.iter
        (fun b ->
          if not (Bitset.mem adj.(a) b) then begin
            Telemetry.Counter.incr c_candidate_pairs;
            Bitset.add adj.(a) b;
            Bitset.add adj.(b) a
          end)
        prev;
      Hashtbl.replace tbl key (a :: prev)
    done
  done;
  adj
