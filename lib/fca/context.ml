open Difftrace_util

type t = {
  objects : string array;
  attrs : string array;
  incidence : Bitset.t array; (* per object: attribute set *)
  class_of : int array; (* per object: its class of equal attribute sets *)
  reps : int array; (* per class: its first object *)
}

module Rows = Hashtbl.Make (Bitset)

(* Classes numbered in first-occurrence order; the table hashes the
   bitset words and confirms a hit with [Bitset.equal]. *)
let classes incidence =
  let tbl = Rows.create 16 and reps = Vec.create () in
  let class_of =
    Array.mapi
      (fun i s ->
        match Rows.find_opt tbl s with
        | Some c -> c
        | None ->
          let c = Vec.length reps in
          Rows.add tbl s c;
          Vec.push reps i;
          c)
      incidence
  in
  (class_of, Vec.to_array reps)

let of_attr_sets rows =
  let attr_ids = Hashtbl.create 256 in
  let attr_names = Vec.create () in
  let intern a =
    match Hashtbl.find_opt attr_ids a with
    | Some i -> i
    | None ->
      let i = Vec.length attr_names in
      Hashtbl.add attr_ids a i;
      Vec.push attr_names a;
      i
  in
  let prelim = List.map (fun (label, attrs) -> (label, List.map intern attrs)) rows in
  let n_attrs = Vec.length attr_names in
  let objects = Array.of_list (List.map fst prelim) in
  let incidence =
    Array.of_list (List.map (fun (_, ids) -> Bitset.of_list n_attrs ids) prelim)
  in
  let class_of, reps = classes incidence in
  { objects; attrs = Vec.to_array attr_names; incidence; class_of; reps }

let n_objects t = Array.length t.objects
let n_attrs t = Array.length t.attrs

let object_label t i = t.objects.(i)
let attr_name t j = t.attrs.(j)
let n_classes t = Array.length t.reps
let class_of t i = t.class_of.(i)
let class_rep t c = t.reps.(c)
let has t i j = Bitset.mem t.incidence.(i) j
let object_attrs t i = t.incidence.(i)

let common_attrs t objs =
  let acc = Bitset.full (n_attrs t) in
  Bitset.iter (fun i -> Bitset.inter_into acc t.incidence.(i)) objs;
  acc

let common_objects t attrs =
  let acc = Bitset.create (n_objects t) in
  for i = 0 to n_objects t - 1 do
    if Bitset.subset attrs t.incidence.(i) then Bitset.add acc i
  done;
  acc

let c_closures = Difftrace_obs.Telemetry.Counter.make "fca.closures"

let closure t attrs =
  Difftrace_obs.Telemetry.Counter.incr c_closures;
  common_attrs t (common_objects t attrs)

let jaccard t i j = Bitset.jaccard t.incidence.(i) t.incidence.(j)

let to_table t =
  let headers = "" :: Array.to_list t.attrs in
  let rows =
    List.init (n_objects t) (fun i ->
        t.objects.(i)
        :: List.init (n_attrs t) (fun j -> if has t i j then "x" else ""))
  in
  Texttable.render ~headers rows
