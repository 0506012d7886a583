(* In-memory span recorder for the traced replay.

   The replay wraps each call into a layer of the program in [with_];
   a span keeps its name, start, end, parent span and the id of the
   operation it belongs to. Nothing is written while the replay runs;
   [write] dumps everything as JSON lines at the end. A layer's self
   time is its span duration minus the time its child spans cover, so
   the self times of one operation add up to the operation's wall
   time: the root span's own self time is the part no layer claims. *)

type span = {
  id : int;
  name : string;
  parent : int;  (** -1 for an operation's root span *)
  op : int;
  start : float;
  stop : float;
}

let root_name = "op"
let recorded : span list ref = ref []
let stack : int list ref = ref []
let next_id = ref 0
let current_op = ref (-1)

(* per (op, counter name) totals, recorded beside the spans *)
let counters : (int * string, float) Hashtbl.t = Hashtbl.create 64

let reset () =
  recorded := [];
  stack := [];
  next_id := 0;
  current_op := -1;
  Hashtbl.reset counters

let with_ name f =
  let id = !next_id in
  incr next_id;
  let parent = match !stack with p :: _ -> p | [] -> -1 in
  stack := id :: !stack;
  let start = Unix.gettimeofday () in
  Fun.protect f ~finally:(fun () ->
      let stop = Unix.gettimeofday () in
      stack := List.tl !stack;
      recorded := { id; name; parent; op = !current_op; start; stop } :: !recorded)

(* [op i f] runs one traced operation under a root span; returns [f]'s
   result and the operation's wall time. *)
let op i f =
  current_op := i;
  let t0 = Unix.gettimeofday () in
  let v = with_ root_name f in
  (v, Unix.gettimeofday () -. t0)

let count name n =
  let key = (!current_op, name) in
  let cur = Option.value ~default:0.0 (Hashtbl.find_opt counters key) in
  Hashtbl.replace counters key (cur +. n)

let spans () = List.rev !recorded

(* [self_times ()] — per operation, the self time of every span name
   it recorded (names repeated within an operation are summed). *)
let self_times () =
  let children = Hashtbl.create 256 in
  List.iter
    (fun s ->
      if s.parent >= 0 then
        let cur = Option.value ~default:0.0 (Hashtbl.find_opt children s.parent) in
        Hashtbl.replace children s.parent (cur +. (s.stop -. s.start)))
    !recorded;
  let per_op = Hashtbl.create 64 in
  List.iter
    (fun s ->
      let self =
        s.stop -. s.start
        -. Option.value ~default:0.0 (Hashtbl.find_opt children s.id)
      in
      let tbl =
        match Hashtbl.find_opt per_op s.op with
        | Some t -> t
        | None ->
          let t = Hashtbl.create 16 in
          Hashtbl.replace per_op s.op t;
          t
      in
      let cur = Option.value ~default:0.0 (Hashtbl.find_opt tbl s.name) in
      Hashtbl.replace tbl s.name (cur +. self))
    !recorded;
  per_op

let counter ~op name =
  Option.value ~default:0.0 (Hashtbl.find_opt counters (op, name))

(* one JSON object per span; times in seconds from the first span *)
let write file =
  let all = List.sort (fun a b -> Int.compare a.id b.id) (spans ()) in
  let t0 = match all with s :: _ -> s.start | [] -> 0.0 in
  Out_channel.with_open_bin file (fun oc ->
      List.iter
        (fun s ->
          Printf.fprintf oc
            "{\"id\":%d,\"name\":%S,\"parent\":%d,\"op\":%d,\"start\":%.6f,\
             \"end\":%.6f}\n"
            s.id s.name s.parent s.op (s.start -. t0) (s.stop -. t0))
        all)
