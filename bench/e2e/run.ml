(* One workload in one process: set up, then either the plain closed
   loop (end-to-end metrics) or the traced replay (per-layer metrics).

   Every operation is one closed-loop client request on the sequential
   engine with the program's own telemetry off: the next op starts only
   when the previous one returned. Only the op itself is timed; the
   oracle check, the [Gc.compact] that gives one-shot workloads the
   fresh heap of a new CLI process, and the store reset that starts a
   new oddeven-store epoch happen outside the timed region. *)

open Difftrace
module P = Serve.Protocol
module Daemon = Serve.Daemon

let now = Unix.gettimeofday

let rec rm_rf path =
  match (Unix.lstat path).Unix.st_kind with
  | Unix.S_DIR ->
    Array.iter (fun f -> rm_rf (Filename.concat path f)) (Sys.readdir path);
    Unix.rmdir path
  | _ -> Sys.remove path
  | exception Unix.Unix_error (Unix.ENOENT, _, _) -> ()

let rec mkdir_p dir =
  if not (Sys.file_exists dir) then begin
    mkdir_p (Filename.dirname dir);
    try Sys.mkdir dir 0o755 with Sys_error _ when Sys.is_directory dir -> ()
  end

let copy_file ~src ~dst =
  let data = In_channel.with_open_bin src In_channel.input_all in
  Out_channel.with_open_bin dst (fun oc -> output_string oc data)

(* how one workload's ops run: [plain i] and [traced ~id i] run op [i]
   of the workload's schedule (the traced one as span operation [id])
   and return its wall time and whether its output passed the oracle *)
type ops = {
  plain : int -> float * bool;
  traced : id:int -> int -> float * bool;
  reset : unit -> unit;  (** fresh state, as right after set-up *)
  compact : bool;  (** [Gc.compact] between ops: one-shot CLI workloads *)
  pass_ops : int;  (** ops in one traced replay pass *)
}

let timed f =
  let t0 = now () in
  let v = f () in
  (now () -. t0, v)

let compare_ops (inputs : Inputs.t) (ci : Inputs.compare_inputs) =
  let config = Inputs.config inputs.Inputs.workload in
  let pinned_ok =
    match Inputs.pinned inputs.Inputs.workload with
    | Some (top, bscore)
      when inputs.Inputs.seed = 1 && inputs.Inputs.scale = Inputs.Full ->
      fst ci.Inputs.suspects.(0) = top
      && Printf.sprintf "%.4f" ci.Inputs.bscore = bscore
    | _ -> true
  in
  let req =
    { Session.cp_normal = Session.Archive { dir = ci.Inputs.normal; salvage = false };
      cp_faulty = Session.Archive { dir = ci.Inputs.faulty; salvage = false };
      cp_diffnlr = None }
  in
  let check = function
    | Ok (r : Session.compare_response) ->
      pinned_ok
      && r.Session.cp_output = ci.Inputs.output
      && r.Session.cp_bscore = ci.Inputs.bscore
      && r.Session.cp_suspects = ci.Inputs.suspects
    | Error _ -> false
  in
  { plain =
      (fun _ ->
        let dt, r = timed (fun () -> Session.compare (Session.create ()) config req) in
        (dt, check r));
    traced =
      (fun ~id _ ->
        let r, dt =
          Spans.op id (fun () -> Replay.compare (Memo.create ()) config req)
        in
        (dt, check r));
    reset = ignore;
    compact = true;
    pass_ops = 4 }

(* Op i of an epoch of 5 x variants ops: every 5th brings the next
   never-seen faulty run (the store's write path), the others repeat a
   run already seen (the read path). A new epoch restores the store to
   its set-up snapshot, so the mix stays the same however long the loop
   runs. *)
let store_ops ~dir (inputs : Inputs.t) (si : Inputs.store_inputs) =
  let config = Inputs.config inputs.Inputs.workload in
  let live = Filename.concat dir "live-store" in
  let reset () =
    rm_rf live;
    Sys.mkdir live 0o755;
    Array.iter
      (fun f ->
        copy_file
          ~src:(Filename.concat si.Inputs.snapshot f)
          ~dst:(Filename.concat live f))
      (Sys.readdir si.Inputs.snapshot)
  in
  let epoch = 5 * Array.length si.Inputs.variants in
  let variant i =
    let e = i mod epoch in
    if e mod 5 = 0 then e / 5 else e * 7 mod ((e / 5) + 1)
  in
  let req v =
    { Session.cp_normal = Session.Archive { dir = si.Inputs.s_normal; salvage = false };
      cp_faulty = Session.Archive { dir = fst si.Inputs.variants.(v); salvage = false };
      cp_diffnlr = None }
  in
  let check v = function
    | Ok (r : Session.compare_response) ->
      Inputs.same_report r.Session.cp_output (snd si.Inputs.variants.(v))
    | Error _ -> false
  in
  { plain =
      (fun i ->
        if i > 0 && i mod epoch = 0 then reset ();
        let v = variant i in
        let dt, r =
          timed (fun () ->
              match Store.load ~dir:live with
              | Error e -> Error (Session.Store_failed (Store.error_to_string e))
              | Ok st ->
                let s = Session.create ~store:st () in
                Result.bind (Session.compare s config (req v)) (fun r ->
                    Result.map (fun () -> r) (Session.flush s)))
        in
        (dt, check v r));
    traced =
      (fun ~id i ->
        let v = variant i in
        let r, dt =
          Spans.op id (fun () -> Replay.store_compare ~dir:live config (req v))
        in
        (dt, check v r));
    reset;
    compact = true;
    pass_ops = 10 }

(* One cycle sends one request of each kind, each kind rotating through
   its variants; the replay pass is the cold first cycle plus a warm
   one. *)
let daemon_ops ~dir (di : Inputs.daemon_inputs) =
  List.iter (fun (path, n) -> Hashtbl.replace Replay.log_lines path n) di.Inputs.logs;
  let kinds = di.Inputs.kinds in
  let request i =
    let vs = kinds.(i mod Array.length kinds) in
    vs.((i / Array.length kinds) mod Array.length vs)
  in
  let line i =
    P.encode_request
      { P.req_id = Printf.sprintf "r%d" i; req_call = (request i).Inputs.call }
  in
  let check i response =
    match P.decode_response response with
    | Ok { P.rsp_body = Ok payload; _ } -> (
      (match payload with
      | P.P_vdiff { pv_condition; _ } -> pv_condition = Some Inputs.vdiff_condition
      | _ -> true)
      &&
      match (request i).Inputs.expect with
      | None -> true
      | Some e -> Inputs.same_report (P.payload_output payload) e)
    | _ -> false
  in
  let plain_dir = Filename.concat dir "daemon-store" in
  let replay_dir = Filename.concat dir "replay-store" in
  let fresh_store d =
    rm_rf d;
    match Store.load ~dir:d with
    | Ok st -> st
    | Error e -> failwith ("store: " ^ Store.error_to_string e)
  in
  let daemon = ref None and replay = ref None in
  let reset () =
    daemon :=
      Some
        (Daemon.create ~store:(fresh_store plain_dir)
           ~default_engine:Engine.sequential ());
    replay := Some (Replay.daemon (fresh_store replay_dir))
  in
  { plain =
      (fun i ->
        let l = line i and response = ref "" in
        let emit (Daemon.Send { line; _ }) = response := line in
        let d = Option.get !daemon in
        let dt, _ = timed (fun () -> Daemon.on_line d ~client:0 ~emit l) in
        (dt, check i !response));
    traced =
      (fun ~id i ->
        let l = line i in
        let r = Option.get !replay in
        let response, dt = Spans.op id (fun () -> Replay.daemon_request r l) in
        (dt, check i response));
    reset;
    compact = false;
    pass_ops = 2 * Array.length kinds }

let ops ~dir (inputs : Inputs.t) =
  match inputs.Inputs.body with
  | Inputs.Compare ci -> compare_ops inputs ci
  | Inputs.Store si -> store_ops ~dir inputs si
  | Inputs.Daemon di -> daemon_ops ~dir di

(* --- machine speed ------------------------------------------------------ *)

(* The host's speed drifts when other jobs share it: busy spells, from
   seconds to hours long, make every op half again slower, and a slower
   host must not read as a slower program. So the loops also time this
   fixed
   piece of bench-own work between ops (an in-place sort, a pointer
   chase through half a megabyte and string hashing, all on data built
   once, so it allocates nothing and leaves the heap the ops see
   alone), and report each op's time in kernels: its wall time over
   the kernel's time around it, expressed in seconds through
   [reference_kernel_s]. The program never runs the kernel, so a
   change to the program leaves the kernel alone, while the host's
   drift moves the kernel and the ops alike. *)

let kernel_data =
  lazy
    (let m = 1 lsl 16 in
     ( Array.init 4096 (fun i -> i * 48271 mod 65_537),
       Array.make 4096 0,
       (* x -> 40505x + 1 mod 2^16 visits all 2^16 slots in one cycle *)
       Array.init m (fun i -> ((i * 40_505) + 1) land (m - 1)),
       Array.init 2048 (fun i -> string_of_int (i * 7919)) ))

let kernel () =
  let keys, scratch, next, strings = Lazy.force kernel_data in
  Array.blit keys 0 scratch 0 (Array.length keys);
  Array.sort Int.compare scratch;
  let p = ref 0 in
  for _ = 1 to 200_000 do
    p := next.(!p)
  done;
  let h = ref 0 in
  for _ = 1 to 10 do
    Array.iter (fun s -> h := !h lxor Hashtbl.hash s) strings
  done;
  ignore (Sys.opaque_identity (!p + !h + scratch.(0)))

(* every kernel time this process measured, and the last three *)
let samples = ref []
let recent = ref []

(* The kernel's time, recorded as a sample. An untimed first run brings
   its data back into the caches, so the timed second run does not
   depend on how much memory the op before it touched. *)
let kernel_time () =
  kernel ();
  let t0 = now () in
  kernel ();
  let dt = now () -. t0 in
  samples := dt :: !samples;
  recent := List.filteri (fun i _ -> i < 3) (dt :: !recent);
  dt

(* The kernel's typical time in this process, the median of its
   samples: how fast the host ran. *)
let host_kernel () = Stats.median !samples

(* The kernel's time around the last op: the median of the last three
   samples (one per op, or one per ~90 ms of short ops), which follows
   a busy spell within an op or two. *)
let current () = Stats.median !recent

(* What one kernel counts as: the unit that turns a time in kernels
   back into seconds. It defines the unit, it does not describe a
   host; on the host this was built on the kernel takes 2.1 ms when
   quiet. No reference taken from the run itself can stand in for it:
   the host's busy spells slow the kernel evenly and can last the
   whole run, and then the run's own kernel times move with them. *)
let reference_kernel_s = 0.002

(* [scaled t ~kernel] — a time [t] measured while the kernel took
   [kernel], in reference seconds *)
let scaled t ~kernel = t *. reference_kernel_s /. kernel

(* After an op of [wall] seconds, [sample] times the kernel while that
   keeps the kernel (both its runs) under 5% of op time. *)
type budget = { mutable kernel_s : float; mutable op_s : float }

let sample b wall =
  b.op_s <- b.op_s +. wall;
  if b.kernel_s <= 0.05 *. b.op_s then
    b.kernel_s <- b.kernel_s +. (2.0 *. kernel_time ())

(* --- set-up -------------------------------------------------------------- *)

(* the child process running now: a run that is stopped stops it too *)
let child = ref None

(* [spawn ~stdout args] runs this executable with [args] and waits for
   it; true when it exited with 0 *)
let spawn ~stdout args =
  let pid =
    Unix.create_process Sys.executable_name
      (Array.of_list (Sys.executable_name :: args))
      Unix.stdin stdout Unix.stderr
  in
  child := Some pid;
  let _, status = Unix.waitpid [] pid in
  child := None;
  status = Unix.WEXITED 0

let stop_child () =
  Option.iter
    (fun pid ->
      (try Unix.kill pid Sys.sigterm with Unix.Unix_error _ -> ());
      try ignore (Unix.waitpid [] pid) with Unix.Unix_error _ -> ())
    !child

(* [setup] generates the inputs in a child process (so this process's
   heap never holds the simulator's runs) and prepares the state the
   loop starts from; set-up time is the wall time of both, paired with
   the mean kernel time right before and after it. It runs [reps]
   times, each from scratch into a fresh directory, and keeps the last.
   The earlier directories stay until the caller removes [work]:
   removing thousands of files makes the file system slower to create
   the next set-up's. *)
let setup workload ~scale ~seed ~work ~reps =
  let child dir =
    let args =
      [ "setup"; "--workload"; Inputs.name workload; "--seed"; string_of_int seed;
        "--dir"; dir ]
      @ if scale = Inputs.Quick then [ "--quick" ] else []
    in
    if not (spawn ~stdout:Unix.stderr args) then
      failwith ("input generation failed for " ^ Inputs.name workload)
  in
  mkdir_p work;
  let rec go k times =
    let dir = Filename.concat work (Printf.sprintf "setup%d" k) in
    let before = kernel_time () in
    let t0 = now () in
    child dir;
    let inputs = Inputs.load dir in
    let o = ops ~dir inputs in
    o.reset ();
    let wall = now () -. t0 in
    let times = (wall, (before +. kernel_time ()) /. 2.0) :: times in
    if k + 1 < reps then go (k + 1) times else (List.rev times, inputs, o)
  in
  go 0 []

(* --- the two loops --------------------------------------------------------- *)

(* one op: its wall time, whether its output passed the oracle, and the
   kernel time around it (see [scaled]) *)
type result = { wall : float; ok : bool; kernel : float }

let step o b f =
  let wall, ok = f () in
  if o.compact then Gc.compact ();
  sample b wall;
  { wall; ok; kernel = current () }

let plain_loop o ~seconds =
  let b = { kernel_s = 0.0; op_s = 0.0 } in
  let t_end = now () +. seconds in
  let rec go i acc =
    if i > 0 && now () >= t_end then List.rev acc
    else go (i + 1) (step o b (fun () -> o.plain i) :: acc)
  in
  go 0 []

type pass = { plain_ops : result list; traced_ops : result list; first_op : int }

(* Replay passes until [seconds] are used (at least [min_passes]). Each
   pass runs the first [pass_ops] ops plainly, then traced, both from a
   fresh state, so the layer counts of every pass must be identical and
   the traced/plain ratio compares like with like. *)
let trace_loop o ~seconds ~min_passes =
  Spans.reset ();
  let b = { kernel_s = 0.0; op_s = 0.0 } in
  let t_end = now () +. seconds in
  let run f =
    o.reset ();
    List.init o.pass_ops (fun i -> step o b (fun () -> f i))
  in
  let rec go p acc =
    if p >= min_passes && now () >= t_end then List.rev acc
    else
      let plain_ops = run o.plain in
      let first_op = p * o.pass_ops in
      let traced_ops = run (fun i -> o.traced ~id:(first_op + i) i) in
      go (p + 1) ({ plain_ops; traced_ops; first_op } :: acc)
  in
  go 0 []
