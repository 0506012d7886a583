(* strace-capture ingestion: pid -> thread, syscall -> function, the
   directly-follows reading of Sankaran et al. See syscall.mli. *)

open Difftrace_trace

let name = "syscall"

let is_digit c = c >= '0' && c <= '9'

let is_ident_start c =
  (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z') || c = '_'

let is_ident c = is_ident_start c || is_digit c

let starts_with ~prefix s =
  String.length s >= String.length prefix
  && String.sub s 0 (String.length prefix) = prefix

(* "[pid 1234] rest" or strace -f's "1234  rest" *)
let split_pid line =
  if starts_with ~prefix:"[pid " line then
    match String.index_opt line ']' with
    | Some i ->
      let num = String.trim (String.sub line 5 (i - 5)) in
      (match int_of_string_opt num with
      | Some pid ->
        let rest =
          String.trim (String.sub line (i + 1) (String.length line - i - 1))
        in
        Some (pid, rest)
      | None -> None)
    | None -> None
  else
    let n = String.length line in
    let j = ref 0 in
    while !j < n && is_digit line.[!j] do
      incr j
    done;
    if !j > 0 && !j < n && line.[!j] = ' ' then
      match int_of_string_opt (String.sub line 0 !j) with
      | Some pid ->
        Some (pid, String.trim (String.sub line !j (n - !j)))
      | None -> None
    else None

(* a leading "1693246.123" or "14:02:55.001" timestamp token *)
let drop_timestamp rest =
  let n = String.length rest in
  match String.index_opt rest ' ' with
  | None -> rest
  | Some sp ->
    let tok = String.sub rest 0 sp in
    let timestampish =
      String.length tok > 0
      && is_digit tok.[0]
      && String.for_all (fun c -> is_digit c || c = '.' || c = ':') tok
      && (String.contains tok '.' || String.contains tok ':')
    in
    if timestampish then String.trim (String.sub rest sp (n - sp)) else rest

(* the syscall name at the head of the line, if it looks like one *)
let ident_prefix rest =
  let n = String.length rest in
  if n = 0 || not (is_ident_start rest.[0]) then None
  else begin
    let j = ref 1 in
    while !j < n && is_ident rest.[!j] do
      incr j
    done;
    Some (String.sub rest 0 !j, !j)
  end

type parsed =
  | P_leaf of string          (* complete syscall, signal, or exit *)
  | P_unfinished of string    (* name( ... <unfinished ...> *)
  | P_resumed of string       (* <... name resumed> ... *)
  | P_blank
  | P_bad of string

let parse_line line =
  let line = String.trim line in
  if line = "" then P_blank
  else if starts_with ~prefix:"+++ " line then P_leaf "exited"
  else if starts_with ~prefix:"--- " line then begin
    let rest = String.sub line 4 (String.length line - 4) in
    match ident_prefix rest with
    | Some (signame, _) when String.uppercase_ascii signame = signame ->
      P_leaf ("sig:" ^ signame)
    | _ -> P_bad "malformed signal delivery line"
  end
  else if starts_with ~prefix:"<... " line then begin
    let rest = String.sub line 5 (String.length line - 5) in
    match ident_prefix rest with
    | Some (nm, j)
      when starts_with ~prefix:" resumed>"
             (String.sub rest j (String.length rest - j)) ->
      P_resumed nm
    | _ -> P_bad "malformed resumption line"
  end
  else
    match ident_prefix line with
    | Some (nm, j) when j < String.length line && line.[j] = '(' ->
      let tail = String.sub line j (String.length line - j) in
      if
        (* "<unfinished ...>" anywhere after the args opens a pending call *)
        let tl = String.length tail and pl = String.length "<unfinished" in
        let rec scan i =
          i + pl <= tl
          && (String.sub tail i pl = "<unfinished" || scan (i + 1))
        in
        scan 0
      then P_unfinished nm
      else P_leaf nm
    | _ -> P_bad "unrecognized strace line"

type ev = Call of string | Return of string

(* one pid's lines -> (skeleton, truncated) or the first error; pure,
   so pids fan over the runner independently. Signal deliveries (and
   even further unfinished calls) inside an <unfinished ...> window
   nest inside it — real strace emits exactly that shape when a
   handler interrupts a blocking call. *)
let parse_pid (lines : (int * string) array) =
  let out = Difftrace_util.Vec.create () in
  let pending = ref [] in
  let err = ref None in
  let fail lineno reason =
    if !err = None then
      err :=
        Some
          { Frontend.fe_frontend = name;
            fe_line = Some lineno;
            fe_reason = reason }
  in
  Array.iter
    (fun (lineno, line) ->
      if !err = None then
        match parse_line line with
        | P_blank -> ()
        | P_bad reason -> fail lineno reason
        | P_leaf nm ->
          Difftrace_util.Vec.push out (Call nm);
          Difftrace_util.Vec.push out (Return nm)
        | P_unfinished nm ->
          Difftrace_util.Vec.push out (Call nm);
          pending := nm :: !pending
        | P_resumed nm -> (
          match !pending with
          | p :: rest when p = nm ->
            Difftrace_util.Vec.push out (Return nm);
            pending := rest
          | p :: _ ->
            fail lineno
              (Printf.sprintf "resumption of %s but %s is unfinished" nm p)
          | [] ->
            fail lineno
              (Printf.sprintf "resumption of %s with nothing unfinished" nm)))
    lines;
  match !err with
  | Some e -> Error e
  | None -> Ok (Difftrace_util.Vec.to_array out, !pending <> [])

let root = "process"

let ingest ~runner input =
  match Frontend.split_lines ~frontend:name input with
  | Error e -> Error e
  | Ok lines ->
    (* pids in first-appearance order; tids stay 0 *)
    let order = Difftrace_util.Vec.create () in
    let groups : (int, (int * string) Difftrace_util.Vec.t) Hashtbl.t =
      Hashtbl.create 8
    in
    Array.iteri
      (fun i line ->
        let pid, rest =
          match split_pid line with
          | Some (pid, rest) -> (pid, rest)
          | None -> (0, line)
        in
        let rest = drop_timestamp rest in
        (* a line blank but for its pid or timestamp holds no event, so
           it opens no process: render would drop that empty trace *)
        if String.trim rest <> "" then begin
          let v =
            match Hashtbl.find_opt groups pid with
            | Some v -> v
            | None ->
              let v = Difftrace_util.Vec.create () in
              Hashtbl.add groups pid v;
              Difftrace_util.Vec.push order pid;
              v
          in
          Difftrace_util.Vec.push v (i + 1, rest)
        end)
      lines;
    let pids = Difftrace_util.Vec.to_array order in
    let per_pid =
      Array.map
        (fun pid -> Difftrace_util.Vec.to_array (Hashtbl.find groups pid))
        pids
    in
    let results =
      runner.Difftrace_util.Runner.run (Array.length pids) (fun i -> parse_pid per_pid.(i))
    in
    (* on multiple failures report the earliest line, whatever order
       the runner finished in *)
    let first_err =
      Array.fold_left
        (fun acc r ->
          match (acc, r) with
          | Some (a : Frontend.error), Error b ->
            if
              Option.value ~default:max_int b.Frontend.fe_line
              < Option.value ~default:max_int a.Frontend.fe_line
            then Some b
            else acc
          | None, Error b -> Some b
          | _, Ok _ -> acc)
        None results
    in
    (match first_err with
    | Some e -> Error e
    | None ->
      let symtab = Symtab.create () in
      let traces =
        Array.to_list
          (Array.mapi
             (fun i r ->
               let skel, truncated =
                 match r with Ok v -> v | Error _ -> assert false
               in
               let body =
                 Array.map
                   (function
                     | Call s -> Event.Call (Symtab.intern symtab s)
                     | Return s -> Event.Return (Symtab.intern symtab s))
                   skel
               in
               let rid = Symtab.intern symtab root in
               let events =
                 Array.concat
                   [ [| Event.Call rid |];
                     body;
                     (if truncated then [||] else [| Event.Return rid |]) ]
               in
               (* dense pid -> thread-index mapping (first-appearance
                  order): raw pids differ between two captures of the
                  same program, and aligned labels are what lets the
                  JSM/diffNLR stage match threads across runs *)
               Trace.make ~pid:i ~tid:0 ~truncated events)
             results)
      in
      Ok (Trace_set.create symtab traces))

(* --- canonical rendering --------------------------------------------- *)

let render ts =
  let symtab = Trace_set.symtab ts in
  let b = Buffer.create 1024 in
  Array.iter
    (fun (tr : Trace.t) ->
      let prefix = Printf.sprintf "[pid %d] " tr.Trace.pid in
      let events = tr.Trace.events in
      let n = Array.length events in
      (* a stack of open calls tells leaves from unfinished calls *)
      let i = ref 0 in
      while !i < n do
        (match events.(!i) with
        | Event.Call id ->
          let nm = Symtab.name symtab id in
          if nm = root then ()
          else if !i + 1 < n && events.(!i + 1) = Event.Return id then begin
            (if nm = "exited" then
               Buffer.add_string b (prefix ^ "+++ exited with 0 +++\n")
             else if starts_with ~prefix:"sig:" nm then
               Buffer.add_string b
                 (prefix ^ "--- "
                 ^ String.sub nm 4 (String.length nm - 4)
                 ^ " {} ---\n")
             else Buffer.add_string b (prefix ^ nm ^ "() = 0\n"));
            incr i
          end
          else begin
            Buffer.add_string b (prefix ^ nm ^ "( <unfinished ...>\n");
            (* the matching Return, if any, renders as a resumption *)
            ()
          end
        | Event.Return id ->
          let nm = Symtab.name symtab id in
          if nm <> root then
            Buffer.add_string b (prefix ^ "<... " ^ nm ^ " resumed> ) = 0\n"));
        incr i
      done)
    (Trace_set.traces ts);
  Buffer.contents b

let frontend =
  { Frontend.name;
    version = "1";
    description =
      "strace captures: pid -> thread, syscall -> function, \
       unfinished/resumed nesting, directly-follows-graph view";
    ingest;
    render }
