(* Pipeline-wide telemetry: hierarchical timing spans and named
   counters.

   The whole module is off by default: instrumented code pays one
   atomic load (and a branch) per span or counter touch until it is
   enabled, so the hot kernels can stay instrumented permanently.
   When recording, spans aggregate under their slash-joined path
   ("compare_runs/analyze/summarize") into a mutex-protected table, so
   domains spawned by the parallel engine can record concurrently;
   counters are plain atomics and therefore aggregate deterministically
   no matter how the engine schedules the work. *)

(* ------------------------------------------------------------------ *)
(* Minimal JSON — printing and (for round-tripping reports) parsing.  *)
(* ------------------------------------------------------------------ *)

module Json = struct
  type t =
    | Null
    | Bool of bool
    | Int of int
    | Float of float
    | String of string
    | List of t list
    | Obj of (string * t) list

  let escape s =
    let buf = Buffer.create (String.length s + 8) in
    String.iter
      (fun c ->
        match c with
        | '"' -> Buffer.add_string buf "\\\""
        | '\\' -> Buffer.add_string buf "\\\\"
        | '\n' -> Buffer.add_string buf "\\n"
        | '\r' -> Buffer.add_string buf "\\r"
        | '\t' -> Buffer.add_string buf "\\t"
        | c when Char.code c < 0x20 ->
          Buffer.add_string buf (Printf.sprintf "\\u%04x" (Char.code c))
        | c -> Buffer.add_char buf c)
      s;
    Buffer.contents buf

  (* floats print with enough digits to round-trip exactly, but drop
     the trailing noise of shorter decimals ("0.5" stays "0.5") *)
  let float_repr f =
    if Float.is_integer f && Float.abs f < 1e15 then
      Printf.sprintf "%.1f" f
    else
      let s = Printf.sprintf "%.12g" f in
      if float_of_string s = f then s else Printf.sprintf "%.17g" f

  let rec write buf = function
    | Null -> Buffer.add_string buf "null"
    | Bool b -> Buffer.add_string buf (if b then "true" else "false")
    | Int i -> Buffer.add_string buf (string_of_int i)
    | Float f -> Buffer.add_string buf (float_repr f)
    | String s ->
      Buffer.add_char buf '"';
      Buffer.add_string buf (escape s);
      Buffer.add_char buf '"'
    | List xs ->
      Buffer.add_char buf '[';
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_char buf ',';
          write buf x)
        xs;
      Buffer.add_char buf ']'
    | Obj kvs ->
      Buffer.add_char buf '{';
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_char buf ',';
          Buffer.add_char buf '"';
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\":";
          write buf v)
        kvs;
      Buffer.add_char buf '}'

  let to_string t =
    let buf = Buffer.create 256 in
    write buf t;
    Buffer.contents buf

  (* pretty variant used for files meant to be read (and diffed) by
     humans as well as CI: one object per line inside arrays *)
  let rec write_pretty buf indent = function
    | List (_ :: _ as xs) ->
      let pad = String.make indent ' ' in
      Buffer.add_string buf "[\n";
      List.iteri
        (fun i x ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf pad;
          Buffer.add_string buf "  ";
          write_pretty buf (indent + 2) x)
        xs;
      Buffer.add_char buf '\n';
      Buffer.add_string buf pad;
      Buffer.add_char buf ']'
    | Obj (_ :: _ as kvs) when indent = 0 ->
      Buffer.add_string buf "{\n";
      List.iteri
        (fun i (k, v) ->
          if i > 0 then Buffer.add_string buf ",\n";
          Buffer.add_string buf "  \"";
          Buffer.add_string buf (escape k);
          Buffer.add_string buf "\": ";
          write_pretty buf 2 v)
        kvs;
      Buffer.add_string buf "\n}"
    | t -> write buf t

  let to_string_pretty t =
    let buf = Buffer.create 1024 in
    write_pretty buf 0 t;
    Buffer.add_char buf '\n';
    Buffer.contents buf

  exception Parse_error of string

  (* a small recursive-descent parser; covers everything [write]
     emits (which is all this module ever needs to read back) *)
  let of_string s =
    let n = String.length s in
    let pos = ref 0 in
    let fail msg = raise (Parse_error (Printf.sprintf "%s at %d" msg !pos)) in
    let peek () = if !pos < n then Some s.[!pos] else None in
    let skip_ws () =
      while
        !pos < n
        && (match s.[!pos] with ' ' | '\t' | '\n' | '\r' -> true | _ -> false)
      do
        incr pos
      done
    in
    let expect c =
      if !pos < n && s.[!pos] = c then incr pos
      else fail (Printf.sprintf "expected %C" c)
    in
    let literal word v =
      let l = String.length word in
      if !pos + l <= n && String.sub s !pos l = word then begin
        pos := !pos + l;
        v
      end
      else fail ("bad literal " ^ word)
    in
    let parse_string () =
      expect '"';
      let buf = Buffer.create 16 in
      let rec go () =
        if !pos >= n then fail "unterminated string";
        match s.[!pos] with
        | '"' -> incr pos
        | '\\' ->
          incr pos;
          if !pos >= n then fail "bad escape";
          (match s.[!pos] with
          | '"' -> Buffer.add_char buf '"'
          | '\\' -> Buffer.add_char buf '\\'
          | '/' -> Buffer.add_char buf '/'
          | 'n' -> Buffer.add_char buf '\n'
          | 'r' -> Buffer.add_char buf '\r'
          | 't' -> Buffer.add_char buf '\t'
          | 'b' -> Buffer.add_char buf '\b'
          | 'f' -> Buffer.add_char buf '\012'
          | 'u' ->
            if !pos + 4 >= n then fail "bad \\u escape";
            let hex = String.sub s (!pos + 1) 4 in
            let code = int_of_string ("0x" ^ hex) in
            (* reports only ever escape control characters, so a raw
               byte is a faithful decoding here *)
            if code < 0x100 then Buffer.add_char buf (Char.chr code)
            else fail "non-latin \\u escape";
            pos := !pos + 4
          | c -> fail (Printf.sprintf "bad escape %C" c));
          incr pos;
          go ()
        | c ->
          Buffer.add_char buf c;
          incr pos;
          go ()
      in
      go ();
      Buffer.contents buf
    in
    let parse_number () =
      let start = !pos in
      while
        !pos < n
        &&
        match s.[!pos] with
        | '0' .. '9' | '-' | '+' | '.' | 'e' | 'E' -> true
        | _ -> false
      do
        incr pos
      done;
      let tok = String.sub s start (!pos - start) in
      match int_of_string_opt tok with
      | Some i -> Int i
      | None -> (
        match float_of_string_opt tok with
        | Some f -> Float f
        | None -> fail ("bad number " ^ tok))
    in
    let rec parse_value () =
      skip_ws ();
      match peek () with
      | Some '"' -> String (parse_string ())
      | Some '{' ->
        incr pos;
        skip_ws ();
        if peek () = Some '}' then begin
          incr pos;
          Obj []
        end
        else begin
          let kvs = ref [] in
          let rec members () =
            skip_ws ();
            let k = parse_string () in
            skip_ws ();
            expect ':';
            let v = parse_value () in
            kvs := (k, v) :: !kvs;
            skip_ws ();
            match peek () with
            | Some ',' ->
              incr pos;
              members ()
            | Some '}' -> incr pos
            | _ -> fail "expected ',' or '}'"
          in
          members ();
          Obj (List.rev !kvs)
        end
      | Some '[' ->
        incr pos;
        skip_ws ();
        if peek () = Some ']' then begin
          incr pos;
          List []
        end
        else begin
          let xs = ref [] in
          let rec elements () =
            let v = parse_value () in
            xs := v :: !xs;
            skip_ws ();
            match peek () with
            | Some ',' ->
              incr pos;
              elements ()
            | Some ']' -> incr pos
            | _ -> fail "expected ',' or ']'"
          in
          elements ();
          List (List.rev !xs)
        end
      | Some 't' -> literal "true" (Bool true)
      | Some 'f' -> literal "false" (Bool false)
      | Some 'n' -> literal "null" Null
      | Some _ -> parse_number ()
      | None -> fail "empty input"
    in
    let v = parse_value () in
    skip_ws ();
    if !pos <> n then fail "trailing garbage";
    v

  let member key = function
    | Obj kvs -> List.assoc_opt key kvs
    | _ -> None

  let to_int = function
    | Int i -> Some i
    | _ -> None

  let to_str = function
    | String s -> Some s
    | _ -> None
end

(* ------------------------------------------------------------------ *)
(* Global switch and clock                                            *)
(* ------------------------------------------------------------------ *)

let enabled_flag = Atomic.make false
let enabled () = Atomic.get enabled_flag

(* [Unix.gettimeofday] is the best stdlib-only approximation of a
   monotonic clock; tests inject a deterministic one instead *)
let real_clock = Unix.gettimeofday
let clock = ref real_clock
let set_clock = function Some c -> clock := c | None -> clock := real_clock

let track_alloc = ref true
let set_track_alloc b = track_alloc := b

(* ------------------------------------------------------------------ *)
(* Counters                                                           *)
(* ------------------------------------------------------------------ *)

module Counter = struct
  type t = { name : string; cell : int Atomic.t }

  let registry : (string, t) Hashtbl.t = Hashtbl.create 32
  let mu = Mutex.create ()

  let make name =
    Mutex.lock mu;
    let c =
      match Hashtbl.find_opt registry name with
      | Some c -> c
      | None ->
        let c = { name; cell = Atomic.make 0 } in
        Hashtbl.add registry name c;
        c
    in
    Mutex.unlock mu;
    c

  let add c n =
    if Atomic.get enabled_flag then ignore (Atomic.fetch_and_add c.cell n)

  let incr c = add c 1
  let name c = c.name
  let value c = Atomic.get c.cell

  let reset_all () =
    Mutex.lock mu;
    Hashtbl.iter (fun _ c -> Atomic.set c.cell 0) registry;
    Mutex.unlock mu

  let dump () =
    Mutex.lock mu;
    let all =
      Hashtbl.fold
        (fun name c acc ->
          let v = Atomic.get c.cell in
          if v <> 0 then (name, v) :: acc else acc)
        registry []
    in
    Mutex.unlock mu;
    List.sort (fun (a, _) (b, _) -> String.compare a b) all
end

(* ------------------------------------------------------------------ *)
(* Spans                                                              *)
(* ------------------------------------------------------------------ *)

type agg = { mutable a_count : int; mutable a_wall : float; mutable a_alloc : float }

let span_table : (string, agg) Hashtbl.t = Hashtbl.create 32
let span_mu = Mutex.create ()

let record_span path wall alloc =
  Mutex.lock span_mu;
  (match Hashtbl.find_opt span_table path with
  | Some a ->
    a.a_count <- a.a_count + 1;
    a.a_wall <- a.a_wall +. wall;
    a.a_alloc <- a.a_alloc +. alloc
  | None ->
    Hashtbl.add span_table path
      { a_count = 1; a_wall = wall; a_alloc = alloc });
  Mutex.unlock span_mu

module Span = struct
  (* each domain tracks its own span stack; the stored strings are the
     already-joined full paths so closing a span is allocation-free *)
  let stack_key : string list ref Domain.DLS.key =
    Domain.DLS.new_key (fun () -> ref [])

  let run ~root name f =
    if not (Atomic.get enabled_flag) then f ()
    else begin
      let stack = Domain.DLS.get stack_key in
      let path =
        match !stack with
        | parent :: _ when not root -> parent ^ "/" ^ name
        | _ -> name
      in
      stack := path :: !stack;
      let a0 = if !track_alloc then Gc.allocated_bytes () else 0.0 in
      let t0 = !clock () in
      Fun.protect
        ~finally:(fun () ->
          let wall = !clock () -. t0 in
          let alloc =
            if !track_alloc then Gc.allocated_bytes () -. a0 else 0.0
          in
          (stack := match !stack with _ :: tl -> tl | [] -> []);
          record_span path wall alloc)
        f
    end

  let with_ name f = run ~root:false name f

  (* for work that executes on engine-spawned domains: anchor at the
     root so every domain's share lands under the same path *)
  let with_root name f = run ~root:true name f

  let current_path () =
    match !(Domain.DLS.get stack_key) with [] -> None | p :: _ -> Some p
end

(* ------------------------------------------------------------------ *)
(* Enable / disable / reset                                           *)
(* ------------------------------------------------------------------ *)

let reset () =
  Mutex.lock span_mu;
  Hashtbl.reset span_table;
  Mutex.unlock span_mu;
  Counter.reset_all ()

let enable () =
  reset ();
  Atomic.set enabled_flag true

let disable () = Atomic.set enabled_flag false

(* ------------------------------------------------------------------ *)
(* Reports                                                            *)
(* ------------------------------------------------------------------ *)

type span = { path : string; count : int; wall_ns : int; alloc_bytes : int }
type report = { spans : span list; counters : (string * int) list }

let report () =
  Mutex.lock span_mu;
  let spans =
    Hashtbl.fold
      (fun path a acc ->
        { path;
          count = a.a_count;
          wall_ns = int_of_float (Float.round (a.a_wall *. 1e9));
          alloc_bytes = int_of_float (Float.round a.a_alloc) }
        :: acc)
      span_table []
  in
  Mutex.unlock span_mu;
  { spans = List.sort (fun a b -> String.compare a.path b.path) spans;
    counters = Counter.dump () }

let schema_version = "difftrace-telemetry/1"

let report_to_json r =
  Json.Obj
    [ ("schema", Json.String schema_version);
      ( "spans",
        Json.List
          (List.map
             (fun s ->
               Json.Obj
                 [ ("path", Json.String s.path);
                   ("count", Json.Int s.count);
                   ("wall_ns", Json.Int s.wall_ns);
                   ("alloc_bytes", Json.Int s.alloc_bytes) ])
             r.spans) );
      ( "counters",
        Json.List
          (List.map
             (fun (name, value) ->
               Json.Obj
                 [ ("name", Json.String name); ("value", Json.Int value) ])
             r.counters) ) ]

let to_json r = Json.to_string_pretty (report_to_json r)

let report_of_json_value j =
  let get_list what = function
    | Some (Json.List l) -> l
    | _ -> raise (Json.Parse_error ("telemetry report: missing " ^ what))
  in
  let get what f o =
    match Option.bind (Json.member what o) f with
    | Some v -> v
    | None -> raise (Json.Parse_error ("telemetry report: bad field " ^ what))
  in
  (match Option.bind (Json.member "schema" j) Json.to_str with
  | Some v when v = schema_version -> ()
  | Some v -> raise (Json.Parse_error ("unsupported telemetry schema " ^ v))
  | None -> raise (Json.Parse_error "not a telemetry report: no schema"));
  { spans =
      List.map
        (fun o ->
          { path = get "path" Json.to_str o;
            count = get "count" Json.to_int o;
            wall_ns = get "wall_ns" Json.to_int o;
            alloc_bytes = get "alloc_bytes" Json.to_int o })
        (get_list "spans" (Json.member "spans" j));
    counters =
      List.map
        (fun o -> (get "name" Json.to_str o, get "value" Json.to_int o))
        (get_list "counters" (Json.member "counters" j)) }

let report_of_json s = report_of_json_value (Json.of_string s)

(* ------------------------------------------------------------------ *)
(* Rendering                                                          *)
(* ------------------------------------------------------------------ *)

let render r =
  let buf = Buffer.create 1024 in
  (if r.spans <> [] then
     let rows =
       List.map
         (fun s ->
           let depth =
             String.fold_left
               (fun acc c -> if c = '/' then acc + 1 else acc)
               0 s.path
           in
           let leaf =
             match String.rindex_opt s.path '/' with
             | None -> s.path
             | Some i ->
               String.sub s.path (i + 1) (String.length s.path - i - 1)
           in
           [ String.make (2 * depth) ' ' ^ leaf;
             string_of_int s.count;
             Printf.sprintf "%.3f" (float_of_int s.wall_ns /. 1e6);
             Printf.sprintf "%.1f" (float_of_int s.alloc_bytes /. 1024.0) ])
         r.spans
     in
     Buffer.add_string buf
       (Difftrace_util.Texttable.render
          ~aligns:
            Difftrace_util.Texttable.[ Left; Right; Right; Right ]
          ~headers:[ "Stage"; "Count"; "Wall (ms)"; "Alloc (KiB)" ]
          rows));
  (if r.counters <> [] then
     Buffer.add_string buf
       (Difftrace_util.Texttable.render
          ~aligns:Difftrace_util.Texttable.[ Left; Right ]
          ~headers:[ "Counter"; "Value" ]
          (List.map
             (fun (name, v) -> [ name; string_of_int v ])
             r.counters)));
  if r.spans = [] && r.counters = [] then
    Buffer.add_string buf "(telemetry: nothing recorded)\n";
  Buffer.contents buf
