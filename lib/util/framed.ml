let add_record buf payload =
  Varint.write buf (String.length payload);
  Buffer.add_string buf payload;
  Buffer.add_string buf (Crc32.to_le_bytes (Crc32.string payload))

let fold ~magic image ~init ~f =
  let mlen = String.length magic and total = String.length image in
  if total < mlen || String.sub image 0 mlen <> magic then
    (init, Some "unrecognized magic/version")
  else
    let rec go acc pos =
      if pos >= total then (acc, None)
      else
        match
          let len, p = Varint.read image pos in
          if p + len + 4 > total then Error "truncated record"
          else if
            (* checked in place: a damaged record is never copied *)
            Crc32.finish (Crc32.update Crc32.init image ~pos:p ~len)
            <> Crc32.of_le_bytes image (p + len)
          then Error "CRC mismatch"
          else
            Result.map
              (fun acc -> (acc, p + len + 4))
              (f acc (String.sub image p len))
        with
        | Ok (acc, next) -> go acc next
        | Error reason -> (acc, Some (Printf.sprintf "%s at byte %d" reason pos))
        | exception Invalid_argument _ ->
          (acc, Some (Printf.sprintf "malformed framing at byte %d" pos))
    in
    go init mlen

let footer_len = String.length "crc 00000000\n"

let seal body = body ^ Printf.sprintf "crc %08x\n" (Crc32.string body)

let unseal text =
  let n = String.length text in
  if n <= footer_len then Error `Missing
  else
    let body = String.sub text 0 (n - footer_len) in
    match Scanf.sscanf (String.sub text (n - footer_len) footer_len) "crc %x" Fun.id with
    | crc -> if Crc32.string body = crc then Ok body else Error `Mismatch
    | exception (Scanf.Scan_failure _ | Failure _ | End_of_file) -> Error `Missing

(* a directory opens, but its length then reads as an overflow error *)
let read_file path =
  match Sys.is_directory path with
  | true -> Error (path ^ ": is a directory")
  | false | (exception Sys_error _) -> (
    match open_in_bin path with
    | exception Sys_error m -> Error m
    | ic ->
      Fun.protect
        ~finally:(fun () -> close_in_noerr ic)
        (fun () ->
          match really_input_string ic (in_channel_length ic) with
          | s -> Ok s
          | exception Sys_error m -> Error m
          | exception End_of_file ->
            Error (path ^ ": file shrank while being read")))

(* the writer's pid in the temporary name keeps two processes that save
   the same file from interleaving into one temporary *)
let write_atomic ~path contents =
  let tmp = Printf.sprintf "%s.tmp%d" path (Unix.getpid ()) in
  match open_out_bin tmp with
  | exception Sys_error m -> Error m
  | oc -> (
    match
      output_string oc contents;
      close_out oc;
      Sys.rename tmp path
    with
    | () -> Ok ()
    | exception Sys_error m ->
      close_out_noerr oc;
      (try Sys.remove tmp with Sys_error _ -> ());
      Error m)

let rec mkdir_p dir =
  if Sys.file_exists dir then
    if Sys.is_directory dir then Ok ()
    else Error (Printf.sprintf "%s exists and is not a directory" dir)
  else
    let parent = Filename.dirname dir in
    match if parent <> dir && parent <> "" then mkdir_p parent else Ok () with
    | Error _ as e -> e
    | Ok () -> (
      match Sys.mkdir dir 0o755 with
      | () -> Ok ()
      (* lost a race with another creator: the directory is there *)
      | exception Sys_error _ when Sys.file_exists dir && Sys.is_directory dir -> Ok ()
      | exception Sys_error m -> Error m)
