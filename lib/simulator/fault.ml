type t =
  | No_fault
  | Swap_send_recv of { rank : int; after_iter : int }
  | Deadlock_recv of { rank : int; after_iter : int }
  | Wrong_collective_size of { rank : int }
  | Wrong_collective_op of { rank : int }
  | No_critical of { rank : int; thread : int }
  | Skip_function of { rank : int; func : string }

let equal (a : t) (b : t) = a = b

let to_string = function
  | No_fault -> "none"
  | Swap_send_recv { rank; after_iter } ->
    Printf.sprintf "swapBug(rank=%d,after=%d)" rank after_iter
  | Deadlock_recv { rank; after_iter } ->
    Printf.sprintf "dlBug(rank=%d,after=%d)" rank after_iter
  | Wrong_collective_size { rank } -> Printf.sprintf "wrongSize(rank=%d)" rank
  | Wrong_collective_op { rank } -> Printf.sprintf "wrongOp(rank=%d)" rank
  | No_critical { rank; thread } ->
    Printf.sprintf "noCritical(rank=%d,thread=%d)" rank thread
  | Skip_function { rank; func } ->
    Printf.sprintf "skipFunction(rank=%d,func=%s)" rank func

(* Parses "name" or "name(k=v,...)"; [Bad] never leaves the function *)
let of_string s =
  let exception Bad in
  let parse () =
    let name, args =
      match String.index_opt s '(' with
      | None -> (s, [])
      | Some i when s.[String.length s - 1] = ')' ->
        let inner = String.sub s (i + 1) (String.length s - i - 2) in
        let kv p =
          match String.split_on_char '=' p with
          | [ k; v ] -> (String.trim k, String.trim v)
          | _ -> raise Bad
        in
        ( String.sub s 0 i,
          if inner = "" then [] else List.map kv (String.split_on_char ',' inner) )
      | Some _ -> raise Bad
    in
    let gets k = match List.assoc_opt k args with Some v -> v | None -> raise Bad in
    let geti k = match int_of_string_opt (gets k) with Some n -> n | None -> raise Bad in
    match name with
    | "none" -> No_fault
    | "swapBug" -> Swap_send_recv { rank = geti "rank"; after_iter = geti "after" }
    | "dlBug" -> Deadlock_recv { rank = geti "rank"; after_iter = geti "after" }
    | "wrongSize" -> Wrong_collective_size { rank = geti "rank" }
    | "wrongOp" -> Wrong_collective_op { rank = geti "rank" }
    | "noCritical" -> No_critical { rank = geti "rank"; thread = geti "thread" }
    | "skipFunction" -> Skip_function { rank = geti "rank"; func = gets "func" }
    | _ -> raise Bad
  in
  match parse () with
  | f -> Ok f
  | exception Bad -> Error ("Fault.of_string: " ^ s)

let pp ppf f = Format.pp_print_string ppf (to_string f)
