let names = [ "heat"; "heat2d"; "ilcs"; "lulesh"; "oddeven" ]

let max_np = function "ilcs" -> Some Ilcs.max_np | _ -> None

let run ?level ?max_steps name ~np ~seed ~fault =
  match name with
  | "oddeven" -> Some (fst (Odd_even.run ~np ~seed ?level ?max_steps ~fault ()))
  | "ilcs" -> Some (fst (Ilcs.run ~np ~seed ?level ?max_steps ~fault ()))
  | "lulesh" -> Some (Lulesh.run ~np ~seed ?level ?max_steps ~fault ())
  | "heat" -> Some (fst (Heat.run ~np ~seed ?level ?max_steps ~fault ()))
  | "heat2d" ->
    let px = max 1 (np / 2) and py = if np >= 2 then 2 else 1 in
    Some (fst (Heat2d.run ~px ~py ~seed ?level ?max_steps ~fault ()))
  | _ -> None
