open Difftrace_nlr

type granularity = Single | Double
type freq_mode = Actual | Log10 | No_freq
type spec = { granularity : granularity; freq_mode : freq_mode }

let name s =
  let g = match s.granularity with Single -> "sing" | Double -> "doub" in
  let f =
    match s.freq_mode with Actual -> "actual" | Log10 -> "log10" | No_freq -> "noFreq"
  in
  g ^ "." ^ f

let parse str =
  match String.split_on_char '.' str with
  | [ ("sing" | "doub") as g; ("actual" | "log10" | "noFreq") as f ] ->
    Ok
      { granularity = (if g = "sing" then Single else Double);
        freq_mode =
          (match f with "actual" -> Actual | "log10" -> Log10 | _ -> No_freq) }
  | _ -> Error ("Attributes.of_name: " ^ str)

let of_name str = Result.fold ~ok:Fun.id ~error:invalid_arg (parse str)

let all =
  [ { granularity = Single; freq_mode = Actual };
    { granularity = Single; freq_mode = Log10 };
    { granularity = Single; freq_mode = No_freq };
    { granularity = Double; freq_mode = Actual };
    { granularity = Double; freq_mode = Log10 };
    { granularity = Double; freq_mode = No_freq } ]

let log10_bucket n = int_of_float (Float.log10 (float_of_int (max 1 n)))

let of_nlr spec symtab (nlr : Nlr.t) =
  let freqs : (string, int) Hashtbl.t = Hashtbl.create 64 in
  let bump key n =
    Hashtbl.replace freqs key
      (n + Option.value ~default:0 (Hashtbl.find_opt freqs key))
  in
  let elems = nlr.Nlr.elems in
  (match spec.granularity with
  | Single ->
    Array.iter
      (fun e -> bump (Nlr.token symtab e) (Nlr.multiplicity e))
      elems
  | Double ->
    for i = 0 to Array.length elems - 2 do
      let a = elems.(i) and b = elems.(i + 1) in
      let key = Nlr.token symtab a ^ "->" ^ Nlr.token symtab b in
      bump key (min (Nlr.multiplicity a) (Nlr.multiplicity b))
    done);
  Hashtbl.fold
    (fun key freq acc ->
      let attr =
        match spec.freq_mode with
        | No_freq -> key
        | Actual -> Printf.sprintf "%s:%d" key freq
        | Log10 -> Printf.sprintf "%s:e%d" key (log10_bucket freq)
      in
      attr :: acc)
    freqs []
  |> List.sort String.compare
