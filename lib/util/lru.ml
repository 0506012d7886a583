type 'a entry = { value : 'a; cost : int; mutable used : int }

type 'a t = {
  budget : int;
  entries : (string, 'a entry) Hashtbl.t;
  mutable held : int;
  mutable clock : int;
}

let create ~budget = { budget; entries = Hashtbl.create 8; held = 0; clock = 0 }

let tick t =
  t.clock <- t.clock + 1;
  t.clock

let find t key =
  match Hashtbl.find_opt t.entries key with
  | None -> None
  | Some e ->
    e.used <- tick t;
    Some e.value

let remove t key =
  match Hashtbl.find_opt t.entries key with
  | None -> ()
  | Some e ->
    Hashtbl.remove t.entries key;
    t.held <- t.held - e.cost

let oldest t =
  Hashtbl.fold
    (fun key e acc ->
      match acc with
      | Some (_, u) when u <= e.used -> acc
      | _ -> Some (key, e.used))
    t.entries None

let add t key ~weight v =
  let cost = max 0 weight in
  remove t key;
  if cost <= t.budget then begin
    Hashtbl.replace t.entries key { value = v; cost; used = tick t };
    t.held <- t.held + cost;
    while t.held > t.budget do
      match oldest t with
      | Some (k, _) -> remove t k
      | None -> assert false
    done
  end

let length t = Hashtbl.length t.entries
let weight t = t.held
