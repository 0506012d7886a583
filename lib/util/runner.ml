type t = { run : 'a. int -> (int -> 'a) -> 'a array }

let sequential = { run = Array.init }
