type t = { name : string; id : int }

(* One lock guards the table and both counters, so any domain may intern.
   Hot callers keep their own cache in front of it: a parse takes the
   lock once per distinct name (the front end's [Lexer.ident]). *)
let lock = Mutex.create ()
let table : (string, t) Hashtbl.t = Hashtbl.create 1024
let counter = ref 0
let fresh_counter = ref 0

let intern_locked name =
  match Hashtbl.find_opt table name with
  | Some t -> t
  | None ->
    let t = { name; id = !counter } in
    incr counter;
    Hashtbl.add table name t;
    t

(* Locked by hand, not with [Mutex.protect], so an intern allocates
   nothing; [Hashtbl] raises nothing here but [Out_of_memory]. *)
let intern name =
  Mutex.lock lock;
  match intern_locked name with
  | t ->
    Mutex.unlock lock;
    t
  | exception e ->
    Mutex.unlock lock;
    raise e

let name t = t.name
let id t = t.id
let equal a b = a.id = b.id
let compare a b = Int.compare a.id b.id
let hash t = t.id
let pp ppf t = Format.pp_print_string ppf t.name

let fresh base =
  Mutex.protect lock (fun () ->
      let rec go () =
        incr fresh_counter;
        let candidate = Printf.sprintf "%s$%d" base !fresh_counter in
        if Hashtbl.mem table candidate then go () else intern_locked candidate
      in
      go ())

module Ord = struct
  type nonrec t = t

  let compare = compare
end

module Map = Map.Make (Ord)
module Set = Set.Make (Ord)

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
