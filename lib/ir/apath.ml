open Support
open Minim3

type selector =
  | Sfield of Ident.t * Types.tid
  | Sderef of Types.tid
  | Sindex of Reg.atom * Types.tid

(* Hash-consed shared-spine representation. A path is a parent pointer plus
   one selector; extending is O(1) and shares the whole prefix, so the old
   [sels @ [sel]] copy (quadratic over a lowering or rewrite that extends
   step by step) is gone. Every node is interned in a global table, so
   physical equality coincides with structural equality, [hash] is a cached
   field, and [prefix]/[last]/[length]/[ty] are O(1) field reads.

   The cached hash reproduces the historical structural fold exactly
   (base var id, then [h*31 + sel_hash] per selector) so hashtable bucket
   layouts — and hence any iteration-order-dependent downstream output —
   are unchanged by the representation swap. *)
type t = {
  id : int;  (* dense intern id; also the key other tables index on *)
  h : int;  (* structural hash, identical to the pre-interning fold *)
  len : int;
  res_ty : Types.tid;  (* the paper's Type (AP), cached *)
  base : Reg.var;
  node : node;
}

and node = Root | Snoc of t * selector

let selector_result = function
  | Sfield (_, ty) | Sderef ty | Sindex (_, ty) -> ty

(* Intern keys are flat tuples of ints (plus the odd char/bool), so the
   polymorphic hash never walks deep structure. Variables are keyed on all
   their leaf fields, not just [v_id]: ids are unique within one program but
   recycled across programs (the fuzzer analyzes hundreds per process), and
   conflating two same-id variables with different types or names would leak
   one program's metadata into another's paths. Within a single program the
   extra fields are redundant, so interning still identifies exactly the
   paths the old structural equality did. *)
type akey =
  | Kvar of int * int * int * int
  | Kint of int
  | Kbool of bool
  | Kchar of char
  | Knil

type key =
  | Kroot of int * int * int * int  (* v_id, name, ty, kind *)
  | Kfield of int * int * int  (* parent id, field name, content ty *)
  | Kderef of int * int
  | Kindex of int * akey * int

let kind_code = function
  | Reg.Vglobal -> 0
  | Reg.Vparam Ast.By_value -> 1
  | Reg.Vparam Ast.By_ref -> 2
  | Reg.Vlocal -> 3
  | Reg.Vtemp -> 4
  | Reg.Vaddr -> 5

let akey = function
  | Reg.Avar v ->
    Kvar (v.Reg.v_id, Ident.hash v.Reg.v_name, v.Reg.v_ty, kind_code v.Reg.v_kind)
  | Reg.Aint n -> Kint n
  | Reg.Abool b -> Kbool b
  | Reg.Achar c -> Kchar c
  | Reg.Anil -> Knil

module Ktbl = Hashtbl.Make (struct
  type t = key

  let equal (a : key) (b : key) = a = b
  let hash = Hashtbl.hash
end)

let table : t Ktbl.t = Ktbl.create 4096
let next_id = ref 0
let interned () = !next_id

(* The intern table is process-global, and any domain may intern: the
   per-procedure pass engine and the daemon's workers lower, analyze and
   rewrite on several domains at once. One lock guards the table and the
   id counter, taken by hand (not with [Mutex.protect]) so an intern
   allocates no closure. Readers of already-interned paths never touch
   the table — [id]/[hash]/[prefixes] are field reads. *)
let lock = Mutex.create ()

(* Under [lock]: record a node built with id [!next_id]. *)
let add key t =
  incr next_id;
  Ktbl.add table key t;
  t

let sel_hash = function
  | Sfield (f, _) -> 3 + (17 * Ident.hash f)
  | Sderef _ -> 5
  | Sindex (Reg.Avar v, _) -> 7 + (17 * Reg.var_hash v)
  | Sindex (Reg.Aint n, _) -> 11 + (17 * n)
  | Sindex (_, _) -> 13

let of_var base =
  let key =
    Kroot
      ( base.Reg.v_id, Ident.hash base.Reg.v_name, base.Reg.v_ty,
        kind_code base.Reg.v_kind )
  in
  Mutex.lock lock;
  match
    match Ktbl.find_opt table key with
    | Some t -> t
    | None ->
      add key
        { id = !next_id; h = Reg.var_hash base; len = 0;
          res_ty = base.Reg.v_ty; base; node = Root }
  with
  | t ->
    Mutex.unlock lock;
    t
  | exception e ->
    Mutex.unlock lock;
    raise e

let extend t sel =
  let key =
    match sel with
    | Sfield (f, ty) -> Kfield (t.id, Ident.hash f, ty)
    | Sderef ty -> Kderef (t.id, ty)
    | Sindex (a, ty) -> Kindex (t.id, akey a, ty)
  in
  Mutex.lock lock;
  match
    match Ktbl.find_opt table key with
    | Some u -> u
    | None ->
      add key
        { id = !next_id; h = (t.h * 31) + sel_hash sel; len = t.len + 1;
          res_ty = selector_result sel; base = t.base; node = Snoc (t, sel) }
  with
  | u ->
    Mutex.unlock lock;
    u
  | exception e ->
    Mutex.unlock lock;
    raise e

let make base sels = List.fold_left extend (of_var base) sels
let base t = t.base

let sels t =
  let rec go acc t =
    match t.node with Root -> acc | Snoc (p, s) -> go (s :: acc) p
  in
  go [] t

let ty t = t.res_ty
let length t = t.len
let is_memory_ref t = t.len > 0
let prefix t = match t.node with Root -> None | Snoc (p, _) -> Some p
let last t = match t.node with Root -> None | Snoc (_, s) -> Some s

let prefix_ty t =
  match t.node with Root -> t.base.Reg.v_ty | Snoc (p, _) -> p.res_ty

let prefixes t =
  let rec go acc t =
    match t.node with Root -> acc | Snoc (p, _) -> go (t :: acc) p
  in
  go [] t

let rec truncate t k =
  if t.len <= k then t
  else match t.node with Root -> t | Snoc (p, _) -> truncate p k

let sels_between t lo hi =
  let rec go acc t =
    if t.len <= lo then acc
    else
      match t.node with Root -> acc | Snoc (p, s) -> go (s :: acc) p
  in
  go [] (truncate t hi)

let sels_from t lo = sels_between t lo t.len
let concat a b = List.fold_left extend a (sels b)
let equal a b = a == b
let hash t = t.h
let id t = t.id

let atom_compare a b =
  let rank = function
    | Reg.Avar _ -> 0
    | Reg.Aint _ -> 1
    | Reg.Abool _ -> 2
    | Reg.Achar _ -> 3
    | Reg.Anil -> 4
  in
  match (a, b) with
  | Reg.Avar x, Reg.Avar y -> Reg.var_compare x y
  | Reg.Aint x, Reg.Aint y -> Int.compare x y
  | Reg.Abool x, Reg.Abool y -> Bool.compare x y
  | Reg.Achar x, Reg.Achar y -> Char.compare x y
  | Reg.Anil, Reg.Anil -> 0
  | _ -> Int.compare (rank a) (rank b)

(* Selector result types are ignored, index atoms matter — the historical
   order, kept so canonicalized pair keys (cache, claims ledger) are
   unchanged. On well-typed paths the result types are determined by the
   base and the selector names, so this order is consistent with physical
   equality there. *)
let sel_compare a b =
  match (a, b) with
  | Sfield (f, _), Sfield (g, _) -> Ident.compare f g
  | Sderef _, Sderef _ -> 0
  | Sindex (i, _), Sindex (j, _) -> atom_compare i j
  | Sfield _, _ -> -1
  | _, Sfield _ -> 1
  | Sderef _, _ -> -1
  | _, Sderef _ -> 1

let compare a b =
  if a == b then 0
  else
    let c = Reg.var_compare a.base b.base in
    if c <> 0 then c
    else
      let rec go xs ys =
        match (xs, ys) with
        | [], [] -> 0
        | [], _ -> -1
        | _, [] -> 1
        | x :: xs, y :: ys ->
          let c = sel_compare x y in
          if c <> 0 then c else go xs ys
      in
      go (sels a) (sels b)

let vars_used t =
  let idx =
    List.filter_map
      (function Sindex (Reg.Avar v, _) -> Some v | _ -> None)
      (sels t)
  in
  t.base :: idx

let pp ppf t =
  Reg.pp_var ppf t.base;
  List.iter
    (function
      | Sfield (f, _) -> Format.fprintf ppf ".%a" Ident.pp f
      | Sderef _ -> Format.pp_print_string ppf "^"
      | Sindex (i, _) -> Format.fprintf ppf "[%a]" Reg.pp_atom i)
    (sels t)

let to_string t = Format.asprintf "%a" pp t

module Tbl = Hashtbl.Make (struct
  type nonrec t = t

  let equal = equal
  let hash = hash
end)
