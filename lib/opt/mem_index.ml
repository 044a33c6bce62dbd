open Support
open Ir
open Tbaa

(* One procedure's memory-effect index: "may instruction i write / read
   cell c", answered once from the oracle and mod-ref and shared by every
   TBAA client that runs against the same analysis revision.

   Cells are access paths, interned on first use (every client interns
   the prefixes of the loaded and stored paths it tracks, plus
   base-variable slots), so the universe grows as clients and rewrites
   introduce paths.

   An instruction's effect is the union of a few legs — its definition,
   its store or call, its memory-resident register reads, and each cell
   it reads (the prefixes a load reads, the prefixes an address or a
   store navigates) — and each leg depends on one fact only: a variable,
   a path or a call target. Rows hold one leg's answers across the cells,
   so every instruction that stores through [p], reads cell [p] or calls
   [f] shares one row, whatever its position: rewrites inside the procedure
   never stale a row, only a new analysis revision does, and the pass
   manager drops the index then. A definition of a register-resident
   variable needs no oracle at all (the cells whose path reads the
   variable), so it has no row. *)

(* ------------------------------------------------------------------ *)
(* Cells                                                               *)
(* ------------------------------------------------------------------ *)

(* A cell, as the index keeps it for as long as it lives: its path, its
   base slot (interning it costs a table probe) and its store class. *)
type cell = {
  c_path : Apath.t;
  c_base : Apath.t;  (* the base variable's slot, as a path *)
  mutable c_class : Aloc.t option;  (* store_class, on first need *)
}

let make_cell ap =
  { c_path = ap; c_base = Apath.of_var (Apath.base ap); c_class = None }

(* What the legs consult about a cell: derived once per view, and dropped
   with it, so retained indexes stay small. *)
type shape = {
  s_cell : cell;
  s_path : Apath.t;
  s_vars : Reg.var list;  (* variables the path reads (base and indices) *)
  s_prefixes : Apath.t list;  (* all prefixes with a selector, the path
                                 included *)
  s_all : Apath.t list;  (* base slot and prefixes: the locations whose
                            contents the path's value depends on *)
  s_proper : Apath.t list;  (* the prefixes the path navigates through *)
  s_denote : Apath.t list;  (* base slot and proper prefixes: writing one
                               changes which cell the path denotes *)
  s_base : Apath.t;
}

let shape c =
  let ap = c.c_path in
  let prefixes = Apath.prefixes ap in
  let proper = List.filter (fun r -> not (Apath.equal r ap)) prefixes in
  { s_cell = c; s_path = ap; s_vars = Apath.vars_used ap;
    s_prefixes = prefixes; s_all = c.c_base :: prefixes; s_proper = proper;
    s_denote = c.c_base :: proper; s_base = c.c_base }

(* ------------------------------------------------------------------ *)
(* Rows                                                                *)
(* ------------------------------------------------------------------ *)

type witness = Apath.t * Apath.t * bool

(* [note p1 p2 answer] is handed every oracle answer a leg consults and
   returns the answer. *)
type note = Apath.t -> Apath.t -> bool -> bool

(* A leg: its row key and its test, built only when the row is. The key
   packs a tag with the ids of the fact the leg depends on (a variable or
   path id, or a call target's name id and receiver type) into one int,
   so the tables probe on integer compares alone. *)
type leg = { key : int; make : unit -> note -> shape -> bool }

let key tag a b = a lor (b lsl 30) lor (tag lsl 56)

module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash k = (k lxor (k lsr 29) lxor (k lsr 47)) land max_int
end)

type t = {
  mutable oracle : Oracle.t Lazy.t;
      (* forced only when an answer is missing: a pass whose answers are
         all known never builds its oracle cache *)
  addr_taken_var : Reg.var -> bool;
  modref : Modref.t;
  witnesses : bool;
  ids : int Apath.Tbl.t;
  cells : cell Vec.t;
  rows : Bytes.t Itbl.t;
      (* leg key -> the leg's answers, two bits per cell (known, then
         yes), four cells to a byte. Rows keep no closure — a leg's test
         is rebuilt when an answer is missing — so a retained index holds
         on to no oracle cache. *)
  wits : witness list array Itbl.t;
      (* leg key -> per cell, the oracle answers behind the row's bit;
         kept only with [witnesses] *)
}

let create ?(witnesses = false) oracle modref =
  { oracle = Lazy.from_val oracle;
    addr_taken_var = oracle.Oracle.addr_taken_var; modref; witnesses;
    ids = Apath.Tbl.create 8; cells = Vec.create (); rows = Itbl.create 8;
    wits = Itbl.create 1 }

let oracle t = Lazy.force t.oracle
let set_oracle t o = t.oracle <- o
let witnesses t = t.witnesses

let cell t ap =
  match Apath.Tbl.find_opt t.ids ap with
  | Some c -> c
  | None ->
    let c = Vec.push t.cells (make_cell ap) in
    Apath.Tbl.add t.ids ap c;
    c

let memory_resident t (v : Reg.var) =
  v.Reg.v_kind = Reg.Vglobal || t.addr_taken_var v

let store_class t s =
  let c = s.s_cell in
  match c.c_class with
  | Some k -> k
  | None ->
    let k = (oracle t).Oracle.store_class c.c_path in
    c.c_class <- Some k;
    k

(* Keys of read legs carry tags from 4 up (see the legs below). *)
let is_read key = key lsr 56 >= 4

let release t o =
  t.oracle <- Lazy.from_val o;
  let writes_only k x = if is_read k then None else Some x in
  Itbl.filter_map_inplace writes_only t.rows;
  Itbl.filter_map_inplace writes_only t.wits;
  Itbl.length t.rows > 0

(* The leg's row (and witnesses), grown to cover every cell interned so
   far. *)
let row t key =
  let n = (Vec.length t.cells + 3) lsr 2 in
  match Itbl.find_opt t.rows key with
  | Some r when Bytes.length r >= n -> r
  | found ->
    let r = Bytes.make n '\000' in
    Option.iter (fun old -> Bytes.blit old 0 r 0 (Bytes.length old)) found;
    Itbl.replace t.rows key r;
    r

let row_witnesses t key =
  let n = Vec.length t.cells in
  match Itbl.find_opt t.wits key with
  | Some w when Array.length w >= n -> w
  | found ->
    let w = Array.make n [] in
    Option.iter (fun old -> Array.blit old 0 w 0 (Array.length old)) found;
    Itbl.replace t.wits key w;
    w

(* The row's answer for cell [c] (of shape [sh]), computed (and its
   witnesses kept) on first request. *)
let bit t row wits test c sh =
  let byte = c lsr 2 and shift = (c land 3) lsl 1 in
  let s = Char.code (Bytes.unsafe_get row byte) in
  if s land (1 lsl shift) <> 0 then s land (2 lsl shift) <> 0
  else begin
    let ans =
      if t.witnesses then begin
        let seen = ref [] in
        let ans =
          Lazy.force test
            (fun p1 p2 a ->
              seen := (p1, p2, a) :: !seen;
              a)
            sh
        in
        wits.(c) <- !seen;
        ans
      end
      else Lazy.force test (fun _ _ a -> a) sh
    in
    Bytes.unsafe_set row byte
      (Char.unsafe_chr (s lor ((if ans then 3 else 1) lsl shift)));
    ans
  end

(* ------------------------------------------------------------------ *)
(* Legs                                                                *)
(* ------------------------------------------------------------------ *)

let target_key tag = function
  | Instr.Cdirect p -> key tag (Ident.id p) 0
  | Instr.Cvirtual (m, recv) -> key (tag + 1) (Ident.id m) recv

let reads_var (v : Reg.var) s = List.exists (Reg.var_equal v) s.s_vars

(* Write legs: may the fact change the value a cell's path reads?

   A definition of a memory-resident variable (a global or address-taken
   variable) does when the variable is the path's base or an index, or
   when a location of its class may underlie the base slot or a prefix
   cell. A store does when it may alias a prefix, or when its class may
   overwrite the base variable's slot. A call does when a possible
   callee's transitive mod set may write the base slot or a prefix
   (class sets carry no witness path, so those answers are not noted). *)

let def_write t (v : Reg.var) =
  { key = key 0 v.Reg.v_id 0;
    make =
      (fun () ->
        let cls = Aloc.Lvar (v.Reg.v_id, v.Reg.v_ty) in
        let vpath = Apath.of_var v in
        let o = oracle t in
        fun note c ->
          reads_var v c
          || List.exists
               (fun p -> note vpath p (o.Oracle.class_kills cls p))
               c.s_all) }

let store_write t sap =
  { key = key 1 (Apath.id sap) 0;
    make =
      (fun () ->
        let o = oracle t in
        let scls = o.Oracle.store_class sap in
        fun note c ->
          List.exists
            (fun prefix -> note sap prefix (o.Oracle.may_alias sap prefix))
            c.s_prefixes
          || note sap c.s_base (o.Oracle.class_kills scls c.s_base)) }

let call_write t target =
  { key = target_key 2 target;
    make =
      (fun () ->
        let cp = Modref.call_kill_pred t.modref (oracle t) target in
        fun _ c -> cp c.s_all) }

(* Read legs: may the fact read the cell a path denotes, or change which
   cell that is? (Writing the cell itself is not a read: a later store to
   the same path still overwrites it.)

   - A definition of a memory-resident variable the path reads, or whose
     slot may underlie the base slot or a proper prefix.
   - A register read of a memory-resident variable whose slot a write to
     the path may reach.
   - A load whose prefixes may alias the path; the navigation reads (the
     proper prefixes) of an address computation or a store.
   - A store that may write a cell the path navigates through (a proper
     prefix, or the base variable's slot).
   - A call whose callees may read the cell (ref sets), or may rewrite
     its denotation (mod sets over the base slot and proper prefixes). *)

let def_read t (v : Reg.var) =
  { key = key 4 v.Reg.v_id 0;
    make =
      (fun () ->
        let cls = Aloc.Lvar (v.Reg.v_id, v.Reg.v_ty) in
        let vp = Apath.of_var v in
        let o = oracle t in
        fun note c ->
          reads_var v c
          || List.exists
               (fun p -> note vp p (o.Oracle.class_kills cls p))
               c.s_denote) }

let reg_read t (v : Reg.var) =
  { key = key 5 v.Reg.v_id 0;
    make =
      (fun () ->
        let vp = Apath.of_var v in
        let o = oracle t in
        fun note c ->
          note c.s_path vp (o.Oracle.class_kills (store_class t c) vp)) }

(* One memory cell an instruction reads: a load reads every prefix of its
   path, an address computation or a store its navigation prefixes. The
   leg is per cell read, not per instruction path, because loads share
   prefixes far more often than whole paths. *)
let cell_read t q =
  { key = key 6 (Apath.id q) 0;
    make =
      (fun () ->
        let o = oracle t in
        fun note c -> note c.s_path q (o.Oracle.may_alias c.s_path q)) }

let store_read t q =
  { key = key 7 (Apath.id q) 0;
    make =
      (fun () ->
        let o = oracle t in
        let scls = o.Oracle.store_class q in
        fun note c ->
          List.exists (fun p -> note q p (o.Oracle.may_alias q p)) c.s_proper
          || note q c.s_base (o.Oracle.class_kills scls c.s_base)) }

let call_read t target =
  { key = target_key 8 target;
    make =
      (fun () ->
        let rp = Modref.call_ref_pred t.modref (oracle t) target in
        let kp = Modref.call_kill_pred t.modref (oracle t) target in
        fun _ c -> rp [ c.s_path ] || kp c.s_denote) }

(* ------------------------------------------------------------------ *)
(* Client views                                                        *)
(* ------------------------------------------------------------------ *)

(* A client's own numbering of the cells it tracks, with each leg's set
   materialized once in that numbering. Clients keep their own numbering
   because it decides their output order (fresh temporaries, insertion
   order). *)
type view = {
  v_index : t;
  v_cells : int array;
  v_shapes : shape array;  (* parallel to [v_cells] *)
  v_claims : Claims.t option;
  v_kind : string option;
  v_legs : Bitset.t Itbl.t;
  v_by_var : Bitset.t Itbl.t;  (* var id -> positions whose path reads it *)
  v_empty : Bitset.t;
}

let view ?claims ?kind t paths =
  if claims <> None && not t.witnesses then
    invalid_arg "Mem_index.view: a ledger needs an index built with witnesses";
  let cells = Array.map (cell t) paths in
  let shapes = Array.map (fun c -> shape (Vec.get t.cells c)) cells in
  let n = Array.length cells in
  let by_var = Itbl.create 16 in
  Array.iteri
    (fun j sh ->
      List.iter
        (fun (v : Reg.var) ->
          let s =
            match Itbl.find_opt by_var v.Reg.v_id with
            | Some s -> s
            | None ->
              let s = Bitset.create n in
              Itbl.add by_var v.Reg.v_id s;
              s
          in
          Bitset.add s j)
        sh.s_vars)
    shapes;
  { v_index = t; v_cells = cells; v_shapes = shapes; v_claims = claims;
    v_kind = kind;
    v_legs = Itbl.create 16; v_by_var = by_var;
    v_empty = Bitset.create n }

(* A leg's row restricted to the view, in the view's numbering. The
   oracle answers behind every bit land in the view's ledger under its
   kind, once per view and leg. *)
let leg_set v leg =
  match Itbl.find_opt v.v_legs leg.key with
  | Some s -> s
  | None ->
    let t = v.v_index in
    let r = row t leg.key in
    let w = if t.witnesses then row_witnesses t leg.key else [||] in
    let test = lazy (leg.make ()) in
    let s = Bitset.create (Array.length v.v_cells) in
    Array.iteri
      (fun j c -> if bit t r w test c v.v_shapes.(j) then Bitset.add s j)
      v.v_cells;
    (match v.v_claims with
    | Some claims ->
      Array.iter
        (fun c ->
          List.iter
            (fun (p1, p2, a) -> Claims.record ?kind:v.v_kind claims p1 p2 a)
            w.(c))
        v.v_cells
    | None -> ());
    let s = if Bitset.is_empty s then v.v_empty else s in
    Itbl.add v.v_legs leg.key s;
    s

(* Empty sets are all [v_empty] (see [leg_set]), so most unions need no
   fresh set. *)
let union v sets =
  match List.filter (fun s -> s != v.v_empty) sets with
  | [] -> v.v_empty
  | [ s ] -> s
  | s :: rest ->
    let u = Bitset.copy s in
    List.iter (Bitset.union_into ~dst:u) rest;
    u

(* A definition's leg: the row for a memory-resident variable; for a
   register-resident one, exactly the cells whose path reads it. *)
let def_set v leg (d : Reg.var) =
  if memory_resident v.v_index d then leg_set v (leg v.v_index d)
  else Option.value (Itbl.find_opt v.v_by_var d.Reg.v_id) ~default:v.v_empty

let writes v instr =
  let t = v.v_index in
  let def =
    match Instr.defined_var instr with
    | Some d -> [ def_set v def_write d ]
    | None -> []
  in
  match instr with
  | Instr.Istore (sap, _) -> union v (leg_set v (store_write t sap) :: def)
  | Instr.Icall (_, target, _) ->
    union v (leg_set v (call_write t target) :: def)
  | _ -> union v def

let reads v instr =
  let t = v.v_index in
  let read_cells qs = List.map (fun q -> leg_set v (cell_read t q)) qs in
  let navigated q =
    List.filter (fun r -> not (Apath.equal r q)) (Apath.prefixes q)
  in
  let cells =
    match instr with
    | Instr.Iload (_, lp) -> read_cells (Apath.prefixes lp)
    | Instr.Iaddr (_, q) -> read_cells (navigated q)
    | Instr.Istore (q, _) ->
      leg_set v (store_read t q) :: read_cells (navigated q)
    | Instr.Icall (_, target, _) -> [ leg_set v (call_read t target) ]
    | Instr.Iassign _ | Instr.Inew _ | Instr.Ibuiltin _ -> []
  in
  (* Register reads of register-resident variables read no memory. *)
  let regs =
    List.fold_left
      (fun acc u ->
        if memory_resident t u then leg_set v (reg_read t u) :: acc else acc)
      cells (Instr.vars_used instr)
  in
  match Instr.defined_var instr with
  | Some d -> union v (def_set v def_read d :: regs)
  | None -> union v regs

let invariant ?claims ?kind t body paths =
  let positions = Apath.Tbl.create 16 in
  let order = ref [] in
  List.iter
    (fun p ->
      if not (Apath.Tbl.mem positions p) then begin
        Apath.Tbl.add positions p (Apath.Tbl.length positions);
        order := p :: !order
      end)
    paths;
  let v = view ?claims ?kind t (Array.of_list (List.rev !order)) in
  let killed = Bitset.create (Array.length v.v_cells) in
  List.iter (fun i -> Bitset.union_into ~dst:killed (writes v i)) body;
  fun p -> not (Bitset.mem killed (Apath.Tbl.find positions p))
