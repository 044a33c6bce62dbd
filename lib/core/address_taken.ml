open Support
open Minim3

(* Integer-keyed tables probed on every optimizer query: a specialized
   table skips the polymorphic hash. *)
module Itbl = Hashtbl.Make (struct
  type t = int

  let equal = Int.equal
  let hash x = x land max_int
end)

type ctx = {
  world : World.t;
  compat : Types.tid -> Types.tid -> bool;
  (* Pre-indexed facts: queries touch only the entries that can match,
     instead of scanning the whole occurrence lists per call. *)
  by_field : (Ident.t * Types.tid) list Itbl.t;
      (* Ident.hash of field name -> (field, receiver type) occurrences *)
  elem_arrays : Types.tid list;  (* array types with an element address taken *)
  var_ids : unit Itbl.t;  (* v_id of each address-taken variable *)
  byref_tids : unit Itbl.t;  (* tids of by-reference formals *)
}

let make ~facts ~world ~compat =
  let by_field = Itbl.create 16 in
  List.iter
    (fun (fa : Facts.field_addr) ->
      let k = Ident.hash fa.Facts.fa_field in
      let prev = try Itbl.find by_field k with Not_found -> [] in
      Itbl.replace by_field k ((fa.Facts.fa_field, fa.Facts.fa_recv) :: prev))
    facts.Facts.field_addrs;
  let elem_arrays =
    List.map (fun (ea : Facts.elem_addr) -> ea.Facts.ea_array)
      facts.Facts.elem_addrs
  in
  let var_ids = Itbl.create 16 in
  List.iter
    (fun (u : Ir.Reg.var) -> Itbl.replace var_ids u.Ir.Reg.v_id ())
    facts.Facts.var_addrs;
  let byref_tids = Itbl.create 16 in
  List.iter
    (fun tid -> Itbl.replace byref_tids tid ())
    facts.Facts.byref_formal_tids;
  { world; compat; by_field; elem_arrays; var_ids; byref_tids }

let open_world_hit ctx tid =
  match ctx.world with
  | World.Closed -> false
  | World.Open -> Itbl.mem ctx.byref_tids tid

let field_taken ctx f ~recv ~content =
  (match Itbl.find_opt ctx.by_field (Ident.hash f) with
  | None -> false
  | Some occs ->
    List.exists
      (fun (f', recv') -> Ident.equal f' f && ctx.compat recv' recv)
      occs)
  || open_world_hit ctx content

let elem_taken ctx ~array_ty ~elem =
  List.exists (fun a -> ctx.compat a array_ty) ctx.elem_arrays
  || open_world_hit ctx elem

let var_taken ctx v =
  Itbl.mem ctx.var_ids v.Ir.Reg.v_id || open_world_hit ctx v.Ir.Reg.v_ty
