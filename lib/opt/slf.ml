open Support
open Ir

(* Store-to-load forwarding: the dual of RLE. RLE keeps loaded values in
   home temporaries and reuses them at later loads; this pass tracks
   *stored* bindings [mem[AP] := a] and replaces a later load of the same
   path with a register copy of the stored atom, when no instruction on
   the intervening paths may invalidate the binding:

   - a store whose path may alias any prefix of AP (alias oracle),
   - a call whose callees' transitive mod summaries may write a cell of
     AP (mod-ref), or
   - a redefinition of AP's base/index variables (the path would denote a
     different cell) or of the stored atom's variable (the register no
     longer holds the stored value) — where a memory-resident atom
     variable (global or address-taken) also counts as redefined by
     anything that may write its slot, e.g. a callee writing through a
     VAR formal.

   The invalidation test is exactly RLE's kill set (the effect index's
   write set) plus the atom-redefinition leg; every oracle answer
   consulted is logged in the claims ledger under kind "slf". Forward
   must-availability over the distinct (path, atom) bindings, one solve
   per procedure. *)

type stats = { mutable forwarded : int }

let kind = "slf"

let atom_key = function
  | Reg.Avar v -> (0, v.Reg.v_id)
  | Reg.Aint n -> (1, n)
  | Reg.Abool b -> (2, Bool.to_int b)
  | Reg.Achar c -> (3, Char.code c)
  | Reg.Anil -> (4, 0)

let run_proc ?claims index proc stats =
  (* Universe: the distinct (stored path, stored atom) bindings. *)
  let ids : (int * (int * int), int) Hashtbl.t = Hashtbl.create 32 in
  let bindings = Vec.create () in
  let intern ap a =
    let key = (Apath.id ap, atom_key a) in
    match Hashtbl.find_opt ids key with
    | Some i -> i
    | None ->
      let i = Vec.push bindings (ap, a) in
      Hashtbl.add ids key i;
      i
  in
  Cfg.iter_instrs proc (fun _ i ->
      match i with
      | Instr.Istore (ap, a) -> ignore (intern ap a)
      | _ -> ());
  let n = Vec.length bindings in
  if n = 0 then ()
  else begin
    let paths =
      Mem_index.view ?claims ~kind index
        (Array.init n (fun i -> fst (Vec.get bindings i)))
    in
    (* A stored atom that is a memory-resident variable (a global, or one
       whose address escaped) can change without a direct definition — a
       callee writing through a VAR formal, a store through an escaped
       address. Such a binding is additionally killed by anything that may
       write the variable's own slot: the write set of the variable as a
       path, in the [atoms] view, whose position [j] stands for binding
       [atom_binding.(j)]. Any atom variable's direct redefinition kills
       its bindings too. *)
    let slots = ref [] in
    let by_atom : (int, int list) Hashtbl.t = Hashtbl.create 16 in
    for i = n - 1 downto 0 do
      match snd (Vec.get bindings i) with
      | Reg.Avar w ->
        Hashtbl.replace by_atom w.Reg.v_id
          (i :: Option.value (Hashtbl.find_opt by_atom w.Reg.v_id) ~default:[]);
        if Mem_index.memory_resident index w then
          slots := (i, Apath.of_var w) :: !slots
      | _ -> ()
    done;
    let atom_binding = Array.of_list (List.map fst !slots) in
    let atoms =
      Mem_index.view ?claims ~kind index
        (Array.of_list (List.map snd !slots))
    in
    (* Binding indices per path id, for the rewrite lookup. *)
    let by_path : (int, int list) Hashtbl.t = Hashtbl.create 32 in
    for i = n - 1 downto 0 do
      let pid = Apath.id (fst (Vec.get bindings i)) in
      Hashtbl.replace by_path pid
        (i :: Option.value (Hashtbl.find_opt by_path pid) ~default:[])
    done;
    let kill_set_of instr =
      let path_kills = Mem_index.writes paths instr in
      let slot_kills = Mem_index.writes atoms instr in
      let redefined =
        match Instr.defined_var instr with
        | Some d ->
          Option.value (Hashtbl.find_opt by_atom d.Reg.v_id) ~default:[]
        | None -> []
      in
      if redefined = [] && Bitset.is_empty slot_kills then path_kills
      else begin
        let s = Bitset.copy path_kills in
        Bitset.iter (fun j -> Bitset.add s atom_binding.(j)) slot_kills;
        List.iter (Bitset.add s) redefined;
        s
      end
    in
    let gens_of = function
      | Instr.Istore (ap, a) -> [ intern ap a ]
      | _ -> []
    in
    let nb = Cfg.n_blocks proc in
    let gen = Array.init nb (fun _ -> Bitset.create n) in
    let kill = Array.init nb (fun _ -> Bitset.create n) in
    (* Each instruction's kill set and gens are computed exactly once,
       here; the rewrite walk below replays the saved sets, so each
       oracle answer lands in the claims ledger once, not once per use. *)
    let transfers = Array.make nb [] in
    Vec.iter
      (fun b ->
        let ts =
          List.map (fun i -> (i, kill_set_of i, gens_of i)) b.Cfg.b_instrs
        in
        transfers.(b.Cfg.b_id) <- ts;
        let gen = gen.(b.Cfg.b_id) and kill = kill.(b.Cfg.b_id) in
        List.iter
          (fun (_, ks, gs) ->
            Bitset.diff_into ~dst:gen ks;
            Bitset.union_into ~dst:kill ks;
            List.iter
              (fun e ->
                Bitset.add gen e;
                Bitset.remove kill e)
              gs)
          ts)
      proc.Cfg.pr_blocks;
    let result =
      Dataflow.run ~proc ~universe:n ~confluence:Dataflow.Must
        ~gen:(fun b -> gen.(b))
        ~kill:(fun b -> kill.(b))
        ~entry_fact:(Bitset.create n) ()
    in
    Vec.iter
      (fun b ->
        let avail = Bitset.copy result.Dataflow.inn.(b.Cfg.b_id) in
        let rewritten =
          List.map
            (fun (instr, ks, gs) ->
              let out =
                match instr with
                | Instr.Iload (v, ap) -> (
                  let live =
                    List.filter
                      (Bitset.mem avail)
                      (Option.value
                         (Hashtbl.find_opt by_path (Apath.id ap))
                         ~default:[])
                  in
                  match live with
                  | i :: _ ->
                    stats.forwarded <- stats.forwarded + 1;
                    Instr.Iassign (v, Instr.Ratom (snd (Vec.get bindings i)))
                  | [] -> instr)
                | _ -> instr
              in
              (* The replacement defines the same register the load did,
                 so the original instruction's transfer is the right one
                 to track availability with. *)
              Bitset.diff_into ~dst:avail ks;
              List.iter (Bitset.add avail) gs;
              out)
            transfers.(b.Cfg.b_id)
        in
        b.Cfg.b_instrs <- rewritten)
      proc.Cfg.pr_blocks
  end

let pass =
  { Pass.name = "slf";
    role = Pass.Transform;
    scope =
      Pass.Per_procedure
        (fun pc proc ->
          let s = { forwarded = 0 } in
          run_proc ?claims:pc.Pass.pc_claims pc.Pass.pc_index proc s;
          { Pass.stats = [ ("forwarded", s.forwarded) ];
            changed = s.forwarded > 0;
            mutated = s.forwarded > 0 }) }
