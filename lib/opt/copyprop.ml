open Support
open Ir

type stats = { mutable replaced : int }

(* A copy is a register-to-register [Iassign (v, Ratom (Avar u))]. The
   dataflow fact is the set of copies whose equality still holds. *)

let eligible_var excluded (v : Reg.var) =
  v.Reg.v_kind <> Reg.Vglobal && not (Hashtbl.mem excluded v.Reg.v_id)

let run_proc program proc stats =
  ignore program;
  (* Variables whose bare address escapes can be written through pointers;
     exclude them entirely. *)
  let excluded = Hashtbl.create 8 in
  Cfg.iter_instrs proc (fun _ i ->
      match i with
      | Instr.Iaddr (_, ap) when not (Apath.is_memory_ref ap) ->
        Hashtbl.replace excluded (Apath.base ap).Reg.v_id ()
      | _ -> ());
  (* Universe of copy occurrences. *)
  let copies = Vec.create () in
  Cfg.iter_instrs proc (fun _ i ->
      match i with
      | Instr.Iassign (v, Instr.Ratom (Reg.Avar u))
        when (not (Reg.var_equal v u))
             && eligible_var excluded v && eligible_var excluded u ->
        ignore (Vec.push copies (v, u))
      | _ -> ());
  let n = Vec.length copies in
  if n = 0 then ()
  else begin
    (* Per-variable indexes over the copy universe, built once: the copies
       a definition of a variable kills, the copies defining a variable
       (ascending id, for [source_of]), and the first id of each distinct
       (dst, src) pair. *)
    let kills_by_var : (int, int list) Hashtbl.t = Hashtbl.create n in
    let sources_by_var : (int, int list) Hashtbl.t = Hashtbl.create n in
    let id_of_pair : (int * int, int) Hashtbl.t = Hashtbl.create n in
    let push tbl k i =
      Hashtbl.replace tbl k
        (i :: Option.value (Hashtbl.find_opt tbl k) ~default:[])
    in
    for i = n - 1 downto 0 do
      let v, u = Vec.get copies i in
      push kills_by_var v.Reg.v_id i;
      if not (Reg.var_equal v u) then push kills_by_var u.Reg.v_id i;
      push sources_by_var v.Reg.v_id i;
      Hashtbl.replace id_of_pair (v.Reg.v_id, u.Reg.v_id) i
    done;
    let copy_id_of instr =
      match instr with
      | Instr.Iassign (v, Instr.Ratom (Reg.Avar u))
        when (not (Reg.var_equal v u))
             && eligible_var excluded v && eligible_var excluded u ->
        Hashtbl.find_opt id_of_pair (v.Reg.v_id, u.Reg.v_id)
      | _ -> None
    in
    let nb = Cfg.n_blocks proc in
    let gen = Array.init nb (fun _ -> Bitset.create n) in
    let kill = Array.init nb (fun _ -> Bitset.create n) in
    let transfer instr ~gen ~kill =
      (match Instr.defined_var instr with
      | Some d ->
        List.iter
          (fun i ->
            Bitset.remove gen i;
            Bitset.add kill i)
          (Option.value (Hashtbl.find_opt kills_by_var d.Reg.v_id) ~default:[])
      | None -> ());
      match copy_id_of instr with
      | Some c ->
        Bitset.add gen c;
        Bitset.remove kill c
      | None -> ()
    in
    Vec.iter
      (fun b ->
        List.iter
          (fun i -> transfer i ~gen:gen.(b.Cfg.b_id) ~kill:kill.(b.Cfg.b_id))
          b.Cfg.b_instrs)
      proc.Cfg.pr_blocks;
    let result =
      Dataflow.run ~proc ~universe:n ~confluence:Dataflow.Must
        ~gen:(fun b -> gen.(b))
        ~kill:(fun b -> kill.(b))
        ~entry_fact:(Bitset.create n) ()
    in
    (* Rewrite pass: canonicalize each used variable through the available
       copies (transitively, with a bound against cycles). Only the fact
       matters here; [scratch] absorbs the transfer's kill side. *)
    let scratch = Bitset.create n in
    Vec.iter
      (fun b ->
        let fact = Bitset.copy result.Dataflow.inn.(b.Cfg.b_id) in
        let source_of v =
          match
            List.find_opt (Bitset.mem fact)
              (Option.value
                 (Hashtbl.find_opt sources_by_var v.Reg.v_id)
                 ~default:[])
          with
          | Some i -> Some (snd (Vec.get copies i))
          | None -> None
        in
        let canonical v =
          let rec go v steps =
            if steps = 0 then v
            else
              match source_of v with
              | Some u -> go u (steps - 1)
              | None -> v
          in
          go v 8
        in
        let subst_var v =
          let c = canonical v in
          if not (Reg.var_equal c v) then stats.replaced <- stats.replaced + 1;
          c
        in
        (* Unchanged operands are returned as they are, so a path none of
           whose variables changes is kept without re-interning it. *)
        let subst_atom = function
          | Reg.Avar v as a ->
            let c = subst_var v in
            if Reg.var_equal c v then a else Reg.Avar c
          | a -> a
        in
        let subst_sel = function
          | Apath.Sindex (a, t) as s ->
            let a' = subst_atom a in
            if a' == a then s else Apath.Sindex (a', t)
          | s -> s
        in
        let subst_path (ap : Apath.t) =
          let base = subst_var (Apath.base ap) in
          let sels = Apath.sels ap in
          let sels' = List.map subst_sel sels in
          if Reg.var_equal base (Apath.base ap) && List.for_all2 ( == ) sels sels'
          then ap
          else Apath.make base sels'
        in
        let subst_rvalue = function
          | Instr.Ratom a -> Instr.Ratom (subst_atom a)
          | Instr.Rbinop (op, a, b') -> Instr.Rbinop (op, subst_atom a, subst_atom b')
          | Instr.Runop (op, a) -> Instr.Runop (op, subst_atom a)
        in
        let rewritten =
          List.map
            (fun instr ->
              let instr' =
                match instr with
                | Instr.Iassign (v, Instr.Ratom (Reg.Avar u))
                  when (not (Reg.var_equal v u))
                       && eligible_var excluded v && eligible_var excluded u ->
                  (* Leave copy instructions intact: rewriting their source
                     would orphan them in the copy universe; [canonical]
                     already follows chains transitively. *)
                  instr
                | Instr.Iassign (v, rv) -> Instr.Iassign (v, subst_rvalue rv)
                | Instr.Iload (v, ap) -> Instr.Iload (v, subst_path ap)
                | Instr.Istore (ap, a) -> Instr.Istore (subst_path ap, subst_atom a)
                | Instr.Iaddr (v, ap) -> Instr.Iaddr (v, subst_path ap)
                | Instr.Inew (v, t, len) ->
                  Instr.Inew (v, t, Option.map subst_atom len)
                | Instr.Icall (d, tgt, args) ->
                  Instr.Icall (d, tgt, List.map subst_atom args)
                | Instr.Ibuiltin (d, bi, args) ->
                  Instr.Ibuiltin (d, bi, List.map subst_atom args)
              in
              transfer instr' ~gen:fact ~kill:scratch;
              instr')
            b.Cfg.b_instrs
        in
        b.Cfg.b_instrs <- rewritten;
        b.Cfg.b_term <-
          (match b.Cfg.b_term with
          | Instr.Tbranch (a, t, f) -> Instr.Tbranch (subst_atom a, t, f)
          | Instr.Treturn a -> Instr.Treturn (Option.map subst_atom a)
          | t -> t))
      proc.Cfg.pr_blocks
  end

let pass =
  { Pass.name = "copyprop";
    role = Pass.Enabling;
    scope =
      Pass.Per_procedure
        (fun pc proc ->
          let s = { replaced = 0 } in
          run_proc pc.Pass.pc_program proc s;
          { Pass.stats = [ ("replaced", s.replaced) ];
            changed = s.replaced > 0;
            mutated = s.replaced > 0 }) }
