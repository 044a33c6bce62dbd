open Support
open Ir

(* Dead-store elimination: a store is dead when, on every path from it,
   its cell is overwritten by another store to the *same* path (with the
   address variables unchanged in between) before anything can read it.

   Backward must-analysis over the procedure's distinct store paths; the
   bit for path P means "P's cell is overwritten before any possible
   read". A bit is generated by a store to exactly P and killed by
   anything that may observe P's cell or change what P denotes — the
   effect index's read set ({!Mem_index.reads}):

   - a load whose prefix cells may alias P (alias oracle),
   - another store's or an address computation's navigation reads (their
     proper prefixes),
   - a store that may write a cell P navigates through — a proper prefix
     of P, or the memory-resident slot of P's base variable — after which
     P denotes a different cell, so a later store to the same syntactic
     path no longer overwrites this one,
   - a register read of a global or address-taken variable whose slot a
     write to P may reach (class overlap),
   - a call whose callees' transitive ref summaries may read a cell of
     P's class ({!Modref.call_ref_pred}), or whose mod summaries may
     write P's base-variable slot or a prefix cell — the same
     denotation-change legs as stores ({!Modref.call_kill_pred}),
   - a definition of P's base or index variables — directly, or through
     memory when the defined variable is a global or address-taken and
     its slot may underlie P's base or a prefix cell.

   Every alias answer relied on is logged in the claims ledger under kind
   "dse"; like RLE's call kills, the class-set legs (calls) carry no
   witness path and are exempt. Nothing is live at exit — the exit fact
   is the empty dead-set, so a final store is never removed. *)

type stats = { mutable removed : int }

let kind = "dse"

let sweep_proc ?claims index proc stats =
  let ids = Apath.Tbl.create 32 in
  let paths = Vec.create () in
  let intern ap =
    match Apath.Tbl.find_opt ids ap with
    | Some i -> i
    | None ->
      let i = Vec.push paths ap in
      Apath.Tbl.add ids ap i;
      i
  in
  Cfg.iter_instrs proc (fun _ i ->
      match i with
      | Instr.Istore (ap, _) -> ignore (intern ap)
      | _ -> ());
  let n = Vec.length paths in
  if n = 0 then ()
  else begin
    let view =
      Mem_index.view ?claims ~kind index (Array.init n (Vec.get paths))
    in
    (* Per-instruction transfer, in backward order: the write happens
       last, so going backward the gen applies before the reads kill —
       [fact' = (fact ∪ gen) − kill]. The kill is the effect index's read
       set. A store whose own navigation may read its cell must not gen
       (the read observes the old value). *)
    let transfer_of instr =
      let k = Mem_index.reads view instr in
      let g =
        match instr with
        | Instr.Istore (ap, _) ->
          let i = intern ap in
          if Bitset.mem k i then [] else [ i ]
        | _ -> []
      in
      (g, k)
    in
    let nb = Cfg.n_blocks proc in
    let gen = Array.init nb (fun _ -> Bitset.create n) in
    let kill = Array.init nb (fun _ -> Bitset.create n) in
    (* Each instruction's transfer is computed exactly once, here — the
       sweep below replays the saved sets, so the oracle answers behind
       them land in the claims ledger once per sweep, not once per use.
       [transfers] holds each block's (instr, transfer) pairs in backward
       order, the order both walks consume them in. *)
    let transfers = Array.make nb [] in
    (* Compose [(fact ∪ g) − k] steps, last instruction first, into block
       sets for the framework's [inn = (out − KILL) ∪ GEN] shape:
       GEN := (GEN ∪ g) − k, KILL := KILL ∪ k. *)
    Vec.iter
      (fun b ->
        let ts =
          List.rev_map (fun instr -> (instr, transfer_of instr)) b.Cfg.b_instrs
        in
        transfers.(b.Cfg.b_id) <- ts;
        let bg = gen.(b.Cfg.b_id) and bk = kill.(b.Cfg.b_id) in
        List.iter
          (fun (_, (g, k)) ->
            List.iter (Bitset.add bg) g;
            Bitset.diff_into ~dst:bg k;
            Bitset.union_into ~dst:bk k)
          ts)
      proc.Cfg.pr_blocks;
    let result =
      Dataflow.run_backward ~proc ~universe:n ~confluence:Dataflow.Must
        ~gen:(fun b -> gen.(b))
        ~kill:(fun b -> kill.(b))
        ~exit_fact:(Bitset.create n) ()
    in
    (* Sweep each block backwards: a store whose path is dead in the fact
       *below* it is removed (and contributes no transfer — it no longer
       executes); every kept instruction applies its saved transfer. *)
    Vec.iter
      (fun b ->
        let fact = Bitset.copy result.Dataflow.out.(b.Cfg.b_id) in
        let kept =
          List.fold_left
            (fun acc (instr, (g, k)) ->
              let dead =
                match instr with
                | Instr.Istore (ap, _) -> Bitset.mem fact (intern ap)
                | _ -> false
              in
              if dead then begin
                stats.removed <- stats.removed + 1;
                acc
              end
              else begin
                List.iter (Bitset.add fact) g;
                Bitset.diff_into ~dst:fact k;
                instr :: acc
              end)
            []
            transfers.(b.Cfg.b_id)
        in
        b.Cfg.b_instrs <- kept)
      proc.Cfg.pr_blocks
  end

let run_proc ?claims index proc stats =
  (* Removing a dead store removes its navigation reads, which can expose
     earlier stores; iterate until a sweep finds nothing (the store count
     strictly decreases, so this terminates). Claims are recorded on the
     first sweep only: later sweeps run over a strictly smaller program,
     so every query they pose was already posed — and logged — by the
     first, and re-recording would only inflate the ledger's counters. *)
  let rec go claims prev =
    sweep_proc ?claims index proc stats;
    if stats.removed > prev then go None stats.removed
  in
  go claims stats.removed

let pass =
  { Pass.name = "dse";
    role = Pass.Transform;
    scope =
      Pass.Per_procedure
        (fun pc proc ->
          let s = { removed = 0 } in
          run_proc ?claims:pc.Pass.pc_claims pc.Pass.pc_index proc s;
          { Pass.stats = [ ("removed", s.removed) ];
            changed = s.removed > 0;
            mutated = s.removed > 0 }) }
