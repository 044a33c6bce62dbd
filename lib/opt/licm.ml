open Support
open Ir
open Tbaa

(* Loop-invariant code motion over loads, as a standalone TBAA client.

   RLE's hoisting phase (Figure 6) moves the longest invariant *prefix* of
   a loaded path; this pass is the whole-path client the paper's client
   suite grows by: a load [v := mem[AP]] hoists to the loop preheader when
   the path's base and index variables have no definition in the loop body
   and no store or call in the body may write any cell the path reads —
   the store test per the alias oracle, the call test per the callees'
   transitive mod summaries ({!Tbaa.Effects} via {!Modref}). Every oracle
   answer relied on is logged in the claims ledger under kind "licm". *)

type stats = { mutable hoisted : int }

let kind = "licm"

let loop_instrs proc (loop : Loops.loop) =
  Bitset.fold
    (fun bid acc -> List.rev_append (Cfg.block proc bid).Cfg.b_instrs acc)
    loop.Loops.body []

let hoist ?claims ~fresh index proc stats =
  let dom = Dom.compute proc in
  let loops = Loops.find proc dom in
  List.iter
    (fun loop ->
      let body_instrs = loop_instrs proc loop in
      let loads =
        List.concat_map
          (fun bid ->
            List.filter_map
              (function
                | Instr.Iload (v, ap) as i -> Some (bid, i, v, ap)
                | _ -> None)
              (Cfg.block proc bid).Cfg.b_instrs)
          (List.filter
             (Loops.executes_every_iteration proc dom loop)
             (Bitset.elements loop.Loops.body))
      in
      (* Loads go through the kill test too: one whose destination is a
         global or address-taken variable rewrites that variable's memory
         slot, which can underlie a cell the candidate path navigates
         through. *)
      let invariant =
        Mem_index.invariant ?claims ~kind index body_instrs
          (List.map (fun (_, _, _, ap) -> ap) loads)
      in
      (* Collect candidates before mutating: (block, load). The load's
         destination must have no other definition in the loop — the
         hoisted copy assigns it once, in the preheader's stead. *)
      let candidates = ref [] in
      List.iter
        (fun (bid, i, v, ap) ->
          if invariant ap then begin
            let defs =
              List.filter
                (fun j ->
                  match Instr.defined_var j with
                  | Some d -> Reg.var_equal d v
                  | None -> false)
                body_instrs
            in
            if List.length defs = 1 then candidates := (bid, i) :: !candidates
          end)
        loads;
      if !candidates <> [] then begin
        let pre = Loops.ensure_preheader proc loop in
        let pre_block = Cfg.block proc pre in
        (* One preheader load per distinct hoisted path. *)
        let homes : Reg.var Apath.Tbl.t = Apath.Tbl.create 8 in
        let home_for p =
          match Apath.Tbl.find_opt homes p with
          | Some v -> v
          | None ->
            let v = fresh ~name:"licm" ~ty:(Apath.ty p) ~kind:Reg.Vtemp in
            (match claims with
            | Some c -> Claims.note_home c v p
            | None -> ());
            Apath.Tbl.add homes p v;
            pre_block.Cfg.b_instrs <-
              pre_block.Cfg.b_instrs @ [ Instr.Iload (v, p) ];
            v
        in
        List.iter
          (fun (bid, instr) ->
            match instr with
            | Instr.Iload (v, ap) ->
              let b = Cfg.block proc bid in
              let t = home_for ap in
              b.Cfg.b_instrs <-
                List.map
                  (fun i ->
                    if i == instr then
                      Instr.Iassign (v, Instr.Ratom (Reg.Avar t))
                    else i)
                  b.Cfg.b_instrs;
              stats.hoisted <- stats.hoisted + 1
            | _ -> assert false)
          (List.rev !candidates)
      end)
    loops

let run_proc ?claims ~fresh index proc =
  let stats = { hoisted = 0 } in
  (* Iterate so loads escape nested loops level by level; each round
     recomputes dominators over the preheaders of the previous one. *)
  let rec rounds budget prev =
    hoist ?claims ~fresh index proc stats;
    if stats.hoisted > prev && budget > 0 then rounds (budget - 1) stats.hoisted
  in
  rounds 4 0;
  stats

let pass =
  { Pass.name = "licm";
    role = Pass.Transform;
    scope =
      Pass.Per_procedure
        (fun pc proc ->
          let s =
            run_proc ?claims:pc.Pass.pc_claims ~fresh:pc.Pass.pc_fresh
              pc.Pass.pc_index proc
          in
          { Pass.stats = [ ("hoisted", s.hoisted) ];
            changed = s.hoisted > 0;
            mutated = s.hoisted > 0 }) }
