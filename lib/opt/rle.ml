open Support
open Minim3
open Ir
open Tbaa

type stats = {
  mutable hoisted : int;
  mutable eliminated : int;
  mutable shortened : int;
}

let removed s = s.hoisted + s.eliminated + s.shortened

(* The memory *expressions* RLE tracks are the scalar-typed prefixes of a
   path: those denote one word the machine actually reads (a pointer or a
   scalar). Aggregate-typed prefixes (an inline record, the array behind a
   dope) are address arithmetic, not loads. *)
let scalar_prefixes tenv ap =
  List.filter (fun p -> Types.is_scalar tenv (Apath.ty p)) (Apath.prefixes ap)

(* ------------------------------------------------------------------ *)
(* Loop-invariant load motion (Figure 6)                               *)
(* ------------------------------------------------------------------ *)

(* The hoistable unit is the longest *prefix* of a loaded path that is
   invariant: in the paper's example a.b^[i] is variant in i, but a.b^ is
   invariant and moves to the preheader. *)

let loop_instrs proc (loop : Loops.loop) =
  Bitset.fold
    (fun bid acc -> List.rev_append (Cfg.block proc bid).Cfg.b_instrs acc)
    loop.Loops.body []

let hoist_loops ?claims ~fresh program index proc stats =
  let tenv = program.Cfg.tenv in
  let dom = Dom.compute proc in
  let loops = Loops.find proc dom in
  List.iter
    (fun loop ->
      let body_instrs = loop_instrs proc loop in
      let every_iteration =
        List.filter
          (Loops.executes_every_iteration proc dom loop)
          (Bitset.elements loop.Loops.body)
      in
      let loads =
        List.concat_map
          (fun bid ->
            List.filter_map
              (function
                | Instr.Iload (v, ap) as i -> Some (bid, i, v, ap)
                | _ -> None)
              (Cfg.block proc bid).Cfg.b_instrs)
          every_iteration
      in
      (* Loads go through the kill test too: one whose destination is a
         global or address-taken variable rewrites that variable's memory
         slot, which can underlie a cell a candidate prefix navigates
         through. *)
      let prefix_invariant =
        Mem_index.invariant ?claims index body_instrs
          (List.concat_map
             (fun (_, _, _, ap) -> scalar_prefixes tenv ap)
             loads)
      in
      let longest_invariant_prefix ap =
        List.fold_left
          (fun best p -> if prefix_invariant p then Some p else best)
          None
          (scalar_prefixes tenv ap)
      in
      (* Collect candidates before mutating: (block, instr, prefix). *)
      let candidates = ref [] in
      List.iter
        (fun (bid, i, v, ap) ->
          match longest_invariant_prefix ap with
          | Some p ->
            (* If the whole path moves, its destination must have no
               other definition in the loop. *)
            let whole = Apath.equal p ap in
            let v_ok =
              (not whole)
              || List.length
                   (List.filter
                      (fun j ->
                        match Instr.defined_var j with
                        | Some d -> Reg.var_equal d v
                        | None -> false)
                      body_instrs)
                 = 1
            in
            if v_ok then candidates := (bid, i, p) :: !candidates
          | None -> ())
        loads;
      if !candidates <> [] then begin
        let pre = Loops.ensure_preheader proc loop in
        let pre_block = Cfg.block proc pre in
        (* Share one preheader load per distinct hoisted prefix. *)
        let hoisted_homes : Reg.var Apath.Tbl.t = Apath.Tbl.create 8 in
        let home_for p =
          match Apath.Tbl.find_opt hoisted_homes p with
          | Some v -> v
          | None ->
            let v = fresh ~name:"licm" ~ty:(Apath.ty p) ~kind:Reg.Vtemp in
            (match claims with
            | Some c -> Claims.note_home c v p
            | None -> ());
            Apath.Tbl.add hoisted_homes p v;
            pre_block.Cfg.b_instrs <- pre_block.Cfg.b_instrs @ [ Instr.Iload (v, p) ];
            v
        in
        List.iter
          (fun (bid, instr, p) ->
            match instr with
            | Instr.Iload (v, ap) ->
              let b = Cfg.block proc bid in
              let t = home_for p in
              let replacement =
                if Apath.equal p ap then Instr.Iassign (v, Instr.Ratom (Reg.Avar t))
                else begin
                  Instr.Iload
                    (v, Apath.make t (Apath.sels_from ap (Apath.length p)))
                end
              in
              b.Cfg.b_instrs <-
                List.map (fun i -> if i == instr then replacement else i) b.Cfg.b_instrs;
              stats.hoisted <- stats.hoisted + 1
            | _ -> assert false)
          (List.rev !candidates)
      end)
    loops

(* ------------------------------------------------------------------ *)
(* Redundant-load CSE over available expressions (Figure 7)            *)
(* ------------------------------------------------------------------ *)

(* Universe: every selector-prefix of every loaded or stored path. A load of
   a.b^.c performs three memory reads (a.b, a.b^, and .c), so it generates
   availability for all three prefixes; the rewrite materializes each prefix
   value in that expression's home temporary so later occurrences can reuse
   the longest available prefix. A store generates its proper prefixes (it
   reads them to navigate) and its own path (store-to-load forwarding). *)

let cse ?claims ~fresh program index proc stats =
  let tenv = program.Cfg.tenv in
  let ids = Apath.Tbl.create 64 in
  let exprs = Vec.create () in
  let intern ap =
    match Apath.Tbl.find_opt ids ap with
    | Some i -> i
    | None ->
      let i = Vec.push exprs ap in
      Apath.Tbl.add ids ap i;
      i
  in
  Cfg.iter_instrs proc (fun _ i ->
      match i with
      | Instr.Iload (_, ap) | Instr.Istore (ap, _) ->
        List.iter (fun p -> ignore (intern p)) (scalar_prefixes tenv ap)
      | _ -> ());
  let n = Vec.length exprs in
  if n = 0 then ()
  else begin
    (* The universe is fixed from here on (gens_of re-interns only paths
       already scanned). Each instruction's kill set is materialized once,
       for the block summaries; the rewrite walk reuses it. *)
    let view =
      Mem_index.view ?claims index (Array.init n (Vec.get exprs))
    in
    let kill_set_of instr = Mem_index.writes view instr in
    (* Expressions an instruction makes available, honoring the
       self-dependence guard on the defined variable. *)
    let gens_of instr =
      match instr with
      | Instr.Iload (v, ap) ->
        List.filter_map
          (fun p ->
            if List.exists (Reg.var_equal v) (Apath.vars_used p) then None
            else Some (intern p))
          (scalar_prefixes tenv ap)
      | Instr.Istore (ap, _) -> List.map intern (scalar_prefixes tenv ap)
      | _ -> []
    in
    let nb = Cfg.n_blocks proc in
    let gen = Array.init nb (fun _ -> Bitset.create n) in
    let kill = Array.init nb (fun _ -> Bitset.create n) in
    let simulate instr ~gen ~kill =
      let ks = kill_set_of instr in
      Bitset.diff_into ~dst:gen ks;
      Bitset.union_into ~dst:kill ks;
      List.iter
        (fun e ->
          Bitset.add gen e;
          Bitset.remove kill e)
        (gens_of instr)
    in
    Vec.iter
      (fun b ->
        List.iter
          (fun i -> simulate i ~gen:gen.(b.Cfg.b_id) ~kill:kill.(b.Cfg.b_id))
          b.Cfg.b_instrs)
      proc.Cfg.pr_blocks;
    let result =
      Dataflow.run ~proc ~universe:n ~confluence:Dataflow.Must
        ~gen:(fun b -> gen.(b))
        ~kill:(fun b -> kill.(b))
        ~entry_fact:(Bitset.create n) ()
    in
    let home = Array.make n None in
    let home_temp e =
      match home.(e) with
      | Some v -> v
      | None ->
        let ap = Vec.get exprs e in
        let v = fresh ~name:"rle" ~ty:(Apath.ty ap) ~kind:Reg.Vtemp in
        (match claims with
        | Some c -> Claims.note_home c v ap
        | None -> ());
        home.(e) <- Some v;
        v
    in

    (* Walk the scalar-prefix lengths of [ap] up to [upto], loading each
       segment into its home, starting from the longest available prefix.
       Returns the emitted loads and the (base, consumed) for the rest. *)
    let build_segments avail ap lens =
      let avail_len =
        List.fold_left
          (fun best k ->
            if Bitset.mem avail (intern (Apath.truncate ap k)) then max best k
            else best)
          0 lens
      in
      let start_base =
        if avail_len = 0 then Apath.base ap
        else home_temp (intern (Apath.truncate ap avail_len))
      in
      let loads, final_base, consumed =
        List.fold_left
          (fun (acc, base, consumed) k ->
            if k <= avail_len then (acc, base, consumed)
            else begin
              let h = home_temp (intern (Apath.truncate ap k)) in
              let load =
                Instr.Iload (h, Apath.make base (Apath.sels_between ap consumed k))
              in
              (load :: acc, h, k)
            end)
          ([], start_base, avail_len) lens
      in
      (List.rev loads, final_base, consumed, avail_len)
    in
    (* Rewrite one memory instruction into a chain that reuses the longest
       available prefix and materializes every scalar prefix's home. *)
    let rewrite_chain avail instr =
      match instr with
      | Instr.Iload (v, ap)
        when List.exists (Reg.var_equal v) (Apath.vars_used ap) ->
        [ instr ]  (* self-dependent loads are left untouched *)
      | Instr.Iload (v, ap) ->
        let m = Apath.length ap in
        let lens = List.map Apath.length (scalar_prefixes tenv ap) in
        let full = intern ap in
        if Bitset.mem avail full then begin
          stats.eliminated <- stats.eliminated + 1;
          [ Instr.Iassign (v, Instr.Ratom (Reg.Avar (home_temp full))) ]
        end
        else begin
          let loads, _, _, avail_len = build_segments avail ap lens in
          if avail_len > 0 then stats.shortened <- stats.shortened + 1;
          ignore m;
          loads @ [ Instr.Iassign (v, Instr.Ratom (Reg.Avar (home_temp full))) ]
        end
      | Instr.Istore (ap, a) ->
        let m = Apath.length ap in
        let proper =
          List.filter (fun k -> k < m)
            (List.map Apath.length (scalar_prefixes tenv ap))
        in
        let nav, final_base, consumed, avail_len = build_segments avail ap proper in
        if avail_len > 0 then stats.shortened <- stats.shortened + 1;
        nav
        @ [ Instr.Istore
              (Apath.make final_base (Apath.sels_between ap consumed m), a);
            Instr.Iassign (home_temp (intern ap), Instr.Ratom a) ]
      | _ -> [ instr ]
    in
    Vec.iter
      (fun b ->
        let avail = Bitset.copy result.Dataflow.inn.(b.Cfg.b_id) in
        let rewritten =
          List.concat_map
            (fun instr ->
              let out = rewrite_chain avail instr in
              let ks = kill_set_of instr in
              Bitset.diff_into ~dst:avail ks;
              List.iter (Bitset.add avail) (gens_of instr);
              out)
            b.Cfg.b_instrs
        in
        b.Cfg.b_instrs <- rewritten)
      proc.Cfg.pr_blocks
  end

let run_proc ?claims ~fresh program index proc =
  let stats = { hoisted = 0; eliminated = 0; shortened = 0 } in
  (* Iterate hoisting so loads escape nested loops level by level; each
     round recomputes dominators over the preheaders of the previous one. *)
  let rec rounds budget prev =
    hoist_loops ?claims ~fresh program index proc stats;
    if stats.hoisted > prev && budget > 0 then rounds (budget - 1) stats.hoisted
  in
  rounds 4 0;
  cse ?claims ~fresh program index proc stats;
  stats

let pass =
  { Pass.name = "rle";
    role = Pass.Transform;
    scope =
      Pass.Per_procedure
        (fun pc proc ->
          let s =
            run_proc ?claims:pc.Pass.pc_claims ~fresh:pc.Pass.pc_fresh
              pc.Pass.pc_program pc.Pass.pc_index proc
          in
          { Pass.stats =
              [ ("hoisted", s.hoisted); ("eliminated", s.eliminated);
                ("shortened", s.shortened) ];
            changed = removed s > 0;
            (* Even a zero-stat run rewrites loads through home temporaries,
               so the program text (and thus the analysis) is always stale
               afterwards. *)
            mutated = true }) }
