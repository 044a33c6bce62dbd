open Support
open Ir

type category = Encapsulated | Conditional | Breakup | Alias | Rest

let category_to_string = function
  | Encapsulated -> "Encapsulated"
  | Conditional -> "Conditional"
  | Breakup -> "Breakup"
  | Alias -> "Alias"
  | Rest -> "Rest"

let all_categories = [ Encapsulated; Conditional; Breakup; Alias; Rest ]

type breakdown = (category * int) list

(* Availability machinery over one procedure, replaying RLE's reasoning
   with a parameterized kill rule. *)
type avail = {
  exprs : Apath.t Vec.t;
  ids : int Apath.Tbl.t;
  inn : Bitset.t array;  (* block-entry facts *)
  kill_set : Instr.t -> Bitset.t;  (* over [exprs] *)
}

(* [kills exprs] gives the kill-set function over the universe [exprs]. *)
let build_avail tenv proc ~confluence ~kills =
  let scalar_prefixes ap =
    List.filter
      (fun p -> Minim3.Types.is_scalar tenv (Apath.ty p))
      (Apath.prefixes ap)
  in
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
        List.iter (fun p -> ignore (intern p)) (scalar_prefixes ap)
      | _ -> ());
  let n = Vec.length exprs in
  let kill_set = kills (Array.init n (Vec.get exprs)) in
  let gens instr =
    match instr with
    | Instr.Iload (v, ap) ->
      List.filter_map
        (fun p ->
          if List.exists (Reg.var_equal v) (Apath.vars_used p) then None
          else Some (intern p))
        (scalar_prefixes ap)
    | Instr.Istore (ap, _) -> List.map intern (scalar_prefixes ap)
    | _ -> []
  in
  let nb = Cfg.n_blocks proc in
  let gen = Array.init nb (fun _ -> Bitset.create n) in
  let kill = Array.init nb (fun _ -> Bitset.create n) in
  Vec.iter
    (fun b ->
      List.iter
        (fun i ->
          let ks = kill_set i in
          Bitset.diff_into ~dst:gen.(b.Cfg.b_id) ks;
          Bitset.union_into ~dst:kill.(b.Cfg.b_id) ks;
          List.iter
            (fun e ->
              Bitset.add gen.(b.Cfg.b_id) e;
              Bitset.remove kill.(b.Cfg.b_id) e)
            (gens i))
        b.Cfg.b_instrs)
    proc.Cfg.pr_blocks;
  let result =
    if n = 0 then { Dataflow.inn = Array.init nb (fun _ -> Bitset.create 0);
                    out = Array.init nb (fun _ -> Bitset.create 0);
                    iterations = 0 }
    else
      Dataflow.run ~proc ~universe:n ~confluence
        ~gen:(fun b -> gen.(b))
        ~kill:(fun b -> kill.(b))
        ~entry_fact:(Bitset.create n) ()
  in
  { exprs; ids; inn = result.Dataflow.inn; kill_set }

(* Is [expr] available just before instruction [index] of block [bid]? *)
let avail_at av proc ~bid ~index expr =
  match Apath.Tbl.find_opt av.ids expr with
  | None -> false
  | Some e ->
    let fact = Bitset.copy av.inn.(bid) in
    let b = Cfg.block proc bid in
    List.iteri
      (fun i instr ->
        if i < index then begin
          Bitset.diff_into ~dst:fact (av.kill_set instr);
          match instr with
          | Instr.Iload (v, ap) ->
            List.iter
              (fun p ->
                if not (List.exists (Reg.var_equal v) (Apath.vars_used p)) then
                  match Apath.Tbl.find_opt av.ids p with
                  | Some k -> Bitset.add fact k
                  | None -> ())
              (Apath.prefixes ap)
          | Instr.Istore (ap, _) ->
            List.iter
              (fun p ->
                match Apath.Tbl.find_opt av.ids p with
                | Some k -> Bitset.add fact k
                | None -> ())
              (Apath.prefixes ap)
          | _ -> ()
        end)
      b.Cfg.b_instrs;
    Bitset.mem fact e

(* Perfect-alias kill rule: only real register dependencies kill; stores and
   calls are assumed (optimistically) never to interfere. *)
let perfect_kills exprs instr =
  let s = Bitset.create (Array.length exprs) in
  (match Instr.defined_var instr with
  | Some v ->
    Array.iteri
      (fun i ap ->
        if List.exists (Reg.var_equal v) (Apath.vars_used ap) then
          Bitset.add s i)
      exprs
  | None -> ());
  s

let classify program oracle modref limit : breakdown =
  let counts = Hashtbl.create 8 in
  let add cat n =
    Hashtbl.replace counts cat (n + Option.value (Hashtbl.find_opt counts cat) ~default:0)
  in
  (* [Cfg.find_proc_opt] is a linear scan of the program; one indexed
     lookup table amortizes it over the (possibly many) sites. *)
  let proc_index = Hashtbl.create 64 in
  List.iter
    (fun (p : Cfg.proc) ->
      let key = Ident.id p.Cfg.pr_name in
      if not (Hashtbl.mem proc_index key) then Hashtbl.add proc_index key p)
    program.Cfg.prog_procs;
  let find_proc name = Hashtbl.find_opt proc_index (Ident.id name) in
  (* Per-procedure caches of the two availability analyses. *)
  let may_cache = Hashtbl.create 16 in
  let perfect_cache = Hashtbl.create 16 in
  let may_avail proc =
    let key = Ident.id proc.Cfg.pr_name in
    match Hashtbl.find_opt may_cache key with
    | Some a -> a
    | None ->
      let a =
        build_avail program.Cfg.tenv proc ~confluence:Dataflow.May
          ~kills:(fun exprs ->
            Opt.Mem_index.writes
              (Opt.Mem_index.view (Opt.Mem_index.create oracle modref) exprs))
      in
      Hashtbl.replace may_cache key a;
      a
  in
  let perfect_avail proc =
    let key = Ident.id proc.Cfg.pr_name in
    match Hashtbl.find_opt perfect_cache key with
    | Some a -> a
    | None ->
      let a =
        build_avail program.Cfg.tenv proc ~confluence:Dataflow.Must
          ~kills:perfect_kills
      in
      Hashtbl.replace perfect_cache key a;
      a
  in
  List.iter
    (fun (stat : Limit.site_stat) ->
      if stat.Limit.ss_redundant > 0 then begin
        let site = stat.Limit.ss_site in
        match site.Interp.site_kind with
        | Interp.Sdope _ | Interp.Snumber | Interp.Sdispatch ->
          add Encapsulated stat.Limit.ss_redundant
        | Interp.Sexplicit (ap, k) -> (
          let expr = Apath.truncate ap k in
          match find_proc site.Interp.site_proc with
          | None -> add Rest stat.Limit.ss_redundant
          | Some proc ->
            if
              Apath.is_memory_ref expr
              && avail_at (may_avail proc) proc ~bid:site.Interp.site_block
                   ~index:site.Interp.site_index expr
            then add Conditional stat.Limit.ss_redundant
            else if
              Apath.is_memory_ref expr
              && avail_at (perfect_avail proc) proc ~bid:site.Interp.site_block
                   ~index:site.Interp.site_index expr
            then add Alias stat.Limit.ss_redundant
            else if 2 * stat.Limit.ss_breakup_prev >= stat.Limit.ss_redundant
            then add Breakup stat.Limit.ss_redundant
            else add Rest stat.Limit.ss_redundant)
      end)
    (Limit.sites limit);
  List.map
    (fun cat -> (cat, Option.value (Hashtbl.find_opt counts cat) ~default:0))
    all_categories
