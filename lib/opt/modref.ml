open Support
open Ir
open Tbaa

type summary = { mods : Aloc.Set.t; refs : Aloc.Set.t }

type t = {
  program : Cfg.program;
  lookup : Ident.t -> summary;
  kill_all : bool;
}

let empty = { mods = Aloc.Set.empty; refs = Aloc.Set.empty }

let of_effects (e : Effects.t) =
  { mods = e.Effects.e_mods; refs = e.Effects.e_refs }

(* Direct (one-procedure) effects, via the shared single-pass collector.
   Built from the oracle's raw store_class/addr_taken_var — the fault
   layer never wraps those, so fault-injected runs summarize exactly as
   before. *)
let direct_summary (oracle : Oracle.t) proc =
  of_effects
    (Effects.direct ~store_class:oracle.Oracle.store_class
       ~addr_taken_var:oracle.Oracle.addr_taken_var proc)

(* The monolithic whole-program computation — kept as the differential
   baseline for {!of_engine} (the suite checks they agree). *)
let compute program oracle =
  let closure = Callgraph.transitive_closure program in
  let direct = Hashtbl.create 32 in
  List.iter
    (fun proc ->
      Hashtbl.replace direct proc.Cfg.pr_name (direct_summary oracle proc))
    program.Cfg.prog_procs;
  let summaries = Hashtbl.create 32 in
  List.iter
    (fun proc ->
      let name = proc.Cfg.pr_name in
      let reach =
        Ident.Set.add name
          (Option.value (Hashtbl.find_opt closure name) ~default:Ident.Set.empty)
      in
      let merged =
        Ident.Set.fold
          (fun callee acc ->
            match Hashtbl.find_opt direct callee with
            | Some s ->
              { mods = Aloc.Set.union acc.mods s.mods;
                refs = Aloc.Set.union acc.refs s.refs }
            | None -> acc)
          reach empty
      in
      Hashtbl.replace summaries name merged)
    program.Cfg.prog_procs;
  { program;
    lookup =
      (fun name ->
        Option.value (Hashtbl.find_opt summaries name) ~default:empty);
    kill_all = false }

let of_engine engine kind =
  { program = Engine.program engine;
    lookup = (fun name -> of_effects (Engine.modref_merged engine kind name));
    kill_all = false }

let conservative program =
  { program; lookup = (fun _ -> empty); kill_all = true }

let summary t name = t.lookup name

(* Resolves the possible callees' mod sets once; the returned predicate
   takes the expression's query paths (its base variable as a path followed
   by its prefixes). Path-outer so a memoizing oracle sees consecutive
   queries against the same path (it hashes each path once instead of once
   per class). *)
let call_effect_pred sets (oracle : Oracle.t) =
  fun paths ->
    List.exists
      (fun m ->
        List.exists
          (fun p ->
            List.exists (fun cls -> oracle.Oracle.class_kills cls p) m)
          paths)
      sets

(* The classes are materialized as sorted lists ([Set.elements]), not
   probed with [Set.exists]: [exists] visits the tree root first, so its
   short-circuit order depends on the set's construction history — two
   equal summaries built by different union sequences (incremental vs
   from-scratch merge) would issue different query streams and drift the
   oracle counters the differential suite compares. Element order makes
   the stream a function of the summary's value alone. *)
let callee_sets t target select =
  List.filter_map
    (fun callee ->
      let s = select (summary t callee) in
      if Aloc.Set.is_empty s then None else Some (Aloc.Set.elements s))
    (Callgraph.callees_of_target t.program target)

let call_kill_pred t (oracle : Oracle.t) target =
  if t.kill_all then fun _ -> true
  else call_effect_pred (callee_sets t target (fun s -> s.mods)) oracle

(* The read-side dual, for dead-store elimination: may some callee *read*
   any of the expression's cells? A location of class [cls] may be read
   where a location of class [cls] may be written, so the same
   class-vs-path overlap test ([class_kills]) answers both directions. *)
let call_ref_pred t (oracle : Oracle.t) target =
  if t.kill_all then fun _ -> true
  else call_effect_pred (callee_sets t target (fun s -> s.refs)) oracle
