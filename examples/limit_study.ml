(* The limit study (paper §3.5) on one program, step by step.

   Runs slisp under the ATOM-style tracer before and after TBAA+RLE,
   prints the redundancy fractions (one row of Figure 9), classifies
   what remains (one row of Figure 10), and names the top offending
   static sites — the kind of digging the authors did by hand to produce
   their Encapsulation/Conditional/Breakup taxonomy.

     dune exec examples/limit_study.exe *)

let trace ~optimize w =
  let program = Workloads.Workload.lower w in
  let oracle =
    Tbaa.Engine.oracle (Tbaa.Engine.create program)
      Tbaa.Engine.Sm_field_type_refs
  in
  ignore
    (Opt.Pass_manager.run (Opt.Pass.create ()) program
       ((if optimize then [ Opt.Pass_manager.Run Opt.Rle.pass ] else [])
       @ [ Opt.Pass_manager.Run Opt.Local_cse.pass ]));
  let tracer = Sim.Limit.create () in
  let _ = Sim.Interp.run ~on_load:(Sim.Limit.on_load tracer) program in
  (program, oracle, tracer)

let describe_site (s : Sim.Interp.site) =
  let where =
    Printf.sprintf "%s B%d#%d"
      (Support.Ident.name s.Sim.Interp.site_proc)
      s.Sim.Interp.site_block s.Sim.Interp.site_index
  in
  match s.Sim.Interp.site_kind with
  | Sim.Interp.Sexplicit (ap, k) ->
    Printf.sprintf "%-22s load %s (prefix %d)" where (Ir.Apath.to_string ap) k
  | Sim.Interp.Sdope ap ->
    Printf.sprintf "%-22s dope of %s" where (Ir.Apath.to_string ap)
  | Sim.Interp.Snumber -> Printf.sprintf "%-22s NUMBER dope" where
  | Sim.Interp.Sdispatch -> Printf.sprintf "%-22s dispatch header" where

let () =
  let w = Workloads.Suite.find "slisp" in
  Printf.printf "limit study: %s\n\n" w.Workloads.Workload.name;

  let _, _, before = trace ~optimize:false w in
  let program, oracle, after = trace ~optimize:true w in
  let original = float_of_int (Sim.Limit.total_heap_loads before) in

  Printf.printf "heap loads (original run):   %d\n"
    (Sim.Limit.total_heap_loads before);
  Printf.printf "dynamically redundant:       %d (%.1f%%)\n"
    (Sim.Limit.total_redundant before)
    (100.0 *. float_of_int (Sim.Limit.total_redundant before) /. original);
  Printf.printf "redundant after TBAA+RLE:    %d (%.1f%% of original)\n\n"
    (Sim.Limit.total_redundant after)
    (100.0 *. float_of_int (Sim.Limit.total_redundant after) /. original);

  (* Classify the residual (one row of Figure 10). *)
  let modref = Opt.Modref.compute program oracle in
  let breakdown = Sim.Classify.classify program oracle modref after in
  print_endline "residual classification:";
  List.iter
    (fun (cat, n) ->
      Printf.printf "  %-14s %6d  (%.3f of original heap loads)\n"
        (Sim.Classify.category_to_string cat)
        n
        (float_of_int n /. original))
    breakdown;

  (* The hottest residual sites. *)
  print_endline "\ntop redundant sites after optimization:";
  let sites =
    List.sort
      (fun (a : Sim.Limit.site_stat) b ->
        compare b.Sim.Limit.ss_redundant a.Sim.Limit.ss_redundant)
      (Sim.Limit.sites after)
  in
  List.iteri
    (fun i (s : Sim.Limit.site_stat) ->
      if i < 6 && s.Sim.Limit.ss_redundant > 0 then
        Printf.printf "  %6d/%6d  %s\n" s.Sim.Limit.ss_redundant
          s.Sim.Limit.ss_loads
          (describe_site s.Sim.Limit.ss_site))
    sites
