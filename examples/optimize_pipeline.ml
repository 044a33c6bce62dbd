(* The full whole-program-optimizer pipeline on a real workload.

   Takes the k-tree benchmark from the built-in suite and walks the same
   steps the experiment harness uses — devirtualize + inline, RLE,
   baseline local CSE, each pass run by the pass manager over one shared
   analysis context — reporting what each pass did and how the simulated
   machine numbers move.

     dune exec examples/optimize_pipeline.exe *)

let describe label (o : Sim.Interp.outcome) =
  Printf.printf "%-24s %9d instrs  %8d heap loads  %9d cycles\n" label
    o.Sim.Interp.counters.Sim.Interp.instrs
    o.Sim.Interp.counters.Sim.Interp.heap_loads o.Sim.Interp.cycles

let () =
  let w = Workloads.Suite.find "ktree" in
  Printf.printf "workload: %s — %s (%d source lines)\n\n" w.Workloads.Workload.name
    w.Workloads.Workload.description
    (Workloads.Workload.source_lines w);

  (* Base: what GCC-with-standard-optimizations would see. *)
  let base = Workloads.Workload.lower w in
  ignore
    (Opt.Pass_manager.run (Opt.Pass.create ()) base
       [ Opt.Pass_manager.Run Opt.Local_cse.pass ]);
  let base_out = Sim.Interp.run base in
  describe "base" base_out;

  (* One context carries the analysis from pass to pass: the manager
     re-analyzes (incrementally) after each pass that changed the code. *)
  let program = Workloads.Workload.lower w in
  let ctx = Opt.Pass.create () in
  let step pass =
    match Opt.Pass_manager.run ctx program [ Opt.Pass_manager.Run pass ] with
    | [ r ] -> r
    | _ -> assert false
  in

  (* Step 1: method invocation resolution + inlining. *)
  let d = step Opt.Devirt.pass in
  let i = step Opt.Inline.pass in
  Printf.printf "\ndevirt: %d resolved, %d left virtual; inlined %d sites\n"
    (Opt.Pass.stat d "resolved") (Opt.Pass.stat d "unresolved")
    (Opt.Pass.stat i "inlined");

  (* Step 2: RLE over the transformed program. *)
  let rle = step Opt.Rle.pass in
  Printf.printf "RLE: %d hoisted, %d eliminated, %d shortened\n\n"
    (Opt.Pass.stat rle "hoisted") (Opt.Pass.stat rle "eliminated")
    (Opt.Pass.stat rle "shortened");

  (* Step 3: the GCC-like baseline runs over everything. *)
  ignore (step Opt.Local_cse.pass);
  let opt_out = Sim.Interp.run program in
  describe "optimized" opt_out;

  Printf.printf "\nrunning time: %.1f%% of base; output unchanged: %b\n"
    (100.0
    *. float_of_int opt_out.Sim.Interp.cycles
    /. float_of_int base_out.Sim.Interp.cycles)
    (String.equal base_out.Sim.Interp.output opt_out.Sim.Interp.output)
