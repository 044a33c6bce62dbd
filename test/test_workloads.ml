(* Integration tests over the benchmark suite: every program typechecks,
   runs without faults, produces stable output, and survives the full
   optimizer under every oracle with identical output. *)


let all = Workloads.Suite.all
let dynamic = Workloads.Suite.dynamic

let test_suite_shape () =
  Alcotest.(check int) "ten programs" 10 (List.length all);
  Alcotest.(check int) "eight dynamic" 8 (List.length dynamic);
  List.iter
    (fun (w : Workloads.Workload.t) ->
      Alcotest.(check bool)
        (w.Workloads.Workload.name ^ " has a meaningful size") true
        (Workloads.Workload.source_lines w > 100))
    all

let test_all_typecheck () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
      ignore (Workloads.Workload.lower w))
    all

let test_all_run_clean () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let o = Sim.Interp.run (Workloads.Workload.lower w) in
      Alcotest.(check int) (w.Workloads.Workload.name ^ ": no faults") 0
        o.Sim.Interp.soft_faults;
      Alcotest.(check bool) (w.Workloads.Workload.name ^ ": produces output") true
        (String.length o.Sim.Interp.output > 0);
      Alcotest.(check bool) (w.Workloads.Workload.name ^ ": terminates") false
        o.Sim.Interp.halted)
    all

let test_outputs_deterministic () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let a = Sim.Interp.run (Workloads.Workload.lower w) in
      let b = Sim.Interp.run (Workloads.Workload.lower w) in
      Alcotest.(check string) w.Workloads.Workload.name a.Sim.Interp.output
        b.Sim.Interp.output)
    dynamic

(* Passes run the way every front end runs them: through the pass manager
   over a fresh context. *)
let run_passes ?(kind = Opt.Pipeline.Osm_field_type_refs) program passes =
  ignore
    (Opt.Pass_manager.run (Opt.Pass.create ~oracle_kind:kind ()) program
       (List.map (fun p -> Opt.Pass_manager.Run p) passes))

let test_optimizer_preserves_every_workload () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let reference = Sim.Interp.run (Workloads.Workload.lower w) in
      List.iter
        (fun kind ->
          let program = Workloads.Workload.lower w in
          run_passes ~kind program [ Opt.Rle.pass; Opt.Local_cse.pass ];
          let o = Sim.Interp.run program in
          Alcotest.(check string)
            (Printf.sprintf "%s under %s" w.Workloads.Workload.name
               (Opt.Pipeline.oracle_name kind))
            reference.Sim.Interp.output o.Sim.Interp.output)
        [ Opt.Pipeline.Otype_decl; Opt.Pipeline.Ofield_type_decl;
          Opt.Pipeline.Osm_field_type_refs ])
    dynamic

let test_minv_inlining_preserves () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let reference = Sim.Interp.run (Workloads.Workload.lower w) in
      let program = Workloads.Workload.lower w in
      let config =
        { Opt.Pipeline.oracle_kind = Opt.Pipeline.Osm_field_type_refs;
          world = Tbaa.World.Closed;
          passes =
            { Opt.Pass_manager.Config.devirt_inline = true; licm = true;
              pre = true; slf = true; rle = true; copyprop = true;
              dse = true; local_cse = true };
          jobs = 1 }
      in
      ignore
        (Opt.Pass_manager.run
           (Opt.Pipeline.context_of_config config)
           program
           (Opt.Pipeline.schedule_of_config config));
      let o = Sim.Interp.run program in
      Alcotest.(check string) w.Workloads.Workload.name reference.Sim.Interp.output
        o.Sim.Interp.output)
    dynamic

let test_rle_reduces_heap_loads () =
  (* RLE must strictly reduce dynamic heap loads somewhere in the suite,
     and never increase them. *)
  let improved = ref 0 in
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let base = Sim.Interp.run (Workloads.Workload.lower w) in
      let program = Workloads.Workload.lower w in
      run_passes program [ Opt.Rle.pass ];
      let opt = Sim.Interp.run program in
      let b = base.Sim.Interp.counters.Sim.Interp.heap_loads in
      let o = opt.Sim.Interp.counters.Sim.Interp.heap_loads in
      Alcotest.(check bool) (w.Workloads.Workload.name ^ ": no regression") true
        (o <= b);
      if o < b then incr improved)
    dynamic;
  Alcotest.(check bool) "improves most programs" true (!improved >= 5)

let test_slisp_is_heap_heavy () =
  (* The paper singles out slisp's 27% heap-load share; ours must be the
     heap-heaviest profile too (> 20%). *)
  let w = Workloads.Suite.find "slisp" in
  let o = Sim.Interp.run (Workloads.Workload.lower w) in
  let c = o.Sim.Interp.counters in
  let total =
    c.Sim.Interp.instrs + c.Sim.Interp.heap_loads + c.Sim.Interp.other_loads
    + c.Sim.Interp.stores
  in
  let share = float_of_int c.Sim.Interp.heap_loads /. float_of_int total in
  Alcotest.(check bool) "heap share > 20%" true (share > 0.20)

let test_ktree_dope_redundancy () =
  (* k-tree's residual redundancy must be dominated by dope-vector reads
     (the paper's Encapsulation finding). *)
  let w = Workloads.Suite.find "ktree" in
  let program = Workloads.Workload.lower w in
  let oracle =
    Tbaa.Engine.oracle (Tbaa.Engine.create program)
      Tbaa.Engine.Sm_field_type_refs
  in
  run_passes program [ Opt.Rle.pass ];
  let tracer = Sim.Limit.create () in
  let _ = Sim.Interp.run ~on_load:(Sim.Limit.on_load tracer) program in
  let modref = Opt.Modref.compute program oracle in
  let breakdown = Sim.Classify.classify program oracle modref tracer in
  let get c = List.assoc c breakdown in
  let enc = get Sim.Classify.Encapsulated in
  let others =
    get Sim.Classify.Conditional + get Sim.Classify.Breakup
    + get Sim.Classify.Alias + get Sim.Classify.Rest
  in
  Alcotest.(check bool) "encapsulation dominates" true (enc > others)

let () =
  Alcotest.run "workloads"
    [ ( "suite",
        [ Alcotest.test_case "shape" `Quick test_suite_shape;
          Alcotest.test_case "typecheck" `Quick test_all_typecheck ] );
      ( "execution",
        [ Alcotest.test_case "run clean" `Slow test_all_run_clean;
          Alcotest.test_case "deterministic" `Slow test_outputs_deterministic ] );
      ( "optimization",
        [ Alcotest.test_case "RLE preserves outputs" `Slow
            test_optimizer_preserves_every_workload;
          Alcotest.test_case "Minv+Inlining preserves outputs" `Slow
            test_minv_inlining_preserves;
          Alcotest.test_case "RLE reduces heap loads" `Slow
            test_rle_reduces_heap_loads ] );
      ( "character",
        [ Alcotest.test_case "slisp heap-heavy" `Slow test_slisp_is_heap_heavy;
          Alcotest.test_case "ktree dope-bound" `Slow test_ktree_dope_redundancy ] ) ]
