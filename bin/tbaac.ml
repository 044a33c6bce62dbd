(* tbaac — the MiniM3 whole-program optimizer driver.

   Subcommands mirror the pipeline: check (front end), ir (lowering),
   aliases (the three TBAA analyses and the static metrics), optimize
   (RLE / devirt+inline with a chosen oracle), run (simulated execution
   with the machine counters), and experiment (regenerate the paper's
   tables and figures). Programs come from a file or, with --workload,
   from the built-in benchmark suite. *)

open Cmdliner

(* ------------------------------------------------------------------ *)
(* Common arguments                                                    *)
(* ------------------------------------------------------------------ *)

let read_file path =
  let ic = open_in_bin path in
  let n = in_channel_length ic in
  let s = really_input_string ic n in
  close_in ic;
  s

let source_of ~file ~workload =
  match (file, workload) with
  | Some path, None -> Ok (path, read_file path)
  | None, Some name -> (
    match Workloads.Suite.find name with
    | w -> Ok (name, w.Workloads.Workload.source)
    | exception Not_found ->
      Error
        (Printf.sprintf "unknown workload %S (try: %s)" name
           (String.concat ", "
              (List.map
                 (fun (w : Workloads.Workload.t) -> w.Workloads.Workload.name)
                 Workloads.Suite.all))))
  | Some _, Some _ -> Error "give either FILE or --workload, not both"
  | None, None -> Error "a FILE argument or --workload NAME is required"

let file_arg =
  Arg.(value & pos 0 (some string) None & info [] ~docv:"FILE" ~doc:"MiniM3 source file.")

let workload_arg =
  Arg.(
    value
    & opt (some string) None
    & info [ "workload"; "w" ] ~docv:"NAME"
        ~doc:"Use a built-in benchmark program instead of a file.")

let analysis_conv =
  Arg.enum
    [ ("typedecl", Opt.Pipeline.Otype_decl);
      ("fieldtypedecl", Opt.Pipeline.Ofield_type_decl);
      ("smfieldtyperefs", Opt.Pipeline.Osm_field_type_refs) ]

let analysis_arg =
  Arg.(
    value
    & opt analysis_conv Opt.Pipeline.Osm_field_type_refs
    & info [ "analysis"; "a" ] ~docv:"ANALYSIS"
        ~doc:
          "Alias analysis: $(b,typedecl), $(b,fieldtypedecl) or \
           $(b,smfieldtyperefs).")

let world_conv =
  Arg.enum [ ("closed", Tbaa.World.Closed); ("open", Tbaa.World.Open) ]

let world_arg =
  Arg.(
    value
    & opt world_conv Tbaa.World.Closed
    & info [ "world" ] ~docv:"WORLD"
        ~doc:"Closed-world (whole program) or open-world (incomplete program) analysis.")

let or_die = function
  | Ok v -> v
  | Error msg ->
    prerr_endline ("tbaac: " ^ msg);
    exit 1

let with_source file workload k =
  let name, src = or_die (source_of ~file ~workload) in
  try k name src with
  | Support.Diag.Compile_error d ->
    prerr_endline (Support.Diag.to_string d);
    exit 1

(* ------------------------------------------------------------------ *)
(* Subcommands                                                         *)
(* ------------------------------------------------------------------ *)

let check_cmd =
  let run file workload =
    with_source file workload (fun name src ->
        match Minim3.Typecheck.check_string_all ~file:name src with
        | Ok p ->
          Printf.printf "%s: OK (%d types, %d globals, %d procedures)\n"
            (Support.Ident.name p.Minim3.Tast.module_name)
            (List.length p.Minim3.Tast.type_names)
            (List.length p.Minim3.Tast.globals)
            (List.length p.Minim3.Tast.procs)
        | Error diags ->
          List.iter
            (fun d -> prerr_endline (Support.Diag.to_string d))
            diags;
          Printf.eprintf "tbaac: %d error%s\n" (List.length diags)
            (if List.length diags = 1 then "" else "s");
          exit 1)
  in
  Cmd.v
    (Cmd.info "check" ~doc:"Parse and typecheck a MiniM3 program.")
    Term.(const run $ file_arg $ workload_arg)

let format_cmd =
  let run file workload =
    with_source file workload (fun name src ->
        print_string (Minim3.Ast_pp.reprint ~file:name src))
  in
  Cmd.v
    (Cmd.info "format" ~doc:"Parse a program and reprint it with normalized layout.")
    Term.(const run $ file_arg $ workload_arg)

let ir_cmd =
  let run file workload =
    with_source file workload (fun name src ->
        let program = Ir.Lower.lower_string ~file:name src in
        Format.printf "%a@." Ir.Cfg.pp_program program)
  in
  Cmd.v
    (Cmd.info "ir" ~doc:"Lower a program and dump its IR.")
    Term.(const run $ file_arg $ workload_arg)

let aliases_cmd =
  let run file workload world show_trt =
    with_source file workload (fun name src ->
        let program = Ir.Lower.lower_string ~file:name src in
        let e =
          Tbaa.Engine.create
            ~config:{ Tbaa.Engine.default_config with Tbaa.Engine.world }
            program
        in
        let facts = Tbaa.Engine.facts e in
        Printf.printf "heap memory references: %d\n"
          (List.length facts.Tbaa.Facts.memrefs);
        List.iter
          (fun (o : Tbaa.Oracle.t) ->
            let c = Tbaa.Alias_pairs.count o facts in
            Printf.printf
              "%-16s local pairs: %6d (%.1f/ref)   global pairs: %6d (%.1f/ref)\n"
              o.Tbaa.Oracle.name c.Tbaa.Alias_pairs.local_pairs
              (Tbaa.Alias_pairs.average_local c)
              c.Tbaa.Alias_pairs.global_pairs
              (Tbaa.Alias_pairs.average_global c))
          (Tbaa.Engine.oracles e);
        if show_trt then begin
          let tenv = facts.Tbaa.Facts.tenv in
          Printf.printf "\nTypeRefsTable (pointer types):\n";
          for t = 0 to Minim3.Types.count tenv - 1 do
            if Minim3.Types.is_pointer tenv t && t <> Minim3.Types.tid_null then begin
              let refs = Tbaa.Engine.type_refs_table e t in
              Printf.printf "  %-28s -> { %s }\n"
                (Minim3.Types.to_string tenv t)
                (String.concat ", "
                   (List.map (Minim3.Types.to_string tenv) refs))
            end
          done
        end)
  in
  let trt_arg =
    Arg.(value & flag & info [ "type-refs" ] ~doc:"Also print the TypeRefsTable.")
  in
  Cmd.v
    (Cmd.info "aliases"
       ~doc:"Run the three alias analyses and report the static alias-pair metric.")
    Term.(const run $ file_arg $ workload_arg $ world_arg $ trt_arg)

let optimize_cmd =
  let run file workload analysis world minv pre copyprop licm slf dse jobs
      stats verify =
    with_source file workload (fun name src ->
        (* the front end's layers, timed for --stats *)
        let layers = ref [] in
        let layer what f =
          let w0 = Gc.minor_words () and t0 = Support.Clock.now_ms () in
          let r = f () in
          let ms = Support.Clock.now_ms () -. t0 in
          layers := (what, ms, Gc.minor_words () -. w0) :: !layers;
          r
        in
        let ast = layer "parse" (fun () -> Minim3.Parser.parse_module ~file:name src) in
        let tast = layer "typecheck" (fun () -> Minim3.Typecheck.check_module ast) in
        let program = layer "lower" (fun () -> Ir.Lower.lower_program tast) in
        let config =
          { Opt.Pipeline.oracle_kind = analysis; world;
            passes =
              { Opt.Pass_manager.Config.devirt_inline = minv; licm; pre; slf;
                rle = true; copyprop; dse; local_cse = false };
            jobs }
        in
        let ctx = Opt.Pipeline.context_of_config config in
        let schedule = Opt.Pipeline.schedule_of_config config in
        let reports =
          if verify then
            Opt.Pass_manager.run_guarded ~verify:true ctx program schedule
          else Opt.Pass_manager.run ctx program schedule
        in
        if stats then begin
          let config_desc =
            String.concat "+"
              (("rle:" ^ Opt.Pipeline.oracle_name analysis)
               :: List.filter_map
                    (fun (on, tag) -> if on then Some tag else None)
                    [ (minv, "minv"); (licm, "licm"); (pre, "pre");
                      (slf, "slf"); (copyprop, "cp"); (dse, "dse");
                      (world = Tbaa.World.Open, "open") ])
          in
          List.iter
            (fun (what, ms, words) ->
              print_endline
                (Support.Json.to_string
                   (Support.Json.envelope
                      [ ("workload", Support.Json.String name);
                        ("config", Support.Json.String config_desc);
                        ("layer", Support.Json.String what);
                        ("time_ms", Support.Json.Float ms);
                        ("minor_words", Support.Json.Int (int_of_float words)) ])))
            (List.rev !layers);
          List.iter
            (fun r ->
              let record =
                match
                  Opt.Pass.report_to_json
                    ~extra:
                      [ ("workload", Support.Json.String name);
                        ("config", Support.Json.String config_desc) ]
                    r
                with
                | Support.Json.Obj fields -> Support.Json.envelope fields
                | j -> j
              in
              print_endline (Support.Json.to_string record))
            reports
        end;
        let ran p = Opt.Pass_manager.ran p reports in
        let sum p stat = Opt.Pass_manager.sum_stat p stat reports in
        if ran "devirt" then
          (* later rounds re-count call sites the first round already saw
             (possibly duplicated by inlining), so "kept virtual" is the
             first round's count *)
          Printf.printf "devirtualized: %d resolved, %d kept virtual\n"
            (sum "devirt" "resolved")
            (Opt.Pass_manager.first_stat "devirt" "unresolved" reports);
        if ran "inline" then
          Printf.printf "inlined: %d call sites\n" (sum "inline" "inlined");
        if ran "pre" then
          Printf.printf "PRE: %d loads inserted, %d edges split\n"
            (sum "pre" "inserted") (sum "pre" "edges_split");
        if ran "copyprop" then
          Printf.printf "copy propagation: %d uses rewritten\n"
            (sum "copyprop" "replaced");
        if ran "licm" then
          Printf.printf "LICM: %d loads hoisted\n" (sum "licm" "hoisted");
        if ran "slf" then
          Printf.printf "store-to-load forwarding: %d loads forwarded\n"
            (sum "slf" "forwarded");
        if ran "dse" then
          Printf.printf "DSE: %d dead stores removed\n" (sum "dse" "removed");
        if ran "rle" then begin
          let h = sum "rle" "hoisted" and e = sum "rle" "eliminated"
          and s = sum "rle" "shortened" in
          Printf.printf
            "RLE (%s): %d hoisted, %d eliminated, %d shortened (%d removed)\n"
            (Opt.Pipeline.oracle_name analysis) h e s (h + e + s)
        end;
        let failures = Opt.Pass_manager.failures reports in
        if failures <> [] then begin
          List.iter
            (fun (pass, why) ->
              Printf.eprintf "tbaac: pass %s failed: %s\n" pass why)
            failures;
          exit 1
        end)
  in
  let minv_arg =
    Arg.(
      value & flag
      & info [ "minv" ]
          ~doc:"Also run method invocation resolution and inlining first.")
  in
  let pre_arg =
    Arg.(
      value & flag
      & info [ "pre" ] ~doc:"Also run partial redundancy elimination (extension).")
  in
  let copyprop_arg =
    Arg.(
      value & flag
      & info [ "copyprop" ]
          ~doc:"Also run copy propagation and a second RLE pass (extension).")
  in
  let licm_arg =
    Arg.(
      value & flag
      & info [ "licm" ]
          ~doc:"Also run standalone loop-invariant load motion (extension).")
  in
  let slf_arg =
    Arg.(
      value & flag
      & info [ "slf" ]
          ~doc:"Also run store-to-load forwarding (extension).")
  in
  let dse_arg =
    Arg.(
      value & flag
      & info [ "dse" ] ~doc:"Also run dead-store elimination (extension).")
  in
  let jobs_arg =
    Arg.(
      value & opt int 1
      & info [ "jobs" ] ~docv:"N"
          ~doc:
            "Run per-procedure passes across $(docv) domains. Output is \
             byte-identical to a sequential run.")
  in
  let stats_arg =
    Arg.(
      value & flag
      & info [ "stats" ]
          ~doc:
            "Emit one JSON line per executed pass (timing, counters, \
             oracle-cache and dataflow activity) before the summary.")
  in
  let verify_arg =
    Arg.(
      value & flag
      & info [ "verify-ir" ]
          ~doc:
            "Validate the IR after every pass; a pass leaving invalid IR \
             (or crashing) is rolled back and quarantined, and the run \
             exits nonzero naming it.")
  in
  Cmd.v
    (Cmd.info "optimize" ~doc:"Run the optimizer and report what it did.")
    Term.(
      const run $ file_arg $ workload_arg $ analysis_arg $ world_arg $ minv_arg
      $ pre_arg $ copyprop_arg $ licm_arg $ slf_arg $ dse_arg $ jobs_arg
      $ stats_arg $ verify_arg)

let fuel_arg =
  Arg.(
    value
    & opt (some int) None
    & info [ "fuel" ] ~docv:"N"
        ~doc:
          "Bound executed instructions; an exhausted program halts \
           gracefully instead of spinning (default 50 million).")

let run_cmd =
  let run file workload optimize analysis audit fuel quiet reference =
    with_source file workload (fun name src ->
        let program = Ir.Lower.lower_string ~file:name src in
        let ctx = Opt.Pass.create ~oracle_kind:analysis () in
        let claims =
          if audit then
            Some (Tbaa.Claims.create ~oracle:(Opt.Pass.oracle_name analysis))
          else None
        in
        ctx.Opt.Pass.claims <- claims;
        ignore
          (Opt.Pass_manager.run ctx program
             ((if optimize || audit then [ Opt.Pass_manager.Run Opt.Rle.pass ]
               else [])
             @ [ Opt.Pass_manager.Run Opt.Local_cse.pass ]));
        let auditor = Option.map (fun c -> (Sim.Audit.create c, c)) claims in
        let on_access =
          Option.map (fun (a, _) ac -> Sim.Audit.on_access a ac) auditor
        in
        let engine =
          if reference then Sim.Interp.run_reference else Sim.Interp.run
        in
        let o = engine ?fuel ?on_load:None ?on_access program in
        if not quiet then print_string o.Sim.Interp.output;
        let c = o.Sim.Interp.counters in
        Printf.eprintf
          "instructions: %d\nheap loads: %d\nother loads: %d\nstores: %d\n\
           calls: %d\nallocations: %d\ncycles: %d\ncache: %d hits, %d misses\n\
           soft faults: %d\n"
          c.Sim.Interp.instrs c.Sim.Interp.heap_loads c.Sim.Interp.other_loads
          c.Sim.Interp.stores c.Sim.Interp.calls c.Sim.Interp.allocations
          o.Sim.Interp.cycles o.Sim.Interp.cache_hits o.Sim.Interp.cache_misses
          o.Sim.Interp.soft_faults;
        match auditor with
        | None -> ()
        | Some (a, claims) ->
          let violations = Sim.Audit.check a in
          Printf.eprintf
            "audit: %d claim pairs (%d disjoint), %d accesses over %d paths, \
             %d violation%s\n"
            (Tbaa.Claims.n_pairs claims)
            (List.length (Tbaa.Claims.disjoint_pairs claims))
            (Sim.Audit.n_accesses a) (Sim.Audit.n_paths a)
            (List.length violations)
            (if List.length violations = 1 then "" else "s");
          List.iter
            (fun v ->
              Printf.eprintf "audit violation: %s\n"
                (Sim.Audit.violation_to_string v))
            violations;
          if violations <> [] then exit 1)
  in
  let optimize_arg =
    Arg.(value & flag & info [ "optimize"; "O" ] ~doc:"Apply TBAA + RLE first.")
  in
  let audit_arg =
    Arg.(
      value & flag
      & info [ "audit" ]
          ~doc:
            "Cross-check the optimizer's no-alias claims against the \
             concrete addresses the run touches (implies $(b,--optimize)); \
             exits nonzero on a soundness violation.")
  in
  let quiet_arg =
    Arg.(value & flag & info [ "quiet"; "q" ] ~doc:"Suppress the program's output.")
  in
  let reference_arg =
    Arg.(
      value & flag
      & info [ "reference" ]
          ~doc:
            "Use the tree-walking reference interpreter instead of the \
             pre-compiled engine (same observable behaviour, slower; for \
             differential debugging).")
  in
  Cmd.v
    (Cmd.info "run" ~doc:"Execute a program on the simulator and print counters.")
    Term.(
      const run $ file_arg $ workload_arg $ optimize_arg $ analysis_arg
      $ audit_arg $ fuel_arg $ quiet_arg $ reference_arg)

let audit_cmd =
  let run file workload analysis world minv licm slf dse fault_rate fault_seed
      fuel json =
    let programs =
      match (file, workload) with
      | None, None ->
        List.map
          (fun (w : Workloads.Workload.t) ->
            (w.Workloads.Workload.name, w.Workloads.Workload.source))
          Workloads.Suite.all
      | _ -> [ or_die (source_of ~file ~workload) ]
    in
    let fault =
      if fault_rate > 0.0 then
        Some (Opt.Pass.fault ~seed:fault_seed ~rate:fault_rate ())
      else None
    in
    let failed = ref false in
    List.iter
      (fun (name, src) ->
        let oracle_label =
          Opt.Pipeline.oracle_name analysis
          ^
          match fault with
          | Some f ->
            Printf.sprintf "+fault(seed=%d,rate=%g)" f.Opt.Pass.f_seed
              f.Opt.Pass.f_rate
          | None -> ""
        in
        let claims = Tbaa.Claims.create ~oracle:oracle_label in
        try
          let program = Ir.Lower.lower_string ~file:name src in
          let config =
            { Opt.Pipeline.oracle_kind = analysis; world;
              passes =
                { Opt.Pass_manager.Config.devirt_inline = minv; licm;
                  pre = false; slf; rle = true; copyprop = false; dse;
                  local_cse = false };
              jobs = 1 }
          in
          let ctx = Opt.Pipeline.context_of_config config in
          ctx.Opt.Pass.claims <- Some claims;
          ctx.Opt.Pass.fault <- fault;
          let failures =
            Opt.Pass_manager.failures
              (Opt.Pass_manager.run_guarded ~verify:true ctx program
                 (Opt.Pipeline.schedule_of_config config))
          in
          let auditor = Sim.Audit.create claims in
          let o =
            Sim.Interp.run ?fuel ~on_access:(Sim.Audit.on_access auditor)
              program
          in
          let violations = Sim.Audit.check auditor in
          if violations <> [] || failures <> [] then failed := true;
          if json then
            print_endline
              (Support.Json.to_string
                 (Support.Json.Obj
                    [ ("workload", Support.Json.String name);
                      ("halted", Support.Json.Bool o.Sim.Interp.halted);
                      ( "pass_failures",
                        Support.Json.List
                          (List.map
                             (fun (p, why) ->
                               Support.Json.Obj
                                 [ ("pass", Support.Json.String p);
                                   ("reason", Support.Json.String why) ])
                             failures) );
                      ("audit", Sim.Audit.report_json auditor violations) ]))
          else begin
            Printf.printf
              "%-12s pairs=%-5d disjoint=%-5d accesses=%-8d paths=%-4d \
               failures=%d violations=%d\n"
              name
              (Tbaa.Claims.n_pairs claims)
              (List.length (Tbaa.Claims.disjoint_pairs claims))
              (Sim.Audit.n_accesses auditor)
              (Sim.Audit.n_paths auditor)
              (List.length failures) (List.length violations);
            List.iter
              (fun (pass, why) ->
                Printf.printf "  pass failure: %s: %s\n" pass why)
              failures;
            List.iter
              (fun v ->
                Printf.printf "  violation: %s\n"
                  (Sim.Audit.violation_to_string v))
              violations
          end
        with Support.Diag.Compile_error d ->
          failed := true;
          if json then
            print_endline
              (Support.Json.to_string
                 (Support.Json.Obj
                    [ ("workload", Support.Json.String name);
                      ( "error",
                        Support.Json.String (Support.Diag.to_string d) ) ]))
          else Printf.printf "%-12s ERROR %s\n" name (Support.Diag.to_string d))
      programs;
    (match fault with
    | Some f ->
      Printf.eprintf "fault injection: %d alias flips, %d kill flips applied\n"
        f.Opt.Pass.f_stats.Tbaa.Oracle_fault.alias_flips
        f.Opt.Pass.f_stats.Tbaa.Oracle_fault.kill_flips
    | None -> ());
    if !failed then exit 1
  in
  let fault_rate_arg =
    Arg.(
      value & opt float 0.0
      & info [ "fault-rate" ] ~docv:"R"
          ~doc:
            "Deterministically flip this fraction of oracle answers \
             (negative testing: the auditor should catch the resulting \
             miscompiles).")
  in
  let fault_seed_arg =
    Arg.(
      value & opt int 0xBAA
      & info [ "fault-seed" ] ~docv:"S" ~doc:"PRNG seed for fault injection.")
  in
  let minv_arg =
    Arg.(
      value & flag
      & info [ "minv" ] ~doc:"Also run method resolution and inlining first.")
  in
  let licm_arg =
    Arg.(
      value & flag
      & info [ "licm" ]
          ~doc:"Also audit standalone loop-invariant load motion.")
  in
  let slf_arg =
    Arg.(
      value & flag
      & info [ "slf" ] ~doc:"Also audit store-to-load forwarding.")
  in
  let dse_arg =
    Arg.(
      value & flag & info [ "dse" ] ~doc:"Also audit dead-store elimination.")
  in
  let json_arg =
    Arg.(
      value & flag
      & info [ "json" ] ~doc:"One JSON report per program instead of text.")
  in
  Cmd.v
    (Cmd.info "audit"
       ~doc:
         "Optimize with IR validation between passes, then execute under \
          the dynamic soundness auditor; defaults to the whole built-in \
          suite. Exits nonzero on any validator failure or soundness \
          violation.")
    Term.(
      const run $ file_arg $ workload_arg $ analysis_arg $ world_arg $ minv_arg
      $ licm_arg $ slf_arg $ dse_arg $ fault_rate_arg $ fault_seed_arg
      $ fuel_arg $ json_arg)

let fuzz_cmd =
  let run count seed size fault_rate fault_seed out fuel max_cx replay =
    match replay with
    | Some path -> (
      match Harness.Fuzz.replay ?fuel ~path () with
      | Ok f ->
        Printf.printf "reproduced [%s/%s]: %s\n"
          (Harness.Fuzz.oracle_id_to_string f.Harness.Fuzz.f_oracle)
          f.Harness.Fuzz.f_config f.Harness.Fuzz.f_detail
      | Error reason ->
        prerr_endline ("tbaac: " ^ reason);
        exit 1)
    | None ->
      let fault =
        if fault_rate > 0.0 then Some (fault_seed, fault_rate) else None
      in
      let out_dir = if out = "" then None else Some out in
      let r =
        Harness.Fuzz.run ~out_dir ?fault ?fuel ~size
          ?max_counterexamples:max_cx ~log:print_endline ~count ~seed ()
      in
      Printf.printf "fuzz: %d/%d programs clean (%d configurations × 4 oracles)\n"
        (r.Harness.Fuzz.total - r.Harness.Fuzz.failed)
        r.Harness.Fuzz.total
        (List.length (Harness.Fuzz.config_names ()));
      List.iter
        (fun (cx : Harness.Fuzz.counterexample) ->
          Printf.printf
            "counterexample: seed %d [%s/%s] %d -> %d bytes%s%s\n"
            cx.Harness.Fuzz.cx_seed
            (Harness.Fuzz.oracle_id_to_string
               cx.Harness.Fuzz.cx_failure.Harness.Fuzz.f_oracle)
            cx.Harness.Fuzz.cx_failure.Harness.Fuzz.f_config
            cx.Harness.Fuzz.cx_original_bytes cx.Harness.Fuzz.cx_shrunk_bytes
            (match cx.Harness.Fuzz.cx_path with
            | Some p -> " -> " ^ p
            | None -> "")
            (if cx.Harness.Fuzz.cx_path <> None then
               if cx.Harness.Fuzz.cx_replayed then " (replays)"
               else " (REPLAY FAILED)"
             else ""))
        r.Harness.Fuzz.counterexamples;
      (* With fault injection the failures are the expected outcome (the
         oracles catching seeded miscompiles); without it any failure is a
         real bug in the pipeline. *)
      if fault = None && r.Harness.Fuzz.failed > 0 then exit 1
  in
  let count_arg =
    Arg.(
      value & opt int 100
      & info [ "count"; "n" ] ~docv:"N" ~doc:"Number of programs to generate.")
  in
  let seed_arg =
    Arg.(
      value & opt int 1
      & info [ "seed" ] ~docv:"S"
          ~doc:"Base generator seed; program $(i,i) uses seed S+i.")
  in
  let size_arg =
    Arg.(
      value & opt int 2
      & info [ "size" ] ~docv:"K"
          ~doc:"Generator size knob, 1-3: type-hierarchy depth and body length.")
  in
  let fault_rate_arg =
    Arg.(
      value & opt float 0.0
      & info [ "fault-rate" ] ~docv:"R"
          ~doc:
            "Deterministically flip this fraction of may-alias answers in \
             every optimized configuration (detector self-test: the oracles \
             should report failures, which exit 0).")
  in
  let fault_seed_arg =
    Arg.(
      value & opt int 0xBAA
      & info [ "fault-seed" ] ~docv:"S" ~doc:"PRNG seed for fault injection.")
  in
  let out_arg =
    Arg.(
      value & opt string "fuzz-failures"
      & info [ "out" ] ~docv:"DIR"
          ~doc:"Directory for shrunk repro files; empty string disables writing.")
  in
  let max_cx_arg =
    Arg.(
      value & opt (some int) None
      & info [ "max-counterexamples" ] ~docv:"N"
          ~doc:"Shrink at most N failing programs (default 3).")
  in
  let replay_arg =
    Arg.(
      value & opt (some string) None
      & info [ "replay" ] ~docv:"FILE"
          ~doc:
            "Replay a repro file written by a previous run: re-run the \
             recorded (oracle, configuration) against its source; exits \
             nonzero unless the failure reproduces.")
  in
  Cmd.v
    (Cmd.info "fuzz"
       ~doc:
         "Generate random well-typed programs and check every optimized \
          configuration against the differential-semantics, \
          precision-lattice, round-trip and IR-validity oracles; failures \
          are shrunk to minimal repro files.")
    Term.(
      const run $ count_arg $ seed_arg $ size_arg $ fault_rate_arg
      $ fault_seed_arg $ out_arg $ fuel_arg $ max_cx_arg $ replay_arg)

let experiment_cmd =
  let names =
    [ ("table4", fun () -> Harness.Experiments.Table4.render ());
      ("table5", fun () -> Harness.Experiments.Table5.render ());
      ("table6", fun () -> Harness.Experiments.Table6.render ());
      ("figure8", fun () -> Harness.Experiments.Figure8.render ());
      ("figure9", fun () -> Harness.Experiments.Figure9.render ());
      ("figure10", fun () -> Harness.Experiments.Figure10.render ());
      ("figure11", fun () -> Harness.Experiments.Figure11.render ());
      ("figure12", fun () -> Harness.Experiments.Figure12.render ());
      ("abl-merge", fun () -> Harness.Experiments.Ablation_merge.render ());
      ("abl-modref", fun () -> Harness.Experiments.Ablation_modref.render ()) ]
  in
  let run which =
    match which with
    | "all" -> Harness.Experiments.run_all Format.std_formatter
    | name -> (
      match List.assoc_opt name names with
      | Some render -> print_endline (render ())
      | None ->
        prerr_endline
          ("tbaac: unknown experiment (try: all, "
          ^ String.concat ", " (List.map fst names)
          ^ ")");
        exit 1)
  in
  let which_arg =
    Arg.(value & pos 0 string "all" & info [] ~docv:"EXPERIMENT" ~doc:"Experiment id or 'all'.")
  in
  Cmd.v
    (Cmd.info "experiment"
       ~doc:"Regenerate a table or figure from the paper's evaluation.")
    Term.(const run $ which_arg)

let gen_scale_cmd =
  let run n = print_string (Gen.Scale.source n) in
  let n_arg =
    Arg.(
      required
      & pos 0 (some int) None
      & info [] ~docv:"N" ~doc:"Worker procedure count.")
  in
  Cmd.v
    (Cmd.info "gen-scale"
       ~doc:
         "Emit the deterministic scaleN MiniM3 corpus: N worker procedures \
          over a fixed library layer and 200-type hierarchy (the \
          incremental engine's benchmark subject).")
    Term.(const run $ n_arg)

let main =
  Cmd.group
    (Cmd.info "tbaac" ~version:"1.0.0"
       ~doc:"Type-based alias analysis for MiniM3 (Diwan, McKinley & Moss, PLDI 1998)")
    [ check_cmd; format_cmd; ir_cmd; aliases_cmd; optimize_cmd; run_cmd;
      audit_cmd; fuzz_cmd; gen_scale_cmd; experiment_cmd ]

(* Usage errors are machine-recognisable: unknown subcommands and bad
   flags produce exactly one diagnostic line on stderr and exit code 2,
   instead of cmdliner's multi-paragraph dump and exit 124. *)
let () =
  let buf = Buffer.create 256 in
  let err = Format.formatter_of_buffer buf in
  match Cmd.eval_value ~err main with
  | Ok (`Ok ()) | Ok `Help | Ok `Version -> exit 0
  | Error (`Parse | `Term) ->
    Format.pp_print_flush err ();
    let first_line =
      match String.split_on_char '\n' (String.trim (Buffer.contents buf)) with
      | l :: _ ->
        let prefix = "tbaac: " in
        if String.length l > String.length prefix
           && String.sub l 0 (String.length prefix) = prefix
        then String.sub l (String.length prefix)
               (String.length l - String.length prefix)
        else l
      | [] -> "invalid command line"
    in
    Printf.eprintf "tbaac: usage error: %s (try 'tbaac --help')\n" first_line;
    exit 2
  | Error `Exn ->
    Format.pp_print_flush err ();
    prerr_string (Buffer.contents buf);
    exit 125
