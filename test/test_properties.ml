(* Property-based tests over randomly generated MiniM3 programs: the
   precision lattice between the three analyses, soundness of every oracle
   against observed dynamic aliasing, semantics preservation of the whole
   optimizer, and open-world conservatism. *)

open Ir

(* Every QCheck test gets its own explicitly seeded state: runs are
   reproducible without QCHECK_SEED, and no test's draws depend on how
   many cases an earlier test consumed. *)
let pinned_rand () = Random.State.make [| 0xBAA; 2024 |]

let lower seed = Lower.lower_string ~file:"gen" (Gen_prog.generate seed)

let count = 60

(* --- semantics preservation -------------------------------------------- *)

let output program = (Sim.Interp.run program).Sim.Interp.output

(* Passes run the way every front end runs them: through the pass manager
   over a fresh context. *)
let run_passes ?(kind = Opt.Pipeline.Osm_field_type_refs) program passes =
  ignore
    (Opt.Pass_manager.run (Opt.Pass.create ~oracle_kind:kind ()) program
       (List.map (fun p -> Opt.Pass_manager.Run p) passes))

(* The guarded pipeline (IR validated after every pass) with a claims
   ledger and, optionally, a fault-injected oracle; its failures. *)
let run_guarded ~claims ?fault program config =
  let ctx = Opt.Pipeline.context_of_config config in
  ctx.Opt.Pass.claims <- Some claims;
  ctx.Opt.Pass.fault <- fault;
  Opt.Pass_manager.failures
    (Opt.Pass_manager.run_guarded ~verify:true ctx program
       (Opt.Pipeline.schedule_of_config config))

let preserves_output transform seed =
  let reference = output (lower seed) in
  let program = lower seed in
  transform program;
  String.equal reference (output program)

let prop_rle_preserves kind name =
  QCheck.Test.make ~name ~count Gen_prog.arbitrary
    (preserves_output (fun program -> run_passes ~kind program [ Opt.Rle.pass ]))

let prop_full_pipeline_preserves =
  QCheck.Test.make ~name:"pipeline (devirt+inline+RLE+local CSE) preserves output"
    ~count Gen_prog.arbitrary
    (preserves_output (fun program ->
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
              (Opt.Pipeline.schedule_of_config config))))

let prop_dce_preserves =
  QCheck.Test.make ~name:"DCE preserves output" ~count Gen_prog.arbitrary
    (preserves_output (fun program -> run_passes program [ Opt.Dce.pass ]))

let prop_local_cse_preserves =
  QCheck.Test.make ~name:"local CSE preserves output" ~count Gen_prog.arbitrary
    (preserves_output (fun program -> run_passes program [ Opt.Local_cse.pass ]))

(* --- oracle cache transparency ------------------------------------------ *)

(* The memoizing wrapper must be observationally identical to the raw
   oracle: same may_alias on every (ordered) pair of heap references —
   asked twice, so the second answer comes from the table — and same
   compat/class_kills/store_class on every reference. *)
let prop_oracle_cache_transparent =
  QCheck.Test.make ~name:"Oracle_cache.wrap answers like the raw oracle"
    ~count Gen_prog.arbitrary (fun seed ->
      let program = lower seed in
      let a = Tbaa.Engine.create program in
      let refs =
        List.map
          (fun (r : Tbaa.Facts.memref) -> r.Tbaa.Facts.mr_path)
          (Tbaa.Engine.facts a).Tbaa.Facts.memrefs
      in
      List.for_all
        (fun raw ->
          let counters = Tbaa.Oracle_cache.fresh_counters () in
          let cached = Tbaa.Oracle_cache.wrap ~counters raw in
          List.for_all
            (fun ap1 ->
              List.for_all
                (fun ap2 ->
                  let once = cached.Tbaa.Oracle.may_alias ap1 ap2 in
                  Bool.equal once (raw.Tbaa.Oracle.may_alias ap1 ap2)
                  && Bool.equal once (cached.Tbaa.Oracle.may_alias ap1 ap2))
                refs
              &&
              let cls = raw.Tbaa.Oracle.store_class ap1 in
              Tbaa.Aloc.equal cls (cached.Tbaa.Oracle.store_class ap1)
              && Bool.equal
                   (raw.Tbaa.Oracle.class_kills cls ap1)
                   (cached.Tbaa.Oracle.class_kills cls ap1))
            refs
          && Tbaa.Oracle_cache.misses counters
             <= Tbaa.Oracle_cache.queries counters)
        (Tbaa.Engine.oracles a))

(* The counters must account for every query exactly once: over an
   arbitrary interleaved sequence of may_alias / class_kills /
   store_class queries (with repeats, so the hit path is exercised),
   hits + misses = queries, and the cached answer agrees with the raw
   oracle on each individual call. *)
let prop_oracle_cache_counters =
  QCheck.Test.make ~name:"Oracle_cache counters: hits + misses = queries"
    ~count
    QCheck.(pair Gen_prog.arbitrary (small_list (triple small_nat small_nat (int_range 0 2))))
    (fun (seed, picks) ->
      let program = lower seed in
      let a = Tbaa.Engine.create program in
      let refs =
        List.map
          (fun (r : Tbaa.Facts.memref) -> r.Tbaa.Facts.mr_path)
          (Tbaa.Engine.facts a).Tbaa.Facts.memrefs
      in
      let n = List.length refs in
      n = 0
      || List.for_all
           (fun raw ->
             let counters = Tbaa.Oracle_cache.fresh_counters () in
             let cached = Tbaa.Oracle_cache.wrap ~counters raw in
             let agreed =
               List.for_all
                 (fun (i, j, op) ->
                   let x = List.nth refs (i mod n)
                   and y = List.nth refs (j mod n) in
                   match op with
                   | 0 ->
                     Bool.equal
                       (cached.Tbaa.Oracle.may_alias x y)
                       (raw.Tbaa.Oracle.may_alias x y)
                   | 1 ->
                     let cls = raw.Tbaa.Oracle.store_class x in
                     Bool.equal
                       (cached.Tbaa.Oracle.class_kills cls y)
                       (raw.Tbaa.Oracle.class_kills cls y)
                   | _ ->
                     Tbaa.Aloc.equal
                       (cached.Tbaa.Oracle.store_class x)
                       (raw.Tbaa.Oracle.store_class x))
                 picks
             in
             agreed
             && Tbaa.Oracle_cache.hits counters + Tbaa.Oracle_cache.misses counters
                = Tbaa.Oracle_cache.queries counters)
           (Tbaa.Engine.oracles a))

(* --- precision lattice --------------------------------------------------- *)

let prop_precision_lattice =
  QCheck.Test.make ~name:"SMFieldTypeRefs ⊑ FieldTypeDecl ⊑ TypeDecl" ~count
    Gen_prog.arbitrary (fun seed ->
      let program = lower seed in
      let a = Tbaa.Engine.create program in
      let refs =
        List.map
          (fun (r : Tbaa.Facts.memref) -> r.Tbaa.Facts.mr_path)
          (Tbaa.Engine.facts a).Tbaa.Facts.memrefs
      in
      let sm = (Tbaa.Engine.oracle a Tbaa.Engine.Sm_field_type_refs)
      and ftd = (Tbaa.Engine.oracle a Tbaa.Engine.Field_type_decl)
      and td = (Tbaa.Engine.oracle a Tbaa.Engine.Type_decl) in
      List.for_all
        (fun x ->
          List.for_all
            (fun y ->
              (not (sm.Tbaa.Oracle.may_alias x y) || ftd.Tbaa.Oracle.may_alias x y)
              && ((not (ftd.Tbaa.Oracle.may_alias x y))
                 || td.Tbaa.Oracle.may_alias x y))
            refs)
        refs)

let prop_open_world_conservative =
  QCheck.Test.make ~name:"open world only adds aliases" ~count Gen_prog.arbitrary
    (fun seed ->
      let program = lower seed in
      let closed = Tbaa.Engine.create
          ~config:{ Tbaa.Engine.default_config with Tbaa.Engine.world = Tbaa.World.Closed }
          program in
      let opened = Tbaa.Engine.create
          ~config:{ Tbaa.Engine.default_config with Tbaa.Engine.world = Tbaa.World.Open }
          program in
      let refs =
        List.map
          (fun (r : Tbaa.Facts.memref) -> r.Tbaa.Facts.mr_path)
          (Tbaa.Engine.facts closed).Tbaa.Facts.memrefs
      in
      let c = (Tbaa.Engine.oracle closed Tbaa.Engine.Sm_field_type_refs) in
      let o = (Tbaa.Engine.oracle opened Tbaa.Engine.Sm_field_type_refs) in
      List.for_all
        (fun x ->
          List.for_all
            (fun y ->
              (not (c.Tbaa.Oracle.may_alias x y)) || o.Tbaa.Oracle.may_alias x y)
            refs)
        refs)

(* --- dynamic soundness ----------------------------------------------------- *)

(* Record, per static load site, the set of heap addresses it touches; any
   two sites that ever touch a common address must be may-aliases under
   every oracle. *)
let prop_soundness =
  QCheck.Test.make ~name:"dynamic overlap implies static may-alias" ~count
    Gen_prog.arbitrary (fun seed ->
      let program = lower seed in
      let a = Tbaa.Engine.create program in
      let site_exprs : (int, Apath.t) Hashtbl.t = Hashtbl.create 64 in
      let touched : (int, (int, unit) Hashtbl.t) Hashtbl.t = Hashtbl.create 64 in
      let on_load (e : Sim.Interp.load_event) =
        match e.Sim.Interp.le_site.Sim.Interp.site_kind with
        | Sim.Interp.Sexplicit (ap, k) ->
          let expr = Apath.truncate ap k in
          if Apath.is_memory_ref expr then begin
            let id = e.Sim.Interp.le_site.Sim.Interp.site_id in
            Hashtbl.replace site_exprs id expr;
            let set =
              match Hashtbl.find_opt touched id with
              | Some s -> s
              | None ->
                let s = Hashtbl.create 16 in
                Hashtbl.add touched id s;
                s
            in
            Hashtbl.replace set e.Sim.Interp.le_addr ()
          end
        | _ -> ()
      in
      let _ = Sim.Interp.run ~on_load program in
      let sites = Hashtbl.fold (fun id _ acc -> id :: acc) site_exprs [] in
      let overlap i j =
        let si = Hashtbl.find touched i and sj = Hashtbl.find touched j in
        Hashtbl.fold (fun addr () acc -> acc || Hashtbl.mem sj addr) si false
      in
      List.for_all
        (fun i ->
          List.for_all
            (fun j ->
              i >= j
              || (not (overlap i j))
              || List.for_all
                   (fun (o : Tbaa.Oracle.t) ->
                     o.Tbaa.Oracle.may_alias (Hashtbl.find site_exprs i)
                       (Hashtbl.find site_exprs j))
                   (Tbaa.Engine.oracles a))
            sites)
        sites)

(* --- verification layer ---------------------------------------------------- *)

(* A sound oracle must survive its own audit: run the guarded pipeline
   with the IR validator on and every RLE alias bet logged, then execute
   under the dynamic auditor — no pass may fail validation and no claimed
   -disjoint path pair may touch a common cell. *)
let prop_audit_clean =
  QCheck.Test.make ~name:"guarded pipeline verifies and audits clean"
    ~count:40 Gen_prog.arbitrary (fun seed ->
      let program = lower seed in
      let claims = Tbaa.Claims.create ~oracle:"SMFieldTypeRefs" in
      let failures =
        run_guarded ~claims program
          { Opt.Pipeline.oracle_kind = Opt.Pipeline.Osm_field_type_refs;
            world = Tbaa.World.Closed;
            passes =
              { Opt.Pass_manager.Config.devirt_inline = true; licm = true;
                pre = false; slf = true; rle = true; copyprop = true;
                dse = true; local_cse = false };
            jobs = 1 }
      in
      let auditor = Sim.Audit.create claims in
      ignore (Sim.Interp.run ~on_access:(Sim.Audit.on_access auditor) program);
      failures = [] && Sim.Audit.check auditor = [])

(* Negative testing: flip 10% of may-alias answers and the optimizer may
   miscompile — but it must do so *gracefully* (no crash), and whenever
   the output actually diverges from the reference the auditor must name
   a violated claim. Kill-class flips are left off so every divergence is
   attributable to a logged alias bet. *)
let prop_fault_injection_caught =
  QCheck.Test.make
    ~name:"fault-injected oracle is graceful and divergence is caught"
    ~count:40 Gen_prog.arbitrary (fun seed ->
      let fuel = 2_000_000 in
      let reference = Sim.Interp.run ~fuel (lower seed) in
      let program = lower seed in
      let claims = Tbaa.Claims.create ~oracle:"SMFieldTypeRefs+fault" in
      let fault =
        Opt.Pass.fault ~flip_class_kills:false ~seed:((seed * 7) + 1)
          ~rate:0.1 ()
      in
      let failures =
        run_guarded ~claims ~fault program
          { Opt.Pipeline.oracle_kind = Opt.Pipeline.Osm_field_type_refs;
            world = Tbaa.World.Closed;
            passes =
              { Opt.Pass_manager.Config.none with
                Opt.Pass_manager.Config.rle = true };
            jobs = 1 }
      in
      ignore failures;
      let auditor = Sim.Audit.create claims in
      let o =
        Sim.Interp.run ~fuel ~on_access:(Sim.Audit.on_access auditor) program
      in
      String.equal reference.Sim.Interp.output o.Sim.Interp.output
      || Sim.Audit.check auditor <> [])

let contains ~sub s =
  let n = String.length sub and m = String.length s in
  let rec go i = i + n <= m && (String.equal (String.sub s i n) sub || go (i + 1)) in
  n = 0 || go 0

let test_validator_catches_corruption () =
  let program = lower 42 in
  let proc = List.hd program.Cfg.prog_procs in
  (Cfg.block proc proc.Cfg.pr_entry).Cfg.b_term <- Instr.Tjump 9999;
  match Verify.program program with
  | [] -> Alcotest.fail "validator accepted a jump to a nonexistent block"
  | errs ->
    Alcotest.(check bool)
      "error names the proc" true
      (List.exists
         (fun (e : Verify.error) ->
           String.equal e.Verify.ve_proc
             (Support.Ident.name proc.Cfg.pr_name))
         errs)

(* The validator's messages are part of its interface (guarded runs echo
   them in failure reports): pin the exact [ve_instr]/[ve_msg] text for
   one procedure broken at the terminator level and one broken at the
   instruction level (type mismatches, an out-of-range id, a bad path, an
   undefined callee, and temps read before any assignment, both in an
   instruction and in a terminator). *)
let expected_validator_messages =
  [ "B0|jump B9999|terminator targets out-of-range block B9999";
    "B0|vt_int#48 := true|assign of BOOLEAN into vt_int#48 : INTEGER";
    "B0|vt_far#999999 := 1|variable vt_far#999999 has id 999999 outside [0, 51)";
    "B0|vt_int#48 := load vt_int#48^|path vt_int#48^: deref applied to non-REF INTEGER";
    "B0|call nowhere()|call to undefined procedure nowhere";
    "B0|vt_int#48 := vt_unset#49 + vt_flag#50|temp vt_unset#49 read before any assignment";
    "B0|vt_int#48 := vt_unset#49 + vt_flag#50|temp vt_flag#50 read before any assignment";
    "B0|branch vt_flag#50 ? B0 : B0|temp vt_flag#50 read before any assignment" ]

let test_validator_messages_pinned () =
  let fresh_temp program name ty =
    let v =
      { Reg.v_id = program.Cfg.next_var_id; v_name = Support.Ident.intern name;
        v_ty = ty; v_kind = Reg.Vtemp }
    in
    program.Cfg.next_var_id <- program.Cfg.next_var_id + 1;
    v
  in
  let p1 = lower 42 in
  let proc1 = List.hd p1.Cfg.prog_procs in
  (Cfg.block proc1 proc1.Cfg.pr_entry).Cfg.b_term <- Instr.Tjump 9999;
  let p2 = lower 43 in
  let proc2 = List.hd p2.Cfg.prog_procs in
  let t_int = fresh_temp p2 "vt_int" Minim3.Types.tid_int in
  let t_unset = fresh_temp p2 "vt_unset" Minim3.Types.tid_int in
  let t_flag = fresh_temp p2 "vt_flag" Minim3.Types.tid_bool in
  let far = { t_int with Reg.v_id = 999_999; v_name = Support.Ident.intern "vt_far" } in
  let entry = Cfg.block proc2 proc2.Cfg.pr_entry in
  entry.Cfg.b_instrs <-
    [ Instr.Iassign (t_int, Instr.Ratom (Reg.Abool true));
      Instr.Iassign (far, Instr.Ratom (Reg.Aint 1));
      Instr.Iload (t_int, Apath.make t_int [ Apath.Sderef Minim3.Types.tid_int ]);
      Instr.Icall (None, Instr.Cdirect (Support.Ident.intern "nowhere"), []);
      Instr.Iassign
        (t_int, Instr.Rbinop (Minim3.Ast.Add, Reg.Avar t_unset, Reg.Avar t_flag)) ]
    @ entry.Cfg.b_instrs;
  let last = Cfg.block proc2 (Cfg.n_blocks proc2 - 1) in
  (match last.Cfg.b_term with
  | Instr.Treturn _ -> last.Cfg.b_term <- Instr.Tbranch (Reg.Avar t_flag, 0, 0)
  | _ -> ());
  let render (e : Verify.error) =
    Printf.sprintf "B%d|%s|%s" e.Verify.ve_block
      (Option.value e.Verify.ve_instr ~default:"-")
      e.Verify.ve_msg
  in
  let actual = List.map render (Verify.program p1 @ Verify.program p2) in
  Alcotest.(check (list string)) "validator messages" expected_validator_messages actual

let test_guarded_quarantines_crash () =
  let program = lower 43 in
  let before = Format.asprintf "%a" Cfg.pp_program program in
  let boom =
    { Opt.Pass.name = "boom"; role = Opt.Pass.Transform;
      scope = Opt.Pass.Whole_program (fun _ _ -> failwith "kaboom") }
  in
  let ctx = Opt.Pass.create () in
  let reports =
    Opt.Pass_manager.run_guarded ctx program [ Opt.Pass_manager.Run boom ]
  in
  (match Opt.Pass_manager.failures reports with
  | [ (pass, reason) ] ->
    Alcotest.(check string) "failing pass" "boom" pass;
    Alcotest.(check bool)
      "reason mentions the exception" true
      (contains ~sub:"kaboom" reason)
  | fs -> Alcotest.fail (Printf.sprintf "expected 1 failure, got %d" (List.length fs)));
  Alcotest.(check string)
    "program rolled back" before
    (Format.asprintf "%a" Cfg.pp_program program)

let test_guarded_rolls_back_invalid_ir () =
  let program = lower 44 in
  let before = Format.asprintf "%a" Cfg.pp_program program in
  let corrupt =
    { Opt.Pass.name = "corrupt"; role = Opt.Pass.Transform;
      scope =
        Opt.Pass.Whole_program
          (fun _ (p : Cfg.program) ->
            let proc = List.hd p.Cfg.prog_procs in
            (Cfg.block proc proc.Cfg.pr_entry).Cfg.b_term <- Instr.Tjump 9999;
            { Opt.Pass.stats = []; changed = true; mutated = true }) }
  in
  let ctx = Opt.Pass.create () in
  let reports =
    Opt.Pass_manager.run_guarded ~verify:true ctx program
      [ Opt.Pass_manager.Run corrupt ]
  in
  (match Opt.Pass_manager.failures reports with
  | [ (pass, reason) ] ->
    Alcotest.(check string) "failing pass" "corrupt" pass;
    Alcotest.(check bool)
      "reason mentions validation" true
      (contains ~sub:"IR validation" reason)
  | fs -> Alcotest.fail (Printf.sprintf "expected 1 failure, got %d" (List.length fs)));
  Alcotest.(check string)
    "program rolled back" before
    (Format.asprintf "%a" Cfg.pp_program program)

(* --- printer round trip --------------------------------------------------- *)

let prop_printer_roundtrip =
  QCheck.Test.make ~name:"reprint preserves behaviour" ~count:40
    Gen_prog.arbitrary (fun seed ->
      let src = Gen_prog.generate seed in
      let printed = Minim3.Ast_pp.reprint ~file:"gen" src in
      let o1 = Sim.Interp.run (Lower.lower_string ~file:"a" src) in
      let o2 = Sim.Interp.run (Lower.lower_string ~file:"b" printed) in
      String.equal o1.Sim.Interp.output o2.Sim.Interp.output
      && String.equal printed (Minim3.Ast_pp.reprint ~file:"c" printed))

(* --- determinism -------------------------------------------------------------- *)

let prop_interp_deterministic =
  QCheck.Test.make ~name:"simulator is deterministic" ~count:20 Gen_prog.arbitrary
    (fun seed ->
      let a = Sim.Interp.run (lower seed) in
      let b = Sim.Interp.run (lower seed) in
      String.equal a.Sim.Interp.output b.Sim.Interp.output
      && a.Sim.Interp.cycles = b.Sim.Interp.cycles
      && a.Sim.Interp.counters.Sim.Interp.heap_loads
         = b.Sim.Interp.counters.Sim.Interp.heap_loads)

let () =
  Alcotest.run "properties"
    [ ( "preservation",
        [ QCheck_alcotest.to_alcotest ~rand:(pinned_rand ())
            (prop_rle_preserves Opt.Pipeline.Otype_decl "RLE(TypeDecl) preserves output");
          QCheck_alcotest.to_alcotest ~rand:(pinned_rand ())
            (prop_rle_preserves Opt.Pipeline.Ofield_type_decl
               "RLE(FieldTypeDecl) preserves output");
          QCheck_alcotest.to_alcotest ~rand:(pinned_rand ())
            (prop_rle_preserves Opt.Pipeline.Osm_field_type_refs
               "RLE(SMFieldTypeRefs) preserves output");
          QCheck_alcotest.to_alcotest ~rand:(pinned_rand ()) prop_full_pipeline_preserves;
          QCheck_alcotest.to_alcotest ~rand:(pinned_rand ()) prop_local_cse_preserves;
          QCheck_alcotest.to_alcotest ~rand:(pinned_rand ()) prop_dce_preserves ] );
      ( "lattice",
        [ QCheck_alcotest.to_alcotest ~rand:(pinned_rand ()) prop_precision_lattice;
          QCheck_alcotest.to_alcotest ~rand:(pinned_rand ()) prop_open_world_conservative ] );
      ( "soundness", [ QCheck_alcotest.to_alcotest ~rand:(pinned_rand ()) prop_soundness ] );
      ( "verification",
        [ QCheck_alcotest.to_alcotest ~rand:(pinned_rand ()) prop_audit_clean;
          QCheck_alcotest.to_alcotest ~rand:(pinned_rand ()) prop_fault_injection_caught;
          Alcotest.test_case "validator catches a corrupted CFG" `Quick
            test_validator_catches_corruption;
          Alcotest.test_case "validator messages are pinned" `Quick
            test_validator_messages_pinned;
          Alcotest.test_case "guarded run quarantines a crashing pass" `Quick
            test_guarded_quarantines_crash;
          Alcotest.test_case "guarded run rolls back invalid IR" `Quick
            test_guarded_rolls_back_invalid_ir ] );
      ( "oracle cache",
        [ QCheck_alcotest.to_alcotest ~rand:(pinned_rand ()) prop_oracle_cache_transparent;
          QCheck_alcotest.to_alcotest ~rand:(pinned_rand ()) prop_oracle_cache_counters ] );
      ( "printer", [ QCheck_alcotest.to_alcotest ~rand:(pinned_rand ()) prop_printer_roundtrip ] );
      ( "determinism", [ QCheck_alcotest.to_alcotest ~rand:(pinned_rand ()) prop_interp_deterministic ] ) ]
