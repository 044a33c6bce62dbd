(* Generative differential testing: the four-oracle fuzz driver. *)

open Support

type oracle_id = Diff_semantics | Precision_lattice | Roundtrip | Ir_validity

let oracle_id_to_string = function
  | Diff_semantics -> "diff-semantics"
  | Precision_lattice -> "precision-lattice"
  | Roundtrip -> "roundtrip"
  | Ir_validity -> "ir-validity"

let oracle_id_of_string = function
  | "diff-semantics" -> Some Diff_semantics
  | "precision-lattice" -> Some Precision_lattice
  | "roundtrip" -> Some Roundtrip
  | "ir-validity" -> Some Ir_validity
  | _ -> None

type failure = {
  f_oracle : oracle_id;
  f_config : string;
  f_detail : string;
}

(* ------------------------------------------------------------------ *)
(* The configuration matrix                                            *)
(* ------------------------------------------------------------------ *)

let kinds =
  [ Opt.Pipeline.Otype_decl; Opt.Pipeline.Ofield_type_decl;
    Opt.Pipeline.Osm_field_type_refs ]

let with_passes c f =
  { c with Opt.Pipeline.passes = f c.Opt.Pipeline.passes }

let variants =
  [ ("rle", fun c -> c);
    ( "rle+copyprop",
      fun c ->
        with_passes c (fun p -> { p with Opt.Pass_manager.Config.copyprop = true }) );
    ( "rle+pre",
      fun c -> with_passes c (fun p -> { p with Opt.Pass_manager.Config.pre = true }) );
    ( "minv+rle",
      fun c ->
        with_passes c (fun p ->
            { p with Opt.Pass_manager.Config.devirt_inline = true }) );
    (* The non-RLE clients, each alone (isolating its bets for the audit
       and lattice oracles), then everything at once (interactions). *)
    ( "licm",
      fun c ->
        with_passes c (fun p ->
            { p with Opt.Pass_manager.Config.rle = false; licm = true }) );
    ( "slf",
      fun c ->
        with_passes c (fun p ->
            { p with Opt.Pass_manager.Config.rle = false; slf = true }) );
    ( "dse",
      fun c ->
        with_passes c (fun p ->
            { p with Opt.Pass_manager.Config.rle = false; dse = true }) );
    ( "licm+slf+rle+dse",
      fun c ->
        with_passes c (fun p ->
            { p with Opt.Pass_manager.Config.licm = true; slf = true; dse = true }) ) ]

let all_configs () =
  List.concat_map
    (fun kind ->
      let base =
        { Opt.Pipeline.oracle_kind = kind; world = Tbaa.World.Closed;
          passes =
            { Opt.Pass_manager.Config.none with Opt.Pass_manager.Config.rle = true };
          jobs = 1 }
      in
      List.map
        (fun (vname, f) ->
          (Opt.Pipeline.oracle_name kind ^ ":" ^ vname, f base))
        variants)
    kinds

let config_names () = List.map fst (all_configs ())

(* ------------------------------------------------------------------ *)
(* One configuration against the reference semantics                   *)
(* ------------------------------------------------------------------ *)

let truncate_str n s =
  if String.length s <= n then s
  else String.sub s 0 n ^ Printf.sprintf "... (%d bytes)" (String.length s)

let first_diff a b =
  let n = min (String.length a) (String.length b) in
  let rec go i = if i < n && a.[i] = b.[i] then go (i + 1) else i in
  go 0

let check_config ~fuel ~fault ~(ref_out : Sim.Interp.outcome) ~fail tast
    (cname, cfg) =
  let program = Ir.Lower.lower_program tast in
  let claims = Tbaa.Claims.create ~oracle:cname in
  let ctx = Opt.Pipeline.context_of_config cfg in
  ctx.Opt.Pass.claims <- Some claims;
  (match fault with
  | None -> ()
  | Some (fseed, rate) ->
    (* load/store flips only: class-kills flips mostly produce extra
       (sound) conservatism in RLE's kill sets and are near-unobservable;
       alias flips are the ones a differential oracle can attribute *)
    ctx.Opt.Pass.fault <-
      Some (Opt.Pass.fault ~flip_class_kills:false ~seed:fseed ~rate ()));
  let lattice = ref [] in
  ctx.Opt.Pass.oracle_log <-
    Some
      (fun p q _ans ->
        (* Evaluate all three analyses *fresh from the live facts* — the
           logged answer may be fault-flipped, and the program state the
           query was made against is the current one, not the final one. *)
        match ctx.Opt.Pass.engine_memo with
        | Some e when ctx.Opt.Pass.analysis_current ->
          let may k = (Tbaa.Engine.oracle e k).Tbaa.Oracle.may_alias p q in
          let td = may Tbaa.Engine.Type_decl in
          let ftd = may Tbaa.Engine.Field_type_decl in
          let sm = may Tbaa.Engine.Sm_field_type_refs in
          if (ftd && not td) || (sm && not ftd) || (sm && not td) then
            lattice := (p, q, td, ftd, sm) :: !lattice
        | _ -> ());
  let schedule = Opt.Pipeline.schedule_of_config cfg in
  let reports = Opt.Pass_manager.run_guarded ~verify:true ctx program schedule in
  List.iter
    (fun (pass, reason) ->
      fail Ir_validity cname
        (Printf.sprintf "pass %s rolled back: %s" pass reason))
    (Opt.Pass_manager.failures reports);
  (match Ir.Verify.program program with
  | [] -> ()
  | err :: _ ->
    fail Ir_validity cname ("final IR invalid: " ^ Ir.Verify.error_to_string err));
  (match !lattice with
  | [] -> ()
  | (p, q, td, ftd, sm) :: _ ->
    fail Precision_lattice cname
      (Printf.sprintf
         "non-monotone answers for (%s, %s): TypeDecl=%b FieldTypeDecl=%b \
          SMFieldTypeRefs=%b"
         (Ir.Apath.to_string p) (Ir.Apath.to_string q) td ftd sm));
  let auditor = Sim.Audit.create claims in
  let out =
    Sim.Interp.run ~fuel ~on_access:(Sim.Audit.on_access auditor) program
  in
  if out.Sim.Interp.halted <> ref_out.Sim.Interp.halted then
    fail Diff_semantics cname
      (Printf.sprintf "termination differs: reference halted=%b, %s halted=%b"
         ref_out.Sim.Interp.halted cname out.Sim.Interp.halted)
  else if out.Sim.Interp.output <> ref_out.Sim.Interp.output then begin
    let i = first_diff ref_out.Sim.Interp.output out.Sim.Interp.output in
    let ctxt s =
      truncate_str 48 (String.sub s (max 0 (i - 16)) (String.length s - max 0 (i - 16)))
    in
    fail Diff_semantics cname
      (Printf.sprintf "output differs at byte %d: reference \"...%s\" vs \"...%s\""
         i
         (String.escaped (ctxt ref_out.Sim.Interp.output))
         (String.escaped (ctxt out.Sim.Interp.output)))
  end;
  match Sim.Audit.check auditor with
  | [] -> ()
  | v :: _ ->
    fail Diff_semantics cname
      ("audit violation: " ^ Sim.Audit.violation_to_string v)

(* ------------------------------------------------------------------ *)
(* All four oracles over one source program                            *)
(* ------------------------------------------------------------------ *)

let diags_to_string ds =
  String.concat "; " (List.map Diag.to_string ds) |> truncate_str 200

let check_source ?fault ?(fuel = 2_000_000) ?only ~name src =
  let failures = ref [] in
  let fail o c d = failures := { f_oracle = o; f_config = c; f_detail = d } :: !failures in
  let do_roundtrip =
    match only with None | Some (Roundtrip, _) -> true | Some _ -> false
  in
  if do_roundtrip then begin
    match Minim3.Ast_pp.reprint ~file:name src with
    | exception Diag.Compile_error d ->
      fail Roundtrip "-" ("reprint failed to parse: " ^ Diag.to_string d)
    | p1 -> (
      (match Minim3.Ast_pp.reprint ~file:name p1 with
      | exception Diag.Compile_error d ->
        fail Roundtrip "-" ("reprint does not re-parse: " ^ Diag.to_string d)
      | p2 ->
        if p1 <> p2 then
          fail Roundtrip "-"
            (Printf.sprintf "print-parse not a fixpoint (first diff at byte %d)"
               (first_diff p1 p2)));
      match Minim3.Typecheck.check_string_all ~file:name p1 with
      | Ok _ -> ()
      | Error ds ->
        fail Roundtrip "-" ("reprint does not typecheck: " ^ diags_to_string ds)
      | exception Diag.Compile_error d ->
        fail Roundtrip "-" ("reprint does not typecheck: " ^ Diag.to_string d))
  end;
  (match Minim3.Typecheck.check_string_all ~file:name src with
  | Error ds ->
    fail Roundtrip "-" ("source does not typecheck: " ^ diags_to_string ds)
  | exception Diag.Compile_error d ->
    fail Roundtrip "-" ("source does not parse: " ^ Diag.to_string d)
  | Ok tast ->
    let configs =
      match only with
      | Some (Roundtrip, _) -> []
      | Some (_, cname) -> List.filter (fun (n, _) -> n = cname) (all_configs ())
      | None -> all_configs ()
    in
    if configs <> [] then begin
      let reference = Ir.Lower.lower_program tast in
      let ref_out = Sim.Interp.run ~fuel reference in
      List.iter (check_config ~fuel ~fault ~ref_out ~fail tast) configs
    end);
  List.rev !failures

(* ------------------------------------------------------------------ *)
(* Repro files                                                         *)
(* ------------------------------------------------------------------ *)

(* Directive values never contain newlines; '*' is squashed so a detail
   string can't close the comment early. *)
let sanitize s =
  String.map (function '*' -> '#' | '\n' -> ' ' | c -> c) s

let repro_contents ~gen_seed ~size ~fault (f : failure) src =
  let b = Buffer.create (String.length src + 512) in
  Buffer.add_string b "(* tbaa-fuzz repro\n";
  Printf.bprintf b "   gen-seed: %d\n" gen_seed;
  Printf.bprintf b "   size: %d\n" size;
  Printf.bprintf b "   oracle: %s\n" (oracle_id_to_string f.f_oracle);
  Printf.bprintf b "   config: %s\n" (sanitize f.f_config);
  (match fault with
  | None -> ()
  | Some (fseed, rate) ->
    Printf.bprintf b "   fault-seed: %d\n" fseed;
    Printf.bprintf b "   fault-rate: %f\n" rate);
  Printf.bprintf b "   detail: %s\n" (sanitize (truncate_str 300 f.f_detail));
  Buffer.add_string b "   replay: tbaac fuzz --replay <this file>\n";
  Buffer.add_string b "*)\n";
  Buffer.add_string b src;
  Buffer.contents b

let parse_directives path =
  let ic = open_in_bin path in
  let len = in_channel_length ic in
  let contents = really_input_string ic len in
  close_in ic;
  let directives = ref [] in
  String.split_on_char '\n' contents
  |> List.iter (fun line ->
         let line = String.trim line in
         match String.index_opt line ':' with
         | Some i when i > 0 ->
           let k = String.trim (String.sub line 0 i) in
           let v =
             String.trim (String.sub line (i + 1) (String.length line - i - 1))
           in
           if not (List.mem_assoc k !directives) then
             directives := (k, v) :: !directives
         | _ -> ());
  (!directives, contents)

let replay ?(fuel = 2_000_000) ~path () =
  match parse_directives path with
  | exception Sys_error e -> Error ("cannot read repro: " ^ e)
  | directives, contents -> (
    let find k = List.assoc_opt k directives in
    match (find "oracle", find "config") with
    | None, _ | _, None ->
      Error "repro file lacks 'oracle:'/'config:' directives"
    | Some o, Some cname -> (
      match oracle_id_of_string o with
      | None -> Error (Printf.sprintf "unknown oracle %S in repro" o)
      | Some oracle ->
        let fault =
          match (find "fault-seed", find "fault-rate") with
          | Some s, Some r -> (
            match (int_of_string_opt s, float_of_string_opt r) with
            | Some s, Some r -> Some (s, r)
            | _ -> None)
          | _ -> None
        in
        let fs =
          check_source ?fault ~fuel ~only:(oracle, cname)
            ~name:(Filename.basename path) contents
        in
        (match
           List.find_opt
             (fun f ->
               f.f_oracle = oracle
               && (f.f_config = cname || oracle = Roundtrip))
             fs
         with
        | Some f -> Ok f
        | None ->
          Error
            (Printf.sprintf "failure %s/%s did not reproduce"
               (oracle_id_to_string oracle) cname))))

(* ------------------------------------------------------------------ *)
(* The fuzzing loop                                                    *)
(* ------------------------------------------------------------------ *)

type counterexample = {
  cx_seed : int;
  cx_failure : failure;
  cx_original_bytes : int;
  cx_shrunk_bytes : int;
  cx_path : string option;
  cx_replayed : bool;
}

type result = {
  total : int;
  failed : int;
  failures : (int * failure list) list;
  counterexamples : counterexample list;
}

let ensure_dir dir =
  if not (Sys.file_exists dir) then
    try Unix.mkdir dir 0o755 with Unix.Unix_error (Unix.EEXIST, _, _) -> ()

let same_failure (a : failure) (b : failure) =
  a.f_oracle = b.f_oracle && a.f_config = b.f_config

let run ?(out_dir = Some "fuzz-failures") ?fault ?(fuel = 2_000_000) ?(size = 2)
    ?(max_counterexamples = 3) ?(log = fun _ -> ()) ~count ~seed () =
  let failures = ref [] in
  let counterexamples = ref [] in
  let failed = ref 0 in
  for i = 0 to count - 1 do
    let gen_seed = seed + i in
    let g = Gen.Generator.generate ~size gen_seed in
    let fault_i = Option.map (fun (fs, r) -> (fs + i, r)) fault in
    let name = Printf.sprintf "gen-seed-%d" gen_seed in
    let fs = check_source ?fault:fault_i ~fuel ~name g.Gen.Generator.source in
    if fs <> [] then begin
      incr failed;
      failures := (gen_seed, fs) :: !failures;
      let f0 = List.hd fs in
      log
        (Printf.sprintf "seed %d: %d failure(s); first: [%s/%s] %s" gen_seed
           (List.length fs)
           (oracle_id_to_string f0.f_oracle)
           f0.f_config (truncate_str 160 f0.f_detail));
      if List.length !counterexamples < max_counterexamples then begin
        let keep src =
          List.exists (same_failure f0)
            (check_source ?fault:fault_i ~fuel
               ~only:(f0.f_oracle, f0.f_config) ~name src)
        in
        let shrunk =
          Gen.Shrink.minimize ~max_attempts:600 ~keep g.Gen.Generator.source
        in
        log
          (Printf.sprintf "seed %d: shrunk %d -> %d bytes" gen_seed
             (String.length g.Gen.Generator.source)
             (String.length shrunk));
        let path, replayed =
          match out_dir with
          | None -> (None, false)
          | Some dir ->
            ensure_dir dir;
            let path =
              Filename.concat dir
                (Printf.sprintf "repro-seed%d-%s.m3" gen_seed
                   (oracle_id_to_string f0.f_oracle))
            in
            let oc = open_out_bin path in
            output_string oc
              (repro_contents ~gen_seed ~size ~fault:fault_i f0 shrunk);
            close_out oc;
            let replayed =
              match replay ~fuel ~path () with Ok _ -> true | Error _ -> false
            in
            log
              (Printf.sprintf "seed %d: wrote %s (replay %s)" gen_seed path
                 (if replayed then "ok" else "FAILED"));
            (Some path, replayed)
        in
        counterexamples :=
          { cx_seed = gen_seed; cx_failure = f0;
            cx_original_bytes = String.length g.Gen.Generator.source;
            cx_shrunk_bytes = String.length shrunk; cx_path = path;
            cx_replayed = replayed }
          :: !counterexamples
      end
    end
  done;
  { total = count; failed = !failed; failures = List.rev !failures;
    counterexamples = List.rev !counterexamples }
