(* Golden-stat regression test: pins the per-benchmark optimization
   counts under each of the three alias analyses. Any change to the
   frontend, the lowering, an oracle, or a pass that shifts what the
   optimizer achieves on the workload suite shows up here as a readable
   per-row diff — deliberate improvements update the table, accidental
   regressions fail the build.

   Row format: "<workload>/<analysis>: devirt=R/U inline=I rle=N pre=P"
   where R/U are resolved/kept-virtual call sites, I is inlined calls,
   N sums rle hoisted+eliminated+shortened, and P is PRE insertions.
   Regenerate with the same config below if the table legitimately
   moves. *)

let config kind =
  { Harness.Runner.rle = Some kind;
    minv = true;
    world = Tbaa.World.Closed;
    pre = true;
    copyprop = false;
    licm = false;
    slf = false;
    dse = false;
    oracle = None }

let kinds =
  [ ("TypeDecl", Opt.Pipeline.Otype_decl);
    ("FieldTypeDecl", Opt.Pipeline.Ofield_type_decl);
    ("SMFieldTypeRefs", Opt.Pipeline.Osm_field_type_refs) ]

let row_of (w : Workloads.Workload.t) (kname, kind) =
  let _program, reports = Harness.Runner.prepare w (config kind) in
  let sum name key =
    List.fold_left
      (fun acc (r : Opt.Pass.report) ->
        if r.Opt.Pass.r_pass = name then acc + Opt.Pass.stat r key else acc)
      0 reports
  in
  Printf.sprintf "%s/%s: devirt=%d/%d inline=%d rle=%d pre=%d"
    w.Workloads.Workload.name kname
    (sum "devirt" "resolved") (sum "devirt" "unresolved")
    (sum "inline" "inlined")
    (sum "rle" "hoisted" + sum "rle" "eliminated" + sum "rle" "shortened")
    (sum "pre" "inserted")

let actual_rows () =
  List.concat_map
    (fun w -> List.map (row_of w) kinds)
    Workloads.Suite.all

let expected_rows =
  [ "format/TypeDecl: devirt=0/0 inline=9 rle=14 pre=0";
    "format/FieldTypeDecl: devirt=0/0 inline=9 rle=15 pre=0";
    "format/SMFieldTypeRefs: devirt=0/0 inline=9 rle=15 pre=0";
    "dformat/TypeDecl: devirt=0/35 inline=8 rle=32 pre=0";
    "dformat/FieldTypeDecl: devirt=0/35 inline=8 rle=32 pre=0";
    "dformat/SMFieldTypeRefs: devirt=0/35 inline=8 rle=32 pre=0";
    "write_pickle/TypeDecl: devirt=0/29 inline=16 rle=26 pre=9";
    "write_pickle/FieldTypeDecl: devirt=0/29 inline=16 rle=26 pre=0";
    "write_pickle/SMFieldTypeRefs: devirt=0/29 inline=16 rle=26 pre=0";
    "ktree/TypeDecl: devirt=0/14 inline=4 rle=10 pre=0";
    "ktree/FieldTypeDecl: devirt=0/14 inline=4 rle=10 pre=0";
    "ktree/SMFieldTypeRefs: devirt=0/14 inline=4 rle=10 pre=0";
    "slisp/TypeDecl: devirt=0/96 inline=88 rle=4 pre=0";
    "slisp/FieldTypeDecl: devirt=0/96 inline=88 rle=5 pre=0";
    "slisp/SMFieldTypeRefs: devirt=0/96 inline=88 rle=5 pre=0";
    "pp/TypeDecl: devirt=0/0 inline=17 rle=45 pre=1";
    "pp/FieldTypeDecl: devirt=0/0 inline=17 rle=47 pre=1";
    "pp/SMFieldTypeRefs: devirt=0/0 inline=17 rle=47 pre=1";
    "dom/TypeDecl: devirt=0/5 inline=12 rle=8 pre=0";
    "dom/FieldTypeDecl: devirt=0/5 inline=12 rle=11 pre=0";
    "dom/SMFieldTypeRefs: devirt=0/5 inline=12 rle=11 pre=0";
    "postcard/TypeDecl: devirt=0/5 inline=15 rle=12 pre=0";
    "postcard/FieldTypeDecl: devirt=0/5 inline=15 rle=16 pre=0";
    "postcard/SMFieldTypeRefs: devirt=0/5 inline=15 rle=16 pre=0";
    "m2tom3/TypeDecl: devirt=0/0 inline=15 rle=0 pre=0";
    "m2tom3/FieldTypeDecl: devirt=0/0 inline=15 rle=0 pre=0";
    "m2tom3/SMFieldTypeRefs: devirt=0/0 inline=15 rle=0 pre=0";
    "m3cg/TypeDecl: devirt=0/26 inline=18 rle=75 pre=0";
    "m3cg/FieldTypeDecl: devirt=0/26 inline=18 rle=103 pre=0";
    "m3cg/SMFieldTypeRefs: devirt=0/26 inline=18 rle=103 pre=0" ]

let check_rows ~expected ~actual =
  let by_key rows =
    List.map
      (fun row ->
        match String.index_opt row ':' with
        | Some i -> (String.sub row 0 i, row)
        | None -> (row, row))
      rows
  in
  let exp_k = by_key expected and act_k = by_key actual in
  let diffs = ref [] in
  List.iter
    (fun (k, exp_row) ->
      match List.assoc_opt k act_k with
      | Some act_row when act_row = exp_row -> ()
      | Some act_row ->
        diffs := Printf.sprintf "  - %s\n  + %s" exp_row act_row :: !diffs
      | None -> diffs := Printf.sprintf "  - %s\n  + (missing)" exp_row :: !diffs)
    exp_k;
  List.iter
    (fun (k, act_row) ->
      if not (List.mem_assoc k exp_k) then
        diffs := Printf.sprintf "  - (missing)\n  + %s" act_row :: !diffs)
    act_k;
  match List.rev !diffs with
  | [] -> ()
  | ds ->
    Alcotest.fail
      (Printf.sprintf
         "golden stats moved (-expected, +actual); update test_golden.ml \
          if intentional:\n%s"
         (String.concat "\n" ds))

let test_golden_stats () =
  check_rows ~expected:expected_rows ~actual:(actual_rows ())

(* --- the newer TBAA clients: LICM, SLF, DSE ----------------------------- *)

(* Second table, isolating the three post-RLE clients: devirt+inline to
   expose cross-call opportunities, RLE off so each count is the
   client's own. Row format: "<workload>/<analysis>: licm=L slf=S dse=D"
   (loads hoisted, loads forwarded, stores removed). *)

let client_config kind =
  { Harness.Runner.base with
    Harness.Runner.minv = true;
    oracle = Some kind;
    licm = true;
    slf = true;
    dse = true }

let client_row_of (w : Workloads.Workload.t) (kname, kind) =
  let _program, reports = Harness.Runner.prepare w (client_config kind) in
  let sum name key =
    List.fold_left
      (fun acc (r : Opt.Pass.report) ->
        if r.Opt.Pass.r_pass = name then acc + Opt.Pass.stat r key else acc)
      0 reports
  in
  Printf.sprintf "%s/%s: licm=%d slf=%d dse=%d" w.Workloads.Workload.name
    kname
    (sum "licm" "hoisted")
    (sum "slf" "forwarded")
    (sum "dse" "removed")

let expected_client_rows =
  [ "format/TypeDecl: licm=0 slf=0 dse=0";
    "format/FieldTypeDecl: licm=0 slf=0 dse=0";
    "format/SMFieldTypeRefs: licm=0 slf=0 dse=0";
    "dformat/TypeDecl: licm=0 slf=0 dse=0";
    "dformat/FieldTypeDecl: licm=0 slf=0 dse=0";
    "dformat/SMFieldTypeRefs: licm=0 slf=0 dse=0";
    "write_pickle/TypeDecl: licm=0 slf=0 dse=0";
    "write_pickle/FieldTypeDecl: licm=0 slf=0 dse=0";
    "write_pickle/SMFieldTypeRefs: licm=0 slf=0 dse=0";
    "ktree/TypeDecl: licm=2 slf=0 dse=0";
    "ktree/FieldTypeDecl: licm=2 slf=0 dse=0";
    "ktree/SMFieldTypeRefs: licm=2 slf=0 dse=0";
    "slisp/TypeDecl: licm=0 slf=0 dse=0";
    "slisp/FieldTypeDecl: licm=0 slf=0 dse=0";
    "slisp/SMFieldTypeRefs: licm=0 slf=0 dse=0";
    "pp/TypeDecl: licm=0 slf=1 dse=0";
    "pp/FieldTypeDecl: licm=0 slf=1 dse=0";
    "pp/SMFieldTypeRefs: licm=0 slf=1 dse=0";
    "dom/TypeDecl: licm=0 slf=0 dse=0";
    "dom/FieldTypeDecl: licm=0 slf=0 dse=0";
    "dom/SMFieldTypeRefs: licm=0 slf=0 dse=0";
    "postcard/TypeDecl: licm=0 slf=2 dse=1";
    "postcard/FieldTypeDecl: licm=0 slf=6 dse=5";
    "postcard/SMFieldTypeRefs: licm=0 slf=6 dse=5";
    "m2tom3/TypeDecl: licm=0 slf=0 dse=0";
    "m2tom3/FieldTypeDecl: licm=0 slf=0 dse=0";
    "m2tom3/SMFieldTypeRefs: licm=0 slf=0 dse=0";
    "m3cg/TypeDecl: licm=0 slf=22 dse=0";
    "m3cg/FieldTypeDecl: licm=1 slf=22 dse=0";
    "m3cg/SMFieldTypeRefs: licm=1 slf=22 dse=0" ]

let test_golden_client_stats () =
  check_rows ~expected:expected_client_rows
    ~actual:
      (List.concat_map
         (fun w -> List.map (client_row_of w) kinds)
         Workloads.Suite.all)

(* The precision ordering the paper establishes (Section 5): refining
   the analysis must never lose optimization opportunities on these
   benchmarks. Checked structurally rather than baked into the table so
   a table update cannot silently invert the lattice. *)
let value row =
  match String.index_opt row ':' with
  | None -> Alcotest.fail ("bad row: " ^ row)
  | Some i -> String.sub row (i + 1) (String.length row - i - 1)

let field prefix row =
  (* extract the integer following "<prefix>=" in a row body *)
  let body = value row in
  let pat = " " ^ prefix ^ "=" in
  let rec find i =
    if i + String.length pat > String.length body then
      Alcotest.fail ("no field " ^ prefix ^ " in " ^ row)
    else if String.sub body i (String.length pat) = pat then
      let j = ref (i + String.length pat) in
      let start = !j in
      while !j < String.length body && body.[!j] >= '0' && body.[!j] <= '9' do
        incr j
      done;
      int_of_string (String.sub body start (!j - start))
    else find (i + 1)
  in
  find 0

let row_for rows w k =
  List.find
    (fun r ->
      String.length r > String.length w + String.length k + 1
      && String.sub r 0 (String.length w + String.length k + 1) = w ^ "/" ^ k)
    rows

let test_golden_lattice () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let n = w.Workloads.Workload.name in
      let td = row_for expected_rows n "TypeDecl"
      and ftd = row_for expected_rows n "FieldTypeDecl" in
      if field "rle" ftd < field "rle" td then
        Alcotest.fail
          (Printf.sprintf "%s: FieldTypeDecl rle (%d) < TypeDecl rle (%d)" n
             (field "rle" ftd) (field "rle" td)))
    Workloads.Suite.all

(* Same ordering for the client table, across both refinement steps and
   every client: TypeDecl ⊑ FieldTypeDecl ⊑ SMFieldTypeRefs must never
   cost a hoist, a forward, or a removal. *)
let test_golden_client_lattice () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let n = w.Workloads.Workload.name in
      let td = row_for expected_client_rows n "TypeDecl"
      and ftd = row_for expected_client_rows n "FieldTypeDecl"
      and smf = row_for expected_client_rows n "SMFieldTypeRefs" in
      List.iter
        (fun client ->
          let a = field client td
          and b = field client ftd
          and c = field client smf in
          if not (a <= b && b <= c) then
            Alcotest.fail
              (Printf.sprintf "%s: %s counts not monotone (%d, %d, %d)" n
                 client a b c))
        [ "licm"; "slf"; "dse" ])
    Workloads.Suite.all

(* --- optimized-IR digests ---------------------------------------------- *)

(* Byte-identity guard for the optimizer's output: the MD5 of the
   optimized program's [Cfg.pp_program] text, pinned per workload and
   analysis with every client on (devirt+inline, LICM, PRE, SLF, RLE,
   copyprop, DSE, then the harness's local CSE), plus one small scale
   program. Refactors of the clients must leave every digest unchanged;
   the [--jobs 2] runs must reproduce the sequential digests exactly. *)

let all_clients kind =
  { Harness.Runner.rle = Some kind;
    minv = true;
    world = Tbaa.World.Closed;
    pre = true;
    copyprop = true;
    licm = true;
    slf = true;
    dse = true;
    oracle = None }

let ir_digest program =
  Digest.to_hex
    (Digest.string (Format.asprintf "%a" Ir.Cfg.pp_program program))

let optimize_digest ~jobs program pc =
  let pc = { pc with Opt.Pipeline.jobs } in
  let ctx = Opt.Pipeline.context_of_config pc in
  ignore
    (Opt.Pass_manager.run ctx program
       (Opt.Pipeline.schedule_of_config ~local_cse:true pc));
  ir_digest program

let workload_digest ~jobs (w : Workloads.Workload.t) (kname, kind) =
  let pc = Harness.Runner.pipeline_config (all_clients kind) in
  Printf.sprintf "%s/%s: %s" w.Workloads.Workload.name kname
    (optimize_digest ~jobs (Workloads.Workload.lower w) pc)

let scale_digest ~jobs =
  let pc = Harness.Runner.pipeline_config (all_clients Opt.Pipeline.Osm_field_type_refs) in
  Printf.sprintf "scale6/SMFieldTypeRefs: %s"
    (optimize_digest ~jobs (Ir.Lower.lower_string ~file:"scale6" (Gen.Scale.source 6)) pc)

let expected_digests =
  [ "format/TypeDecl: 88ad6e5d2af039bef97cd72f91f1462d";
    "format/FieldTypeDecl: a27be612065ebc352db9def1e43bf2f9";
    "format/SMFieldTypeRefs: a27be612065ebc352db9def1e43bf2f9";
    "dformat/TypeDecl: 34115ccedb770a71f10de23dc52e4b07";
    "dformat/FieldTypeDecl: 34115ccedb770a71f10de23dc52e4b07";
    "dformat/SMFieldTypeRefs: 34115ccedb770a71f10de23dc52e4b07";
    "write_pickle/TypeDecl: c1074eaf2d60b1f89ac621a03d5e3b3b";
    "write_pickle/FieldTypeDecl: 97af2b2802f4fe88a31a5b136b315283";
    "write_pickle/SMFieldTypeRefs: 97af2b2802f4fe88a31a5b136b315283";
    "ktree/TypeDecl: dc2e58fecbe8845c778cc3a1f3a34ee9";
    "ktree/FieldTypeDecl: dc2e58fecbe8845c778cc3a1f3a34ee9";
    "ktree/SMFieldTypeRefs: dc2e58fecbe8845c778cc3a1f3a34ee9";
    "slisp/TypeDecl: 3356de1fa3513be0e541375af2788129";
    "slisp/FieldTypeDecl: ac3992cd02cd5a838baec3d2a86247b3";
    "slisp/SMFieldTypeRefs: ac3992cd02cd5a838baec3d2a86247b3";
    "pp/TypeDecl: 8a360e1c82e19c5271511284e8b9f12b";
    "pp/FieldTypeDecl: 5f847ff2a9a10615bb8cbfadc272684f";
    "pp/SMFieldTypeRefs: 5f847ff2a9a10615bb8cbfadc272684f";
    "dom/TypeDecl: c78120359ecdcf0fe5aca35f7639a749";
    "dom/FieldTypeDecl: a0df89ba913ce40440eb084381043f94";
    "dom/SMFieldTypeRefs: a0df89ba913ce40440eb084381043f94";
    "postcard/TypeDecl: 6e3496d3c3cf4277e77de723b7d46aa1";
    "postcard/FieldTypeDecl: 0aced651348bbc7c3b2af9d67e158294";
    "postcard/SMFieldTypeRefs: 0aced651348bbc7c3b2af9d67e158294";
    "m2tom3/TypeDecl: b3944ab378a0b22e21d54875d3ebe246";
    "m2tom3/FieldTypeDecl: b3944ab378a0b22e21d54875d3ebe246";
    "m2tom3/SMFieldTypeRefs: b3944ab378a0b22e21d54875d3ebe246";
    "m3cg/TypeDecl: 5c611f443c31eeb0a9c8460695475810";
    "m3cg/FieldTypeDecl: 5b1123b6798f61ea77cf481d628eb89d";
    "m3cg/SMFieldTypeRefs: 5b1123b6798f61ea77cf481d628eb89d";
    "scale6/SMFieldTypeRefs: 19aeeecf7bf12bb060242555da7645be" ]

let actual_digests ~jobs =
  List.concat_map
    (fun w -> List.map (workload_digest ~jobs w) kinds)
    Workloads.Suite.all
  @ [ scale_digest ~jobs ]

let test_ir_digests () =
  check_rows ~expected:expected_digests ~actual:(actual_digests ~jobs:1)

let test_ir_digests_parallel () =
  check_rows ~expected:expected_digests ~actual:(actual_digests ~jobs:2)

let () =
  Alcotest.run "golden"
    [ ( "stats",
        [ Alcotest.test_case "workload suite optimization counts" `Quick
            test_golden_stats;
          Alcotest.test_case "precision lattice on pinned rows" `Quick
            test_golden_lattice ] );
      ( "clients",
        [ Alcotest.test_case "client suite optimization counts" `Quick
            test_golden_client_stats;
          Alcotest.test_case "client precision lattice" `Quick
            test_golden_client_lattice ] );
      ( "ir",
        [ Alcotest.test_case "optimized IR digests" `Quick test_ir_digests;
          Alcotest.test_case "optimized IR digests at --jobs 2" `Quick
            test_ir_digests_parallel ] ) ]
