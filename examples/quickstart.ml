(* Quickstart: the paper's Section 2 worked example, end to end.

   Builds the Figure 1 type hierarchy and the Figure 3 assignment program,
   runs the three alias analyses, prints the TypeRefsTable (the paper's
   Table 3), and answers a few may-alias queries under each analysis.

     dune exec examples/quickstart.exe *)

open Support
open Minim3
open Ir

let source =
  {|
MODULE Figure3;
TYPE
  T = OBJECT f, g: T; END;
  S1 = T OBJECT END;
  S2 = T OBJECT END;
  S3 = T OBJECT END;
VAR
  s1: S1;
  s2: S2;
  s3: S3;
  t: T;

PROCEDURE Touch () =
  VAR x: T;
  BEGIN
    x := t.f;    (* reference 0 *)
    x := s1.f;   (* reference 1 *)
    x := s3.f;   (* reference 2 *)
    x := t.g;    (* reference 3 *)
  END Touch;

BEGIN
  s1 := NEW (S1);
  s2 := NEW (S2);
  s3 := NEW (S3);
  t := s1; (* Statement 1 *)
  t := s2; (* Statement 2 *)
  Touch ();
END Figure3.
|}

let () =
  (* 1. Front end: parse, typecheck, lower to the IR. *)
  let program = Lower.lower_string ~file:"figure3" source in
  (* 2. Analyze: collect facts once, build the three oracles. *)
  let engine = Tbaa.Engine.create program in
  let facts = Tbaa.Engine.facts engine in
  let tenv = facts.Tbaa.Facts.tenv in

  (* 3. The TypeRefsTable — this is the paper's Table 3. *)
  print_endline "TypeRefsTable (paper Table 3):";
  List.iter
    (fun name ->
      let tid =
        (List.find
           (fun (g : Reg.var) -> Ident.name g.Reg.v_name = name)
           program.Cfg.prog_globals)
          .Reg.v_ty
      in
      Printf.printf "  %-3s -> { %s }\n" (String.uppercase_ascii name)
        (String.concat ", "
           (List.map (Types.to_string tenv) (Tbaa.Engine.type_refs_table engine tid))))
    [ "t"; "s1"; "s2"; "s3" ];

  (* 4. May-alias queries over the references in Touch. *)
  let refs =
    List.filter_map
      (fun (r : Tbaa.Facts.memref) ->
        if Ident.name r.Tbaa.Facts.mr_proc = "Touch" then Some r.Tbaa.Facts.mr_path
        else None)
      facts.Tbaa.Facts.memrefs
  in
  let r i = List.nth refs i in
  let query name a b =
    Printf.printf "  %-30s" (Printf.sprintf "%s ~ %s ?" (Apath.to_string a) (Apath.to_string b));
    List.iter
      (fun (o : Tbaa.Oracle.t) ->
        Printf.printf "  %s=%b" o.Tbaa.Oracle.name (o.Tbaa.Oracle.may_alias a b))
      (Tbaa.Engine.oracles engine);
    print_newline ();
    ignore name
  in
  print_endline "\nMay-alias queries:";
  query "t.f vs s1.f" (r 0) (r 1);
  query "t.f vs s3.f" (r 0) (r 2);
  query "t.f vs t.g" (r 0) (r 3);

  (* 5. Run the program on the simulator. *)
  let outcome = Sim.Interp.run program in
  Printf.printf
    "\nSimulated run: %d instructions, %d heap loads, %d cycles\n"
    outcome.Sim.Interp.counters.Sim.Interp.instrs
    outcome.Sim.Interp.counters.Sim.Interp.heap_loads
    outcome.Sim.Interp.cycles
