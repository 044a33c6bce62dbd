(* The paper's Section 2.4 motivation: types are usually used far below
   their full generality, and watching the program's assignments proves it.

   Two scenarios, each run under all three analyses:
   - unrelated object types (FieldTypeDecl already separates the fields);
   - a subtype that is *declared* but never assigned into its supertype —
     only SMFieldTypeRefs keeps the load in a register across the update,
     because only it knows a Node-typed path cannot reach a Special.

     dune exec examples/list_package.exe *)

open Ir

let real_source =
  {|
MODULE ListPackage;
TYPE
  Node = OBJECT weight: INTEGER; next: Node; END;
  Counter = OBJECT clicks: INTEGER; END;
VAR
  basket: Node;
  clicker: Counter;
  sum: INTEGER;

PROCEDURE AddApple (w: INTEGER) =
  VAR n: Node;
  BEGIN
    n := NEW (Node);
    n.weight := w;
    n.next := basket;
    basket := n;
  END AddApple;

PROCEDURE WeighTwice () =
  VAR w1: INTEGER; w2: INTEGER;
  BEGIN
    w1 := basket.weight;
    clicker.clicks := clicker.clicks + 1;  (* cannot alias basket.weight *)
    w2 := basket.weight;                   (* redundant — if we can prove it *)
    sum := sum + w1 + w2;
  END WeighTwice;

BEGIN
  clicker := NEW (Counter);
  FOR i := 1 TO 40 DO
    AddApple (i);
  END;
  FOR i := 1 TO 200 DO
    WeighTwice ();
  END;
  PrintInt (sum); PrintLn ();
END ListPackage.
|}

(* Loads RLE removes from the program under one oracle. *)
let rle_removed kind program =
  let reports =
    Opt.Pass_manager.run (Opt.Pass.create ~oracle_kind:kind ()) program
      [ Opt.Pass_manager.Run Opt.Rle.pass ]
  in
  List.fold_left
    (fun n stat -> n + Opt.Pass_manager.sum_stat "rle" stat reports)
    0 [ "hoisted"; "eliminated"; "shortened" ]

let () =
  print_endline "List-package example (paper §2.4 motivation)\n";
  List.iter
    (fun kind ->
      let program = Lower.lower_string ~file:"list_package" real_source in
      let removed = rle_removed kind program in
      let outcome = Sim.Interp.run program in
      Printf.printf
        "%-16s removed %d loads statically; dynamic heap loads: %d (output %s)\n"
        (Opt.Pipeline.oracle_name kind)
        removed outcome.Sim.Interp.counters.Sim.Interp.heap_loads
        (String.trim outcome.Sim.Interp.output))
    [ Opt.Pipeline.Otype_decl; Opt.Pipeline.Ofield_type_decl;
      Opt.Pipeline.Osm_field_type_refs ];
  print_endline
    "\nFieldTypeDecl already separates the two *fields*; try making the\n\
     counter a Node to see SMFieldTypeRefs earn its keep:";
  let tricky =
    {|
MODULE Tricky;
TYPE
  Node = OBJECT weight: INTEGER; next: Node; END;
  Special = Node OBJECT END;
VAR
  basket: Node;
  special: Special;
  sum: INTEGER;
PROCEDURE WeighTwice () =
  VAR w1: INTEGER; w2: INTEGER;
  BEGIN
    w1 := basket.weight;
    special.weight := special.weight + 1;
    w2 := basket.weight;
    sum := sum + w1 + w2;
  END WeighTwice;
BEGIN
  basket := NEW (Node);
  special := NEW (Special);
  FOR i := 1 TO 200 DO
    WeighTwice ();
  END;
  PrintInt (sum); PrintLn ();
END Tricky.
|}
  in
  List.iter
    (fun kind ->
      let program = Lower.lower_string ~file:"tricky" tricky in
      Printf.printf "%-16s removed %d loads statically\n"
        (Opt.Pipeline.oracle_name kind)
        (rle_removed kind program))
    [ Opt.Pipeline.Otype_decl; Opt.Pipeline.Ofield_type_decl;
      Opt.Pipeline.Osm_field_type_refs ]
