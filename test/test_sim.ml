(* Tests for the simulator: interpreter semantics, counters, the cache
   model, the limit-study tracer, and the redundancy classifier. *)

open Ir

let lower src = Lower.lower_string ~file:"test" src
let run src = Sim.Interp.run (lower src)

let check_output src expected =
  let o = run src in
  Alcotest.(check string) "output" expected o.Sim.Interp.output;
  Alcotest.(check int) "no soft faults" 0 o.Sim.Interp.soft_faults

(* --- language semantics ------------------------------------------------ *)

let test_arith () =
  check_output
    {|
MODULE M;
BEGIN
  PrintInt (2 + 3 * 4); PrintChar (' ');
  PrintInt (17 DIV 5); PrintChar (' ');
  PrintInt (17 MOD 5); PrintChar (' ');
  PrintInt (-3); PrintChar (' ');
  PrintInt (Abs (-9) + Min (2, 1) + Max (5, 7));
END M.
|}
    "14 3 2 -3 17"

let test_bools_and_chars () =
  check_output
    {|
MODULE M;
BEGIN
  PrintBool (TRUE AND FALSE); PrintChar (' ');
  PrintBool (NOT FALSE OR FALSE); PrintChar (' ');
  PrintBool ('a' < 'b'); PrintChar (' ');
  PrintInt (Ord ('A')); PrintChar (Chr (66));
END M.
|}
    "FALSE TRUE TRUE 65B"

let test_control_flow () =
  check_output
    {|
MODULE M;
VAR n: INTEGER;
BEGIN
  n := 0;
  FOR i := 1 TO 5 DO n := n + i; END;
  PrintInt (n); PrintChar (' ');
  n := 0;
  FOR i := 10 TO 0 BY -2 DO n := n + 1; END;
  PrintInt (n); PrintChar (' ');
  n := 0;
  REPEAT n := n + 3; UNTIL n > 7;
  PrintInt (n); PrintChar (' ');
  LOOP
    n := n - 1;
    IF n = 5 THEN EXIT; END;
  END;
  PrintInt (n);
END M.
|}
    "15 6 9 5"

let test_short_circuit_semantics () =
  (* n.val must not be read when n is NIL. *)
  check_output
    {|
MODULE M;
TYPE Node = OBJECT val: INTEGER; END;
VAR n: Node;
BEGIN
  n := NIL;
  IF (n # NIL) AND (n.val > 0) THEN
    Print ("yes");
  ELSE
    Print ("no");
  END;
END M.
|}
    "no"

let test_records_and_arrays () =
  check_output
    {|
MODULE M;
TYPE
  Point = RECORD x, y: INTEGER; END;
  Grid = ARRAY [0..3] OF Point;
VAR g: Grid; sum: INTEGER;
BEGIN
  FOR i := 0 TO 3 DO
    g[i].x := i;
    g[i].y := i * i;
  END;
  sum := 0;
  FOR i := 0 TO 3 DO
    sum := sum + g[i].x + g[i].y;
  END;
  PrintInt (sum);
END M.
|}
    "20"

let test_object_dispatch () =
  check_output
    {|
MODULE M;
TYPE
  Shape = OBJECT side: INTEGER; METHODS area (): INTEGER := SquareArea; END;
  Tri = Shape OBJECT OVERRIDES area := TriArea; END;
VAR shapes: ARRAY [0..1] OF Shape; total: INTEGER;
PROCEDURE SquareArea (self: Shape): INTEGER =
  BEGIN RETURN self.side * self.side; END SquareArea;
PROCEDURE TriArea (self: Shape): INTEGER =
  BEGIN RETURN self.side * self.side DIV 2; END TriArea;
BEGIN
  shapes[0] := NEW (Shape);
  shapes[1] := NEW (Tri);
  shapes[0].side := 4;
  shapes[1].side := 4;
  total := 0;
  FOR i := 0 TO 1 DO
    total := total + shapes[i].area ();
  END;
  PrintInt (total);
END M.
|}
    "24"

let test_var_params_and_with () =
  check_output
    {|
MODULE M;
TYPE R = RECORD a, b: INTEGER; END; PR = REF R;
VAR p: PR;
PROCEDURE Swap (VAR x: INTEGER; VAR y: INTEGER) =
  VAR t: INTEGER;
  BEGIN
    t := x; x := y; y := t;
  END Swap;
BEGIN
  p := NEW (PR);
  p.a := 1; p.b := 2;
  Swap (p.a, p.b);
  PrintInt (p.a); PrintInt (p.b);
  WITH slot = p.a DO
    slot := 9;
  END;
  PrintInt (p.a);
END M.
|}
    "219"

let test_recursion_depth () =
  check_output
    {|
MODULE M;
PROCEDURE Fib (n: INTEGER): INTEGER =
  BEGIN
    IF n < 2 THEN RETURN n; END;
    RETURN Fib (n - 1) + Fib (n - 2);
  END Fib;
BEGIN
  PrintInt (Fib (15));
END M.
|}
    "610"

let test_halt () =
  let o =
    run
      {|
MODULE M;
BEGIN
  PrintInt (1);
  Halt ();
  PrintInt (2);
END M.
|}
  in
  Alcotest.(check string) "output before halt" "1" o.Sim.Interp.output;
  Alcotest.(check bool) "halted" true o.Sim.Interp.halted

let test_total_semantics () =
  (* NIL dereference, out-of-bounds and DIV 0 are soft faults, not crashes. *)
  let o =
    run
      {|
MODULE M;
TYPE Node = OBJECT val: INTEGER; END; V = REF ARRAY OF INTEGER;
VAR n: Node; v: V;
BEGIN
  PrintInt (n.val);
  v := NEW (V, 2);
  PrintInt (v[5]);
  PrintInt (7 DIV (1 - 1));
END M.
|}
  in
  Alcotest.(check string) "defined results" "000" o.Sim.Interp.output;
  Alcotest.(check bool) "faults counted" true (o.Sim.Interp.soft_faults >= 2)

(* --- counters ----------------------------------------------------------- *)

let test_load_counters () =
  let o =
    run
      {|
MODULE M;
TYPE Node = OBJECT val: INTEGER; END;
VAR n: Node; g: INTEGER;
BEGIN
  n := NEW (Node);
  n.val := 3;          (* 0 heap loads: store resolves directly *)
  g := n.val;          (* global read of n (other), heap load of val *)
  g := g + n.val;
END M.
|}
  in
  Alcotest.(check int) "heap loads" 2 o.Sim.Interp.counters.Sim.Interp.heap_loads;
  Alcotest.(check bool) "other loads counted" true
    (o.Sim.Interp.counters.Sim.Interp.other_loads > 0)

let test_dope_load_counted () =
  (* Subscripting an open array reads the dope: 2 heap loads per element
     access; NUMBER adds 1. *)
  let o =
    run
      {|
MODULE M;
TYPE V = REF ARRAY OF INTEGER;
VAR v: V; g: INTEGER;
BEGIN
  v := NEW (V, 4);
  g := v[2];
  g := g + Number (v);
END M.
|}
  in
  Alcotest.(check int) "dope + element + number" 3
    o.Sim.Interp.counters.Sim.Interp.heap_loads

let test_determinism () =
  let src =
    {|
MODULE M;
VAR n: INTEGER;
BEGIN
  n := 1;
  FOR i := 1 TO 20 DO n := (n * 31 + i) MOD 9973; END;
  PrintInt (n);
END M.
|}
  in
  let a = run src and b = run src in
  Alcotest.(check string) "same output" a.Sim.Interp.output b.Sim.Interp.output;
  Alcotest.(check int) "same cycles" a.Sim.Interp.cycles b.Sim.Interp.cycles

(* --- layout ------------------------------------------------------------- *)

let test_layout_offsets () =
  let p =
    Minim3.Typecheck.check_string
      {|
MODULE M;
TYPE
  Inner = RECORD a, b: INTEGER; END;
  Mix = RECORD x: INTEGER; nest: Inner; y: INTEGER; END;
  Obj = OBJECT f: INTEGER; grid: ARRAY [0..2] OF Inner; tail: INTEGER; END;
BEGIN
END M.
|}
  in
  let env = p.Minim3.Tast.tenv in
  let layout = Sim.Layout.create env in
  let tid name = List.assoc (Support.Ident.intern name) p.Minim3.Tast.type_names in
  let f = Support.Ident.intern in
  Alcotest.(check int) "Inner is two slots" 2 (Sim.Layout.size layout (tid "Inner"));
  Alcotest.(check int) "Mix inlines the record" 4 (Sim.Layout.size layout (tid "Mix"));
  Alcotest.(check int) "Mix.y after the nest" 3
    (Sim.Layout.field_offset layout (tid "Mix") (f "y"));
  (* objects: one header slot, then fields *)
  Alcotest.(check int) "Obj.f after header" 1
    (Sim.Layout.field_offset layout (tid "Obj") (f "f"));
  Alcotest.(check int) "Obj.grid" 2
    (Sim.Layout.field_offset layout (tid "Obj") (f "grid"));
  Alcotest.(check int) "Obj.tail after 3 Inners" 8
    (Sim.Layout.field_offset layout (tid "Obj") (f "tail"));
  Alcotest.(check int) "Obj allocation" 9
    (Sim.Layout.alloc_size layout (tid "Obj") ~length:None)

let test_layout_inherited_offsets () =
  let p =
    Minim3.Typecheck.check_string
      {|
MODULE M;
TYPE
  Base = OBJECT a: INTEGER; END;
  Derived = Base OBJECT b: INTEGER; END;
BEGIN
END M.
|}
  in
  let env = p.Minim3.Tast.tenv in
  let layout = Sim.Layout.create env in
  let tid name = List.assoc (Support.Ident.intern name) p.Minim3.Tast.type_names in
  let f = Support.Ident.intern in
  (* A field keeps its offset in every subtype, so dispatch-free field
     access through a supertype-typed pointer is sound. *)
  Alcotest.(check int) "a in Base" 1
    (Sim.Layout.field_offset layout (tid "Base") (f "a"));
  Alcotest.(check int) "a in Derived" 1
    (Sim.Layout.field_offset layout (tid "Derived") (f "a"));
  Alcotest.(check int) "b after a" 2
    (Sim.Layout.field_offset layout (tid "Derived") (f "b"))

(* --- cache -------------------------------------------------------------- *)

let test_cache_basics () =
  let c = Sim.Cache.create ~size_bytes:1024 ~line_bytes:32 () in
  Alcotest.(check bool) "first access misses" false (Sim.Cache.access c 0);
  Alcotest.(check bool) "same line hits" true (Sim.Cache.access c 8);
  Alcotest.(check bool) "different line misses" false (Sim.Cache.access c 64);
  (* conflict: 1024-byte direct-mapped, address 0 and 1024 collide *)
  Alcotest.(check bool) "conflicting line evicts" false (Sim.Cache.access c 1024);
  Alcotest.(check bool) "original line was evicted" false (Sim.Cache.access c 0);
  Alcotest.(check int) "misses counted" 4 (Sim.Cache.misses c)

let test_cache_rejects_bad_geometry () =
  List.iter
    (fun (size_bytes, line_bytes) ->
      match Sim.Cache.create ~size_bytes ~line_bytes () with
      | exception Support.Diag.Compile_error _ -> ()
      | _ ->
        Alcotest.failf "Cache.create accepted size=%d line=%d" size_bytes
          line_bytes)
    [ (3000, 32);  (* size not a power of two: set_mask would be wrong *)
      (4096, 48);  (* line not a power of two: line_shift would round up *)
      (1000, 24); (0, 32); (4096, 0); (16, 32) (* size < line *) ]

let test_cache_legal_odd_geometry () =
  (* A perfectly legal but unusual power-of-two geometry: 4 KiB with
     64-byte lines = 64 sets. *)
  let c = Sim.Cache.create ~size_bytes:4096 ~line_bytes:64 () in
  Alcotest.(check bool) "first access misses" false (Sim.Cache.access c 0);
  Alcotest.(check bool) "same 64B line hits" true (Sim.Cache.access c 63);
  Alcotest.(check bool) "next line misses" false (Sim.Cache.access c 64);
  (* 4096-byte direct-mapped: addresses 0 and 4096 collide. *)
  Alcotest.(check bool) "wrap conflicts" false (Sim.Cache.access c 4096);
  Alcotest.(check bool) "line 0 was evicted" false (Sim.Cache.access c 0);
  (* A tiny 1-set cache is legal too: every distinct line conflicts. *)
  let one = Sim.Cache.create ~size_bytes:32 ~line_bytes:32 () in
  Alcotest.(check bool) "1-set miss" false (Sim.Cache.access one 0);
  Alcotest.(check bool) "1-set hit" true (Sim.Cache.access one 16);
  Alcotest.(check bool) "1-set conflict" false (Sim.Cache.access one 32)

(* --- limit study ---------------------------------------------------------- *)

let redundant_src =
  {|
MODULE M;
TYPE Node = OBJECT val: INTEGER; END;
VAR n: Node; sink: INTEGER;
PROCEDURE P () =
  VAR a: INTEGER; b: INTEGER;
  BEGIN
    a := n.val;
    b := n.val;    (* dynamically redundant *)
    sink := a + b;
  END P;
BEGIN
  n := NEW (Node);
  n.val := 4;
  P ();
  PrintInt (sink);
END M.
|}

(* RLE over the whole program, as the pass manager runs it. *)
let rle program =
  ignore
    (Opt.Pass_manager.run (Opt.Pass.create ()) program
       [ Opt.Pass_manager.Run Opt.Rle.pass ])

let test_limit_detects_redundancy () =
  let program = lower redundant_src in
  let tracer = Sim.Limit.create () in
  let _ = Sim.Interp.run ~on_load:(Sim.Limit.on_load tracer) program in
  Alcotest.(check bool) "found a redundant load" true
    (Sim.Limit.total_redundant tracer >= 1)

let test_limit_rle_removes_redundancy () =
  let program = lower redundant_src in
  rle program;
  let tracer = Sim.Limit.create () in
  let _ = Sim.Interp.run ~on_load:(Sim.Limit.on_load tracer) program in
  Alcotest.(check int) "no redundancy left" 0 (Sim.Limit.total_redundant tracer)

let test_limit_activation_scoping () =
  (* The same address loaded in two different activations is NOT a
     redundancy under the paper's definition. *)
  let src =
    {|
MODULE M;
TYPE Node = OBJECT val: INTEGER; END;
VAR n: Node; sink: INTEGER;
PROCEDURE Get (): INTEGER = BEGIN RETURN n.val; END Get;
BEGIN
  n := NEW (Node);
  n.val := 4;
  sink := Get () + Get ();
  PrintInt (sink);
END M.
|}
  in
  let program = lower src in
  let tracer = Sim.Limit.create () in
  let _ = Sim.Interp.run ~on_load:(Sim.Limit.on_load tracer) program in
  Alcotest.(check int) "different activations, no redundancy" 0
    (Sim.Limit.total_redundant tracer)

let test_classifier_encapsulated () =
  (* Repeated open-array subscripts re-read the dope: Encapsulated. *)
  let src =
    {|
MODULE M;
TYPE V = REF ARRAY OF INTEGER;
VAR v: V; sink: INTEGER;
PROCEDURE P () =
  VAR s: INTEGER;
  BEGIN
    s := 0;
    FOR i := 0 TO 7 DO
      s := s + v[i];   (* dope read every iteration *)
    END;
    sink := s;
  END P;
BEGIN
  v := NEW (V, 8);
  FOR i := 0 TO 7 DO v[i] := i; END;
  P ();
  PrintInt (sink);
END M.
|}
  in
  let program = lower src in
  let oracle =
    Tbaa.Engine.oracle (Tbaa.Engine.create program)
      Tbaa.Engine.Sm_field_type_refs
  in
  rle program;
  let tracer = Sim.Limit.create () in
  let _ = Sim.Interp.run ~on_load:(Sim.Limit.on_load tracer) program in
  let modref = Opt.Modref.compute program oracle in
  let breakdown = Sim.Classify.classify program oracle modref tracer in
  let enc = List.assoc Sim.Classify.Encapsulated breakdown in
  Alcotest.(check bool) "dope redundancies classified Encapsulated" true (enc > 0)

let test_classifier_conditional () =
  let src =
    {|
MODULE M;
TYPE Node = OBJECT val: INTEGER; END;
VAR n: Node; sink: INTEGER;
PROCEDURE P (c: BOOLEAN) =
  VAR a: INTEGER; b: INTEGER;
  BEGIN
    a := 0;
    IF c THEN a := n.val; END;
    b := n.val;
    sink := a + b;
  END P;
BEGIN
  n := NEW (Node);
  n.val := 3;
  P (TRUE);
  PrintInt (sink);
END M.
|}
  in
  let program = lower src in
  let oracle =
    Tbaa.Engine.oracle (Tbaa.Engine.create program)
      Tbaa.Engine.Sm_field_type_refs
  in
  rle program;
  let tracer = Sim.Limit.create () in
  let _ = Sim.Interp.run ~on_load:(Sim.Limit.on_load tracer) program in
  let modref = Opt.Modref.compute program oracle in
  let breakdown = Sim.Classify.classify program oracle modref tracer in
  Alcotest.(check bool) "partial redundancy classified Conditional" true
    (List.assoc Sim.Classify.Conditional breakdown > 0)

let test_classifier_breakup () =
  (* The same address reached through two different paths (no copy prop). *)
  let src =
    {|
MODULE M;
TYPE Node = OBJECT val: INTEGER; next: Node; END;
VAR h: Node; sink: INTEGER;
PROCEDURE P () =
  VAR p: Node; a: INTEGER; b: INTEGER;
  BEGIN
    p := h.next;
    a := p.val;
    b := h.next.val;  (* same address as p.val, different path *)
    sink := a + b;
  END P;
BEGIN
  h := NEW (Node);
  h.next := NEW (Node);
  h.next.val := 6;
  P ();
  PrintInt (sink);
END M.
|}
  in
  let program = lower src in
  let oracle =
    Tbaa.Engine.oracle (Tbaa.Engine.create program)
      Tbaa.Engine.Sm_field_type_refs
  in
  rle program;
  let tracer = Sim.Limit.create () in
  let _ = Sim.Interp.run ~on_load:(Sim.Limit.on_load tracer) program in
  let modref = Opt.Modref.compute program oracle in
  let breakdown = Sim.Classify.classify program oracle modref tracer in
  Alcotest.(check bool) "different-path redundancy classified Breakup" true
    (List.assoc Sim.Classify.Breakup breakdown > 0)

let () =
  Alcotest.run "sim"
    [ ( "semantics",
        [ Alcotest.test_case "arith" `Quick test_arith;
          Alcotest.test_case "bools/chars" `Quick test_bools_and_chars;
          Alcotest.test_case "control flow" `Quick test_control_flow;
          Alcotest.test_case "short circuit" `Quick test_short_circuit_semantics;
          Alcotest.test_case "records/arrays" `Quick test_records_and_arrays;
          Alcotest.test_case "dispatch" `Quick test_object_dispatch;
          Alcotest.test_case "var/with" `Quick test_var_params_and_with;
          Alcotest.test_case "recursion" `Quick test_recursion_depth;
          Alcotest.test_case "halt" `Quick test_halt;
          Alcotest.test_case "totality" `Quick test_total_semantics ] );
      ( "counters",
        [ Alcotest.test_case "loads" `Quick test_load_counters;
          Alcotest.test_case "dope loads" `Quick test_dope_load_counted;
          Alcotest.test_case "determinism" `Quick test_determinism ] );
      ( "layout",
        [ Alcotest.test_case "offsets" `Quick test_layout_offsets;
          Alcotest.test_case "inheritance" `Quick test_layout_inherited_offsets ] );
      ( "cache",
        [ Alcotest.test_case "basics" `Quick test_cache_basics;
          Alcotest.test_case "rejects bad geometry" `Quick
            test_cache_rejects_bad_geometry;
          Alcotest.test_case "legal odd geometry" `Quick
            test_cache_legal_odd_geometry ] );
      ( "limit",
        [ Alcotest.test_case "detects redundancy" `Quick test_limit_detects_redundancy;
          Alcotest.test_case "rle removes it" `Quick test_limit_rle_removes_redundancy;
          Alcotest.test_case "activation scoping" `Quick test_limit_activation_scoping;
          Alcotest.test_case "classify encapsulated" `Quick test_classifier_encapsulated;
          Alcotest.test_case "classify conditional" `Quick test_classifier_conditional;
          Alcotest.test_case "classify breakup" `Quick test_classifier_breakup ] ) ]
