(* Tests for the optimizer: mod-ref summaries, RLE (the paper's Figures 6
   and 7 shapes), devirtualization, inlining, and the pipeline. *)

open Support
open Ir

let lower src = Lower.lower_string ~file:"test" src

let proc_named program name = Cfg.find_proc program (Ident.intern name)

let run_out program = (Sim.Interp.run program).Sim.Interp.output

let sm = Opt.Pipeline.Osm_field_type_refs
let td = Opt.Pipeline.Otype_decl

(* Passes run the way every front end runs them: a schedule through the
   pass manager over a fresh context; one report per pass execution. *)
let run_passes ?claims program kind passes =
  let ctx = Opt.Pass.create ~oracle_kind:kind () in
  ctx.Opt.Pass.claims <- claims;
  Opt.Pass_manager.run ctx program
    (List.map (fun p -> Opt.Pass_manager.Run p) passes)

let run_pass ?claims program kind pass =
  match run_passes ?claims program kind [ pass ] with
  | [ r ] -> r
  | _ -> assert false

let stat = Opt.Pass.stat

let rle_with src kind =
  let program = lower src in
  let before = run_out program in
  let report = run_pass program kind Opt.Rle.pass in
  let after = run_out program in
  (program, report, before, after)

(* --- mod-ref ----------------------------------------------------------- *)

let test_modref_transitive () =
  let program =
    lower
      {|
MODULE M;
TYPE Node = OBJECT val: INTEGER; END;
VAR n: Node; g: INTEGER;
PROCEDURE Deep () = BEGIN n.val := 1; END Deep;
PROCEDURE Mid () = BEGIN Deep (); END Mid;
PROCEDURE Top () = BEGIN Mid (); END Top;
PROCEDURE Pure (x: INTEGER): INTEGER = BEGIN RETURN x + 1; END Pure;
BEGIN END M.
|}
  in
  let analysis = Tbaa.Engine.create program in
  let oracle = Tbaa.Engine.oracle analysis Tbaa.Engine.Sm_field_type_refs in
  let modref = Opt.Modref.compute program oracle in
  let mods name =
    (Opt.Modref.summary modref (Ident.intern name)).Opt.Modref.mods
  in
  Alcotest.(check bool) "Deep writes a field class" false
    (Tbaa.Aloc.Set.is_empty (mods "Deep"));
  Alcotest.(check bool) "Top inherits Deep's effects" false
    (Tbaa.Aloc.Set.is_empty (mods "Top"));
  Alcotest.(check bool) "Pure writes nothing visible" true
    (Tbaa.Aloc.Set.is_empty (mods "Pure"))

let test_modref_kills_loads_across_calls () =
  (* A call that writes val must kill availability of n.val; a pure call
     must not. *)
  let src writer =
    Printf.sprintf
      {|
MODULE M;
TYPE Node = OBJECT val: INTEGER; END;
VAR n: Node; sink: INTEGER;
PROCEDURE Touch () = BEGIN %s END Touch;
PROCEDURE P () =
  VAR a: INTEGER; b: INTEGER;
  BEGIN
    a := n.val;
    Touch ();
    b := n.val;
    sink := a + b;
  END P;
BEGIN END M.
|}
      writer
  in
  let eliminated writer =
    let program = lower (src writer) in
    stat (run_pass program sm Opt.Rle.pass) "eliminated"
  in
  Alcotest.(check bool) "pure call: second load eliminated" true
    (eliminated "sink := 0;" >= 1);
  Alcotest.(check int) "writing call kills the load" 0
    (eliminated "n.val := 9;")

(* --- RLE: Figure 6 (loop-invariant motion) ----------------------------- *)

let figure6_src =
  {|
MODULE M;
TYPE
  Arr = REF ARRAY OF INTEGER;
  Box = OBJECT b: Arr; END;
VAR a: Box; sink: INTEGER;
PROCEDURE P (k: INTEGER) =
  VAR s: INTEGER;
  BEGIN
    s := 0;
    FOR i := 0 TO k - 1 DO
      s := s + a.b[i];   (* a.b is loop invariant; a.b[i] is not *)
    END;
    sink := s;
  END P;
BEGIN
  a := NEW (Box);
  a.b := NEW (Arr, 10);
  P (10);
  PrintInt (sink);
END M.
|}

let test_rle_hoists_invariant_prefix () =
  let program, stats, before, after = rle_with figure6_src sm in
  Alcotest.(check bool) "hoisted at least one prefix" true
    (stat stats "hoisted" >= 1);
  Alcotest.(check string) "behaviour preserved" before after;
  (* The load of a.b must now be outside the loop: run and compare heap
     loads with the unoptimized program. *)
  let fresh = lower figure6_src in
  let base = (Sim.Interp.run fresh).Sim.Interp.counters.Sim.Interp.heap_loads in
  let opt = (Sim.Interp.run program).Sim.Interp.counters.Sim.Interp.heap_loads in
  Alcotest.(check bool) "fewer dynamic heap loads" true (opt < base)

(* --- RLE: Figure 7 (redundant load CSE) -------------------------------- *)

let figure7_src =
  {|
MODULE M;
TYPE
  Arr = REF ARRAY OF INTEGER;
  Box = OBJECT b: Arr; END;
VAR a: Box; sink: INTEGER;
PROCEDURE P (i: INTEGER; j: INTEGER) =
  VAR x: INTEGER; y: INTEGER;
  BEGIN
    x := a.b[i];
    y := a.b[j];   (* the a.b prefix is redundant *)
    sink := x + y;
  END P;
BEGIN
  a := NEW (Box);
  a.b := NEW (Arr, 10);
  P (3, 4);
  PrintInt (sink);
END M.
|}

let test_rle_cse_prefix () =
  let _, stats, before, after = rle_with figure7_src sm in
  Alcotest.(check bool) "prefix reused" true (stat stats "shortened" >= 1);
  Alcotest.(check string) "behaviour preserved" before after

let test_rle_cse_full () =
  let src =
    {|
MODULE M;
TYPE Node = OBJECT val: INTEGER; END;
VAR n: Node; sink: INTEGER;
PROCEDURE P () =
  VAR a: INTEGER; b: INTEGER;
  BEGIN
    a := n.val;
    b := n.val;
    sink := a + b;
  END P;
BEGIN
  n := NEW (Node);
  n.val := 21;
  P ();
  PrintInt (sink);
END M.
|}
  in
  let _, stats, before, after = rle_with src sm in
  Alcotest.(check bool) "eliminated the second load" true
    (stat stats "eliminated" >= 1);
  Alcotest.(check string) "behaviour preserved" before after;
  Alcotest.(check string) "output is 42" "42" after

let test_rle_store_forwarding () =
  let src =
    {|
MODULE M;
TYPE Node = OBJECT val: INTEGER; END;
VAR n: Node; sink: INTEGER;
PROCEDURE P () =
  BEGIN
    n.val := 7;
    sink := n.val;  (* forwarded from the store *)
  END P;
BEGIN
  n := NEW (Node);
  P ();
  PrintInt (sink);
END M.
|}
  in
  let _, stats, _, after = rle_with src sm in
  Alcotest.(check bool) "load forwarded" true (stat stats "eliminated" >= 1);
  Alcotest.(check string) "output is 7" "7" after

let test_rle_killed_by_may_alias_store () =
  (* Two compatible paths: a store through one kills the other. *)
  let src =
    {|
MODULE M;
TYPE Node = OBJECT val: INTEGER; END;
VAR n: Node; m: Node; sink: INTEGER;
PROCEDURE P () =
  VAR a: INTEGER; b: INTEGER;
  BEGIN
    a := n.val;
    m.val := 5;    (* may alias n.val *)
    b := n.val;
    sink := a + b;
  END P;
BEGIN
  n := NEW (Node);
  n.val := 3;
  m := n;
  P ();
  PrintInt (sink);
END M.
|}
  in
  let _, stats, before, after = rle_with src sm in
  Alcotest.(check int) "no elimination across the aliasing store" 0
    (stat stats "eliminated");
  Alcotest.(check string) "behaviour preserved" before after;
  (* a reads 3, the aliasing store makes b read 5: an unsound CSE would
     print 6 instead. *)
  Alcotest.(check string) "output reflects the store" "8" after

let test_rle_not_killed_by_independent_store () =
  (* SMFieldTypeRefs proves distinct-field stores independent. *)
  let src =
    {|
MODULE M;
TYPE Node = OBJECT val: INTEGER; other: INTEGER; END;
VAR n: Node; m: Node; sink: INTEGER;
PROCEDURE P () =
  VAR a: INTEGER; b: INTEGER;
  BEGIN
    a := n.val;
    m.other := 5;   (* different field: cannot alias n.val *)
    b := n.val;
    sink := a + b;
  END P;
BEGIN
  n := NEW (Node);
  m := NEW (Node);
  P ();
  PrintInt (sink);
END M.
|}
  in
  let _, stats, before, after = rle_with src sm in
  Alcotest.(check bool) "eliminated across independent store" true
    (stat stats "eliminated" >= 1);
  Alcotest.(check string) "behaviour preserved" before after

let test_rle_precision_ordering_on_counts () =
  (* A more precise oracle can only remove at least as many loads. *)
  let removed kind =
    let program = lower figure6_src in
    let r = run_pass program kind Opt.Rle.pass in
    stat r "hoisted" + stat r "eliminated" + stat r "shortened"
  in
  Alcotest.(check bool) "SMFieldTypeRefs >= TypeDecl" true
    (removed sm >= removed td)

let test_rle_conditional_not_eliminated () =
  (* Partial redundancy (the paper's Conditional category) must survive:
     RLE only removes fully redundant loads. *)
  let src =
    {|
MODULE M;
TYPE Node = OBJECT val: INTEGER; END;
VAR n: Node; sink: INTEGER;
PROCEDURE P (c: BOOLEAN) =
  VAR a: INTEGER; b: INTEGER;
  BEGIN
    a := 0;
    IF c THEN
      a := n.val;
    END;
    b := n.val;   (* redundant only when c *)
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
  let _, stats, before, after = rle_with src sm in
  Alcotest.(check int) "no full redundancy" 0 (stat stats "eliminated");
  Alcotest.(check string) "behaviour preserved" before after

(* --- devirtualization / inlining --------------------------------------- *)

let devirt_src =
  {|
MODULE M;
TYPE
  A = OBJECT v: INTEGER; METHODS m (): INTEGER := ImplA; END;
  B = A OBJECT OVERRIDES m := ImplB; END;
VAR a: A;
PROCEDURE ImplA (self: A): INTEGER = BEGIN RETURN self.v; END ImplA;
PROCEDURE ImplB (self: A): INTEGER = BEGIN RETURN 0 - self.v; END ImplB;
BEGIN
  a := NEW (A);
  a.v := 11;
  PrintInt (a.m ());
END M.
|}

let test_devirt_resolves_monomorphic () =
  (* B is never allocated or assigned into an A, so SMTypeRefs proves the
     receiver can only be an A and the call resolves to ImplA. *)
  let program = lower devirt_src in
  let before = run_out program in
  let analysis = Tbaa.Engine.create program in
  let stats =
    Opt.Devirt.run program ~type_refs:(Tbaa.Engine.type_refs_table analysis)
  in
  Alcotest.(check int) "resolved" 1 stats.Opt.Devirt.resolved;
  Alcotest.(check string) "behaviour preserved" before (run_out program)

let test_devirt_keeps_polymorphic () =
  let src =
    {|
MODULE M;
TYPE
  A = OBJECT v: INTEGER; METHODS m (): INTEGER := ImplA; END;
  B = A OBJECT OVERRIDES m := ImplB; END;
VAR a: A;
PROCEDURE ImplA (self: A): INTEGER = BEGIN RETURN self.v; END ImplA;
PROCEDURE ImplB (self: A): INTEGER = BEGIN RETURN 0 - self.v; END ImplB;
BEGIN
  a := NEW (B);   (* now a B flows into a *)
  a.v := 11;
  PrintInt (a.m ());
END M.
|}
  in
  let program = lower src in
  let before = run_out program in
  let analysis = Tbaa.Engine.create program in
  let stats =
    Opt.Devirt.run program ~type_refs:(Tbaa.Engine.type_refs_table analysis)
  in
  Alcotest.(check int) "not resolved" 0 stats.Opt.Devirt.resolved;
  Alcotest.(check string) "dispatches to ImplB" "-11" before;
  Alcotest.(check string) "behaviour preserved" before (run_out program)

let test_inline_small_proc () =
  let src =
    {|
MODULE M;
VAR g: INTEGER;
PROCEDURE Add3 (x: INTEGER): INTEGER = BEGIN RETURN x + 3; END Add3;
PROCEDURE P () = BEGIN g := Add3 (Add3 (10)); END P;
BEGIN
  P ();
  PrintInt (g);
END M.
|}
  in
  let program = lower src in
  let before = run_out program in
  let stats = Opt.Inline.run program in
  Alcotest.(check bool) "inlined both calls" true (stats.Opt.Inline.inlined >= 2);
  Alcotest.(check string) "behaviour preserved" before (run_out program);
  (* No calls remain in P *)
  let p = proc_named program "P" in
  let calls = ref 0 in
  Cfg.iter_instrs p (fun _ i ->
      match i with Instr.Icall _ -> incr calls | _ -> ());
  Alcotest.(check int) "no calls left" 0 !calls

let test_inline_respects_recursion () =
  let src =
    {|
MODULE M;
VAR g: INTEGER;
PROCEDURE Fact (n: INTEGER): INTEGER =
  BEGIN
    IF n <= 1 THEN RETURN 1; END;
    RETURN n * Fact (n - 1);
  END Fact;
BEGIN
  g := Fact (6);
  PrintInt (g);
END M.
|}
  in
  let program = lower src in
  let before = run_out program in
  let stats = Opt.Inline.run program in
  Alcotest.(check int) "recursive procedure left alone" 0 stats.Opt.Inline.inlined;
  Alcotest.(check string) "720" "720" before;
  Alcotest.(check string) "behaviour preserved" before (run_out program)

let test_inline_byref_param () =
  let src =
    {|
MODULE M;
VAR g: INTEGER;
PROCEDURE Bump (VAR x: INTEGER) = BEGIN x := x + 1; END Bump;
PROCEDURE P () = BEGIN Bump (g); Bump (g); END P;
BEGIN
  g := 40;
  P ();
  PrintInt (g);
END M.
|}
  in
  let program = lower src in
  let stats = Opt.Inline.run program in
  Alcotest.(check bool) "inlined" true (stats.Opt.Inline.inlined >= 2);
  Alcotest.(check string) "VAR semantics preserved" "42" (run_out program)

(* --- PRE and copy propagation (the paper's future work) ----------------- *)

let test_pre_recovers_conditional () =
  (* The paper's Conditional pattern: redundant along the THEN path only.
     PRE inserts the load on the ELSE edge; RLE then eliminates the
     second load entirely. *)
  let src =
    {|
MODULE M;
TYPE Node = OBJECT val: INTEGER; END;
VAR n: Node; sink: INTEGER;
PROCEDURE P (c: BOOLEAN) =
  VAR a: INTEGER; b: INTEGER;
  BEGIN
    a := 0;
    IF c THEN
      a := n.val;
    END;
    b := n.val;
    sink := a + b;
  END P;
BEGIN
  n := NEW (Node);
  n.val := 3;
  P (TRUE);
  P (FALSE);
  PrintInt (sink);
END M.
|}
  in
  let program = lower src in
  let before = run_out program in
  let pstats, rstats =
    match run_passes program sm [ Opt.Pre.pass; Opt.Rle.pass ] with
    | [ p; r ] -> (p, r)
    | _ -> assert false
  in
  Alcotest.(check bool) "PRE inserted on the else edge" true
    (stat pstats "inserted" >= 1);
  Alcotest.(check bool) "the conditional load is now eliminated" true
    (stat rstats "eliminated" >= 1);
  Alcotest.(check string) "behaviour preserved" before (run_out program)

let test_pre_skips_unprofitable () =
  (* No sibling predecessor carries the value: PRE must not insert. *)
  let src =
    {|
MODULE M;
TYPE Node = OBJECT val: INTEGER; END;
VAR n: Node; sink: INTEGER;
PROCEDURE P (c: BOOLEAN) =
  VAR b: INTEGER;
  BEGIN
    IF c THEN
      sink := 1;
    ELSE
      sink := 2;
    END;
    b := n.val;
    sink := sink + b;
  END P;
BEGIN
  n := NEW (Node);
  P (TRUE);
  PrintInt (sink);
END M.
|}
  in
  let program = lower src in
  let pstats = run_pass program sm Opt.Pre.pass in
  Alcotest.(check int) "no insertion without a carrying sibling" 0
    (stat pstats "inserted")

let test_copyprop_enables_breakup_recovery () =
  (* The Breakup pattern: the same address reached via p and via h.next.
     Copy propagation canonicalizes the base so a second RLE pass can
     eliminate the reload. *)
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
    b := h.next.val;
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
  let before = run_out program in
  let cp, second =
    match
      run_passes program sm [ Opt.Rle.pass; Opt.Copyprop.pass; Opt.Rle.pass ]
    with
    | [ _; cp; second ] -> (cp, second)
    | _ -> assert false
  in
  Alcotest.(check bool) "copies were propagated" true (stat cp "replaced" >= 1);
  Alcotest.(check bool) "second RLE pass finds the breakup redundancy" true
    (stat second "eliminated" + stat second "shortened" >= 1);
  Alcotest.(check string) "behaviour preserved" before (run_out program)

let test_copyprop_respects_redefinition () =
  let src =
    {|
MODULE M;
VAR sink: INTEGER;
PROCEDURE P () =
  VAR a: INTEGER; b: INTEGER;
  BEGIN
    a := 1;
    b := a;
    a := 2;       (* kills the copy *)
    sink := b + a;
  END P;
BEGIN
  P ();
  PrintInt (sink);
END M.
|}
  in
  let program = lower src in
  ignore (run_pass program sm Opt.Copyprop.pass);
  Alcotest.(check string) "3" "3" (run_out program)

(* --- dead-code elimination ------------------------------------------------ *)

let test_dce_removes_dead_chain () =
  let src =
    {|
MODULE M;
TYPE Node = OBJECT val: INTEGER; END;
VAR n: Node; sink: INTEGER;
PROCEDURE P () =
  VAR a: INTEGER; b: INTEGER; c: INTEGER;
  BEGIN
    a := n.val;   (* dead: feeds only b *)
    b := a + 1;   (* dead: feeds only c *)
    c := b * 2;   (* dead: never used *)
    sink := 7;
  END P;
BEGIN
  n := NEW (Node);
  P ();
  PrintInt (sink);
END M.
|}
  in
  let program = lower src in
  let before = run_out program in
  let stats = run_pass program sm Opt.Dce.pass in
  (* a's load, b's and c's ALU ops, plus the lowering temporaries. *)
  Alcotest.(check bool) "removed the dead chain" true (stat stats "removed" >= 3);
  Alcotest.(check string) "behaviour preserved" before (run_out program);
  let p = proc_named program "P" in
  let loads = ref 0 in
  Cfg.iter_instrs p (fun _ i ->
      match i with Instr.Iload _ -> incr loads | _ -> ());
  Alcotest.(check int) "dead load gone" 0 !loads

let test_dce_keeps_effects () =
  let src =
    {|
MODULE M;
TYPE Node = OBJECT val: INTEGER; END;
VAR n: Node; g: INTEGER;
PROCEDURE Effect (): INTEGER =
  BEGIN
    g := g + 1;
    RETURN g;
  END Effect;
PROCEDURE P () =
  VAR dead: INTEGER;
  BEGIN
    dead := Effect ();  (* result dead, call must stay *)
    n.val := 5;         (* store must stay *)
  END P;
BEGIN
  n := NEW (Node);
  P ();
  PrintInt (g + n.val);
END M.
|}
  in
  let program = lower src in
  let before = run_out program in
  ignore (run_pass program sm Opt.Dce.pass);
  Alcotest.(check string) "effects survive" before (run_out program);
  Alcotest.(check string) "output is 6" "6" before

let test_dce_fixpoint_on_workload () =
  (* Running DCE twice must find nothing the second time. *)
  let w = Workloads.Suite.find "format" in
  let program = Workloads.Workload.lower w in
  ignore (run_pass program sm Opt.Dce.pass);
  let second = run_pass program sm Opt.Dce.pass in
  Alcotest.(check int) "idempotent" 0 (stat second "removed")

(* --- new TBAA clients: DSE, SLF, LICM ---------------------------------- *)

let client_with pass src kind =
  let program = lower src in
  let before = run_out program in
  let stats = run_pass program kind pass in
  let after = run_out program in
  (stats, before, after)

let test_dse_removes_overwritten_store () =
  let stats, before, after =
    client_with
      Opt.Dse.pass
      {|
MODULE M;
TYPE Node = OBJECT val: INTEGER; END;
VAR n: Node; sink: INTEGER;
PROCEDURE P () =
  BEGIN
    n.val := 1;   (* dead: overwritten below, nothing reads in between *)
    sink := 3;
    n.val := 2;
  END P;
BEGIN
  n := NEW (Node);
  P ();
  PrintInt (n.val + sink);
END M.
|}
      sm
  in
  Alcotest.(check int) "dead store removed" 1 (stat stats "removed");
  Alcotest.(check string) "behaviour preserved" before after;
  Alcotest.(check string) "output is 5" "5" before

let test_dse_kept_by_may_alias_load () =
  (* The intervening load goes through another name for the same object:
     every oracle must keep the first store. *)
  let src =
    {|
MODULE M;
TYPE Node = OBJECT val: INTEGER; END;
VAR n: Node; m: Node; sink: INTEGER;
PROCEDURE P () =
  BEGIN
    n.val := 1;
    sink := m.val;   (* may alias n.val — reads the 1 *)
    n.val := 2;
  END P;
BEGIN
  n := NEW (Node);
  m := n;
  P ();
  PrintInt (n.val * 10 + sink);
END M.
|}
  in
  List.iter
    (fun kind ->
      let stats, before, after =
        client_with Opt.Dse.pass src kind
      in
      Alcotest.(check int) "store kept" 0 (stat stats "removed");
      Alcotest.(check string) "behaviour preserved" before after;
      Alcotest.(check string) "output is 21" "21" before)
    [ sm; td ]

let test_dse_kept_by_reading_call () =
  (* Regression (fuzz seed 58): the callee reads the cell only through an
     address computation's navigation (NUMBER takes the array's address),
     so the interprocedural ref summary must cover navigation reads. *)
  let stats, before, after =
    client_with
      Opt.Dse.pass
      {|
MODULE M;
TYPE Arr = REF ARRAY OF INTEGER;
TYPE Box = OBJECT buf: Arr; END;
VAR b: Box; sink: INTEGER;
PROCEDURE Len (): INTEGER = BEGIN RETURN Number (b.buf); END Len;
PROCEDURE P () =
  BEGIN
    b.buf := NEW (Arr, 3);
    sink := Len ();
    b.buf := NEW (Arr, 5);
  END P;
BEGIN
  b := NEW (Box);
  P ();
  PrintInt (sink + Number (b.buf));
END M.
|}
      sm
  in
  Alcotest.(check int) "store read by call kept" 0 (stat stats "removed");
  Alcotest.(check string) "behaviour preserved" before after;
  Alcotest.(check string) "output is 8" "8" before

let test_dse_kept_by_prefix_store () =
  (* Regression: an intervening store that rewrites the prefix pointer
     cell changes what the tracked path denotes — the later store to the
     same syntactic path overwrites a *different* cell, so the first
     store's value stays observable through the old pointer and the store
     must be kept. *)
  let src =
    {|
MODULE M;
TYPE Node = OBJECT val: INTEGER; END;
TYPE Box = OBJECT ptr: Node; END;
VAR b: Box; orig: Node; other: Node;
PROCEDURE P () =
  BEGIN
    b.ptr.val := 1;   (* must stay: b.ptr is redirected below *)
    b.ptr := other;   (* the path now denotes other.val *)
    b.ptr.val := 2;
  END P;
BEGIN
  b := NEW (Box);
  orig := NEW (Node);
  other := NEW (Node);
  b.ptr := orig;
  P ();
  PrintInt (orig.val * 10 + b.ptr.val);
END M.
|}
  in
  List.iter
    (fun kind ->
      let stats, before, after =
        client_with Opt.Dse.pass src kind
      in
      Alcotest.(check int) "store kept" 0 (stat stats "removed");
      Alcotest.(check string) "behaviour preserved" before after;
      Alcotest.(check string) "output is 12" "12" before)
    [ sm; td ]

let test_dse_kept_by_redirecting_call () =
  (* Regression: the intervening call *writes* the path's global base
     variable (a mod, not a ref) — afterwards n.val denotes a different
     cell, so the later store is no overwrite and the first must stay. *)
  let src =
    {|
MODULE M;
TYPE Node = OBJECT val: INTEGER; END;
VAR n: Node; other: Node; orig: Node;
PROCEDURE Swap () = BEGIN n := other; END Swap;
PROCEDURE P () =
  BEGIN
    n.val := 1;   (* must stay: Swap redirects n below *)
    Swap ();
    n.val := 2;
  END P;
BEGIN
  n := NEW (Node);
  other := NEW (Node);
  orig := n;
  P ();
  PrintInt (orig.val * 10 + n.val);
END M.
|}
  in
  List.iter
    (fun kind ->
      let stats, before, after =
        client_with Opt.Dse.pass src kind
      in
      Alcotest.(check int) "store kept" 0 (stat stats "removed");
      Alcotest.(check string) "behaviour preserved" before after;
      Alcotest.(check string) "output is 12" "12" before)
    [ sm; td ]

let test_slf_forwards_stored_atom () =
  let stats, before, after =
    client_with
      Opt.Slf.pass
      {|
MODULE M;
TYPE Node = OBJECT val: INTEGER; END;
VAR n: Node; sink: INTEGER;
PROCEDURE P () =
  VAR x: INTEGER;
  BEGIN
    n.val := 3;
    x := n.val;   (* forwarded: x := 3, no load *)
    sink := x;
  END P;
BEGIN
  n := NEW (Node);
  P ();
  PrintInt (sink);
END M.
|}
      sm
  in
  Alcotest.(check int) "load forwarded" 1 (stat stats "forwarded");
  Alcotest.(check string) "behaviour preserved" before after;
  Alcotest.(check string) "output is 3" "3" before

let test_slf_blocked_by_supertype_store () =
  (* The intervening store goes through a supertype-typed name for the
     same field; the binding must die under every oracle. *)
  let src =
    {|
MODULE M;
TYPE A = OBJECT val: INTEGER; END;
TYPE B = A OBJECT END;
VAR pa: A; pb: B; sink: INTEGER;
PROCEDURE P () =
  VAR x: INTEGER;
  BEGIN
    pb.val := 1;
    pa.val := 2;   (* same object, supertype path *)
    x := pb.val;
    sink := x;
  END P;
BEGIN
  pb := NEW (B);
  pa := pb;
  P ();
  PrintInt (sink);
END M.
|}
  in
  List.iter
    (fun kind ->
      let stats, before, after =
        client_with Opt.Slf.pass src kind
      in
      Alcotest.(check int) "forwarding blocked" 0 (stat stats "forwarded");
      Alcotest.(check string) "behaviour preserved" before after;
      Alcotest.(check string) "output is 2" "2" before)
    [ sm; td ]

let test_slf_blocked_by_byref_atom_write () =
  (* Regression (fuzz seed 176): the stored atom is a global mutated by
     the callee through a VAR formal — forwarding it past the call would
     resurrect the stale value. *)
  let stats, before, after =
    client_with
      Opt.Slf.pass
      {|
MODULE M;
TYPE Node = OBJECT val: INTEGER; END;
VAR n: Node; g: INTEGER; sink: INTEGER;
PROCEDURE Bump (VAR z: INTEGER) = BEGIN z := 9; END Bump;
PROCEDURE P () =
  VAR x: INTEGER;
  BEGIN
    n.val := g;
    Bump (g);
    x := n.val;   (* must reload: g no longer holds the stored value *)
    sink := x;
  END P;
BEGIN
  n := NEW (Node);
  g := 4;
  P ();
  PrintInt (sink);
END M.
|}
      sm
  in
  Alcotest.(check int) "stale atom not forwarded" 0 (stat stats "forwarded");
  Alcotest.(check string) "behaviour preserved" before after;
  Alcotest.(check string) "output is 4" "4" before

let test_licm_hoists_invariant_load () =
  let stats, before, after =
    client_with
      Opt.Licm.pass
      {|
MODULE M;
TYPE Node = OBJECT val: INTEGER; END;
VAR n: Node; sink: INTEGER;
PROCEDURE P (k: INTEGER) =
  VAR s: INTEGER;
  BEGIN
    s := 0;
    FOR i := 1 TO k DO
      s := s + n.val;   (* invariant: nothing in the loop writes it *)
    END;
    sink := s;
  END P;
BEGIN
  n := NEW (Node);
  n.val := 2;
  P (3);
  PrintInt (sink);
END M.
|}
      sm
  in
  Alcotest.(check int) "load hoisted" 1 (stat stats "hoisted");
  Alcotest.(check string) "behaviour preserved" before after;
  Alcotest.(check string) "output is 6" "6" before

let test_licm_blocked_by_modding_call () =
  (* The in-loop call's transitive Effects summary writes the loaded
     cell's class, so the load is not invariant. *)
  let stats, before, after =
    client_with
      Opt.Licm.pass
      {|
MODULE M;
TYPE Node = OBJECT val: INTEGER; END;
VAR n: Node; sink: INTEGER;
PROCEDURE Bump () = BEGIN n.val := n.val + 1; END Bump;
PROCEDURE P (k: INTEGER) =
  VAR s: INTEGER;
  BEGIN
    s := 0;
    FOR i := 1 TO k DO
      s := s + n.val;
      Bump ();
    END;
    sink := s;
  END P;
BEGIN
  n := NEW (Node);
  n.val := 1;
  P (3);
  PrintInt (sink);
END M.
|}
      sm
  in
  Alcotest.(check int) "hoist blocked" 0 (stat stats "hoisted");
  Alcotest.(check string) "behaviour preserved" before after;
  Alcotest.(check string) "output is 6" "6" before

let test_clients_record_claim_kinds () =
  (* Each client attributes its oracle bets in the shared ledger, so an
     audit violation can name the pass that relied on the answer. *)
  let src =
    {|
MODULE M;
TYPE Node = OBJECT val: INTEGER; END;
TYPE Other = OBJECT w: INTEGER; END;
VAR n: Node; o: Other; sink: INTEGER;
PROCEDURE P (k: INTEGER) =
  VAR x: INTEGER;
  BEGIN
    n.val := 1;
    o.w := 2;       (* disjoint classes: the clients bet on no-alias *)
    x := n.val;
    FOR i := 1 TO k DO
      sink := sink + o.w;
    END;
    n.val := x;
  END P;
BEGIN
  n := NEW (Node);
  o := NEW (Other);
  P (2);
  PrintInt (sink + n.val);
END M.
|}
  in
  let kinds_used pass kind =
    let program = lower src in
    let claims = Tbaa.Claims.create ~oracle:"SMFieldTypeRefs" in
    ignore (run_pass ~claims program sm pass);
    let pairs = Tbaa.Claims.disjoint_pairs claims in
    Alcotest.(check bool)
      (kind ^ " made at least one no-alias bet")
      true (pairs <> []);
    List.for_all
      (fun (p1, p2) ->
        List.for_all
          (fun k -> String.equal k kind)
          (Tbaa.Claims.kinds claims p1 p2))
      pairs
  in
  Alcotest.(check bool) "dse bets carry kind dse" true
    (kinds_used Opt.Dse.pass "dse");
  Alcotest.(check bool) "slf bets carry kind slf" true
    (kinds_used Opt.Slf.pass "slf");
  Alcotest.(check bool) "licm bets carry kind licm" true
    (kinds_used Opt.Licm.pass "licm")

(* --- pipeline ----------------------------------------------------------- *)

let test_pipeline_full () =
  let program = lower devirt_src in
  let before = run_out program in
  let config =
    { Opt.Pipeline.oracle_kind = Opt.Pipeline.Osm_field_type_refs;
      world = Tbaa.World.Closed;
      passes =
        { Opt.Pass_manager.Config.none with
          Opt.Pass_manager.Config.devirt_inline = true; rle = true };
      jobs = 1 }
  in
  let reports =
    Opt.Pass_manager.run
      (Opt.Pipeline.context_of_config config)
      program
      (Opt.Pipeline.schedule_of_config config)
  in
  Alcotest.(check bool) "devirt ran" true (Opt.Pass_manager.ran "devirt" reports);
  Alcotest.(check string) "behaviour preserved" before (run_out program)

(* --- pass manager ------------------------------------------------------ *)

(* RLE's (hoisted, eliminated, shortened), summed over every execution. *)
let rle_triple reports =
  let sum = Opt.Pass_manager.sum_stat "rle" in
  (sum "hoisted" reports, sum "eliminated" reports, sum "shortened" reports)

let triple = Alcotest.(triple int int int)

(* Counts pinned from the seed pipeline on the benchmark suite: the
   pass-manager rewrite must reproduce them exactly. *)
let test_passmgr_seed_counts () =
  let w name = Workloads.Suite.find name in
  let sm_cfg = Harness.Runner.rle_with Opt.Pipeline.Osm_field_type_refs in
  let _, reports = Harness.Runner.prepare (w "m3cg") sm_cfg in
  Alcotest.check triple "m3cg rle:SM" (4, 15, 17) (rle_triple reports);
  let _, reports =
    Harness.Runner.prepare (w "pp") { sm_cfg with Harness.Runner.copyprop = true }
  in
  Alcotest.check triple "pp rle:SM+cp" (3, 9, 0) (rle_triple reports);
  let _, reports =
    Harness.Runner.prepare (w "format")
      { Harness.Runner.base with Harness.Runner.minv = true }
  in
  Alcotest.(check bool) "format minv ran devirt and inline" true
    (Opt.Pass_manager.ran "devirt" reports
    && Opt.Pass_manager.ran "inline" reports);
  Alcotest.(check int) "format minv resolved" 0
    (Opt.Pass_manager.sum_stat "devirt" "resolved" reports);
  Alcotest.(check int) "format minv unresolved" 0
    (Opt.Pass_manager.first_stat "devirt" "unresolved" reports);
  Alcotest.(check int) "format minv inlined" 9
    (Opt.Pass_manager.sum_stat "inline" "inlined" reports);
  let _, reports =
    Harness.Runner.prepare (w "dformat") { sm_cfg with Harness.Runner.minv = true }
  in
  Alcotest.check triple "dformat rle:SM+minv" (10, 20, 2) (rle_triple reports);
  Alcotest.(check int) "dformat minv unresolved (first leg)" 6
    (Opt.Pass_manager.first_stat "devirt" "unresolved" reports)

(* The seed pipeline spliced a second RLE harvest into the first run's
   mutable record, so any aggregation that walked both saw the second leg
   twice. Reports are immutable: each execution contributes exactly once,
   and aggregation is reproducible. *)
let test_reports_no_double_counting () =
  let w = Workloads.Suite.find "pp" in
  let config =
    { (Harness.Runner.rle_with Opt.Pipeline.Osm_field_type_refs) with
      Harness.Runner.copyprop = true }
  in
  let _, reports = Harness.Runner.prepare w config in
  let rle_reports = Opt.Pass_manager.reports_for "rle" reports in
  Alcotest.(check bool) "RLE ran more than once" true
    (List.length rle_reports >= 2);
  let per_report =
    List.fold_left
      (fun acc r ->
        acc + Opt.Pass.stat r "hoisted" + Opt.Pass.stat r "eliminated"
        + Opt.Pass.stat r "shortened")
      0 rle_reports
  in
  let aggregate =
    Opt.Pass_manager.sum_stat "rle" "hoisted" reports
    + Opt.Pass_manager.sum_stat "rle" "eliminated" reports
    + Opt.Pass_manager.sum_stat "rle" "shortened" reports
  in
  Alcotest.(check int) "legs sum exactly once" per_report aggregate;
  Alcotest.(check int) "aggregation is stable" aggregate
    (Opt.Pass_manager.sum_stat "rle" "hoisted" reports
    + Opt.Pass_manager.sum_stat "rle" "eliminated" reports
    + Opt.Pass_manager.sum_stat "rle" "shortened" reports)

let test_passmgr_cache_hit_rate () =
  let w = Workloads.Suite.find "m3cg" in
  let _, reports =
    Harness.Runner.prepare w
      (Harness.Runner.rle_with Opt.Pipeline.Osm_field_type_refs)
  in
  let c = Opt.Pass_manager.oracle_counters reports in
  Alcotest.(check bool) "oracle was queried" true
    (Tbaa.Oracle_cache.queries c > 0);
  Alcotest.(check bool) "cache hit rate above 50%" true
    (Tbaa.Oracle_cache.hit_rate c > 0.5)

(* --- effect index -------------------------------------------------------- *)

(* An index answers the same whatever asked it first: a view over an index
   already warmed by another view (half the cells, in reverse order, so
   rows grow and cell ids differ) and by every instruction's write and read
   sets yields exactly what a fresh index asked about that one instruction
   alone yields, for every instruction of every workload. *)
let test_mem_index_shared_answers () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let program = Workloads.Workload.lower w in
      let ctx = Opt.Pass.create () in
      let oracle = Opt.Pass.oracle ctx program
      and modref = Opt.Pass.modref ctx program in
      List.iter
        (fun (proc : Cfg.proc) ->
          let paths = ref [] in
          Cfg.iter_instrs proc (fun _ i ->
              match i with
              | Instr.Iload (_, ap) | Instr.Istore (ap, _) ->
                paths := List.rev_append (Apath.prefixes ap) !paths
              | _ -> ());
          let paths = List.sort_uniq Apath.compare !paths in
          let warmed = Opt.Mem_index.create oracle modref in
          let half = List.filteri (fun k _ -> k mod 2 = 0) paths in
          let warm = Opt.Mem_index.view warmed (Array.of_list (List.rev half)) in
          Cfg.iter_instrs proc (fun _ i ->
              ignore (Opt.Mem_index.writes warm i);
              ignore (Opt.Mem_index.reads warm i));
          let all = Array.of_list paths in
          let shared = Opt.Mem_index.view warmed all in
          let fresh () =
            Opt.Mem_index.view (Opt.Mem_index.create oracle modref) all
          in
          Cfg.iter_instrs proc (fun _ i ->
              let label what =
                Format.asprintf "%s %s: %s {%a}" w.Workloads.Workload.name
                  (Ident.name proc.Cfg.pr_name) what Instr.pp i
              in
              Alcotest.(check bool) (label "writes") true
                (Bitset.equal
                   (Opt.Mem_index.writes shared i)
                   (Opt.Mem_index.writes (fresh ()) i));
              Alcotest.(check bool) (label "reads") true
                (Bitset.equal
                   (Opt.Mem_index.reads shared i)
                   (Opt.Mem_index.reads (fresh ()) i))))
        program.Cfg.prog_procs)
    Workloads.Suite.all

let () =
  Alcotest.run "opt"
    [ ( "modref",
        [ Alcotest.test_case "transitive" `Quick test_modref_transitive;
          Alcotest.test_case "kills across calls" `Quick
            test_modref_kills_loads_across_calls ] );
      ( "rle",
        [ Alcotest.test_case "figure 6: hoist" `Quick test_rle_hoists_invariant_prefix;
          Alcotest.test_case "figure 7: prefix cse" `Quick test_rle_cse_prefix;
          Alcotest.test_case "full cse" `Quick test_rle_cse_full;
          Alcotest.test_case "store forwarding" `Quick test_rle_store_forwarding;
          Alcotest.test_case "killed by alias" `Quick test_rle_killed_by_may_alias_store;
          Alcotest.test_case "independent store" `Quick
            test_rle_not_killed_by_independent_store;
          Alcotest.test_case "precision ordering" `Quick
            test_rle_precision_ordering_on_counts;
          Alcotest.test_case "conditional kept" `Quick test_rle_conditional_not_eliminated ] );
      ( "devirt/inline",
        [ Alcotest.test_case "monomorphic resolved" `Quick test_devirt_resolves_monomorphic;
          Alcotest.test_case "polymorphic kept" `Quick test_devirt_keeps_polymorphic;
          Alcotest.test_case "inline small" `Quick test_inline_small_proc;
          Alcotest.test_case "inline recursion" `Quick test_inline_respects_recursion;
          Alcotest.test_case "inline VAR param" `Quick test_inline_byref_param ] );
      ( "future work",
        [ Alcotest.test_case "PRE recovers conditional" `Quick
            test_pre_recovers_conditional;
          Alcotest.test_case "PRE profitability guard" `Quick
            test_pre_skips_unprofitable;
          Alcotest.test_case "copyprop + breakup" `Quick
            test_copyprop_enables_breakup_recovery;
          Alcotest.test_case "copyprop kill" `Quick
            test_copyprop_respects_redefinition ] );
      ( "dce",
        [ Alcotest.test_case "dead chain" `Quick test_dce_removes_dead_chain;
          Alcotest.test_case "effects kept" `Quick test_dce_keeps_effects;
          Alcotest.test_case "idempotent" `Quick test_dce_fixpoint_on_workload ] );
      ( "dse",
        [ Alcotest.test_case "removes overwritten" `Quick
            test_dse_removes_overwritten_store;
          Alcotest.test_case "kept by aliasing load" `Quick
            test_dse_kept_by_may_alias_load;
          Alcotest.test_case "kept by reading call" `Quick
            test_dse_kept_by_reading_call;
          Alcotest.test_case "kept by prefix store" `Quick
            test_dse_kept_by_prefix_store;
          Alcotest.test_case "kept by redirecting call" `Quick
            test_dse_kept_by_redirecting_call ] );
      ( "effect index",
        [ Alcotest.test_case "shared answers match a fresh index" `Quick
            test_mem_index_shared_answers ] );
      ( "slf",
        [ Alcotest.test_case "forwards stored atom" `Quick
            test_slf_forwards_stored_atom;
          Alcotest.test_case "blocked by supertype store" `Quick
            test_slf_blocked_by_supertype_store;
          Alcotest.test_case "blocked by byref atom write" `Quick
            test_slf_blocked_by_byref_atom_write ] );
      ( "licm",
        [ Alcotest.test_case "hoists invariant load" `Quick
            test_licm_hoists_invariant_load;
          Alcotest.test_case "blocked by modding call" `Quick
            test_licm_blocked_by_modding_call ] );
      ( "claims",
        [ Alcotest.test_case "clients record kinds" `Quick
            test_clients_record_claim_kinds ] );
      ( "pipeline",
        [ Alcotest.test_case "full pipeline" `Quick test_pipeline_full ] );
      ( "pass manager",
        [ Alcotest.test_case "seed counts reproduced" `Quick
            test_passmgr_seed_counts;
          Alcotest.test_case "no double counting" `Quick
            test_reports_no_double_counting;
          Alcotest.test_case "oracle cache hit rate" `Quick
            test_passmgr_cache_hit_rate ] ) ]
