(* Tests for the IR layer: lowering shapes, access paths, dominators,
   loops, dataflow, and the call graph. *)

open Support
open Minim3
open Ir

let lower src = Lower.lower_string ~file:"test" src

let proc_named program name = Cfg.find_proc program (Ident.intern name)

let loads_of proc =
  let acc = ref [] in
  Cfg.iter_instrs proc (fun _ i ->
      match i with Instr.Iload (_, ap) -> acc := ap :: !acc | _ -> ());
  List.rev !acc

let stores_of proc =
  let acc = ref [] in
  Cfg.iter_instrs proc (fun _ i ->
      match i with Instr.Istore (ap, _) -> acc := ap :: !acc | _ -> ());
  List.rev !acc

(* --- access paths ----------------------------------------------------- *)

let test_apath_shapes () =
  let program =
    lower
      {|
MODULE M;
TYPE
  Inner = RECORD w: INTEGER; END;
  Node = OBJECT val: Inner; next: Node; END;
VAR head: Node;
PROCEDURE P () =
  VAR n: INTEGER;
  BEGIN
    n := head.next.val.w;
  END P;
BEGIN END M.
|}
  in
  let p = proc_named program "P" in
  match loads_of p with
  | [ ap ] ->
    Alcotest.(check string) "full path kept in one load" "head.next.val.w"
      (Apath.to_string ap);
    Alcotest.(check int) "three selectors" 3 (Apath.length ap);
    Alcotest.(check int) "three prefixes" 3 (List.length (Apath.prefixes ap))
  | aps ->
    Alcotest.fail
      (Printf.sprintf "expected one load, got %d" (List.length aps))

let test_apath_equality_on_indices () =
  let program =
    lower
      {|
MODULE M;
TYPE V = REF ARRAY OF INTEGER;
VAR v: V;
PROCEDURE P (i: INTEGER; j: INTEGER) =
  VAR n: INTEGER;
  BEGIN
    n := v[i];
    n := v[i];
    n := v[j];
  END P;
BEGIN END M.
|}
  in
  let p = proc_named program "P" in
  match loads_of p with
  | [ a; b; c ] ->
    Alcotest.(check bool) "v[i] = v[i]" true (Apath.equal a b);
    Alcotest.(check bool) "v[i] <> v[j]" false (Apath.equal a c)
  | _ -> Alcotest.fail "expected three loads"

let test_byref_formal_is_deref () =
  let program =
    lower
      {|
MODULE M;
PROCEDURE P (VAR x: INTEGER) =
  VAR n: INTEGER;
  BEGIN
    n := x;
    x := n + 1;
  END P;
BEGIN END M.
|}
  in
  let p = proc_named program "P" in
  (match loads_of p with
  | [ ap ] -> (
    match Apath.last ap with
    | Some (Apath.Sderef t) ->
      Alcotest.(check int) "deref of INTEGER" Types.tid_int t
    | _ -> Alcotest.fail "expected a dereference path")
  | _ -> Alcotest.fail "expected one load");
  match stores_of p with
  | [ ap ] ->
    Alcotest.(check bool) "store through deref" true
      (match Apath.last ap with Some (Apath.Sderef _) -> true | _ -> false)
  | _ -> Alcotest.fail "expected one store"

let test_with_alias_takes_address () =
  let program =
    lower
      {|
MODULE M;
TYPE R = RECORD x: INTEGER; END; PR = REF R;
VAR p: PR;
PROCEDURE P () =
  BEGIN
    WITH slot = p.x DO
      slot := 3;
    END;
  END P;
BEGIN END M.
|}
  in
  let p = proc_named program "P" in
  let addrs = ref [] in
  Cfg.iter_instrs p (fun _ i ->
      match i with Instr.Iaddr (_, ap) -> addrs := ap :: !addrs | _ -> ());
  match !addrs with
  | [ ap ] ->
    Alcotest.(check bool) "address of a field" true
      (match Apath.last ap with Some (Apath.Sfield _) -> true | _ -> false)
  | _ -> Alcotest.fail "expected exactly one Iaddr"

let test_short_circuit_blocks () =
  let program =
    lower
      {|
MODULE M;
TYPE Node = OBJECT val: INTEGER; END;
VAR n: Node;
PROCEDURE P (): BOOLEAN =
  BEGIN
    RETURN (n # NIL) AND (n.val > 0);
  END P;
BEGIN END M.
|}
  in
  let p = proc_named program "P" in
  (* The n.val load must be control-dependent on the NIL test: it must not
     be in the entry block. *)
  let entry = Cfg.block p p.Cfg.pr_entry in
  let entry_has_load =
    List.exists (function Instr.Iload _ -> true | _ -> false) entry.Cfg.b_instrs
  in
  Alcotest.(check bool) "no load in entry block" false entry_has_load;
  Alcotest.(check bool) "several blocks" true (Cfg.n_blocks p >= 3)

(* --- dominators / loops ----------------------------------------------- *)

let diamond_proc () =
  (* Build a diamond manually: 0 -> 1,2 -> 3 *)
  let proc =
    { Cfg.pr_name = Ident.intern "diamond"; pr_params = [];
      pr_ret = None; pr_blocks = Vec.create (); pr_entry = 0; pr_locals = [] }
  in
  let b0 = Cfg.new_block proc (Instr.Treturn None) in
  let b1 = Cfg.new_block proc (Instr.Treturn None) in
  let b2 = Cfg.new_block proc (Instr.Treturn None) in
  let b3 = Cfg.new_block proc (Instr.Treturn None) in
  b0.Cfg.b_term <- Instr.Tbranch (Reg.Abool true, b1.Cfg.b_id, b2.Cfg.b_id);
  b1.Cfg.b_term <- Instr.Tjump b3.Cfg.b_id;
  b2.Cfg.b_term <- Instr.Tjump b3.Cfg.b_id;
  proc

let test_dominators_diamond () =
  let proc = diamond_proc () in
  let dom = Dom.compute proc in
  Alcotest.(check bool) "entry dominates all" true
    (Dom.dominates dom 0 3 && Dom.dominates dom 0 1 && Dom.dominates dom 0 2);
  Alcotest.(check bool) "1 does not dominate 3" false (Dom.dominates dom 1 3);
  Alcotest.(check (option int)) "idom of 3 is 0" (Some 0) (Dom.idom dom 3);
  Alcotest.(check bool) "reflexive" true (Dom.dominates dom 3 3)

let test_loops_in_while () =
  let program =
    lower
      {|
MODULE M;
PROCEDURE P (k: INTEGER): INTEGER =
  VAR s: INTEGER;
  BEGIN
    s := 0;
    WHILE s < k DO
      s := s + 1;
    END;
    RETURN s;
  END P;
BEGIN END M.
|}
  in
  let p = proc_named program "P" in
  let dom = Dom.compute p in
  match Loops.find p dom with
  | [ loop ] ->
    Alcotest.(check bool) "header in body" true
      (Support.Bitset.mem loop.Loops.body loop.Loops.header);
    Alcotest.(check int) "one latch" 1 (List.length loop.Loops.latches);
    List.iter
      (fun latch ->
        Alcotest.(check bool) "header executes every iteration" true
          (Loops.executes_every_iteration p dom loop latch |> fun _ ->
           Loops.executes_every_iteration p dom loop loop.Loops.header))
      loop.Loops.latches
  | l -> Alcotest.fail (Printf.sprintf "expected one loop, got %d" (List.length l))

let test_preheader_insertion () =
  let program =
    lower
      {|
MODULE M;
PROCEDURE P (k: INTEGER): INTEGER =
  VAR s: INTEGER;
  BEGIN
    s := 0;
    WHILE s < k DO s := s + 1; END;
    RETURN s;
  END P;
BEGIN END M.
|}
  in
  let p = proc_named program "P" in
  let dom = Dom.compute p in
  let loop = List.hd (Loops.find p dom) in
  let pre = Loops.ensure_preheader p loop in
  let preds = Cfg.predecessors p in
  let outside =
    List.filter
      (fun q -> not (Support.Bitset.mem loop.Loops.body q))
      preds.(loop.Loops.header)
  in
  Alcotest.(check (list int)) "unique outside predecessor" [ pre ] outside

(* --- dataflow ---------------------------------------------------------- *)

let test_dataflow_must_meet () =
  (* On the diamond, a fact gen'd in only one arm must not reach the join
     under Must, but must reach it under May. *)
  let proc = diamond_proc () in
  let gen b =
    let s = Support.Bitset.create 1 in
    if b = 1 then Support.Bitset.add s 0;
    s
  in
  let kill _ = Support.Bitset.create 1 in
  let must =
    Dataflow.run ~proc ~universe:1 ~confluence:Dataflow.Must ~gen ~kill
      ~entry_fact:(Support.Bitset.create 1) ()
  in
  let may =
    Dataflow.run ~proc ~universe:1 ~confluence:Dataflow.May ~gen ~kill
      ~entry_fact:(Support.Bitset.create 1) ()
  in
  Alcotest.(check bool) "must: not available at join" false
    (Support.Bitset.mem must.Dataflow.inn.(3) 0);
  Alcotest.(check bool) "may: available at join" true
    (Support.Bitset.mem may.Dataflow.inn.(3) 0)

let test_dataflow_backward_liveness () =
  (* Liveness-style backward problem over a real loop: a fact generated
     (used) in the loop body must flow backward through the header to the
     procedure entry, and a kill (definition) in the header must stop it. *)
  let program =
    lower
      {|
MODULE M;
PROCEDURE P (k: INTEGER): INTEGER =
  VAR s: INTEGER;
  BEGIN
    s := 0;
    WHILE s < k DO s := s + 1; END;
    RETURN s;
  END P;
BEGIN END M.
|}
  in
  let proc = proc_named program "P" in
  let dom = Dom.compute proc in
  let loop = List.hd (Loops.find proc dom) in
  let body =
    (* a loop block that is not the header *)
    let b = ref (-1) in
    Support.Bitset.iter (fun q -> if q <> loop.Loops.header then b := q)
      loop.Loops.body;
    !b
  in
  Alcotest.(check bool) "loop has a non-header body block" true (body >= 0);
  let gen b =
    let s = Support.Bitset.create 1 in
    if b = body then Support.Bitset.add s 0;
    s
  in
  let no_kill _ = Support.Bitset.create 1 in
  let live =
    Dataflow.run_backward ~proc ~universe:1 ~confluence:Dataflow.May ~gen
      ~kill:no_kill ~exit_fact:(Support.Bitset.create 1) ()
  in
  Alcotest.(check bool) "live across the back edge" true
    (Support.Bitset.mem live.Dataflow.out.(loop.Loops.header) 0);
  Alcotest.(check bool) "live at procedure entry" true
    (Support.Bitset.mem live.Dataflow.inn.(proc.Cfg.pr_entry) 0);
  Alcotest.(check bool) "iteration count recorded" true
    (live.Dataflow.iterations >= 2);
  let kill_at_header b =
    let s = Support.Bitset.create 1 in
    if b = loop.Loops.header then Support.Bitset.add s 0;
    s
  in
  let before = Dataflow.counters () in
  let killed =
    Dataflow.run_backward ~proc ~universe:1 ~confluence:Dataflow.May ~gen
      ~kill:kill_at_header ~exit_fact:(Support.Bitset.create 1) ()
  in
  let d = Dataflow.diff_counters ~before ~after:(Dataflow.counters ()) in
  Alcotest.(check bool) "killed in header: dead at entry" false
    (Support.Bitset.mem killed.Dataflow.inn.(proc.Cfg.pr_entry) 0);
  Alcotest.(check int) "counters: one solve attributed" 1 d.Dataflow.solves;
  Alcotest.(check int) "counters: sweeps attributed" killed.Dataflow.iterations
    d.Dataflow.iterations

(* --- call graph -------------------------------------------------------- *)

let test_callgraph_virtual () =
  let program =
    lower
      {|
MODULE M;
TYPE
  A = OBJECT METHODS m (): INTEGER := ImplA; END;
  B = A OBJECT OVERRIDES m := ImplB; END;
VAR a: A;
PROCEDURE ImplA (self: A): INTEGER = BEGIN RETURN 1; END ImplA;
PROCEDURE ImplB (self: A): INTEGER = BEGIN RETURN 2; END ImplB;
PROCEDURE P (): INTEGER = BEGIN RETURN a.m (); END P;
BEGIN END M.
|}
  in
  let p = proc_named program "P" in
  let callees = Callgraph.callees program p in
  Alcotest.(check (list string)) "both implementations possible"
    [ "ImplA"; "ImplB" ]
    (List.sort compare (List.map Ident.name (Ident.Set.elements callees)))

let test_callgraph_recursion () =
  let program =
    lower
      {|
MODULE M;
PROCEDURE Even (n: INTEGER): BOOLEAN =
  BEGIN
    IF n = 0 THEN RETURN TRUE; END;
    RETURN Odd (n - 1);
  END Even;
PROCEDURE Odd (n: INTEGER): BOOLEAN =
  BEGIN
    IF n = 0 THEN RETURN FALSE; END;
    RETURN Even (n - 1);
  END Odd;
PROCEDURE Leaf (): INTEGER = BEGIN RETURN 7; END Leaf;
BEGIN END M.
|}
  in
  Alcotest.(check bool) "mutual recursion detected" true
    (Callgraph.is_recursive program (Ident.intern "Even"));
  Alcotest.(check bool) "leaf is not recursive" false
    (Callgraph.is_recursive program (Ident.intern "Leaf"))

(* Two domains lower different generated programs at once, round after
   round, straight into the shared [Apath]/[Aloc] intern tables (as the
   daemon's workers and the parallel pass engine do). Every node must keep
   a unique id, and re-interning its key must return the same node. *)
let test_intern_two_domains () =
  let rounds = 6 in
  let ready = Atomic.make 0 in
  let worker first () =
    Atomic.incr ready;
    while Atomic.get ready < 2 do
      Domain.cpu_relax ()
    done;
    List.concat_map
      (fun r ->
        let program =
          Lower.lower_string ~file:"gen" (Gen_prog.generate (first + (2 * r)))
        in
        (* Re-rooting every path at variables no program has yet makes
           each intern a miss, so both domains add to the tables at once
           (the same keys: the offsets do not depend on the domain). *)
        let reroot k p =
          let b = Apath.base p in
          Apath.make
            { b with Reg.v_id = b.Reg.v_id + (100_000 * ((r * 16) + k + 1)) }
            (Apath.sels p)
        in
        List.concat_map
          (fun (m : Tbaa.Facts.memref) ->
            List.concat_map
              (fun p ->
                List.map
                  (fun p ->
                    let c = Tbaa.Kills.store_class p in
                    (p, c, Tbaa.Aloc.id c))
                  (p :: List.init 16 (fun k -> reroot k p)))
              (Apath.prefixes m.Tbaa.Facts.mr_path))
          (Tbaa.Facts.collect program).Tbaa.Facts.memrefs)
      (List.init rounds Fun.id)
  in
  let a = Domain.spawn (worker 1) and b = Domain.spawn (worker 2) in
  let seen = List.rev_append (Domain.join a) (Domain.join b) in
  Alcotest.(check bool) "both domains interned paths" true (seen <> []);
  let paths = Hashtbl.create 1024 and classes = Hashtbl.create 256 in
  List.iter
    (fun (p, c, cid) ->
      (match Hashtbl.find_opt paths (Apath.id p) with
      | Some q ->
        Alcotest.(check bool) "one path per id" true (p == q)
      | None -> Hashtbl.add paths (Apath.id p) p);
      Alcotest.(check bool) "re-interned path is the same node" true
        (Apath.make (Apath.base p) (Apath.sels p) == p);
      (match Hashtbl.find_opt classes cid with
      | Some d ->
        Alcotest.(check bool) "one class per id" true (Tbaa.Aloc.equal c d)
      | None -> Hashtbl.add classes cid c);
      Alcotest.(check int) "re-interned class keeps its id" cid
        (Tbaa.Aloc.id c))
    seen

let () =
  Alcotest.run "ir"
    [ ( "apath",
        [ Alcotest.test_case "shapes" `Quick test_apath_shapes;
          Alcotest.test_case "index equality" `Quick test_apath_equality_on_indices;
          Alcotest.test_case "byref formals" `Quick test_byref_formal_is_deref;
          Alcotest.test_case "WITH takes address" `Quick test_with_alias_takes_address;
          Alcotest.test_case "short circuit" `Quick test_short_circuit_blocks;
          Alcotest.test_case "two domains intern" `Quick test_intern_two_domains
        ] );
      ( "dom/loops",
        [ Alcotest.test_case "diamond dominators" `Quick test_dominators_diamond;
          Alcotest.test_case "while loop" `Quick test_loops_in_while;
          Alcotest.test_case "preheader" `Quick test_preheader_insertion ] );
      ( "dataflow",
        [ Alcotest.test_case "must vs may" `Quick test_dataflow_must_meet;
          Alcotest.test_case "backward liveness with loop" `Quick
            test_dataflow_backward_liveness ] );
      ( "callgraph",
        [ Alcotest.test_case "virtual targets" `Quick test_callgraph_virtual;
          Alcotest.test_case "recursion" `Quick test_callgraph_recursion ] ) ]
