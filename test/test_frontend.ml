(* Lexer, parser, and typechecker tests, including the paper's Figure 1
   type hierarchy and Figure 3 assignment example. *)

open Support
open Minim3

let tokens_of s = List.map fst (Lexer.to_list (Lexer.scan ~file:"t" s))

let token = Alcotest.testable (fun ppf t -> Fmt.string ppf (Token.to_string t)) Token.equal

let test_lex_basics () =
  Alcotest.(check (list token))
    "operators"
    [ Token.IDENT "a"; Token.ASSIGN; Token.IDENT "b"; Token.CARET; Token.DOT;
      Token.IDENT "f"; Token.LBRACKET; Token.INT 3; Token.RBRACKET; Token.SEMI;
      Token.EOF ]
    (tokens_of "a := b^.f[3];")

let test_lex_keywords_vs_idents () =
  Alcotest.(check (list token))
    "keywords"
    [ Token.WHILE; Token.IDENT "WhileLoop"; Token.DO; Token.END; Token.EOF ]
    (tokens_of "WHILE WhileLoop DO END")

let test_lex_comments_nest () =
  Alcotest.(check (list token))
    "nested comments"
    [ Token.INT 1; Token.INT 2; Token.EOF ]
    (tokens_of "1 (* outer (* inner *) still out *) 2")

let test_lex_char_and_string () =
  Alcotest.(check (list token))
    "literals"
    [ Token.CHARLIT 'x'; Token.CHARLIT '\n'; Token.STRING "hi\tthere"; Token.EOF ]
    (tokens_of "'x' '\\n' \"hi\\tthere\"")

let test_lex_dotdot () =
  Alcotest.(check (list token))
    "ranges"
    [ Token.LBRACKET; Token.INT 0; Token.DOTDOT; Token.INT 9; Token.RBRACKET;
      Token.EOF ]
    (tokens_of "[0..9]")

let test_lex_error () =
  match Lexer.scan ~file:"t" "a ? b" with
  | exception Diag.Compile_error _ -> ()
  | _ -> Alcotest.fail "expected a lex error"

(* --- parser --------------------------------------------------------- *)

let figure1 =
  {|
MODULE Figure1;
TYPE
  T = OBJECT f, g: T; END;
  S1 = T OBJECT END;
  S2 = T OBJECT END;
  S3 = T OBJECT END;
VAR
  t: T;
  s: S1;
  u: S2;
BEGIN
END Figure1.
|}

let figure3 =
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
BEGIN
  s1 := NEW (S1);
  s2 := NEW (S2);
  s3 := NEW (S3);
  t := s1; (* Statement 1 *)
  t := s2; (* Statement 2 *)
END Figure3.
|}

let test_parse_figure1 () =
  let m = Parser.parse_module ~file:"fig1" figure1 in
  Alcotest.(check string) "module name" "Figure1" (Ident.name m.Ast.mod_name);
  Alcotest.(check int) "decl count" 7 (List.length m.Ast.mod_decls)

let test_parse_expr_precedence () =
  let e = Parser.parse_expr_string "1 + 2 * 3" in
  match e.Ast.e_desc with
  | Ast.Binop (Ast.Add, _, { Ast.e_desc = Ast.Binop (Ast.Mul, _, _); _ }) -> ()
  | _ -> Alcotest.fail "expected 1 + (2 * 3)"

let test_parse_access_path () =
  (* The paper's canonical AP shape: a^.b[i].c *)
  let e = Parser.parse_expr_string "a^.b[i].c" in
  match e.Ast.e_desc with
  | Ast.Field ({ Ast.e_desc = Ast.Index ({ Ast.e_desc = Ast.Field ({ Ast.e_desc = Ast.Deref _; _ }, _); _ }, _); _ }, c)
    when Ident.name c = "c" -> ()
  | _ -> Alcotest.fail "unexpected access path shape"

let test_parse_relations_nonassoc () =
  (* Relations are non-associative, as in Modula-3: chaining needs parens. *)
  (match Parser.parse_expr_string "a < b = TRUE" with
  | exception Diag.Compile_error _ -> ()
  | _ -> Alcotest.fail "expected chained relation to be rejected");
  match (Parser.parse_expr_string "(a < b) = TRUE").Ast.e_desc with
  | Ast.Binop (Ast.Eq, _, _) -> ()
  | _ -> Alcotest.fail "expected = at top"

let test_parse_object_with_methods () =
  let src =
    {|
MODULE M;
TYPE
  Shape = OBJECT
    area: INTEGER;
  METHODS
    grow (by: INTEGER): INTEGER := GrowShape;
  END;
  Circle = Shape OBJECT
  OVERRIDES
    grow := GrowCircle;
  END;
PROCEDURE GrowShape (self: Shape; by: INTEGER): INTEGER =
  BEGIN
    self.area := self.area + by;
    RETURN self.area;
  END GrowShape;
PROCEDURE GrowCircle (self: Shape; by: INTEGER): INTEGER =
  BEGIN
    self.area := self.area + 2 * by;
    RETURN self.area;
  END GrowCircle;
VAR c: Circle;
BEGIN
  c := NEW (Circle);
  PrintInt (c.grow (3));
END M.
|}
  in
  let m = Parser.parse_module ~file:"m" src in
  Alcotest.(check int) "decls" 5 (List.length m.Ast.mod_decls)

let test_parse_decl_order_preserved () =
  (* Sections must come out in declaration order — global initializers run
     in that order. *)
  let m =
    Parser.parse_module ~file:"ord"
      {|
MODULE M;
TYPE A = INTEGER; B = INTEGER;
VAR x: INTEGER := 1; y: INTEGER := 2;
CONST C = 3; D = 4;
BEGIN
END M.
|}
  in
  let names =
    List.map
      (function
        | Ast.Dtype (n, _, _) -> Ident.name n
        | Ast.Dconst c -> Ident.name c.Ast.c_name
        | Ast.Dvar v -> Ident.name v.Ast.v_name
        | Ast.Dproc p -> Ident.name p.Ast.pr_name)
      m.Ast.mod_decls
  in
  Alcotest.(check (list string)) "order" [ "A"; "B"; "x"; "y"; "C"; "D" ] names

let test_parse_error_location () =
  match Parser.parse_module ~file:"bad" "MODULE X;\nVAR a: ; BEGIN END X." with
  | exception Diag.Compile_error d ->
    Alcotest.(check int) "error on line 2" 2 d.Diag.loc.Loc.line
  | _ -> Alcotest.fail "expected parse error"

(* --- typechecker ---------------------------------------------------- *)

let check src = Typecheck.check_string ~file:"test" src

let expect_error ?(substring = "") src =
  match check src with
  | exception Diag.Compile_error d ->
    if substring <> "" then
      let msg = d.Diag.message in
      let contains =
        let needle = substring and hay = msg in
        let nl = String.length needle and hl = String.length hay in
        let rec go i = i + nl <= hl && (String.sub hay i nl = needle || go (i + 1)) in
        go 0
      in
      if not contains then
        Alcotest.fail
          (Printf.sprintf "error %S does not mention %S" msg substring)
  | _ -> Alcotest.fail "expected a type error"

let test_check_figure1 () =
  let p = check figure1 in
  let env = p.Tast.tenv in
  let tid_of name = List.assoc (Ident.intern name) p.Tast.type_names in
  let t = tid_of "T" and s1 = tid_of "S1" and s2 = tid_of "S2" in
  Alcotest.(check bool) "S1 <: T" true (Types.subtype env s1 t);
  Alcotest.(check bool) "S2 <: T" true (Types.subtype env s2 t);
  Alcotest.(check bool) "not S1 <: S2" false (Types.subtype env s1 s2);
  Alcotest.(check bool) "not T <: S1" false (Types.subtype env t s1);
  Alcotest.(check bool) "T <: ROOT" true (Types.subtype env t Types.tid_root);
  let subs = Types.subtypes env t in
  Alcotest.(check bool) "Subtypes(T) contains S1, S2, S3, T" true
    (List.length (List.filter (fun u -> Types.is_object env u) subs) = 4)

let test_check_figure3 () =
  let p = check figure3 in
  let main = Option.get (Tast.find_proc p Tast.main_ident) in
  Alcotest.(check int) "five statements" 5 (List.length main.Tast.p_body)

let test_check_subtype_assign () =
  (* t := s1 legal; s1 := t illegal (downcast) *)
  expect_error ~substring:"cannot assign"
    {|
MODULE M;
TYPE T = OBJECT END; S = T OBJECT END;
VAR t: T; s: S;
BEGIN
  t := s;
  s := t;
END M.
|}

let test_check_nil () =
  let p =
    check
      {|
MODULE M;
TYPE T = OBJECT END; P = REF INTEGER;
VAR t: T; p: P;
BEGIN
  t := NIL;
  p := NIL;
END M.
|}
  in
  ignore p

let test_check_var_param_exact_type () =
  expect_error ~substring:"VAR argument"
    {|
MODULE M;
TYPE T = OBJECT END; S = T OBJECT END;
PROCEDURE F (VAR x: T) = BEGIN END F;
VAR s: S;
BEGIN
  F (s);
END M.
|}

let test_check_ref_record_sugar () =
  (* p.f on a REF RECORD desugars to p^.f *)
  let p =
    check
      {|
MODULE M;
TYPE R = RECORD x: INTEGER; END; P = REF R;
VAR p: P;
BEGIN
  p := NEW (P);
  p.x := 3;
  PrintInt (p.x + p^.x);
END M.
|}
  in
  let main = Option.get (Tast.find_proc p Tast.main_ident) in
  match (List.nth main.Tast.p_body 1).Tast.s_desc with
  | Tast.Sassign ({ Tast.desc = Tast.Efield ({ Tast.desc = Tast.Ederef _; _ }, _); _ }, _) -> ()
  | _ -> Alcotest.fail "expected desugared deref+field"

let test_check_open_array () =
  let p =
    check
      {|
MODULE M;
TYPE V = REF ARRAY OF INTEGER;
VAR v: V; n: INTEGER;
BEGIN
  v := NEW (V, 10);
  v[0] := 42;
  n := Number (v);
  PrintInt (v[0] + n);
END M.
|}
  in
  ignore p

let test_check_fixed_array_bounds_decl () =
  expect_error
    {|
MODULE M;
TYPE A = ARRAY [3..9] OF INTEGER;
BEGIN
END M.
|}

let test_check_method_dispatch () =
  let p =
    check
      {|
MODULE M;
TYPE
  Node = OBJECT val: INTEGER; METHODS eval (): INTEGER := EvalNode; END;
  Neg = Node OBJECT OVERRIDES eval := EvalNeg; END;
PROCEDURE EvalNode (self: Node): INTEGER = BEGIN RETURN self.val; END EvalNode;
PROCEDURE EvalNeg (self: Node): INTEGER = BEGIN RETURN 0 - self.val; END EvalNeg;
VAR n: Node;
BEGIN
  n := NEW (Neg);
  n.val := 5;
  PrintInt (n.eval ());
END M.
|}
  in
  let env = p.Tast.tenv in
  let neg = List.assoc (Ident.intern "Neg") p.Tast.type_names in
  let node = List.assoc (Ident.intern "Node") p.Tast.type_names in
  Alcotest.(check (option string))
    "Neg's eval impl" (Some "EvalNeg")
    (Option.map Ident.name (Types.method_impl env neg (Ident.intern "eval")));
  Alcotest.(check (option string))
    "Node's eval impl" (Some "EvalNode")
    (Option.map Ident.name (Types.method_impl env node (Ident.intern "eval")))

let test_check_method_bad_receiver () =
  expect_error ~substring:"receiver"
    {|
MODULE M;
TYPE
  A = OBJECT METHODS m () := Impl; END;
  B = OBJECT END;
PROCEDURE Impl (self: B) = BEGIN END Impl;
BEGIN
END M.
|}

let test_check_recursive_type () =
  let p =
    check
      {|
MODULE M;
TYPE
  List = REF Cell;
  Cell = RECORD head: INTEGER; tail: List; END;
VAR l: List;
BEGIN
  l := NEW (List);
  l.head := 1;
  l.tail := NIL;
END M.
|}
  in
  ignore p

let test_check_cyclic_alias_rejected () =
  expect_error ~substring:"cyclic"
    {|
MODULE M;
TYPE A = B; B = A;
BEGIN
END M.
|}

let test_check_aggregate_assign_rejected () =
  expect_error ~substring:"aggregate"
    {|
MODULE M;
TYPE R = RECORD x: INTEGER; END;
VAR a: R; b: R;
BEGIN
  a := b;
END M.
|}

let test_check_with_alias_and_value () =
  let p =
    check
      {|
MODULE M;
TYPE R = RECORD x: INTEGER; END; P = REF R;
VAR p: P; n: INTEGER;
BEGIN
  p := NEW (P);
  WITH slot = p.x, twice = n + n DO
    slot := twice;
  END;
END M.
|}
  in
  let main = Option.get (Tast.find_proc p Tast.main_ident) in
  match (List.nth main.Tast.p_body 1).Tast.s_desc with
  | Tast.Swith ([ b1; b2 ], _) ->
    Alcotest.(check bool) "slot is an alias" true b1.Tast.wb_alias;
    Alcotest.(check bool) "twice is a value" false b2.Tast.wb_alias
  | _ -> Alcotest.fail "expected WITH"

let test_check_with_value_readonly () =
  expect_error ~substring:"read-only"
    {|
MODULE M;
VAR n: INTEGER;
BEGIN
  WITH v = n + 1 DO
    v := 3;
  END;
END M.
|}

let test_check_for_var_readonly () =
  expect_error ~substring:"read-only"
    {|
MODULE M;
BEGIN
  FOR i := 0 TO 9 DO
    i := 3;
  END;
END M.
|}

let test_check_exit_outside_loop () =
  expect_error ~substring:"EXIT"
    {|
MODULE M;
BEGIN
  EXIT;
END M.
|}

let test_check_branded () =
  let p =
    check
      {|
MODULE M;
TYPE
  Pub = OBJECT x: INTEGER; END;
  Priv = BRANDED "secret" OBJECT y: INTEGER; END;
  PR = BRANDED "pr" REF INTEGER;
VAR a: Pub; b: Priv; r: PR;
BEGIN
  a := NEW (Pub); b := NEW (Priv); r := NEW (PR);
END M.
|}
  in
  let env = p.Tast.tenv in
  let priv = List.assoc (Ident.intern "Priv") p.Tast.type_names in
  match Types.desc env priv with
  | Types.Dobject { Types.obj_brand = Some "secret"; _ } -> ()
  | _ -> Alcotest.fail "expected brand on Priv"

let test_check_const () =
  let p =
    check
      {|
MODULE M;
CONST N = 4 * 10 + 2;
VAR a: ARRAY [0..9] OF INTEGER;
BEGIN
  a[0] := N;
  PrintInt (N);
END M.
|}
  in
  ignore p

let test_check_unknown_name () = expect_error ~substring:"unknown name"
  "MODULE M; BEGIN PrintInt (nope); END M."

let test_check_arity () =
  expect_error ~substring:"argument"
    {|
MODULE M;
PROCEDURE F (a: INTEGER; b: INTEGER) = BEGIN END F;
BEGIN
  F (1);
END M.
|}

(* --- pretty printer -------------------------------------------------- *)

let test_pp_roundtrip_workloads () =
  List.iter
    (fun (w : Workloads.Workload.t) ->
      let src = w.Workloads.Workload.source in
      let printed = Ast_pp.reprint ~file:"w" src in
      (* fixed point: printing is layout-stable *)
      Alcotest.(check string)
        (w.Workloads.Workload.name ^ ": print is a fixed point")
        printed
        (Ast_pp.reprint ~file:"w2" printed);
      (* semantic equivalence on the simulator *)
      let o1 = Sim.Interp.run (Ir.Lower.lower_string ~file:"a" src) in
      let o2 = Sim.Interp.run (Ir.Lower.lower_string ~file:"b" printed) in
      Alcotest.(check string)
        (w.Workloads.Workload.name ^ ": reprint behaves identically")
        o1.Sim.Interp.output o2.Sim.Interp.output)
    Workloads.Suite.all

let test_pp_escapes () =
  let src =
    "MODULE M;\nBEGIN\n  PrintChar ('\\n');\n  Print (\"a\\\"b\\\\c\");\nEND M.\n"
  in
  let printed = Ast_pp.reprint ~file:"esc" src in
  let o1 = Sim.Interp.run (Ir.Lower.lower_string ~file:"a" src) in
  let o2 = Sim.Interp.run (Ir.Lower.lower_string ~file:"b" printed) in
  Alcotest.(check string) "escaped literals survive" o1.Sim.Interp.output
    o2.Sim.Interp.output

(* --- front-end goldens ---------------------------------------------- *)

(* Pinned on the lexer and parser as they stood before the single-pass
   scanner replaced them: tokens, every AST node's location and every
   diagnostic must come out byte-identical. A row changes only if the
   front end's observable output does. *)

let token_lines ~file src =
  let b = Buffer.create 4096 in
  List.iter
    (fun (tok, loc) ->
      Buffer.add_string b (Token.to_string tok);
      Buffer.add_char b ' ';
      Buffer.add_string b (Loc.to_string loc);
      Buffer.add_char b '\n')
    (Lexer.to_list (Lexer.scan ~file src));
  Buffer.contents b

(* One line per node: constructor, names and literal payloads, location. *)
let ast_lines (m : Ast.module_) =
  let b = Buffer.create 4096 in
  let line loc fmt =
    Printf.ksprintf
      (fun s ->
        Buffer.add_string b s;
        Buffer.add_char b ' ';
        Buffer.add_string b (Loc.to_string loc);
        Buffer.add_char b '\n')
      fmt
  in
  let id = Ident.name in
  let opt f = function None -> () | Some x -> f x in
  let rec ty (t : Ast.ty_expr) =
    let l = t.Ast.t_loc in
    match t.Ast.t_desc with
    | Ast.Tname n -> line l "Tname %s" (id n)
    | Ast.Tint -> line l "Tint"
    | Ast.Tbool -> line l "Tbool"
    | Ast.Tchar -> line l "Tchar"
    | Ast.Troot -> line l "Troot"
    | Ast.Tarray (n, e) ->
      line l "Tarray %s" (match n with None -> "open" | Some n -> string_of_int n);
      ty e
    | Ast.Trecord fs ->
      line l "Trecord";
      List.iter field fs
    | Ast.Tref (brand, e) ->
      line l "Tref %s" (Option.value brand ~default:"-");
      ty e
    | Ast.Tobject o ->
      line l "Tobject %s" (Option.value o.Ast.o_brand ~default:"-");
      opt ty o.Ast.o_super;
      List.iter field o.Ast.o_fields;
      List.iter
        (fun (md : Ast.method_decl) ->
          line md.Ast.m_loc "method %s %s" (id md.Ast.m_name)
            (match md.Ast.m_impl with None -> "-" | Some i -> id i);
          List.iter param md.Ast.m_params;
          opt ty md.Ast.m_ret)
        o.Ast.o_methods;
      List.iter (fun (n, i, l) -> line l "override %s %s" (id n) (id i))
        o.Ast.o_overrides
  and field (f : Ast.field_decl) =
    line f.Ast.f_loc "field %s" (id f.Ast.f_name);
    ty f.Ast.f_ty
  and param (p : Ast.param_decl) =
    line p.Ast.p_loc "param %s %s" (id p.Ast.p_name)
      (match p.Ast.p_mode with Ast.By_value -> "value" | Ast.By_ref -> "var");
    ty p.Ast.p_ty
  in
  let rec expr (e : Ast.expr) =
    let l = e.Ast.e_loc in
    match e.Ast.e_desc with
    | Ast.Int_lit n -> line l "Int %d" n
    | Ast.Bool_lit v -> line l "Bool %b" v
    | Ast.Char_lit c -> line l "Char %C" c
    | Ast.String_lit s -> line l "String %S" s
    | Ast.Nil -> line l "Nil"
    | Ast.Name n -> line l "Name %s" (id n)
    | Ast.Field (x, f) ->
      line l "Field %s" (id f);
      expr x
    | Ast.Deref x ->
      line l "Deref";
      expr x
    | Ast.Index (x, i) ->
      line l "Index";
      expr x;
      expr i
    | Ast.Binop (op, x, y) ->
      line l "Binop %s" (Ast.binop_to_string op);
      expr x;
      expr y
    | Ast.Unop (op, x) ->
      line l "Unop %s" (Ast.unop_to_string op);
      expr x
    | Ast.Call (f, args) ->
      line l "Call %d" (List.length args);
      expr f;
      List.iter expr args
    | Ast.New (t, args) ->
      line l "New %d" (List.length args);
      ty t;
      List.iter expr args
  in
  let rec stmt (s : Ast.stmt) =
    let l = s.Ast.s_loc in
    match s.Ast.s_desc with
    | Ast.Assign (x, y) ->
      line l "Assign";
      expr x;
      expr y
    | Ast.Call_stmt e ->
      line l "Call_stmt";
      expr e
    | Ast.If (branches, else_) ->
      line l "If %d" (List.length branches);
      List.iter (fun (c, body) -> expr c; stmts body) branches;
      stmts else_
    | Ast.While (c, body) ->
      line l "While";
      expr c;
      stmts body
    | Ast.Repeat (body, c) ->
      line l "Repeat";
      stmts body;
      expr c
    | Ast.Loop body ->
      line l "Loop";
      stmts body
    | Ast.For (v, lo, hi, step, body) ->
      line l "For %s %d" (id v) step;
      expr lo;
      expr hi;
      stmts body
    | Ast.Exit -> line l "Exit"
    | Ast.Return v ->
      line l "Return";
      opt expr v
    | Ast.With (binds, body) ->
      line l "With";
      List.iter (fun (n, e) -> Buffer.add_string b ("bind " ^ id n ^ "\n"); expr e) binds;
      stmts body
  and stmts ss =
    Buffer.add_string b "{\n";
    List.iter stmt ss;
    Buffer.add_string b "}\n"
  in
  let var (v : Ast.var_decl) =
    line v.Ast.v_loc "var %s" (id v.Ast.v_name);
    ty v.Ast.v_ty;
    opt expr v.Ast.v_init
  in
  let const (c : Ast.const_decl) =
    line c.Ast.c_loc "const %s" (id c.Ast.c_name);
    expr c.Ast.c_value
  in
  line m.Ast.mod_loc "module %s" (id m.Ast.mod_name);
  List.iter
    (function
      | Ast.Dtype (n, t, l) ->
        line l "type %s" (id n);
        ty t
      | Ast.Dconst c -> const c
      | Ast.Dvar v -> var v
      | Ast.Dproc p ->
        line p.Ast.pr_loc "proc %s" (id p.Ast.pr_name);
        List.iter param p.Ast.pr_params;
        opt ty p.Ast.pr_ret;
        List.iter const p.Ast.pr_consts;
        List.iter var p.Ast.pr_locals;
        stmts p.Ast.pr_body)
    m.Ast.mod_decls;
  stmts m.Ast.mod_body;
  Buffer.contents b

let frontend_row name ~file srcs =
  let toks = Buffer.create 4096 and ast = Buffer.create 4096 in
  let n = ref 0 in
  List.iter
    (fun src ->
      let t = token_lines ~file src in
      n := !n + List.length (String.split_on_char '\n' t) - 1;
      Buffer.add_string toks t;
      Buffer.add_string ast (ast_lines (Parser.parse_module ~file src)))
    srcs;
  Printf.sprintf "%s: tokens=%d %s ast=%s" name !n
    (Digest.to_hex (Digest.string (Buffer.contents toks)))
    (Digest.to_hex (Digest.string (Buffer.contents ast)))

(* Every token kind, with the spacing the workloads never use: CRLF and
   tab layout, comments nested across lines, keywords glued to
   identifiers, escapes, and two-character operators split by space. *)
let lexemes =
  "MODULE TYPE CONST VAR PROCEDURE BEGIN END IF THEN ELSE ELSIF WHILE DO\r\n\
   FOR TO BY REPEAT UNTIL LOOP EXIT RETURN WITH OBJECT METHODS OVERRIDES\n\
   \tRECORD ARRAY OF REF BRANDED NEW NIL TRUE FALSE ROOT DIV MOD AND OR NOT\n\
   ENDx xEND _a1 a_b Z9 INTEGER BOOLEAN CHAR\n\
   ;,:=:= =#<<=>>= +-*()[]^...... : = < = > = . .\n\
   (* one (* two\n\
   lines *) *)0 007 4611686018427387903(**)1\n\
   'a' '\\n' '\\t' '\\\\' '\\'' '\"' ' '\t\"\" \"a\\\"b\\tc\\\\\" \"'\"\r\n\
   x:=y^.f[3];(*trailing*)"

let lexeme_row =
  let t = token_lines ~file:"lex" lexemes in
  Printf.sprintf "lexemes: tokens=%d %s"
    (List.length (String.split_on_char '\n' t) - 1)
    (Digest.to_hex (Digest.string t))

let frontend_rows () =
  List.map
    (fun (w : Workloads.Workload.t) ->
      frontend_row w.Workloads.Workload.name ~file:w.Workloads.Workload.name
        [ w.Workloads.Workload.source ])
    Workloads.Suite.all
  @ [ lexeme_row; frontend_row "scale200" ~file:"scale200" [ Gen.Scale.source 200 ];
      frontend_row "gen 1-50" ~file:"gen"
        (List.init 50 (fun i -> (Gen.Generator.generate (i + 1)).Gen.Generator.source)) ]

let expected_frontend_rows =
  [ "format: tokens=885 d6b249dbeb19acd298c82d916f253288 ast=21e83af5622fcd48eb9dcd1c7697c51e";
    "dformat: tokens=958 0c5dd0d4d89b2398695075af3d4d97d3 ast=44df7019638ee3a4623722a0b0471da9";
    "write_pickle: tokens=1382 102b6329b4947f2cf680c9c5a4c74a52 ast=94a7c1a8fa58af77d0178e1f462a6f19";
    "ktree: tokens=991 56e6e84847656914c250ff2e20fd3e54 ast=8a96dbbf8e4ee85b4c6610d10b152cba";
    "slisp: tokens=1986 c4f62400b42e9d22f4e618e82db4a268 ast=06bbb11afcc8a1051e502b4d2fbcb6c7";
    "pp: tokens=1091 ed059c59d4baf33752937ec31534c60f ast=398d96e0ca9d6088ca1dac639007e1b0";
    "dom: tokens=822 fbecaf4ef2d97d34c19ae4169f76810b ast=9792da48b7afb20942a530cbdac210bc";
    "postcard: tokens=941 eb569756bb681edce03eebe32f9797ea ast=71f03e684ebbad2838713ebe899245f7";
    "m2tom3: tokens=860 5a779ad03605380335954fb10928e96c ast=288c189d981d62d29943ae66b4968978";
    "m3cg: tokens=2218 b7d8066c1ea6763edda860b60675bee7 ast=ecf1eff8e96deb33298c8fb4da573fe6";
    "lexemes: tokens=103 a0256d1a3a51750c924f4e394d87d7b0";
    "scale200: tokens=12869 717418a0f0b166cbc23f250eeda7114d ast=3dc45671e3f3ac4d87b3170532b162b1";
    "gen 1-50: tokens=123389 413ba46d1a5a44306ff8b16accd85056 ast=8e864e450fe833f7d21fd978303d958f" ]

let test_golden_frontend () =
  Alcotest.(check (list string)) "token and AST digests" expected_frontend_rows
    (frontend_rows ())

(* Malformed inputs: every lexer error, a spread of parser errors (the
   lexer scans the whole unit first, so a lexical error anywhere wins over
   an earlier syntax error), and the typechecker's recovery lists. *)
let malformed =
  [ ("comment", "MODULE M;\n(* open (* nested *) never closed\nBEGIN END M.");
    ("comment eof", "(*");
    ("string newline", "MODULE M;\nBEGIN\n  Print (\"abc\n\");\nEND M.");
    ("string eof", "x := \"abc");
    ("char eof", "c := 'a");
    ("char quote", "c := 'ab';");
    ("char empty", "c := '';");
    ("char newline", "c := '\n';");
    ("escape char", "c := '\\q';");
    ("escape string", "\tPrint (\"a\\zb\");");
    ("escape eof", "c := '\\");
    ("int range", "MODULE M;\nCONST K = 99999999999999999999;\nBEGIN END M.");
    ("int max", "x := 4611686018427387903; y := 4611686018427387904");
    ("unexpected", "a ? b");
    ("unexpected at", "MODULE M;\r\nBEGIN\r\n\tx := y @ z;\r\nEND M.");
    ("unexpected brace", "{");
    ("unexpected high byte", "x := \xc3\xa9;");
    ("lex wins", "MODULE ; BEGIN END M.\n\n   ! ");
    ("empty", "");
    ("blank", "  \n\t (* only a comment *)\n");
    ("no module", "BEGIN END M.");
    ("missing semi", "MODULE M BEGIN END M.");
    ("missing dot", "MODULE M; BEGIN END M");
    ("end name", "MODULE M; BEGIN END N.");
    ("proc end name", "MODULE M;\nPROCEDURE P () =\n  BEGIN\n  END Q;\nBEGIN END M.");
    ("expected type", "MODULE M; VAR a: ; BEGIN END M.");
    ("array lower", "MODULE M; TYPE A = ARRAY [1..3] OF INTEGER; BEGIN END M.");
    ("array empty", "MODULE M; TYPE A = ARRAY [0..-1] OF INTEGER; BEGIN END M.");
    ("array bound", "MODULE M; TYPE A = ARRAY [0..N] OF INTEGER; BEGIN END M.");
    ("branded", "MODULE M; TYPE A = BRANDED \"b\" RECORD END; BEGIN END M.");
    ("expr", "MODULE M;\nBEGIN\n  x := ;\nEND M.");
    ("expr stmt", "MODULE M;\nBEGIN\n  x + 1;\nEND M.");
    ("ident", "MODULE M; VAR : INTEGER; BEGIN END M.");
    ("step", "MODULE M; BEGIN FOR i := 0 TO 9 BY k DO END; END M.");
    ("step neg", "MODULE M; BEGIN FOR i := 0 TO 9 BY - k DO END; END M.");
    ("then", "MODULE M; BEGIN IF x DO END; END M.");
    ("until", "MODULE M; BEGIN REPEAT x := 1; END; END M.");
    ("with", "MODULE M; BEGIN WITH a := b DO END; END M.");
    ("method", "MODULE M; TYPE T = OBJECT METHODS m (x INTEGER); END; BEGIN END M.");
    ("trailing", "MODULE M; BEGIN END M. x") ]

let malformed_lines () =
  List.map
    (fun (name, src) ->
      match Parser.parse_module ~file:"bad" src with
      | exception Diag.Compile_error d -> name ^ ": " ^ Diag.to_string d
      | _ -> name ^ ": parsed")
    malformed
  @ List.map
      (fun src ->
        match Parser.parse_expr_string src with
        | exception Diag.Compile_error d -> "expr " ^ src ^ ": " ^ Diag.to_string d
        | _ -> "expr " ^ src ^ ": parsed")
      [ "a b"; "a < b = c"; "(a"; "a.1"; "NEW (T"; "f (x,)" ]

let expected_malformed =
  [ "comment: bad:2:1: error: unterminated comment";
    "comment eof: bad:1:1: error: unterminated comment";
    "string newline: bad:3:10: error: unterminated string literal";
    "string eof: bad:1:6: error: unterminated string literal";
    "char eof: bad:1:6: error: character literal missing closing quote";
    "char quote: bad:1:6: error: character literal missing closing quote";
    "char empty: bad:1:6: error: malformed character literal";
    "char newline: bad:1:1: error: expected 'MODULE' (found 'c')";
    "escape char: bad:1:6: error: unknown escape '\\q'";
    "escape string: bad:1:9: error: unknown escape '\\z'";
    "escape eof: bad:1:6: error: unterminated escape";
    "int range: bad:2:31: error: integer literal out of range: 99999999999999999999";
    "int max: bad:1:51: error: integer literal out of range: 4611686018427387904";
    "unexpected: bad:1:3: error: unexpected character '?'";
    "unexpected at: bad:3:9: error: unexpected character '@'";
    "unexpected brace: bad:1:1: error: unexpected character '{'";
    "unexpected high byte: bad:1:6: error: unexpected character '\xc3'";
    "lex wins: bad:3:4: error: unexpected character '!'";
    "empty: bad:1:1: error: expected 'MODULE' (found '<eof>')";
    "blank: bad:3:1: error: expected 'MODULE' (found '<eof>')";
    "no module: bad:1:1: error: expected 'MODULE' (found 'BEGIN')";
    "missing semi: bad:1:10: error: expected ';' (found 'BEGIN')";
    "missing dot: bad:1:22: error: expected '.' (found '<eof>')";
    "end name: bad:1:22: error: module ends with 'N', expected 'M'";
    "proc end name: bad:4:8: error: procedure ends with 'Q', expected 'P'";
    "expected type: bad:1:18: error: expected a type (found ';')";
    "array lower: bad:1:20: error: array lower bound must be 0";
    "array empty: bad:1:30: error: expected array upper bound (found '-')";
    "array bound: bad:1:30: error: expected array upper bound (found 'N')";
    "branded: bad:1:32: error: expected REF or OBJECT after BRANDED (found 'RECORD')";
    "expr: bad:3:8: error: expected an expression (found ';')";
    "expr stmt: bad:3:3: error: expression statement must be a call";
    "ident: bad:1:15: error: expected 'END' (found ':')";
    "step: bad:1:36: error: expected step constant (found 'k')";
    "step neg: bad:1:38: error: expected step constant (found 'k')";
    "then: bad:1:22: error: expected 'THEN' (found 'DO')";
    "until: bad:1:32: error: expected 'UNTIL' (found 'END')";
    "with: bad:1:24: error: expected '=' (found ':=')";
    "method: bad:1:40: error: expected ':' (found 'INTEGER')";
    "trailing: bad:1:24: error: trailing tokens (found 'x')";
    "expr a b: <expr>:1:3: error: trailing tokens (found 'b')";
    "expr a < b = c: <expr>:1:7: error: trailing tokens (found '=')";
    "expr (a: <expr>:1:3: error: expected ')' (found '<eof>')";
    "expr a.1: <expr>:1:3: error: expected identifier (found '1')";
    "expr NEW (T: <expr>:1:7: error: expected ')' (found '<eof>')";
    "expr f (x,): <expr>:1:6: error: expected an expression (found ')')" ]

let test_golden_malformed () =
  Alcotest.(check (list string)) "diagnostics" expected_malformed
    (malformed_lines ())

let recovery =
  [ {|MODULE R;
TYPE T = OBJECT f: INTEGER; END; U = RECORD a, a: INTEGER; END;
VAR t: T; b: BOOLEAN; v: Missing;
PROCEDURE P (x: INTEGER): INTEGER =
  VAR y: BOOLEAN;
  BEGIN
    y := x;
    t.g := 1;
    RETURN y;
  END P;
PROCEDURE P () = BEGIN END P;
BEGIN
  b := 1 + TRUE;
  EXIT;
  Q ();
  t := NIL;
  P (1, 2);
END R.
|};
    {|MODULE S;
CONST K = 1 DIV 0; J = x;
VAR a: ARRAY [0..3] OF INTEGER; r: REF RECORD f: CHAR; END;
BEGIN
  a := a;
  r.f := 1;
  r^.g := 'c';
  WITH w = 3 DO w := 4; END;
  FOR i := 0 TO 3 DO i := 1; END;
  a[TRUE] := 0;
END S.
|};
    "MODULE Z; BEGIN x := ; END Z." ]

let recovery_lines () =
  List.concat_map
    (fun src ->
      match Typecheck.check_string_all ~file:"rec" src with
      | Ok _ -> [ "ok" ]
      | Error ds -> "--" :: List.map Diag.to_string ds)
    recovery

let expected_recovery =
  [ "--";
    "rec:2:45: error: duplicate field 'a'";
    "rec:3:26: error: unknown type 'Missing'";
    "rec:11:1: error: duplicate procedure 'P'";
    "rec:7:5: error: cannot assign INTEGER to BOOLEAN";
    "rec:8:6: error: type T has no field 'g'";
    "rec:9:5: error: RETURN type BOOLEAN does not match INTEGER";
    "rec:13:8: error: arithmetic needs INTEGER operands";
    "rec:14:3: error: EXIT outside of a loop";
    "rec:15:5: error: unknown procedure 'Q'";
    "rec:17:5: error: P expects 1 argument(s), got 2";
    "--";
    "rec:2:11: error: constant division by zero";
    "rec:2:24: error: 'x' is not a constant";
    "rec:5:3: error: aggregate assignment is not supported (assign components instead)";
    "rec:6:3: error: cannot assign INTEGER to CHAR";
    "rec:7:5: error: type RECORD f: CHAR END has no field 'g'";
    "rec:8:17: error: 'w' is read-only here";
    "rec:9:22: error: 'i' is read-only here";
    "rec:10:4: error: array index must be an INTEGER";
    "--";
    "rec:1:22: error: expected an expression (found ';')" ]

let test_golden_recovery () =
  Alcotest.(check (list string)) "recovery lists" expected_recovery
    (recovery_lines ())

(* --- allocation ceiling ------------------------------------------- *)

(* Sequential allocation is deterministic, so the front end's is gated.
   Measured for scale200 (after a warm-up parse, so every name is
   already interned): parse 102,124 minor words, typecheck 138,709. The
   ceilings are ~1.25x the measured values. *)
let parse_ceiling = 128_000.
let typecheck_ceiling = 174_000.

let test_alloc_ceiling () =
  let src = Gen.Scale.source 200 in
  ignore (Typecheck.check_module (Parser.parse_module ~file:"scale200" src));
  let w0 = Gc.minor_words () in
  let ast = Parser.parse_module ~file:"scale200" src in
  let w1 = Gc.minor_words () in
  ignore (Typecheck.check_module ast);
  let w2 = Gc.minor_words () in
  let within what words ceiling =
    if words > ceiling then
      Alcotest.failf "%s allocated %.0f minor words, over the ceiling of %.0f"
        what words ceiling
  in
  within "parse" (w1 -. w0) parse_ceiling;
  within "typecheck" (w2 -. w1) typecheck_ceiling

let () =
  Alcotest.run "frontend"
    [ ( "lexer",
        [ Alcotest.test_case "basics" `Quick test_lex_basics;
          Alcotest.test_case "keywords" `Quick test_lex_keywords_vs_idents;
          Alcotest.test_case "nested comments" `Quick test_lex_comments_nest;
          Alcotest.test_case "char and string" `Quick test_lex_char_and_string;
          Alcotest.test_case "dotdot" `Quick test_lex_dotdot;
          Alcotest.test_case "error" `Quick test_lex_error ] );
      ( "parser",
        [ Alcotest.test_case "figure1" `Quick test_parse_figure1;
          Alcotest.test_case "precedence" `Quick test_parse_expr_precedence;
          Alcotest.test_case "access path" `Quick test_parse_access_path;
          Alcotest.test_case "relations" `Quick test_parse_relations_nonassoc;
          Alcotest.test_case "objects with methods" `Quick test_parse_object_with_methods;
          Alcotest.test_case "decl order" `Quick test_parse_decl_order_preserved;
          Alcotest.test_case "error location" `Quick test_parse_error_location ] );
      ( "typecheck",
        [ Alcotest.test_case "figure1 subtyping" `Quick test_check_figure1;
          Alcotest.test_case "figure3" `Quick test_check_figure3;
          Alcotest.test_case "subtype assignment" `Quick test_check_subtype_assign;
          Alcotest.test_case "nil" `Quick test_check_nil;
          Alcotest.test_case "var param exact type" `Quick test_check_var_param_exact_type;
          Alcotest.test_case "ref record sugar" `Quick test_check_ref_record_sugar;
          Alcotest.test_case "open array" `Quick test_check_open_array;
          Alcotest.test_case "array bounds" `Quick test_check_fixed_array_bounds_decl;
          Alcotest.test_case "method dispatch tables" `Quick test_check_method_dispatch;
          Alcotest.test_case "method bad receiver" `Quick test_check_method_bad_receiver;
          Alcotest.test_case "recursive type" `Quick test_check_recursive_type;
          Alcotest.test_case "cyclic alias" `Quick test_check_cyclic_alias_rejected;
          Alcotest.test_case "aggregate assign" `Quick test_check_aggregate_assign_rejected;
          Alcotest.test_case "with alias/value" `Quick test_check_with_alias_and_value;
          Alcotest.test_case "with value readonly" `Quick test_check_with_value_readonly;
          Alcotest.test_case "for var readonly" `Quick test_check_for_var_readonly;
          Alcotest.test_case "exit outside loop" `Quick test_check_exit_outside_loop;
          Alcotest.test_case "branded" `Quick test_check_branded;
          Alcotest.test_case "const" `Quick test_check_const;
          Alcotest.test_case "unknown name" `Quick test_check_unknown_name;
          Alcotest.test_case "arity" `Quick test_check_arity ] );
      ( "printer",
        [ Alcotest.test_case "workload round trips" `Slow test_pp_roundtrip_workloads;
          Alcotest.test_case "escapes" `Quick test_pp_escapes ] );
      ( "golden",
        [ Alcotest.test_case "tokens and AST" `Quick test_golden_frontend;
          Alcotest.test_case "malformed inputs" `Quick test_golden_malformed;
          Alcotest.test_case "recovery lists" `Quick test_golden_recovery ] );
      ( "alloc",
        [ Alcotest.test_case "front-end ceiling" `Quick test_alloc_ceiling ] ) ]
