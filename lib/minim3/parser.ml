open Support

(* The parser reads the lexer's token stream in place. [pos] never passes
   the final [EOF]. Locations are built from a token index only when a
   node or a diagnostic needs one. *)
type state = {
  lx : Lexer.t;
  last : int;  (* index of EOF *)
  mutable pos : int;
}

let current st = Lexer.token st.lx st.pos
let loc_at st i = Lexer.loc st.lx i
let current_loc st = loc_at st st.pos

let lookahead st = if st.pos < st.last then Lexer.token st.lx (st.pos + 1) else Token.EOF

let advance st = if st.pos < st.last then st.pos <- st.pos + 1

let error st fmt =
  Format.kasprintf
    (fun msg ->
      Diag.errorf_at (current_loc st) "%s (found '%s')" msg
        (Token.to_string (current st)))
    fmt

(* [tok] is always a payload-free token, so physical equality compares
   tags. *)
let is st (tok : Token.t) = current st == tok

let accept st tok =
  if is st tok then begin
    advance st;
    true
  end
  else false

let expect st tok =
  if not (accept st tok) then error st "expected '%s'" (Token.to_string tok)

(* The current token's name; the caller has matched an [IDENT]. *)
let take_ident st =
  let id = Lexer.ident st.lx st.pos in
  advance st;
  id

let expect_ident st =
  match current st with
  | Token.IDENT _ -> take_ident st
  | _ -> error st "expected identifier"

(* ------------------------------------------------------------------ *)
(* Types                                                              *)
(* ------------------------------------------------------------------ *)

let ty_at st start t_desc : Ast.ty_expr = { t_desc; t_loc = loc_at st start }

let rec parse_ty st : Ast.ty_expr =
  let start = st.pos in
  match current st with
  | Token.IDENT "INTEGER" ->
    advance st;
    ty_at st start Ast.Tint
  | Token.IDENT "BOOLEAN" ->
    advance st;
    ty_at st start Ast.Tbool
  | Token.IDENT "CHAR" ->
    advance st;
    ty_at st start Ast.Tchar
  | Token.ROOT ->
    advance st;
    if is st Token.OBJECT then
      let super = ty_at st start Ast.Troot in
      ty_at st start
        (Ast.Tobject (parse_object_body st ~super:(Some super) ~brand:None))
    else ty_at st start Ast.Troot
  | Token.ARRAY ->
    advance st;
    if accept st Token.LBRACKET then begin
      let lo =
        match current st with
        | Token.INT n ->
          advance st;
          n
        | _ -> error st "expected array lower bound"
      in
      expect st Token.DOTDOT;
      let hi =
        match current st with
        | Token.INT n ->
          advance st;
          n
        | _ -> error st "expected array upper bound"
      in
      expect st Token.RBRACKET;
      expect st Token.OF;
      if lo <> 0 then Diag.errorf_at (loc_at st start) "array lower bound must be 0";
      if hi < lo then Diag.errorf_at (loc_at st start) "empty array range";
      let elem = parse_ty st in
      ty_at st start (Ast.Tarray (Some (hi - lo + 1), elem))
    end
    else begin
      expect st Token.OF;
      let elem = parse_ty st in
      ty_at st start (Ast.Tarray (None, elem))
    end
  | Token.RECORD ->
    advance st;
    let fields = parse_field_decls st in
    expect st Token.END;
    ty_at st start (Ast.Trecord fields)
  | Token.BRANDED ->
    advance st;
    let brand =
      match current st with
      | Token.STRING s ->
        advance st;
        Some s
      | _ -> Some "<anon-brand>"
    in
    (match current st with
    | Token.REF ->
      advance st;
      let target = parse_ty st in
      ty_at st start (Ast.Tref (brand, target))
    | Token.OBJECT -> ty_at st start (Ast.Tobject (parse_object_body st ~super:None ~brand))
    | Token.IDENT _ when lookahead st == Token.OBJECT ->
      let super = ty_at st start (Ast.Tname (take_ident st)) in
      ty_at st start (Ast.Tobject (parse_object_body st ~super:(Some super) ~brand))
    | Token.ROOT when lookahead st == Token.OBJECT ->
      advance st;
      let super = ty_at st start Ast.Troot in
      ty_at st start (Ast.Tobject (parse_object_body st ~super:(Some super) ~brand))
    | _ -> error st "expected REF or OBJECT after BRANDED")
  | Token.REF ->
    advance st;
    let target = parse_ty st in
    ty_at st start (Ast.Tref (None, target))
  | Token.OBJECT ->
    ty_at st start (Ast.Tobject (parse_object_body st ~super:None ~brand:None))
  | Token.IDENT _ ->
    if lookahead st == Token.OBJECT then begin
      let super = ty_at st start (Ast.Tname (take_ident st)) in
      ty_at st start (Ast.Tobject (parse_object_body st ~super:(Some super) ~brand:None))
    end
    else ty_at st start (Ast.Tname (take_ident st))
  | _ -> error st "expected a type"

and parse_field_decls st : Ast.field_decl list =
  (* fields: "a, b: T; c: U;" — runs until END/METHODS/OVERRIDES *)
  let rec go acc =
    match current st with
    | Token.IDENT _ ->
      let loc = current_loc st in
      let names = parse_ident_list st in
      expect st Token.COLON;
      let ty = parse_ty st in
      expect st Token.SEMI;
      let fields =
        List.map (fun n -> { Ast.f_name = n; f_ty = ty; f_loc = loc }) names
      in
      go (List.rev_append fields acc)
    | _ -> List.rev acc
  in
  go []

and parse_ident_list st =
  let first = expect_ident st in
  let rec go acc = if accept st Token.COMMA then go (expect_ident st :: acc) else List.rev acc in
  go [ first ]

and parse_object_body st ~super ~brand : Ast.object_decl =
  expect st Token.OBJECT;
  let fields = parse_field_decls st in
  let methods = if accept st Token.METHODS then parse_method_decls st else [] in
  let overrides = if accept st Token.OVERRIDES then parse_overrides st else [] in
  expect st Token.END;
  { Ast.o_super = super; o_brand = brand; o_fields = fields;
    o_methods = methods; o_overrides = overrides }

and parse_method_decls st : Ast.method_decl list =
  let rec go acc =
    match current st with
    | Token.IDENT _ ->
      let loc = current_loc st in
      let name = expect_ident st in
      expect st Token.LPAREN;
      let params = parse_params st in
      expect st Token.RPAREN;
      let ret = if accept st Token.COLON then Some (parse_ty st) else None in
      let impl = if accept st Token.ASSIGN then Some (expect_ident st) else None in
      expect st Token.SEMI;
      go ({ Ast.m_name = name; m_params = params; m_ret = ret; m_impl = impl; m_loc = loc } :: acc)
    | _ -> List.rev acc
  in
  go []

and parse_overrides st =
  let rec go acc =
    match current st with
    | Token.IDENT _ ->
      let loc = current_loc st in
      let name = expect_ident st in
      expect st Token.ASSIGN;
      let impl = expect_ident st in
      expect st Token.SEMI;
      go ((name, impl, loc) :: acc)
    | _ -> List.rev acc
  in
  go []

and parse_params st : Ast.param_decl list =
  if is st Token.RPAREN then []
  else begin
    let rec one acc =
      let loc = current_loc st in
      let mode = if accept st Token.VAR then Ast.By_ref else Ast.By_value in
      let names = parse_ident_list st in
      expect st Token.COLON;
      let ty = parse_ty st in
      let params =
        List.map
          (fun n -> { Ast.p_name = n; p_mode = mode; p_ty = ty; p_loc = loc })
          names
      in
      let acc = List.rev_append params acc in
      if accept st Token.SEMI then one acc else List.rev acc
    in
    one []
  end

(* ------------------------------------------------------------------ *)
(* Expressions                                                        *)
(* ------------------------------------------------------------------ *)

let expr_at st start e_desc : Ast.expr = { Ast.e_desc; e_loc = loc_at st start }

let rec parse_expr st : Ast.expr = parse_or st

and parse_or st =
  let start = st.pos in
  let lhs = parse_and st in
  if accept st Token.OR then
    let rhs = parse_or st in
    expr_at st start (Ast.Binop (Ast.Or, lhs, rhs))
  else lhs

and parse_and st =
  let start = st.pos in
  let lhs = parse_not st in
  if accept st Token.AND then
    let rhs = parse_and st in
    expr_at st start (Ast.Binop (Ast.And, lhs, rhs))
  else lhs

and parse_not st =
  let start = st.pos in
  if accept st Token.NOT then
    let e = parse_not st in
    expr_at st start (Ast.Unop (Ast.Not, e))
  else parse_relation st

and parse_relation st =
  let start = st.pos in
  let lhs = parse_additive st in
  let op =
    match current st with
    | Token.EQ -> Some Ast.Eq
    | Token.NE -> Some Ast.Ne
    | Token.LT -> Some Ast.Lt
    | Token.LE -> Some Ast.Le
    | Token.GT -> Some Ast.Gt
    | Token.GE -> Some Ast.Ge
    | _ -> None
  in
  match op with
  | None -> lhs
  | Some op ->
    advance st;
    let rhs = parse_additive st in
    expr_at st start (Ast.Binop (op, lhs, rhs))

and parse_additive st =
  let start = st.pos in
  additive_rest st start (parse_multiplicative st)

and additive_rest st start lhs =
  let op =
    match current st with
    | Token.PLUS -> Some Ast.Add
    | Token.MINUS -> Some Ast.Sub
    | _ -> None
  in
  match op with
  | None -> lhs
  | Some op ->
    advance st;
    let rhs = parse_multiplicative st in
    additive_rest st start (expr_at st start (Ast.Binop (op, lhs, rhs)))

and parse_multiplicative st =
  let start = st.pos in
  multiplicative_rest st start (parse_unary st)

and multiplicative_rest st start lhs =
  let op =
    match current st with
    | Token.STAR -> Some Ast.Mul
    | Token.DIV -> Some Ast.Div
    | Token.MOD -> Some Ast.Mod
    | _ -> None
  in
  match op with
  | None -> lhs
  | Some op ->
    advance st;
    let rhs = parse_unary st in
    multiplicative_rest st start (expr_at st start (Ast.Binop (op, lhs, rhs)))

and parse_unary st =
  let start = st.pos in
  if accept st Token.MINUS then
    let e = parse_unary st in
    expr_at st start (Ast.Unop (Ast.Neg, e))
  else parse_postfix st

and parse_postfix st = postfix_rest st (parse_primary st)

and postfix_rest st e =
  let start = st.pos in
  match current st with
  | Token.DOT ->
    advance st;
    let f = expect_ident st in
    postfix_rest st (expr_at st start (Ast.Field (e, f)))
  | Token.CARET ->
    advance st;
    postfix_rest st (expr_at st start (Ast.Deref e))
  | Token.LBRACKET ->
    advance st;
    let idx = parse_expr st in
    expect st Token.RBRACKET;
    postfix_rest st (expr_at st start (Ast.Index (e, idx)))
  | Token.LPAREN ->
    advance st;
    let args = parse_args st in
    expect st Token.RPAREN;
    postfix_rest st (expr_at st start (Ast.Call (e, args)))
  | _ -> e

and parse_args st =
  if is st Token.RPAREN then []
  else begin
    let rec go acc =
      let acc = parse_expr st :: acc in
      if accept st Token.COMMA then go acc else List.rev acc
    in
    go []
  end

and parse_primary st =
  let start = st.pos in
  match current st with
  | Token.INT n ->
    advance st;
    expr_at st start (Ast.Int_lit n)
  | Token.CHARLIT c ->
    advance st;
    expr_at st start (Ast.Char_lit c)
  | Token.STRING s ->
    advance st;
    expr_at st start (Ast.String_lit s)
  | Token.TRUE ->
    advance st;
    expr_at st start (Ast.Bool_lit true)
  | Token.FALSE ->
    advance st;
    expr_at st start (Ast.Bool_lit false)
  | Token.NIL ->
    advance st;
    expr_at st start Ast.Nil
  | Token.NEW ->
    advance st;
    expect st Token.LPAREN;
    let ty = parse_ty st in
    let args = if accept st Token.COMMA then parse_args st else [] in
    expect st Token.RPAREN;
    expr_at st start (Ast.New (ty, args))
  | Token.IDENT _ -> expr_at st start (Ast.Name (take_ident st))
  | Token.LPAREN ->
    advance st;
    let e = parse_expr st in
    expect st Token.RPAREN;
    e
  | _ -> error st "expected an expression"

(* ------------------------------------------------------------------ *)
(* Statements                                                         *)
(* ------------------------------------------------------------------ *)

let rec parse_stmts st : Ast.stmt list = stmts_rest st []

and stmts_rest st acc =
  match current st with
  | Token.END | Token.ELSE | Token.ELSIF | Token.UNTIL | Token.EOF -> List.rev acc
  | _ ->
    let s = parse_stmt st in
    stmts_rest st (s :: acc)

and parse_stmt st : Ast.stmt =
  let loc = current_loc st in
  let mk s_desc : Ast.stmt = { Ast.s_desc; s_loc = loc } in
  match current st with
  | Token.IF ->
    advance st;
    let cond = parse_expr st in
    expect st Token.THEN;
    let body = parse_stmts st in
    let rec elsifs acc =
      if accept st Token.ELSIF then begin
        let c = parse_expr st in
        expect st Token.THEN;
        let b = parse_stmts st in
        elsifs ((c, b) :: acc)
      end
      else List.rev acc
    in
    let branches = (cond, body) :: elsifs [] in
    let else_ = if accept st Token.ELSE then parse_stmts st else [] in
    expect st Token.END;
    expect st Token.SEMI;
    mk (Ast.If (branches, else_))
  | Token.WHILE ->
    advance st;
    let cond = parse_expr st in
    expect st Token.DO;
    let body = parse_stmts st in
    expect st Token.END;
    expect st Token.SEMI;
    mk (Ast.While (cond, body))
  | Token.REPEAT ->
    advance st;
    let body = parse_stmts st in
    expect st Token.UNTIL;
    let cond = parse_expr st in
    expect st Token.SEMI;
    mk (Ast.Repeat (body, cond))
  | Token.LOOP ->
    advance st;
    let body = parse_stmts st in
    expect st Token.END;
    expect st Token.SEMI;
    mk (Ast.Loop body)
  | Token.FOR ->
    advance st;
    let v = expect_ident st in
    expect st Token.ASSIGN;
    let lo = parse_expr st in
    expect st Token.TO;
    let hi = parse_expr st in
    let step =
      if accept st Token.BY then begin
        match current st with
        | Token.INT n ->
          advance st;
          n
        | Token.MINUS ->
          advance st;
          (match current st with
          | Token.INT n ->
            advance st;
            -n
          | _ -> error st "expected step constant")
        | _ -> error st "expected step constant"
      end
      else 1
    in
    expect st Token.DO;
    let body = parse_stmts st in
    expect st Token.END;
    expect st Token.SEMI;
    mk (Ast.For (v, lo, hi, step, body))
  | Token.EXIT ->
    advance st;
    expect st Token.SEMI;
    mk Ast.Exit
  | Token.RETURN ->
    advance st;
    let v = if is st Token.SEMI then None else Some (parse_expr st) in
    expect st Token.SEMI;
    mk (Ast.Return v)
  | Token.WITH ->
    advance st;
    let rec bindings acc =
      let name = expect_ident st in
      expect st Token.EQ;
      let e = parse_expr st in
      let acc = (name, e) :: acc in
      if accept st Token.COMMA then bindings acc else List.rev acc
    in
    let binds = bindings [] in
    expect st Token.DO;
    let body = parse_stmts st in
    expect st Token.END;
    expect st Token.SEMI;
    mk (Ast.With (binds, body))
  | _ ->
    (* assignment or call statement *)
    let e = parse_expr st in
    if accept st Token.ASSIGN then begin
      let rhs = parse_expr st in
      expect st Token.SEMI;
      mk (Ast.Assign (e, rhs))
    end
    else begin
      expect st Token.SEMI;
      match e.Ast.e_desc with
      | Ast.Call _ -> mk (Ast.Call_stmt e)
      | _ -> Diag.errorf_at loc "expression statement must be a call"
    end

(* ------------------------------------------------------------------ *)
(* Declarations and modules                                           *)
(* ------------------------------------------------------------------ *)

let parse_var_decls st : Ast.var_decl list =
  (* after VAR: "a, b: T := e;" repeated while an identifier starts a line *)
  let rec go acc =
    match current st with
    | Token.IDENT _ ->
      let loc = current_loc st in
      let names = parse_ident_list st in
      expect st Token.COLON;
      let ty = parse_ty st in
      let init = if accept st Token.ASSIGN then Some (parse_expr st) else None in
      expect st Token.SEMI;
      let decls =
        List.map
          (fun n -> { Ast.v_name = n; v_ty = ty; v_init = init; v_loc = loc })
          names
      in
      go (List.rev_append decls acc)
    | _ -> List.rev acc
  in
  go []

let parse_const_decls st : Ast.const_decl list =
  let rec go acc =
    match current st with
    | Token.IDENT _ ->
      let loc = current_loc st in
      let name = expect_ident st in
      expect st Token.EQ;
      let value = parse_expr st in
      expect st Token.SEMI;
      go ({ Ast.c_name = name; c_value = value; c_loc = loc } :: acc)
    | _ -> List.rev acc
  in
  go []

let parse_type_decls st =
  let rec go acc =
    match current st with
    | Token.IDENT _ ->
      let loc = current_loc st in
      let name = expect_ident st in
      expect st Token.EQ;
      let ty = parse_ty st in
      expect st Token.SEMI;
      go (Ast.Dtype (name, ty, loc) :: acc)
    | _ -> List.rev acc
  in
  go []

let parse_proc st : Ast.proc_decl =
  let loc = current_loc st in
  expect st Token.PROCEDURE;
  let name = expect_ident st in
  expect st Token.LPAREN;
  let params = parse_params st in
  expect st Token.RPAREN;
  let ret = if accept st Token.COLON then Some (parse_ty st) else None in
  expect st Token.EQ;
  let consts = if accept st Token.CONST then parse_const_decls st else [] in
  let locals = if accept st Token.VAR then parse_var_decls st else [] in
  expect st Token.BEGIN;
  let body = parse_stmts st in
  expect st Token.END;
  let end_name = expect_ident st in
  if not (Ident.equal end_name name) then
    Diag.errorf_at (current_loc st) "procedure ends with '%s', expected '%s'"
      (Ident.name end_name) (Ident.name name);
  expect st Token.SEMI;
  { Ast.pr_name = name; pr_params = params; pr_ret = ret; pr_consts = consts;
    pr_locals = locals; pr_body = body; pr_loc = loc }

let parse_module_state st : Ast.module_ =
  let loc = current_loc st in
  expect st Token.MODULE;
  let name = expect_ident st in
  expect st Token.SEMI;
  let rec decls acc =
    match current st with
    | Token.TYPE ->
      advance st;
      (* [acc] is reversed overall, so a section must be prepended in
         reverse to come out in declaration order after the final rev. *)
      decls (List.rev_append (parse_type_decls st) acc)
    | Token.CONST ->
      advance st;
      let cs = parse_const_decls st in
      decls (List.rev_append (List.map (fun c -> Ast.Dconst c) cs) acc)
    | Token.VAR ->
      advance st;
      let vs = parse_var_decls st in
      decls (List.rev_append (List.map (fun v -> Ast.Dvar v) vs) acc)
    | Token.PROCEDURE -> decls (Ast.Dproc (parse_proc st) :: acc)
    | _ -> List.rev acc
  in
  let ds = decls [] in
  let body =
    if accept st Token.BEGIN then parse_stmts st
    else []
  in
  expect st Token.END;
  let end_name = expect_ident st in
  if not (Ident.equal end_name name) then
    Diag.errorf_at (current_loc st) "module ends with '%s', expected '%s'"
      (Ident.name end_name) (Ident.name name);
  expect st Token.DOT;
  if not (is st Token.EOF) then error st "trailing tokens";
  { Ast.mod_name = name; mod_decls = ds; mod_body = body; mod_loc = loc }

let make_state ~file src =
  let lx = Lexer.scan ~file src in
  { lx; last = Lexer.count lx - 1; pos = 0 }

let parse_module ~file src = parse_module_state (make_state ~file src)

let parse_expr_string src =
  let st = make_state ~file:"<expr>" src in
  let e = parse_expr st in
  if not (is st Token.EOF) then error st "trailing tokens";
  e
