open Support

type proc_sig = {
  sig_params : (Ident.t * Ast.param_mode * Types.tid) list;
  sig_ret : Types.tid option;
}

type scope_entry = { se_var : Tast.var_ref; se_readonly : bool }

type ctx = {
  env : Types.env;
  type_table : Types.tid Ident.Tbl.t;
  consts : Tast.expr Ident.Tbl.t;
  globals : Types.tid Ident.Tbl.t;
  proc_sigs : proc_sig Ident.Tbl.t;
  mutable scope : (Ident.t * scope_entry) list;  (* innermost first *)
  recover : Diag.collector option;
      (* when set, statement- and declaration-level errors are recorded
         here and checking continues past them *)
  mutable elab : Ast.ty_expr -> Types.tid;
      (* the module-level type elaborator; procedure bodies elaborate type
         expressions (NEW, locals) through it. Set once by
         [check_module_with], which creates the state it closes over; kept
         per context so concurrent typechecks never share it. *)
}

let err loc fmt = Diag.errorf_at loc fmt

(* Recovery boundary: without a collector this is transparent; with one,
   a [Compile_error] from [f] is recorded, the scope is rolled back to
   this boundary (an aborted construct must not leave half its bindings
   in scope), and [fallback] stands in for the result. *)
let attempt ctx ~fallback f =
  match ctx.recover with
  | None -> f ()
  | Some c -> (
    let saved_scope = ctx.scope in
    try f ()
    with Diag.Compile_error d ->
      Diag.add c d;
      ctx.scope <- saved_scope;
      fallback)

let pp_ty ctx t = Types.to_string ctx.env t

let ctx_elab_ty ctx te = ctx.elab te

(* ------------------------------------------------------------------ *)
(* Type elaboration                                                    *)
(* ------------------------------------------------------------------ *)

(* Named REF and OBJECT declarations are reserved before their bodies are
   elaborated so that recursive declarations (which must pass through a
   reference type, as in Modula-3) terminate. *)

type elaborator = {
  ctx : ctx;
  decl_map : (Ast.ty_expr * Loc.t) Ident.Tbl.t;
  mutable in_progress : Ident.Set.t;
  mutable pending : (unit -> unit) list;  (* ref/object patch actions *)
}

let rec resolve_name el name loc : Types.tid =
  match Ident.Tbl.find_opt el.ctx.type_table name with
  | Some tid -> tid
  | None -> (
    match Ident.Tbl.find_opt el.decl_map name with
    | None -> err loc "unknown type '%a'" Ident.pp name
    | Some (te, dloc) -> (
      match te.Ast.t_desc with
      | Ast.Tref (brand, target) ->
        let tid = Types.reserve_ref el.ctx.env ~brand in
        Ident.Tbl.add el.ctx.type_table name tid;
        el.pending <-
          (fun () ->
            Types.patch_ref el.ctx.env tid ~target:(elab_ty el target))
          :: el.pending;
        tid
      | Ast.Tobject od ->
        let tid = Types.reserve_object el.ctx.env ~name in
        Ident.Tbl.add el.ctx.type_table name tid;
        el.pending <- (fun () -> patch_object_decl el tid od dloc) :: el.pending;
        tid
      | _ ->
        if Ident.Set.mem name el.in_progress then
          err dloc "cyclic type declaration '%a' (cycles must go through REF)"
            Ident.pp name;
        el.in_progress <- Ident.Set.add name el.in_progress;
        let tid = elab_ty el te in
        el.in_progress <- Ident.Set.remove name el.in_progress;
        Ident.Tbl.add el.ctx.type_table name tid;
        tid))

and elab_ty el (te : Ast.ty_expr) : Types.tid =
  match te.Ast.t_desc with
  | Ast.Tint -> Types.tid_int
  | Ast.Tbool -> Types.tid_bool
  | Ast.Tchar -> Types.tid_char
  | Ast.Troot -> Types.tid_root
  | Ast.Tname n -> resolve_name el n te.Ast.t_loc
  | Ast.Tarray (len, elem) ->
    Types.intern el.ctx.env (Types.Darray (len, elab_ty el elem))
  | Ast.Trecord fields ->
    let fields = elab_fields el fields in
    Types.intern el.ctx.env (Types.Drecord fields)
  | Ast.Tref (brand, target) ->
    (* Anonymous REF type expression: hash-consed structurally. *)
    Types.intern el.ctx.env (Types.Dref { target = elab_ty el target; brand })
  | Ast.Tobject od ->
    (* Anonymous object type: nominal with a synthesized name. *)
    let name = Ident.fresh "Object" in
    let tid = Types.reserve_object el.ctx.env ~name in
    patch_object_decl el tid od te.Ast.t_loc;
    tid

and elab_fields el fields : Types.field array =
  let seen = Ident.Tbl.create 8 in
  Array.of_list
    (List.map
       (fun (f : Ast.field_decl) ->
         if Ident.Tbl.mem seen f.Ast.f_name then
           err f.Ast.f_loc "duplicate field '%a'" Ident.pp f.Ast.f_name;
         Ident.Tbl.add seen f.Ast.f_name ();
         { Types.fld_name = f.Ast.f_name; fld_ty = elab_ty el f.Ast.f_ty })
       fields)

and patch_object_decl el tid (od : Ast.object_decl) loc =
  let super =
    match od.Ast.o_super with
    | None -> Some Types.tid_root
    | Some ste ->
      let s = elab_ty el ste in
      if not (Types.is_object el.ctx.env s) then
        err loc "supertype %s is not an object type" (pp_ty el.ctx s);
      Some s
  in
  let fields = elab_fields el od.Ast.o_fields in
  let methods =
    Array.of_list
      (List.map
         (fun (m : Ast.method_decl) ->
           { Types.ms_name = m.Ast.m_name;
             ms_params =
               List.map
                 (fun (p : Ast.param_decl) -> (p.Ast.p_mode, elab_ty el p.Ast.p_ty))
                 m.Ast.m_params;
             ms_ret = Option.map (elab_ty el) m.Ast.m_ret;
             ms_impl = m.Ast.m_impl })
         od.Ast.o_methods)
  in
  let overrides =
    Array.of_list (List.map (fun (m, p, _) -> (m, p)) od.Ast.o_overrides)
  in
  Types.patch_object el.ctx.env tid ~super ~brand:od.Ast.o_brand ~fields
    ~methods ~overrides

(* ------------------------------------------------------------------ *)
(* Constant evaluation                                                 *)
(* ------------------------------------------------------------------ *)

let rec eval_const ctx (e : Ast.expr) : Tast.expr =
  let loc = e.Ast.e_loc in
  let mk ty desc : Tast.expr = { Tast.ty; desc; loc } in
  match e.Ast.e_desc with
  | Ast.Int_lit n -> mk Types.tid_int (Tast.Eint n)
  | Ast.Bool_lit b -> mk Types.tid_bool (Tast.Ebool b)
  | Ast.Char_lit c -> mk Types.tid_char (Tast.Echar c)
  | Ast.Name n -> (
    match Ident.Tbl.find_opt ctx.consts n with
    | Some v -> { v with Tast.loc }
    | None -> err loc "'%a' is not a constant" Ident.pp n)
  | Ast.Unop (Ast.Neg, a) -> (
    match (eval_const ctx a).Tast.desc with
    | Tast.Eint n -> mk Types.tid_int (Tast.Eint (-n))
    | _ -> err loc "constant negation needs an integer")
  | Ast.Binop (op, a, b) -> (
    let va = eval_const ctx a and vb = eval_const ctx b in
    match (va.Tast.desc, vb.Tast.desc) with
    | Tast.Eint x, Tast.Eint y -> (
      match op with
      | Ast.Add -> mk Types.tid_int (Tast.Eint (x + y))
      | Ast.Sub -> mk Types.tid_int (Tast.Eint (x - y))
      | Ast.Mul -> mk Types.tid_int (Tast.Eint (x * y))
      | Ast.Div ->
        if y = 0 then err loc "constant division by zero";
        mk Types.tid_int (Tast.Eint (x / y))
      | Ast.Mod ->
        if y = 0 then err loc "constant division by zero";
        mk Types.tid_int (Tast.Eint (x mod y))
      | _ -> err loc "unsupported constant operator")
    | _ -> err loc "constant arithmetic needs integers")
  | _ -> err loc "expression is not constant"

(* ------------------------------------------------------------------ *)
(* Expression checking                                                 *)
(* ------------------------------------------------------------------ *)

let assignable ctx ~src ~dst = src = dst || Types.subtype ctx.env src dst

let lookup_scope ctx name =
  let rec find = function
    | [] -> None
    | (n, e) :: rest -> if Ident.equal n name then Some e else find rest
  in
  find ctx.scope

let builtin_table : (string * Tast.builtin) list =
  [ ("PrintInt", Tast.Bprint_int); ("PrintChar", Tast.Bprint_char);
    ("PrintBool", Tast.Bprint_bool); ("PrintLn", Tast.Bprint_ln);
    ("Ord", Tast.Bord); ("Chr", Tast.Bchr); ("Abs", Tast.Babs);
    ("Min", Tast.Bmin); ("Max", Tast.Bmax); ("Number", Tast.Bnumber);
    ("Halt", Tast.Bhalt) ]

let rec check_expr ctx (e : Ast.expr) : Tast.expr =
  let loc = e.Ast.e_loc in
  let mk ty desc : Tast.expr = { Tast.ty; desc; loc } in
  match e.Ast.e_desc with
  | Ast.Int_lit n -> mk Types.tid_int (Tast.Eint n)
  | Ast.Bool_lit b -> mk Types.tid_bool (Tast.Ebool b)
  | Ast.Char_lit c -> mk Types.tid_char (Tast.Echar c)
  | Ast.String_lit _ -> err loc "string literals are only legal as Print arguments"
  | Ast.Nil -> mk Types.tid_null Tast.Enil
  | Ast.Name n -> (
    match lookup_scope ctx n with
    | Some entry -> mk entry.se_var.Tast.vr_ty (Tast.Evar entry.se_var)
    | None -> (
      match Ident.Tbl.find_opt ctx.consts n with
      | Some v -> { v with Tast.loc }
      | None -> (
        match Ident.Tbl.find_opt ctx.globals n with
        | Some ty ->
          mk ty
            (Tast.Evar { Tast.vr_name = n; vr_kind = Tast.Kglobal; vr_ty = ty })
        | None ->
          if Ident.Tbl.mem ctx.proc_sigs n then
            err loc "procedure '%a' used as a value" Ident.pp n
          else err loc "unknown name '%a'" Ident.pp n)))
  | Ast.Field (base, f) -> check_field ctx loc base f
  | Ast.Deref base -> (
    let b = check_expr ctx base in
    match Types.desc ctx.env b.Tast.ty with
    | Types.Dref { target; _ } -> mk target (Tast.Ederef b)
    | _ -> err loc "cannot dereference a value of type %s" (pp_ty ctx b.Tast.ty))
  | Ast.Index (base, idx) -> (
    let b = check_expr ctx base in
    let i = check_expr ctx idx in
    if i.Tast.ty <> Types.tid_int then err loc "array index must be an INTEGER";
    (* Implicit dereference: subscripting a REF ARRAY subscripts its target. *)
    let b =
      match Types.desc ctx.env b.Tast.ty with
      | Types.Dref { target; _ } when
          (match Types.desc ctx.env target with Types.Darray _ -> true | _ -> false) ->
        { Tast.ty = target; desc = Tast.Ederef b; loc }
      | _ -> b
    in
    match Types.desc ctx.env b.Tast.ty with
    | Types.Darray (_, elem) -> mk elem (Tast.Eindex (b, i))
    | _ -> err loc "cannot subscript a value of type %s" (pp_ty ctx b.Tast.ty))
  | Ast.Binop (op, a, b) -> check_binop ctx loc op a b
  | Ast.Unop (Ast.Neg, a) ->
    let va = check_expr ctx a in
    if va.Tast.ty <> Types.tid_int then err loc "unary '-' needs an INTEGER";
    mk Types.tid_int (Tast.Eunop (Ast.Neg, va))
  | Ast.Unop (Ast.Not, a) ->
    let va = check_expr ctx a in
    if va.Tast.ty <> Types.tid_bool then err loc "NOT needs a BOOLEAN";
    mk Types.tid_bool (Tast.Eunop (Ast.Not, va))
  | Ast.Call (callee, args) -> check_call ctx loc callee args
  | Ast.New (te, args) -> (
    let ty = ctx_elab_ty ctx te in
    match Types.desc ctx.env ty with
    | Types.Dobject _ ->
      if args <> [] then err loc "NEW of an object type takes no arguments";
      mk ty (Tast.Enew (ty, None))
    | Types.Dref { target; _ } -> (
      match Types.desc ctx.env target with
      | Types.Darray (None, _) -> (
        match args with
        | [ n ] ->
          let v = check_expr ctx n in
          if v.Tast.ty <> Types.tid_int then
            err loc "open array length must be an INTEGER";
          mk ty (Tast.Enew (ty, Some v))
        | _ -> err loc "NEW of an open array type needs a length argument")
      | _ ->
        if args <> [] then err loc "NEW of this type takes no arguments";
        mk ty (Tast.Enew (ty, None)))
    | _ -> err loc "NEW needs a reference or object type, got %s" (pp_ty ctx ty))

and check_field ctx loc base f =
  let b = check_expr ctx base in
  let mk ty desc : Tast.expr = { Tast.ty; desc; loc } in
  (* Implicit dereference: [p.f] on a REF RECORD means [p^.f]. *)
  let b =
    match Types.desc ctx.env b.Tast.ty with
    | Types.Dref { target; _ } when
        (match Types.desc ctx.env target with Types.Drecord _ -> true | _ -> false) ->
      { Tast.ty = target; desc = Tast.Ederef b; loc }
    | _ -> b
  in
  match Types.desc ctx.env b.Tast.ty with
  | Types.Drecord _ | Types.Dobject _ -> (
    match Types.find_field ctx.env b.Tast.ty f with
    | Some fld -> mk fld.Types.fld_ty (Tast.Efield (b, f))
    | None ->
      if Types.is_object ctx.env b.Tast.ty
         && Types.lookup_method ctx.env b.Tast.ty f <> None
      then err loc "method '%a' must be called, not read" Ident.pp f
      else
        err loc "type %s has no field '%a'" (pp_ty ctx b.Tast.ty) Ident.pp f)
  | _ -> err loc "cannot select '.%a' from type %s" Ident.pp f (pp_ty ctx b.Tast.ty)

and check_binop ctx loc op a b =
  let va = check_expr ctx a and vb = check_expr ctx b in
  let mk ty desc : Tast.expr = { Tast.ty; desc; loc } in
  let ta = va.Tast.ty and tb = vb.Tast.ty in
  match op with
  | Ast.Add | Ast.Sub | Ast.Mul | Ast.Div | Ast.Mod ->
    if ta <> Types.tid_int || tb <> Types.tid_int then
      err loc "arithmetic needs INTEGER operands";
    mk Types.tid_int (Tast.Ebinop (op, va, vb))
  | Ast.Lt | Ast.Le | Ast.Gt | Ast.Ge ->
    if not ((ta = Types.tid_int && tb = Types.tid_int)
            || (ta = Types.tid_char && tb = Types.tid_char)) then
      err loc "ordering comparison needs INTEGER or CHAR operands";
    mk Types.tid_bool (Tast.Ebinop (op, va, vb))
  | Ast.Eq | Ast.Ne ->
    let compatible =
      ta = tb
      || Types.subtype ctx.env ta tb
      || Types.subtype ctx.env tb ta
    in
    if not (compatible && Types.is_scalar ctx.env ta && Types.is_scalar ctx.env tb)
    then
      err loc "cannot compare %s with %s" (pp_ty ctx ta) (pp_ty ctx tb);
    mk Types.tid_bool (Tast.Ebinop (op, va, vb))
  | Ast.And | Ast.Or ->
    if ta <> Types.tid_bool || tb <> Types.tid_bool then
      err loc "AND/OR need BOOLEAN operands";
    mk Types.tid_bool (Tast.Ebinop (op, va, vb))

and check_args ctx loc ~what params (args : Ast.expr list) : Tast.arg list =
  if List.length params <> List.length args then
    err loc "%s expects %d argument(s), got %d" what (List.length params)
      (List.length args);
  List.map2
    (fun (mode, formal_ty) actual ->
      match mode with
      | Ast.By_value ->
        let v = check_expr ctx actual in
        if not (assignable ctx ~src:v.Tast.ty ~dst:formal_ty) then
          err actual.Ast.e_loc "argument of type %s not assignable to %s"
            (pp_ty ctx v.Tast.ty) (pp_ty ctx formal_ty);
        Tast.Aby_value v
      | Ast.By_ref ->
        let v = check_expr ctx actual in
        if not (Tast.is_designator v) then
          err actual.Ast.e_loc "VAR argument must be a designator";
        (* Modula-3 requires VAR actuals to have the *identical* type. *)
        if v.Tast.ty <> formal_ty then
          err actual.Ast.e_loc "VAR argument must have exactly type %s, got %s"
            (pp_ty ctx formal_ty) (pp_ty ctx v.Tast.ty);
        check_not_readonly ctx actual.Ast.e_loc v;
        Tast.Aby_ref v)
    params args

and check_not_readonly ctx loc (e : Tast.expr) =
  match e.Tast.desc with
  | Tast.Evar vr ->
    (match lookup_scope ctx vr.Tast.vr_name with
    | Some { se_readonly = true; _ } ->
      err loc "'%a' is read-only here" Ident.pp vr.Tast.vr_name
    | _ -> ())
  | _ -> ()

and check_call ctx loc callee args =
  let mk ty desc : Tast.expr = { Tast.ty; desc; loc } in
  match callee.Ast.e_desc with
  | Ast.Name n -> (
    match List.assoc_opt (Ident.name n) builtin_table with
    | Some b -> check_builtin ctx loc b args
    | None -> (
      match Ident.Tbl.find_opt ctx.proc_sigs n with
      | Some psig ->
        let params = List.map (fun (_, m, t) -> (m, t)) psig.sig_params in
        let targs =
          check_args ctx loc ~what:(Ident.name n) params args
        in
        let ret = Option.value psig.sig_ret ~default:Types.tid_unit in
        mk ret (Tast.Ecall_proc (n, targs))
      | None -> err loc "unknown procedure '%a'" Ident.pp n))
  | Ast.Field (recv, m) -> (
    let r = check_expr ctx recv in
    if not (Types.is_object ctx.env r.Tast.ty) then
      err loc "method call on non-object type %s" (pp_ty ctx r.Tast.ty);
    match Types.lookup_method ctx.env r.Tast.ty m with
    | None -> err loc "type %s has no method '%a'" (pp_ty ctx r.Tast.ty) Ident.pp m
    | Some (_, ms) ->
      let targs = check_args ctx loc ~what:(Ident.name m) ms.Types.ms_params args in
      let ret = Option.value ms.Types.ms_ret ~default:Types.tid_unit in
      mk ret (Tast.Ecall_method (r, m, targs)))
  | _ -> err loc "cannot call this expression"

and check_builtin ctx loc b args =
  let mk ty desc : Tast.expr = { Tast.ty; desc; loc } in
  let one ty_wanted name =
    match args with
    | [ a ] ->
      let v = check_expr ctx a in
      if v.Tast.ty <> ty_wanted then
        err loc "%s expects a %s argument" name (pp_ty ctx ty_wanted);
      v
    | _ -> err loc "%s expects one argument" name
  in
  let two ty_wanted name =
    match args with
    | [ a; b' ] ->
      let va = check_expr ctx a and vb = check_expr ctx b' in
      if va.Tast.ty <> ty_wanted || vb.Tast.ty <> ty_wanted then
        err loc "%s expects two %s arguments" name (pp_ty ctx ty_wanted);
      (va, vb)
    | _ -> err loc "%s expects two arguments" name
  in
  match b with
  | Tast.Bprint_int ->
    mk Types.tid_unit (Tast.Ebuiltin (b, [ one Types.tid_int "PrintInt" ]))
  | Tast.Bprint_char ->
    mk Types.tid_unit (Tast.Ebuiltin (b, [ one Types.tid_char "PrintChar" ]))
  | Tast.Bprint_bool ->
    mk Types.tid_unit (Tast.Ebuiltin (b, [ one Types.tid_bool "PrintBool" ]))
  | Tast.Bprint_ln ->
    if args <> [] then err loc "PrintLn expects no arguments";
    mk Types.tid_unit (Tast.Ebuiltin (b, []))
  | Tast.Bhalt ->
    if args <> [] then err loc "Halt expects no arguments";
    mk Types.tid_unit (Tast.Ebuiltin (b, []))
  | Tast.Bord -> mk Types.tid_int (Tast.Ebuiltin (b, [ one Types.tid_char "Ord" ]))
  | Tast.Bchr -> mk Types.tid_char (Tast.Ebuiltin (b, [ one Types.tid_int "Chr" ]))
  | Tast.Babs -> mk Types.tid_int (Tast.Ebuiltin (b, [ one Types.tid_int "Abs" ]))
  | Tast.Bmin ->
    let va, vb = two Types.tid_int "Min" in
    mk Types.tid_int (Tast.Ebuiltin (b, [ va; vb ]))
  | Tast.Bmax ->
    let va, vb = two Types.tid_int "Max" in
    mk Types.tid_int (Tast.Ebuiltin (b, [ va; vb ]))
  | Tast.Bnumber -> (
    match args with
    | [ a ] -> (
      let v = check_expr ctx a in
      let v =
        match Types.desc ctx.env v.Tast.ty with
        | Types.Dref { target; _ } when
            (match Types.desc ctx.env target with
            | Types.Darray _ -> true
            | _ -> false) ->
          { Tast.ty = target; desc = Tast.Ederef v; loc }
        | _ -> v
      in
      match Types.desc ctx.env v.Tast.ty with
      | Types.Darray _ -> mk Types.tid_int (Tast.Ebuiltin (b, [ v ]))
      | _ -> err loc "Number expects an array")
    | _ -> err loc "Number expects one argument")
  | Tast.Bprint_text _ -> assert false  (* constructed below, never looked up *)

(* Print with a string literal argument becomes Bprint_text. *)
and check_call_stmt_expr ctx (e : Ast.expr) : Tast.expr =
  match e.Ast.e_desc with
  | Ast.Call ({ Ast.e_desc = Ast.Name n; _ }, [ { Ast.e_desc = Ast.String_lit s; _ } ])
    when Ident.name n = "Print" ->
    { Tast.ty = Types.tid_unit;
      desc = Tast.Ebuiltin (Tast.Bprint_text s, []);
      loc = e.Ast.e_loc }
  | _ -> check_expr ctx e

(* ------------------------------------------------------------------ *)
(* Statement checking                                                  *)
(* ------------------------------------------------------------------ *)

let rec check_stmts ctx ~ret ~in_loop stmts =
  List.filter_map
    (fun s ->
      attempt ctx ~fallback:None (fun () -> Some (check_stmt ctx ~ret ~in_loop s)))
    stmts

and check_stmt ctx ~ret ~in_loop (s : Ast.stmt) : Tast.stmt =
  let loc = s.Ast.s_loc in
  let mk s_desc : Tast.stmt = { Tast.s_desc; s_loc = loc } in
  match s.Ast.s_desc with
  | Ast.Assign (lhs, rhs) ->
    let l = check_expr ctx lhs in
    if not (Tast.is_designator l) then err loc "assignment target is not a designator";
    check_not_readonly ctx loc l;
    if not (Types.is_scalar ctx.env l.Tast.ty) then
      err loc "aggregate assignment is not supported (assign components instead)";
    let r = check_expr ctx rhs in
    if not (assignable ctx ~src:r.Tast.ty ~dst:l.Tast.ty) then
      err loc "cannot assign %s to %s" (pp_ty ctx r.Tast.ty) (pp_ty ctx l.Tast.ty);
    mk (Tast.Sassign (l, r))
  | Ast.Call_stmt e ->
    let v = check_call_stmt_expr ctx e in
    (match v.Tast.desc with
    | Tast.Ecall_proc _ | Tast.Ecall_method _ | Tast.Ebuiltin _ -> ()
    | _ -> err loc "expression statement must be a call");
    mk (Tast.Scall v)
  | Ast.If (branches, else_) ->
    let branches =
      List.map
        (fun (cond, body) ->
          let c = check_expr ctx cond in
          if c.Tast.ty <> Types.tid_bool then
            err cond.Ast.e_loc "IF condition must be BOOLEAN";
          (c, check_stmts ctx ~ret ~in_loop body))
        branches
    in
    mk (Tast.Sif (branches, check_stmts ctx ~ret ~in_loop else_))
  | Ast.While (cond, body) ->
    let c = check_expr ctx cond in
    if c.Tast.ty <> Types.tid_bool then err loc "WHILE condition must be BOOLEAN";
    mk (Tast.Swhile (c, check_stmts ctx ~ret ~in_loop:true body))
  | Ast.Repeat (body, cond) ->
    let b = check_stmts ctx ~ret ~in_loop:true body in
    let c = check_expr ctx cond in
    if c.Tast.ty <> Types.tid_bool then err loc "UNTIL condition must be BOOLEAN";
    mk (Tast.Srepeat (b, c))
  | Ast.Loop body -> mk (Tast.Sloop (check_stmts ctx ~ret ~in_loop:true body))
  | Ast.For (v, lo, hi, step, body) ->
    let l = check_expr ctx lo and h = check_expr ctx hi in
    if l.Tast.ty <> Types.tid_int || h.Tast.ty <> Types.tid_int then
      err loc "FOR bounds must be INTEGER";
    if step = 0 then err loc "FOR step must be nonzero";
    let vr = { Tast.vr_name = v; vr_kind = Tast.Klocal; vr_ty = Types.tid_int } in
    ctx.scope <- (v, { se_var = vr; se_readonly = true }) :: ctx.scope;
    let body = check_stmts ctx ~ret ~in_loop body in
    ctx.scope <- List.tl ctx.scope;
    mk (Tast.Sfor (vr, l, h, step, body))
  | Ast.Exit ->
    if not in_loop then err loc "EXIT outside of a loop";
    mk Tast.Sexit
  | Ast.Return e -> (
    match (e, ret) with
    | None, None -> mk (Tast.Sreturn None)
    | None, Some _ -> err loc "RETURN needs a value here"
    | Some _, None -> err loc "this procedure returns no value"
    | Some e, Some want ->
      let v = check_expr ctx e in
      if not (assignable ctx ~src:v.Tast.ty ~dst:want) then
        err loc "RETURN type %s does not match %s" (pp_ty ctx v.Tast.ty)
          (pp_ty ctx want);
      mk (Tast.Sreturn (Some v)))
  | Ast.With (binds, body) ->
    let tbinds =
      List.map
        (fun (name, e) ->
          let v = check_expr ctx e in
          let alias = Tast.is_designator v in
          if (not alias) && not (Types.is_scalar ctx.env v.Tast.ty) then
            err loc "WITH value binding must be scalar (or bind a designator)";
          let vr = { Tast.vr_name = name; vr_kind = Tast.Klocal; vr_ty = v.Tast.ty } in
          (* An alias binding is writable (it names a location); a value
             binding is read-only, as in Modula-3. *)
          (vr, alias, v))
        binds
    in
    List.iter
      (fun (vr, alias, _) ->
        ctx.scope <-
          (vr.Tast.vr_name, { se_var = vr; se_readonly = not alias }) :: ctx.scope)
      tbinds;
    let body = check_stmts ctx ~ret ~in_loop body in
    List.iter (fun _ -> ctx.scope <- List.tl ctx.scope) tbinds;
    mk
      (Tast.Swith
         ( List.map
             (fun (vr, alias, v) ->
               { Tast.wb_var = vr; wb_alias = alias; wb_expr = v })
             tbinds,
           body ))

(* ------------------------------------------------------------------ *)
(* Declarations                                                        *)
(* ------------------------------------------------------------------ *)

let check_proc ctx (p : Ast.proc_decl) psig : Tast.proc =
  let saved_scope = ctx.scope in
  (* Parameters. *)
  List.iter
    (fun (name, mode, ty) ->
      if List.mem_assoc name ctx.scope then
        err p.Ast.pr_loc "duplicate parameter '%a'" Ident.pp name;
      let vr = { Tast.vr_name = name; vr_kind = Tast.Kparam mode; vr_ty = ty } in
      ctx.scope <- (name, { se_var = vr; se_readonly = false }) :: ctx.scope)
    psig.sig_params;
  (* Local constants shadow nothing global permanently: record and remove. *)
  let local_consts =
    List.filter_map
      (fun (c : Ast.const_decl) ->
        attempt ctx ~fallback:None (fun () ->
            let v = eval_const ctx c.Ast.c_value in
            Ident.Tbl.add ctx.consts c.Ast.c_name v;
            Some c.Ast.c_name))
      p.Ast.pr_consts
  in
  (* Locals. *)
  let elab_local (v : Ast.var_decl) =
    match Ident.Tbl.find_opt ctx.type_table v.Ast.v_name with
    | Some _ -> err v.Ast.v_loc "local '%a' shadows a type" Ident.pp v.Ast.v_name
    | None -> ()
  in
  let locals =
    List.filter_map
      (fun (v : Ast.var_decl) ->
        attempt ctx ~fallback:None (fun () ->
            elab_local v;
            if List.mem_assoc v.Ast.v_name ctx.scope then
              err v.Ast.v_loc "duplicate local '%a'" Ident.pp v.Ast.v_name;
            let ty = ctx_elab_ty ctx v.Ast.v_ty in
            let vr =
              { Tast.vr_name = v.Ast.v_name; vr_kind = Tast.Klocal; vr_ty = ty }
            in
            ctx.scope <-
              (v.Ast.v_name, { se_var = vr; se_readonly = false }) :: ctx.scope;
            Some (v.Ast.v_name, ty, v.Ast.v_init)))
      p.Ast.pr_locals
  in
  (* Local inits are checked in scope (they may reference params). *)
  let locals =
    List.map
      (fun (name, ty, init) ->
        let init =
          match init with
          | None -> None
          | Some e ->
            attempt ctx ~fallback:None (fun () ->
                let v = check_expr ctx e in
                if not (assignable ctx ~src:v.Tast.ty ~dst:ty) then
                  err e.Ast.e_loc "initializer type %s not assignable to %s"
                    (pp_ty ctx v.Tast.ty) (pp_ty ctx ty);
                if not (Types.is_scalar ctx.env ty) then
                  err e.Ast.e_loc "only scalar locals may have initializers";
                Some v)
        in
        (name, ty, init))
      locals
  in
  let body = check_stmts ctx ~ret:psig.sig_ret ~in_loop:false p.Ast.pr_body in
  List.iter (fun n -> Ident.Tbl.remove ctx.consts n) local_consts;
  ctx.scope <- saved_scope;
  { Tast.p_name = p.Ast.pr_name; p_params = psig.sig_params;
    p_ret = psig.sig_ret; p_locals = locals; p_body = body;
    p_loc = p.Ast.pr_loc }

(* ------------------------------------------------------------------ *)
(* Method implementation signature checks                              *)
(* ------------------------------------------------------------------ *)

let check_method_impls ctx =
  for t = 0 to Types.count ctx.env - 1 do
    match Types.desc ctx.env t with
    | Types.Dobject info ->
      let check_impl ~mname ~proc ~(ms : Types.method_sig) =
        match Ident.Tbl.find_opt ctx.proc_sigs proc with
        | None ->
          Diag.error "method %a.%a bound to unknown procedure '%a'" Ident.pp
            info.Types.obj_name Ident.pp mname Ident.pp proc
        | Some psig -> (
          match psig.sig_params with
          | (_, Ast.By_value, recv_ty) :: rest ->
            if not (Types.subtype ctx.env t recv_ty) then
              Diag.error
                "procedure %a: receiver type %s does not cover %a" Ident.pp proc
                (pp_ty ctx recv_ty) Ident.pp info.Types.obj_name;
            let want = List.map (fun (m, ty) -> (m, ty)) ms.Types.ms_params in
            let got = List.map (fun (_, m, ty) -> (m, ty)) rest in
            if want <> got || psig.sig_ret <> ms.Types.ms_ret then
              Diag.error "procedure %a does not match method %a.%a's signature"
                Ident.pp proc Ident.pp info.Types.obj_name Ident.pp mname
          | _ ->
            Diag.error "procedure %a cannot implement a method (no receiver)"
              Ident.pp proc)
      in
      Array.iter
        (fun (ms : Types.method_sig) ->
          match ms.Types.ms_impl with
          | Some proc ->
            attempt ctx ~fallback:() (fun () ->
                check_impl ~mname:ms.Types.ms_name ~proc ~ms)
          | None -> ())
        info.Types.obj_methods;
      Array.iter
        (fun (mname, proc) ->
          attempt ctx ~fallback:() (fun () ->
              match Option.map snd (Types.lookup_method ctx.env t mname) with
              | None ->
                Diag.error "OVERRIDES %a in %a: no such method" Ident.pp mname
                  Ident.pp info.Types.obj_name
              | Some ms -> check_impl ~mname ~proc ~ms))
        info.Types.obj_overrides
    | _ -> ()
  done

(* ------------------------------------------------------------------ *)
(* Module                                                              *)
(* ------------------------------------------------------------------ *)

let check_module_with ?recover (m : Ast.module_) : Tast.program =
  let env = Types.create () in
  let ctx =
    { env; type_table = Ident.Tbl.create 64; consts = Ident.Tbl.create 16;
      globals = Ident.Tbl.create 32; proc_sigs = Ident.Tbl.create 32;
      scope = []; recover;
      elab = (fun _ -> failwith "type elaborator not initialized") }
  in
  let el =
    { ctx; decl_map = Ident.Tbl.create 64; in_progress = Ident.Set.empty;
      pending = [] }
  in
  ctx.elab <- elab_ty el;
  (* Register type declarations. *)
  List.iter
    (function
      | Ast.Dtype (name, te, loc) ->
        attempt ctx ~fallback:() (fun () ->
            if Ident.Tbl.mem el.decl_map name then
              err loc "duplicate type '%a'" Ident.pp name;
            Ident.Tbl.add el.decl_map name (te, loc))
      | _ -> ())
    m.Ast.mod_decls;
  (* Force elaboration of every named type, then run all patches (patches may
     enqueue more patches for nested declarations). *)
  List.iter
    (function
      | Ast.Dtype (name, te, loc) ->
        attempt ctx ~fallback:() (fun () -> ignore (resolve_name el name loc));
        ignore te
      | _ -> ())
    m.Ast.mod_decls;
  let rec drain () =
    match el.pending with
    | [] -> ()
    | p :: rest ->
      el.pending <- rest;
      attempt ctx ~fallback:() p;
      drain ()
  in
  drain ();
  let type_names =
    List.filter_map
      (function
        | Ast.Dtype (name, _, _) ->
          (* absent only if the declaration failed to elaborate under
             recovery (the error is already recorded) *)
          Option.map (fun t -> (name, t)) (Ident.Tbl.find_opt ctx.type_table name)
        | _ -> None)
      m.Ast.mod_decls
  in
  (* Global constants. *)
  List.iter
    (function
      | Ast.Dconst c ->
        attempt ctx ~fallback:() (fun () ->
            if Ident.Tbl.mem ctx.consts c.Ast.c_name then
              err c.Ast.c_loc "duplicate constant '%a'" Ident.pp c.Ast.c_name;
            Ident.Tbl.add ctx.consts c.Ast.c_name (eval_const ctx c.Ast.c_value))
      | _ -> ())
    m.Ast.mod_decls;
  (* Global variables: declare all first so procedure bodies can see them. *)
  let global_decls =
    List.filter_map
      (function Ast.Dvar v -> Some v | _ -> None)
      m.Ast.mod_decls
  in
  List.iter
    (fun (v : Ast.var_decl) ->
      attempt ctx ~fallback:() (fun () ->
          if Ident.Tbl.mem ctx.globals v.Ast.v_name then
            err v.Ast.v_loc "duplicate global '%a'" Ident.pp v.Ast.v_name;
          Ident.Tbl.add ctx.globals v.Ast.v_name (elab_ty el v.Ast.v_ty)))
    global_decls;
  (* Procedure signatures (two-pass for mutual recursion). *)
  let proc_decls =
    List.filter_map
      (function Ast.Dproc p -> Some p | _ -> None)
      m.Ast.mod_decls
  in
  List.iter
    (fun (p : Ast.proc_decl) ->
      attempt ctx ~fallback:() (fun () ->
          if Ident.Tbl.mem ctx.proc_sigs p.Ast.pr_name then
            err p.Ast.pr_loc "duplicate procedure '%a'" Ident.pp p.Ast.pr_name;
          let params =
            List.map
              (fun (pd : Ast.param_decl) ->
                (pd.Ast.p_name, pd.Ast.p_mode, elab_ty el pd.Ast.p_ty))
              p.Ast.pr_params
          in
          let ret = Option.map (elab_ty el) p.Ast.pr_ret in
          Ident.Tbl.add ctx.proc_sigs p.Ast.pr_name
            { sig_params = params; sig_ret = ret }))
    proc_decls;
  drain ();
  check_method_impls ctx;
  (* Global initializers. *)
  let globals =
    List.filter_map
      (fun (v : Ast.var_decl) ->
        match Ident.Tbl.find_opt ctx.globals v.Ast.v_name with
        | None -> None  (* declaration already failed under recovery *)
        | Some ty ->
          let init =
            match v.Ast.v_init with
            | None -> None
            | Some e ->
              attempt ctx ~fallback:None (fun () ->
                  let tv = check_expr ctx e in
                  if not (assignable ctx ~src:tv.Tast.ty ~dst:ty) then
                    err e.Ast.e_loc "initializer type %s not assignable to %s"
                      (pp_ty ctx tv.Tast.ty) (pp_ty ctx ty);
                  if not (Types.is_scalar ctx.env ty) then
                    err e.Ast.e_loc "only scalar globals may have initializers";
                  Some tv)
          in
          Some (v.Ast.v_name, ty, init))
      global_decls
  in
  (* Procedure bodies. *)
  let procs =
    List.filter_map
      (fun (p : Ast.proc_decl) ->
        match Ident.Tbl.find_opt ctx.proc_sigs p.Ast.pr_name with
        | None -> None  (* signature already failed under recovery *)
        | Some psig ->
          attempt ctx ~fallback:None (fun () -> Some (check_proc ctx p psig)))
      proc_decls
  in
  (* Module body becomes the synthesized main procedure. *)
  let main_body = check_stmts ctx ~ret:None ~in_loop:false m.Ast.mod_body in
  let main =
    { Tast.p_name = Tast.main_ident; p_params = []; p_ret = None;
      p_locals = []; p_body = main_body; p_loc = m.Ast.mod_loc }
  in
  { Tast.module_name = m.Ast.mod_name; tenv = env; type_names; globals;
    procs = procs @ [ main ]; main_name = Tast.main_ident }

let check_module m = check_module_with m

let check_module_all m =
  let c = Diag.collector () in
  match check_module_with ~recover:c m with
  | p -> if Diag.has_errors c then Error (Diag.diags c) else Ok p
  | exception Diag.Compile_error d -> Error (Diag.diags c @ [ d ])

let check_string ?(file = "<string>") src =
  check_module (Parser.parse_module ~file src)

let check_string_all ?(file = "<string>") src =
  match Parser.parse_module ~file src with
  | m -> check_module_all m
  | exception Diag.Compile_error d -> Error [ d ]
