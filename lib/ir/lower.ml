open Support
open Minim3

type binding =
  | Bdirect of Reg.var  (* ordinary variable: uses access it directly *)
  | Balias of Reg.var  (* variable holds the ADDRESS of the bound location *)

type state = {
  program : Cfg.program;
  tast : Tast.program;
  proc : Cfg.proc;
  mutable cur : Cfg.block;
  mutable cur_rev : Instr.t list;  (* instructions of [cur], reversed *)
  mutable env : binding Ident.Map.t;
  mutable exit_stack : int list;  (* EXIT jump targets, innermost first *)
  globals : Reg.var Ident.Tbl.t;
  temp_names : Ident.t option array;  (* "t" and "a", once interned *)
}

let tenv st = st.program.Cfg.tenv

let emit st i = st.cur_rev <- i :: st.cur_rev

(* Seal the current block's instruction list and switch to [b]. *)
let switch_to st b =
  st.cur.Cfg.b_instrs <- List.rev st.cur_rev;
  st.cur <- b;
  st.cur_rev <- []

let terminate st term next =
  st.cur.Cfg.b_term <- term;
  switch_to st next

(* Each procedure interns a temporary's name on its first use, not the
   module on load, so ident ids keep following first use. *)
let temp_var st slot spelling kind ~ty =
  let name =
    match st.temp_names.(slot) with
    | Some name -> name
    | None ->
      let name = Ident.intern spelling in
      st.temp_names.(slot) <- Some name;
      name
  in
  Cfg.new_var st.program ~name ~ty ~kind

let fresh_temp st ~ty = temp_var st 0 "t" Reg.Vtemp ~ty
let fresh_addr st ~ty = temp_var st 1 "a" Reg.Vaddr ~ty

let lookup st name =
  match Ident.Map.find_opt name st.env with
  | Some b -> b
  | None -> (
    match Ident.Tbl.find_opt st.globals name with
    | Some v -> Bdirect v
    | None -> Diag.error "lower: unbound variable '%a'" Ident.pp name)

(* ------------------------------------------------------------------ *)
(* Designators -> access paths                                         *)
(* ------------------------------------------------------------------ *)

(* Build the access path a designator denotes. Non-designator pointer bases
   (e.g. a call returning an object) are evaluated into a temporary that
   becomes the path's base. *)
let rec lower_path st (e : Tast.expr) : Apath.t =
  match e.Tast.desc with
  | Tast.Evar vr -> (
    match lookup st vr.Tast.vr_name with
    | Bdirect v -> Apath.of_var v
    | Balias v -> Apath.extend (Apath.of_var v) (Apath.Sderef v.Reg.v_ty))
  | Tast.Efield (base, f) ->
    Apath.extend (lower_path st base) (Apath.Sfield (f, e.Tast.ty))
  | Tast.Ederef base -> Apath.extend (lower_path st base) (Apath.Sderef e.Tast.ty)
  | Tast.Eindex (base, idx) ->
    let i = lower_expr st idx in
    Apath.extend (lower_path st base) (Apath.Sindex (i, e.Tast.ty))
  | _ ->
    (* Pointer-valued non-designator: materialize into a temp base. *)
    let a = lower_expr st e in
    (match a with
    | Reg.Avar v -> Apath.of_var v
    | _ ->
      let t = fresh_temp st ~ty:e.Tast.ty in
      emit st (Instr.Iassign (t, Instr.Ratom a));
      Apath.of_var t)

(* ------------------------------------------------------------------ *)
(* Expressions                                                         *)
(* ------------------------------------------------------------------ *)

and lower_expr st (e : Tast.expr) : Reg.atom =
  match e.Tast.desc with
  | Tast.Eint n -> Reg.Aint n
  | Tast.Ebool b -> Reg.Abool b
  | Tast.Echar c -> Reg.Achar c
  | Tast.Enil -> Reg.Anil
  | Tast.Evar _ | Tast.Efield _ | Tast.Ederef _ | Tast.Eindex _ ->
    let ap = lower_path st e in
    if Apath.is_memory_ref ap then begin
      let t = fresh_temp st ~ty:e.Tast.ty in
      emit st (Instr.Iload (t, ap));
      Reg.Avar t
    end
    else Reg.Avar (Apath.base ap)
  | Tast.Ebinop (Ast.And, a, b) -> lower_short_circuit st ~is_and:true a b
  | Tast.Ebinop (Ast.Or, a, b) -> lower_short_circuit st ~is_and:false a b
  | Tast.Ebinop (op, a, b) ->
    let va = lower_expr st a in
    let vb = lower_expr st b in
    let t = fresh_temp st ~ty:e.Tast.ty in
    emit st (Instr.Iassign (t, Instr.Rbinop (op, va, vb)));
    Reg.Avar t
  | Tast.Eunop (op, a) ->
    let va = lower_expr st a in
    let t = fresh_temp st ~ty:e.Tast.ty in
    emit st (Instr.Iassign (t, Instr.Runop (op, va)));
    Reg.Avar t
  | Tast.Ecall_proc (p, args) -> lower_call st ~ret_ty:e.Tast.ty (Instr.Cdirect p) None args
  | Tast.Ecall_method (recv, m, args) ->
    let r = lower_expr st recv in
    lower_call st ~ret_ty:e.Tast.ty
      (Instr.Cvirtual (m, recv.Tast.ty))
      (Some r) args
  | Tast.Ebuiltin (b, args) ->
    let atoms = List.map (lower_builtin_arg st) args in
    if e.Tast.ty = Types.tid_unit then begin
      emit st (Instr.Ibuiltin (None, b, atoms));
      Reg.Aint 0
    end
    else begin
      let t = fresh_temp st ~ty:e.Tast.ty in
      emit st (Instr.Ibuiltin (Some t, b, atoms));
      Reg.Avar t
    end
  | Tast.Enew (ty, len) ->
    let len = Option.map (lower_expr st) len in
    let t = fresh_temp st ~ty in
    emit st (Instr.Inew (t, ty, len));
    Reg.Avar t

(* NUMBER's argument is an array designator: pass the address of the array
   (its dope) rather than loading the aggregate. *)
and lower_builtin_arg st (e : Tast.expr) : Reg.atom =
  match Types.desc (tenv st) e.Tast.ty with
  | Types.Darray _ ->
    let ap = lower_path st e in
    if Apath.is_memory_ref ap then begin
      (* The path denotes the array location; take its address. *)
      let t = fresh_addr st ~ty:e.Tast.ty in
      emit st (Instr.Iaddr (t, ap));
      Reg.Avar t
    end
    else Reg.Avar (Apath.base ap)
  | _ -> lower_expr st e

and lower_call st ~ret_ty target recv args =
  let lowered =
    List.map
      (function
        | Tast.Aby_value e -> lower_expr st e
        | Tast.Aby_ref e ->
          let ap = lower_path st e in
          let t = fresh_addr st ~ty:e.Tast.ty in
          emit st (Instr.Iaddr (t, ap));
          Reg.Avar t)
      args
  in
  let all_args = match recv with Some r -> r :: lowered | None -> lowered in
  if ret_ty = Types.tid_unit then begin
    emit st (Instr.Icall (None, target, all_args));
    Reg.Aint 0
  end
  else begin
    let t = fresh_temp st ~ty:ret_ty in
    emit st (Instr.Icall (Some t, target, all_args));
    Reg.Avar t
  end

and lower_short_circuit st ~is_and a b =
  let t = fresh_temp st ~ty:Types.tid_bool in
  let va = lower_expr st a in
  emit st (Instr.Iassign (t, Instr.Ratom va));
  let b_rhs = Cfg.new_block st.proc (Instr.Treturn None) in
  let b_end = Cfg.new_block st.proc (Instr.Treturn None) in
  let term =
    if is_and then Instr.Tbranch (va, b_rhs.Cfg.b_id, b_end.Cfg.b_id)
    else Instr.Tbranch (va, b_end.Cfg.b_id, b_rhs.Cfg.b_id)
  in
  terminate st term b_rhs;
  let vb = lower_expr st b in
  emit st (Instr.Iassign (t, Instr.Ratom vb));
  terminate st (Instr.Tjump b_end.Cfg.b_id) b_end;
  Reg.Avar t

(* ------------------------------------------------------------------ *)
(* Statements                                                          *)
(* ------------------------------------------------------------------ *)

let rec lower_stmts st stmts = List.iter (lower_stmt st) stmts

and lower_stmt st (s : Tast.stmt) =
  match s.Tast.s_desc with
  | Tast.Sassign (lhs, rhs) -> (
    let r = lower_expr st rhs in
    let ap = lower_path st lhs in
    if Apath.is_memory_ref ap then emit st (Instr.Istore (ap, r))
    else emit st (Instr.Iassign (Apath.base ap, Instr.Ratom r)))
  | Tast.Scall e -> ignore (lower_expr st e)
  | Tast.Sif (branches, else_) -> lower_if st branches else_
  | Tast.Swhile (cond, body) ->
    let header = Cfg.new_block st.proc (Instr.Treturn None) in
    let body_b = Cfg.new_block st.proc (Instr.Treturn None) in
    let after = Cfg.new_block st.proc (Instr.Treturn None) in
    terminate st (Instr.Tjump header.Cfg.b_id) header;
    let c = lower_expr st cond in
    terminate st (Instr.Tbranch (c, body_b.Cfg.b_id, after.Cfg.b_id)) body_b;
    st.exit_stack <- after.Cfg.b_id :: st.exit_stack;
    lower_stmts st body;
    st.exit_stack <- List.tl st.exit_stack;
    terminate st (Instr.Tjump header.Cfg.b_id) after
  | Tast.Srepeat (body, cond) ->
    let body_b = Cfg.new_block st.proc (Instr.Treturn None) in
    let after = Cfg.new_block st.proc (Instr.Treturn None) in
    terminate st (Instr.Tjump body_b.Cfg.b_id) body_b;
    st.exit_stack <- after.Cfg.b_id :: st.exit_stack;
    lower_stmts st body;
    st.exit_stack <- List.tl st.exit_stack;
    let c = lower_expr st cond in
    terminate st (Instr.Tbranch (c, after.Cfg.b_id, body_b.Cfg.b_id)) after
  | Tast.Sloop body ->
    let body_b = Cfg.new_block st.proc (Instr.Treturn None) in
    let after = Cfg.new_block st.proc (Instr.Treturn None) in
    terminate st (Instr.Tjump body_b.Cfg.b_id) body_b;
    st.exit_stack <- after.Cfg.b_id :: st.exit_stack;
    lower_stmts st body;
    st.exit_stack <- List.tl st.exit_stack;
    terminate st (Instr.Tjump body_b.Cfg.b_id) after
  | Tast.Sfor (vr, lo, hi, step, body) ->
    let iv =
      Cfg.new_var st.program ~name:vr.Tast.vr_name ~ty:Types.tid_int
        ~kind:Reg.Vlocal
    in
    let limit = fresh_temp st ~ty:Types.tid_int in
    let vlo = lower_expr st lo in
    let vhi = lower_expr st hi in
    emit st (Instr.Iassign (iv, Instr.Ratom vlo));
    emit st (Instr.Iassign (limit, Instr.Ratom vhi));
    let header = Cfg.new_block st.proc (Instr.Treturn None) in
    let body_b = Cfg.new_block st.proc (Instr.Treturn None) in
    let after = Cfg.new_block st.proc (Instr.Treturn None) in
    terminate st (Instr.Tjump header.Cfg.b_id) header;
    let cond = fresh_temp st ~ty:Types.tid_bool in
    let cmp = if step > 0 then Ast.Le else Ast.Ge in
    emit st (Instr.Iassign (cond, Instr.Rbinop (cmp, Reg.Avar iv, Reg.Avar limit)));
    terminate st
      (Instr.Tbranch (Reg.Avar cond, body_b.Cfg.b_id, after.Cfg.b_id))
      body_b;
    let saved = st.env in
    st.env <- Ident.Map.add vr.Tast.vr_name (Bdirect iv) st.env;
    st.exit_stack <- after.Cfg.b_id :: st.exit_stack;
    lower_stmts st body;
    st.exit_stack <- List.tl st.exit_stack;
    st.env <- saved;
    emit st (Instr.Iassign (iv, Instr.Rbinop (Ast.Add, Reg.Avar iv, Reg.Aint step)));
    terminate st (Instr.Tjump header.Cfg.b_id) after
  | Tast.Sexit -> (
    match st.exit_stack with
    | target :: _ ->
      let dead = Cfg.new_block st.proc (Instr.Treturn None) in
      terminate st (Instr.Tjump target) dead
    | [] -> Diag.error "lower: EXIT outside loop")
  | Tast.Sreturn e ->
    let v = Option.map (lower_expr st) e in
    let dead = Cfg.new_block st.proc (Instr.Treturn None) in
    terminate st (Instr.Treturn v) dead
  | Tast.Swith (binds, body) ->
    let saved = st.env in
    List.iter
      (fun (wb : Tast.with_bind) ->
        let name = wb.Tast.wb_var.Tast.vr_name in
        if wb.Tast.wb_alias then begin
          let ap = lower_path st wb.Tast.wb_expr in
          let t = fresh_addr st ~ty:wb.Tast.wb_expr.Tast.ty in
          emit st (Instr.Iaddr (t, ap));
          st.env <- Ident.Map.add name (Balias t) st.env
        end
        else begin
          let a = lower_expr st wb.Tast.wb_expr in
          let t =
            Cfg.new_var st.program ~name ~ty:wb.Tast.wb_expr.Tast.ty
              ~kind:Reg.Vlocal
          in
          emit st (Instr.Iassign (t, Instr.Ratom a));
          st.env <- Ident.Map.add name (Bdirect t) st.env
        end)
      binds;
    lower_stmts st body;
    st.env <- saved

and lower_if st branches else_ =
  let after = Cfg.new_block st.proc (Instr.Treturn None) in
  let rec go = function
    | [] ->
      lower_stmts st else_;
      terminate st (Instr.Tjump after.Cfg.b_id)
        after
    | (cond, body) :: rest ->
      let c = lower_expr st cond in
      let then_b = Cfg.new_block st.proc (Instr.Treturn None) in
      let else_b = Cfg.new_block st.proc (Instr.Treturn None) in
      terminate st (Instr.Tbranch (c, then_b.Cfg.b_id, else_b.Cfg.b_id)) then_b;
      lower_stmts st body;
      st.cur.Cfg.b_term <- Instr.Tjump after.Cfg.b_id;
      switch_to st else_b;
      go rest
  in
  go branches

(* ------------------------------------------------------------------ *)
(* Procedures and programs                                             *)
(* ------------------------------------------------------------------ *)

let lower_proc program tast globals (tp : Tast.proc) : Cfg.proc =
  let params =
    List.map
      (fun (name, mode, ty) ->
        { Reg.v_id =
            (let id = program.Cfg.next_var_id in
             program.Cfg.next_var_id <- id + 1;
             id);
          v_name = name; v_ty = ty; v_kind = Reg.Vparam mode })
      tp.Tast.p_params
  in
  let proc =
    { Cfg.pr_name = tp.Tast.p_name; pr_params = params; pr_ret = tp.Tast.p_ret;
      pr_blocks = Vec.create (); pr_entry = 0; pr_locals = [] }
  in
  let entry = Cfg.new_block proc (Instr.Treturn None) in
  let st =
    { program; tast; proc; cur = entry; cur_rev = []; env = Ident.Map.empty;
      temp_names = [| None; None |];
      exit_stack = []; globals }
  in
  (* By-reference formals hold addresses: every use goes through an
     explicit dereference, which is how the alias analyses see them. *)
  List.iter
    (fun v ->
      let binding =
        match v.Reg.v_kind with
        | Reg.Vparam Ast.By_ref -> Balias v
        | _ -> Bdirect v
      in
      st.env <- Ident.Map.add v.Reg.v_name binding st.env)
    params;
  (* Locals: declare, then run scalar initializers in order. *)
  let locals =
    List.map
      (fun (name, ty, init) ->
        let v = Cfg.new_var program ~name ~ty ~kind:Reg.Vlocal in
        st.env <- Ident.Map.add name (Bdirect v) st.env;
        (v, init))
      tp.Tast.p_locals
  in
  proc.Cfg.pr_locals <- List.map fst locals;
  List.iter
    (fun (v, init) ->
      match init with
      | Some e ->
        let a = lower_expr st e in
        emit st (Instr.Iassign (v, Instr.Ratom a))
      | None -> ())
    locals;
  lower_stmts st tp.Tast.p_body;
  (* Implicit return at the end of the body. *)
  st.cur.Cfg.b_term <- Instr.Treturn None;
  st.cur.Cfg.b_instrs <- List.rev st.cur_rev;
  proc

let lower_program (tast : Tast.program) : Cfg.program =
  let globals = Ident.Tbl.create 32 in
  let program =
    { Cfg.tenv = tast.Tast.tenv; prog_globals = []; prog_procs = [];
      prog_main = tast.Tast.main_name; next_var_id = 0 }
  in
  let global_vars =
    List.map
      (fun (name, ty, _) ->
        let v = Cfg.new_var program ~name ~ty ~kind:Reg.Vglobal in
        Ident.Tbl.add globals name v;
        v)
      tast.Tast.globals
  in
  let program = { program with Cfg.prog_globals = global_vars } in
  let procs = List.map (lower_proc program tast globals) tast.Tast.procs in
  program.Cfg.prog_procs <- procs;
  (* Prepend global initializers to main. *)
  let main = Cfg.find_proc program tast.Tast.main_name in
  let inits =
    List.filter_map
      (fun (name, _, init) ->
        Option.map (fun e -> (Ident.Tbl.find globals name, e)) init)
      tast.Tast.globals
  in
  if inits <> [] then begin
    (* Build an init block that runs before the old entry. *)
    let init_block = Cfg.new_block main (Instr.Tjump main.Cfg.pr_entry) in
    let st =
      { program; tast; proc = main; cur = init_block; cur_rev = [];
        temp_names = [| None; None |];
        env = Ident.Map.empty; exit_stack = []; globals }
    in
    List.iter
      (fun (gvar, e) ->
        let a = lower_expr st e in
        emit st (Instr.Iassign (gvar, Instr.Ratom a)))
      inits;
    (* Seal: the current block after lowering inits jumps to the old entry. *)
    st.cur.Cfg.b_term <- Instr.Tjump main.Cfg.pr_entry;
    st.cur.Cfg.b_instrs <- List.rev st.cur_rev;
    main.Cfg.pr_entry <- init_block.Cfg.b_id
  end;
  program

let lower_string ?(file = "<string>") src =
  lower_program (Typecheck.check_string ~file src)
