(** Recursive-descent parser for MiniM3.

    The grammar is LL(2) — one token of lookahead everywhere except
    distinguishing a supertype name from a plain type name in
    [T = Super OBJECT ... END]. *)

val parse_module : file:string -> string -> Ast.module_
(** Parse a full compilation unit, which must end at [END Name.]. Raises
    {!Support.Diag.Compile_error} on syntax errors (including trailing
    tokens), with the offending location. *)

val parse_expr_string : string -> Ast.expr
(** Parse a single expression and nothing after it (testing
    convenience). *)
