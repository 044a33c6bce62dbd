(** Single-pass lexer for MiniM3.

    Comments are Modula-3 style [(* ... *)] and nest. Character literals use
    single quotes with [\n], [\t], [\\], [\'] escapes; string literals (used
    only as arguments to the Print builtin) use double quotes with the same
    escapes.

    {!scan} reads the whole source once and fills a token stream: one
    {!Token.t} per token and its start position packed into an [int];
    a {!Support.Loc.t} is built only when {!loc} asks for one. *)

type t
(** A scanned compilation unit. Tokens are numbered from [0]; the last one
    is [EOF]. *)

val scan : file:string -> string -> t
(** [scan ~file source] tokenizes all of [source]; [file] is used in
    locations only. Raises {!Support.Diag.Compile_error} at the first
    malformed token. *)

val count : t -> int
(** The number of tokens, [EOF] included. *)

val token : t -> int -> Token.t
(** [token t i] for [0 <= i < count t]. *)

val loc : t -> int -> Support.Loc.t
(** Where token [i] starts. *)

val ident : t -> int -> Support.Ident.t
(** The interned name of token [i], which must be an [IDENT]. A scan
    interns each distinct spelling once, on its first request, so names
    are interned in the order the parser consumes them. *)

val to_list : t -> (Token.t * Support.Loc.t) list
(** The whole stream as a list (tests and tools). *)
