(** Interprocedural mod-ref analysis (paper §3.4.1: "RLE is preceded by a
    mod-ref analysis which summarizes the access paths that are referenced
    and modified by each call").

    Each procedure is summarized by the abstract location classes it may
    write ([mods]) and read ([refs]), closed transitively over the call
    graph (virtual calls contribute every possible implementation). Only
    externally visible effects enter a summary: heap stores, writes through
    by-reference formals, and global-variable assignments — never a
    procedure's own registers. *)

open Support
open Tbaa

type summary = { mods : Aloc.Set.t; refs : Aloc.Set.t }

type t

val compute : Ir.Cfg.program -> Oracle.t -> t
(** The monolithic whole-program computation (single-pass direct effects,
    transitive closure over the call graph) — the differential baseline
    the suite checks {!of_engine} against. *)

val of_engine : Engine.t -> Engine.kind -> t
(** A view over the incremental engine's merged mod-ref effects — same
    answers as {!compute} on the engine's program and oracle, but built
    from the per-procedure summaries the engine caches and invalidates. *)

val conservative : Ir.Cfg.program -> t
(** No summaries: every call may write anything (the ABL3 ablation —
    what RLE looks like without interprocedural mod-ref). *)

val summary : t -> Ident.t -> summary
(** Empty for unknown procedures. *)

val call_kill_pred :
  t -> Oracle.t -> Ir.Instr.target -> Ir.Apath.t list -> bool
(** May executing this call change the value of a memory expression? The
    call-side data (callee mod sets) is resolved once at partial
    application; the returned predicate takes the expression's query
    paths (its base variable as a path followed by its prefixes) and holds
    iff some possible callee's mod set may write one of them. *)

val call_ref_pred :
  t -> Oracle.t -> Ir.Instr.target -> Ir.Apath.t list -> bool
(** The read-side dual of {!call_kill_pred}: may executing the call
    {e read} any of the expression's cells (per the callees' transitive
    ref sets)? Dead-store elimination keeps a store live across any call
    that may observe it. Conservative ([fun _ -> true]) under
    {!conservative}. *)
