(** Redundant load elimination (paper §3.4.1, Figures 6–7).

    Two phases per procedure, both driven by the alias oracle and the
    interprocedural mod-ref summaries:

    - {b loop-invariant load motion}: a load whose access path is invariant
      in a loop (its base and index variables are not redefined and no
      store or call in the loop may write any prefix of the path) and whose
      block executes on every iteration is moved to the loop preheader;
    - {b redundant-load CSE}: a forward must-availability analysis over the
      procedure's distinct load expressions; a load whose expression is
      available is replaced by a register copy from the expression's home
      temporary. A store makes its own path available (store-to-load
      forwarding), exactly like GCC's baseline behaviour the paper
      normalizes against.

    Like the paper's implementation, this does no partial redundancy
    elimination and no copy propagation — those two gaps are what the
    Conditional and Breakup categories of Figure 10 measure. *)

open Tbaa

type stats = {
  mutable hoisted : int;  (* loads (or load prefixes) moved to preheaders *)
  mutable eliminated : int;  (* loads replaced by register copies *)
  mutable shortened : int;  (* loads whose available prefix was reused *)
}

val removed : stats -> int
(** Total loads removed statically — the paper's Table 6 number. *)

val run_proc :
  ?claims:Claims.t ->
  ?fresh:(name:string -> ty:Minim3.Types.tid -> kind:Ir.Reg.kind -> Ir.Reg.var) ->
  Ir.Cfg.program -> Mem_index.t -> Ir.Cfg.proc -> stats
(** One procedure, its kill sets taken from the procedure's effect index
    (which must have witnesses when [claims] is given). [fresh] overrides
    the home-temporary allocator (defaults to {!Ir.Cfg.fresh_var} on the
    program counter); the per-procedure engine passes its deterministic
    laced allocator. *)

val run : ?modref:Modref.t -> ?claims:Claims.t -> Ir.Cfg.program -> Oracle.t -> stats
(** Run over every procedure. Computes mod-ref summaries unless an
    explicit [modref] (e.g. {!Modref.conservative}) is supplied. With
    [claims], the alias/kill answers relied on — and the home temporaries
    introduced — are logged for the dynamic soundness auditor. *)

val pass : Pass.t
(** Runs over the procedure's effect index ([Pass.pc_index]). [changed]
    iff any load was removed; always [mutated].
    Stats: [hoisted], [eliminated], [shortened]. *)
