(** Dead-store elimination driven by the alias oracle and the
    interprocedural ref summaries.

    A store is removed when, on every path below it, another store to the
    exact same access path overwrites its cell before anything may read
    it or change what the path denotes: no load of a may-aliasing prefix,
    no store or call that may write the path's base-variable slot or a
    prefix cell (after which the path names a different cell), no call
    whose callees' transitive ref sets may read a cell of the store's
    class, no read of a memory-resident register the store could have
    written, and no redefinition of the path's variables — direct, or
    through memory for globals and address-taken variables. Backward
    must-analysis over {!Ir.Dataflow}, iterated until no sweep removes a
    store.

    Nothing is assumed dead at procedure exit, so last stores always
    survive — which is also what makes a bad oracle answer auditable: the
    surviving killer store and the may-aliasing load both touch the
    contested cell at runtime. With [claims], every alias answer relied
    on is logged under kind ["dse"]. *)

val pass : Pass.t
(** Runs over the procedure's effect index ([Pass.pc_index]).
    [changed] and [mutated] iff any store was removed. Stats: [removed]. *)
