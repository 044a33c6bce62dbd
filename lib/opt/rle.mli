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

val pass : Pass.t
(** Runs over the procedure's effect index ([Pass.pc_index]), allocating
    home temporaries with [Pass.pc_fresh]. With [Pass.pc_claims], the
    alias/kill answers relied on — and the home temporaries introduced —
    are logged for the dynamic soundness auditor. [changed] iff any load
    was removed; always [mutated]. Stats: [hoisted] (loads or load
    prefixes moved to preheaders), [eliminated] (loads replaced by
    register copies), [shortened] (loads whose available prefix was
    reused); their sum is the paper's Table 6 number. *)
