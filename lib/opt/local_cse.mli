(** Baseline block-local redundant-load elimination with a trivial alias
    model: any store or call kills every memory expression.

    The paper normalizes against GCC with standard optimizations, and "GCC
    eliminates redundant loads without any assignments to memory between
    them" — this pass is that baseline. The harness applies it to every
    configuration (base and TBAA-optimized alike), mirroring the paper's
    setup where the GCC back end runs regardless of what WPO did. *)

val pass : Pass.t
(** The GCC-like baseline as a schedulable pass. Stats: [eliminated]. *)
