(** Intraprocedural copy propagation.

    The paper attributes the Breakup bucket of Figure 10 to its optimizer
    doing no copy propagation: when a pointer flows through a variable
    ([p := t] then [p.val]), the access paths [p.val] and [t.val] are
    syntactically different and RLE cannot connect them. This pass
    replaces uses of a variable with its (transitively) available copy
    source, canonicalizing path bases so a second RLE pass can.

    Only register-resident variables participate: globals and variables
    whose bare address is taken can change behind the compiler's back and
    are excluded from both sides of a copy. *)

val pass : Pass.t
(** An {!Pass.Enabling} pass: base canonicalization keeps finding cosmetic
    copies round after round, so its [changed] flag must not drive
    fixed-point convergence — only what it unlocks for RLE counts. Stats:
    [replaced]. *)
