(** Dead-code elimination over registers, driven by backward liveness.

    Removes pure instructions whose destination is dead: register moves and
    ALU ops, loads (safe to drop under MiniM3's total semantics — even a
    faulting load has no observable effect), address materializations and
    allocations. Calls, builtins and stores always stay. Globals and
    variables whose bare address is taken are treated as always-live (other
    procedures or pointers may read them), as are terminator operands and
    everything a surviving instruction uses.

    Runs to a fixed point so chains of dead definitions disappear. Not part
    of the calibrated evaluation pipeline (the cost model already charges
    zero for register moves); exposed for the CLI and as infrastructure. *)

val pass : Pass.t
(** Stats: [removed]. *)
