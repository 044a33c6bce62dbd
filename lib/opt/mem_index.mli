(** One procedure's memory-effect index, shared by every TBAA client.

    For each instruction the index answers "may it write (kill) cell c?"
    and "may it read cell c, or change which cell c's path denotes?",
    where a cell is an access path. Answers come from the alias oracle and
    the interprocedural mod-ref summaries — this module is the only place
    the optimizer's clients turn those into kill and read sets. An
    instruction's effect is the union of legs (its definition, its store,
    call, loads and register reads), each a function of one fact (a
    variable, a path or a call target); each leg's answer for a cell is
    computed at most once, however many instructions share the fact and
    however many clients ask. RLE (hoisting and CSE), PRE, SLF, LICM, DSE and the
    limit-study classifier all derive their transfer sets from it.

    An index is valid for one analysis revision: the oracle and mod-ref it
    was built over. Rewrites inside the procedure do not stale it (answers
    are keyed by facts, not by instruction positions), so the
    pass manager shares one index per procedure across consecutive passes
    until the analysis is invalidated.

    Claims: with [witnesses], the index keeps, for every answer, the
    oracle queries behind it (the pair of witness paths and the answer).
    A client view with a ledger records those pairs under the client's own
    kind each time it materializes a set, so every client's bets stay
    attributed to it even when another client computed the answer. *)

open Tbaa

type t

val create : ?witnesses:bool -> Oracle.t -> Modref.t -> t
(** An empty index over the given oracle and mod-ref. [witnesses]
    (default [false]) keeps the witness pairs a ledger needs. *)

val set_oracle : t -> Oracle.t Lazy.t -> unit
(** Answer missing questions through another oracle from now on — one
    with the same answers (a fresh memoizing cache over the same raw
    oracle), so that a retained index does not keep a pass's cache alive.
    It is forced only if some answer is missing. *)

val release : t -> Oracle.t -> bool
(** [release t o] ends a pass's run over the procedure: later questions
    go through [o] (the raw oracle, so the run's cache can die), and the
    read answers are dropped — they serve one client within one pass,
    while the write answers serve every client across passes. [false]
    when no answer is left, so the index is not worth keeping. *)

val witnesses : t -> bool

val memory_resident : t -> Ir.Reg.var -> bool
(** A global or address-taken variable: its slot is memory that stores
    and calls may write. *)

(** {1 Client views} *)

type view
(** A client's numbering of the cells it tracks: position [j] of the
    view stands for the [j]-th path it was built from (duplicates
    allowed). Each leg's set is materialized once per view. *)

val view : ?claims:Claims.t -> ?kind:string -> t -> Ir.Apath.t array -> view
(** With [claims], every materialized set logs the oracle answers behind
    its bits under [kind] (default ["rle"]); the index must then have
    been created with [witnesses]. *)

val writes : view -> Ir.Instr.t -> Support.Bitset.t
(** The view positions whose path the instruction may change the value
    of: a store that may alias a prefix or overwrite the base variable's
    slot, a call whose callees may write one, or a definition of a
    variable the path reads (directly, or through memory for a global or
    address-taken variable). Shared: do not mutate. *)

val reads : view -> Ir.Instr.t -> Support.Bitset.t
(** The view positions whose cell the instruction may read, or whose
    denotation it may change (a write to the base slot or a proper
    prefix, a redefinition of a variable the path reads). Writing the
    cell itself is not a read. Shared: do not mutate. *)

val invariant :
  ?claims:Claims.t ->
  ?kind:string ->
  t ->
  Ir.Instr.t list ->
  Ir.Apath.t list ->
  Ir.Apath.t ->
  bool
(** [invariant t body paths] is the loop-invariance test over [paths]:
    [p] (one of [paths]) is invariant when no instruction of [body] may
    change its value ({!writes}), which covers redefinitions of its base
    and index variables. Claims as for {!view}. *)
