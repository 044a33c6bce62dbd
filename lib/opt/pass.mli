(** The optimization-pass interface and its shared analysis context.

    A pass is a named transformation that declares its {!scope}: a
    whole-program pass (devirtualization, inlining — anything that moves
    code across procedure boundaries) receives the shared {!context} and
    the whole program; a per-procedure pass (the paper's clients — RLE,
    and DSE/SLF/LICM/PRE/copyprop/local-CSE/DCE) provides a [run_proc]
    over one procedure and a {!proc_context}, and the {!Pass_manager}
    derives the whole-program run generically — sequentially or across
    {!Support.Domain_pool} domains, with byte-identical results either
    way.

    Passes pull the alias analysis they need from a {!context}, which
    keeps one incremental {!Tbaa.Engine} and marks whether it describes
    the program's current state. Re-analyses after a mutating pass are
    {!Tbaa.Engine.update}s, so their cost tracks how much of the program
    actually changed. *)

open Tbaa

type oracle_kind = Otype_decl | Ofield_type_decl | Osm_field_type_refs

val oracle_name : oracle_kind -> string

val engine_kind : oracle_kind -> Engine.kind
(** The engine's name for the kind: [Engine.oracle e (engine_kind k)] is
    the uncached oracle of that kind. *)

(** {1 Context} *)

type fault = {
  f_seed : int;
  f_rate : float;
  f_class_kills : bool;
  f_stats : Oracle_fault.stats;  (** flips actually applied, cumulative *)
}
(** Fault-injection configuration: when installed in a context, every
    oracle handed to passes is wrapped in {!Tbaa.Oracle_fault} (under the
    memoizing cache, so flips stay consistent). *)

val fault : ?flip_class_kills:bool -> seed:int -> rate:float -> unit -> fault

type context = {
  world : World.t;
  oracle_kind : oracle_kind;
  mutable jobs : int;
      (** domains the per-procedure engine runs across; [<= 1] runs the
          same code path sequentially (results are identical either way) *)
  mutable engine_memo : Engine.t option;
      (** the incremental analysis engine; survives {!invalidate}, so
          re-analyses are {!Tbaa.Engine.update}s. An engine preset here
          before the first {!analysis} is brought up to date by
          {!Tbaa.Engine.update} on that first analysis. *)
  mutable analysis_current : bool;
      (** [engine_memo] describes the program's current state; cleared by
          {!invalidate} *)
  mutable oracle_memo : Oracle.t option;
  mutable modref_memo : Modref.t option;
      (** the mod-ref view passes use; a view preset here before a run
          (e.g. {!Modref.conservative}) is used until the first
          {!invalidate} *)
  oracle_counters : Oracle_cache.counters;
      (** cumulative across re-analyses; the pass manager diffs it per pass *)
  mutable analyses_run : int;
  mutable claims : Claims.t option;
      (** when set, the clients record every alias/kill answer they rely
          on here (the dynamic auditor's input); [None] costs nothing *)
  mutable fault : fault option;
  mutable oracle_log : (Ir.Apath.t -> Ir.Apath.t -> bool -> unit) option;
      (** when set, installed as the {!Tbaa.Oracle_cache.wrap} [log]
          observer: fires once per distinct may-alias pair the optimizer
          queries, with the (possibly fault-injected) answer. The fuzzer's
          precision-lattice oracle hangs off this; [None] costs nothing.
          Installing it (or [fault]) forces per-procedure passes onto the
          shared sequential path, where "once per distinct pair" is
          well-defined. *)
  mutable index_memo : index_slot option array;
      (** per procedure position: the {!Mem_index} built over the
          current analysis, shared by consecutive per-procedure passes;
          emptied by {!invalidate} *)
}

and index_slot = {
  ix_proc : Ir.Cfg.proc;  (** the procedure the index describes *)
  ix_index : Mem_index.t;
}

val create :
  ?world:World.t -> ?oracle_kind:oracle_kind -> ?jobs:int -> unit -> context
(** Defaults: closed world, SMFieldTypeRefs, sequential. One context
    serves one program instance; create a fresh context per
    (program, configuration) run. *)

val analysis : context -> Ir.Cfg.program -> Engine.t
(** The context's engine, brought up to date with the program's *current*
    state: created on first use, {!Tbaa.Engine.update}d after
    {!invalidate}. *)

val oracle : context -> Ir.Cfg.program -> Oracle.t
(** The configured-precision oracle over {!analysis}, wrapped in the
    memoizing cache. Query counts land in [oracle_counters]. *)

val raw_oracle : context -> Ir.Cfg.program -> Oracle.t
(** The configured-precision oracle with the fault layer (when installed)
    but *no* memoizing cache: the per-procedure engine wraps this once per
    procedure, so cache state never crosses domains. *)

val modref : context -> Ir.Cfg.program -> Modref.t
(** The memoized mod-ref view of the configured precision, served from the
    engine's cached per-procedure summaries ({!Modref.of_engine}) rather
    than a fresh whole-program closure per pass. Valid under fault
    injection too: summaries read only the oracle's raw
    store_class/addr_taken_var, which the fault layer never wraps. *)

val type_refs : context -> Ir.Cfg.program -> Minim3.Types.tid -> Minim3.Types.tid list
(** The TypeRefsTable of the current analysis (method resolution's input). *)

val invalidate : context -> unit
(** Drop the memoized analysis, its cached oracle and the effect indexes
    built over it — called by the pass manager after any pass that
    mutated the program. The underlying engine is kept: the next
    {!analysis} is an incremental update. *)

(** {1 Passes} *)

type outcome = {
  stats : (string * int) list;  (** named counters, e.g. [("hoisted", 2)] *)
  changed : bool;
      (** found and applied work — drives fixed-point convergence *)
  mutated : bool;
      (** touched the program text at all — forces re-analysis. A pass can
          be [mutated] without being [changed] (RLE rewrites loads through
          home temporaries even when nothing was redundant). *)
}

val unchanged : (string * int) list -> outcome
(** [{ stats; changed = false; mutated = false }]. *)

val merge_outcomes : outcome array -> outcome
(** Deterministic fold of per-procedure outcomes in program order: stats
    sum per key (key order is first appearance), flags OR. *)

type role =
  | Transform
      (** its [changed] flag counts toward fixed-point convergence *)
  | Enabling
      (** canonicalizes for other passes (e.g. copy propagation); its
          [changed] flag is ignored by the convergence test, since such
          passes may keep finding cosmetic work forever *)

type proc_context = {
  pc_program : Ir.Cfg.program;
      (** the enclosing program — read-only shared state (type
          environment, procedure list); per-procedure passes must not
          mutate anything outside their own procedure *)
  pc_index : Mem_index.t;
      (** this procedure's effect index over the analysis oracle (with a
          private memoizing cache) and the shared mod-ref: clients derive
          their kill and read sets from it *)
  pc_claims : Claims.t option;
      (** private per-procedure ledger, merged in program order *)
  pc_fresh :
    name:string -> ty:Minim3.Types.tid -> kind:Ir.Reg.kind -> Ir.Reg.var;
      (** deterministic fresh-variable allocator: the k-th temp of
          procedure [i] gets the same id whether the pass runs
          sequentially or across domains (ids are laced
          [start + i + k*nprocs], so procedures never contend) *)
}
(** What a per-procedure pass may touch while transforming one procedure:
    its own oracle cache, claims ledger and allocator, since the context's
    cached oracle, a shared ledger and [Cfg.fresh_var] on the shared
    program counter are unsafe or non-deterministic across domains. *)

type scope =
  | Whole_program of (context -> Ir.Cfg.program -> outcome)
  | Per_procedure of (proc_context -> Ir.Cfg.proc -> outcome)
      (** [run_proc]: transform one procedure against a snapshot analysis
          of the pre-pass program; must confine writes to the procedure
          itself (and allocations to [pc_fresh]) *)

type t = {
  name : string;
  role : role;
  scope : scope;
}

val per_procedure : t -> bool

(** {1 Reports} *)

type report = {
  r_pass : string;
  r_round : int;  (** 1-based fixed-point round; 1 for one-shot passes *)
  r_time_ms : float;
  r_changed : bool;
  r_stats : (string * int) list;
  r_oracle : Oracle_cache.counters;
      (** oracle queries/misses during this pass run only *)
  r_dataflow : Ir.Dataflow.counters;
      (** dataflow solves/iterations during this pass run only *)
  r_analyses : int;  (** full re-analyses charged to this pass run *)
  r_failure : string option;
      (** guarded execution only ({!Pass_manager.run_guarded}): set when
          the pass crashed or failed IR validation and was rolled back, or
          was skipped because it is quarantined; [None] always under the
          plain {!Pass_manager.run} *)
}

val stat : report -> string -> int
(** A named counter from the report, 0 when absent. *)

val report_to_json : ?extra:(string * Support.Json.t) list -> report -> Support.Json.t
(** One structured-stats record; [extra] fields (workload, config) are
    prepended. *)
