(** The optimizer configuration every front end shares: which oracle,
    which world, which passes and how many domains. A configuration
    denotes a {!Pass_manager} schedule ({!schedule_of_config}) and a fresh
    {!Pass.context} ({!context_of_config}); running it is
    {!Pass_manager.run} (or [run_guarded], or a [session]) over the two,
    and its results are the {!Pass.report}s that returns. *)

type oracle_kind = Pass.oracle_kind =
  | Otype_decl
  | Ofield_type_decl
  | Osm_field_type_refs

type config = {
  oracle_kind : oracle_kind;
  world : Tbaa.World.t;
  passes : Pass_manager.Config.t;
      (* which passes run — the same record every front end hands to
         {!Pass_manager.schedule} *)
  jobs : int;
      (* domains for per-procedure passes; <= 1 is sequential, results are
         byte-identical at any value *)
}

val oracle_name : oracle_kind -> string

val schedule_of_config : ?local_cse:bool -> config -> Pass_manager.item list
(** The pass schedule a configuration denotes; [local_cse] appends the
    baseline cleanup pass (the harness wants it, [tbaac optimize] does
    not add it). *)

val context_of_config : config -> Pass.context
