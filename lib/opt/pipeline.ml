type oracle_kind = Pass.oracle_kind =
  | Otype_decl
  | Ofield_type_decl
  | Osm_field_type_refs

type config = {
  oracle_kind : oracle_kind;
  world : Tbaa.World.t;
  passes : Pass_manager.Config.t;
  jobs : int;
}

let oracle_name = Pass.oracle_name

let schedule_of_config ?(local_cse = false) config =
  Pass_manager.schedule
    (if local_cse then
       { config.passes with Pass_manager.Config.local_cse = true }
     else config.passes)

let context_of_config config =
  Pass.create ~world:config.world ~oracle_kind:config.oracle_kind
    ~jobs:config.jobs ()
