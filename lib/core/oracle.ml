open Minim3
open Ir
open Support

type t = {
  name : string;
  compat : Types.tid -> Types.tid -> bool;
  may_alias : Apath.t -> Apath.t -> bool;
  store_class : Apath.t -> Aloc.t;
  class_kills : Aloc.t -> Apath.t -> bool;
  addr_taken_var : Reg.var -> bool;
  stats : unit -> Json.t;
}

let raw_stats ~name () =
  Json.Obj [ ("oracle", Json.String name); ("kind", Json.String "raw") ]
