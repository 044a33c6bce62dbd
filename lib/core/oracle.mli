(** The alias-oracle interface every analysis implements and every client
    (RLE, mod-ref, the static metrics) consumes. *)

open Minim3
open Ir

type t = {
  name : string;
  compat : Types.tid -> Types.tid -> bool;
      (** The analysis' type-overlap core — the paper's
          [Subtypes(t1) ∩ Subtypes(t2) ≠ ∅] for TypeDecl/FieldTypeDecl, the
          TypeRefsTable intersection for SMFieldTypeRefs. *)
  may_alias : Apath.t -> Apath.t -> bool;
      (** May the two access paths denote the same memory location? Bare
          variables only alias themselves; a bare variable never aliases a
          selector path (variable slots are not heap locations). *)
  store_class : Apath.t -> Aloc.t;
      (** Abstract the location a store to this path writes. *)
  class_kills : Aloc.t -> Apath.t -> bool;
      (** May a write to a location of this class change the contents of the
          given path (queried prefix-by-prefix by clients)? Contract: the
          answer is a relation between the class and [store_class] of the
          path — two paths with equal store classes get equal answers.
          {!Oracle_cache} relies on this to key its memo by class pairs. *)
  addr_taken_var : Reg.var -> bool;
      (** Was this variable's own slot ever exposed by address-taking? *)
  stats : unit -> Support.Json.t;
      (** Structured self-description: at minimum the oracle's name and
          kind; wrappers (cache, fault injection) override it with their
          live counters. Stable hook for [--stats] consumers. *)
}

val raw_stats : name:string -> unit -> Support.Json.t
(** The default [stats] payload for an unwrapped analysis oracle. *)
