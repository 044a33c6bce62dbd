(** Interned identifiers.

    Identifiers are hash-consed strings: interning the same string twice
    yields the same [t], so equality and comparison are O(1) integer
    operations. The front end interns every name it sees (variables, fields,
    types, procedures, methods); all later phases compare idents, never
    strings.

    {!intern} and {!fresh} are safe to call from any domain: one lock
    guards the table. *)

type t

val intern : string -> t
(** [intern s] returns the unique ident for [s]. *)

val name : t -> string
(** The original spelling. *)

val id : t -> int
(** The dense intern index (stable within a process). *)

val equal : t -> t -> bool
val compare : t -> t -> int
val hash : t -> int
val pp : Format.formatter -> t -> unit

val fresh : string -> t
(** [fresh base] makes an ident guaranteed distinct from every ident
    interned so far, spelled [base$k] for some [k]. Used for compiler
    temporaries. *)

module Map : Map.S with type key = t
module Set : Set.S with type elt = t
module Tbl : Hashtbl.S with type key = t
