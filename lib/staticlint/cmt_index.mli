(** Index of dune-emitted .cmt typedtree artifacts.

    Build with [dune build @check] first; that alias produces .cmt
    files for every module, executables included. *)

type unit_info = {
  modname : string;  (** compilation unit, e.g. ["Hsfq_core__Sfq"] *)
  source : string;  (** repo-relative .ml path, [""] if unrecorded *)
  imports : string list;  (** unit names compiled against *)
  structure : Typedtree.structure;
  interface : (string * Typedtree.signature) option;
      (** the .mli path and its typed signature, from the sibling
          [.cmti]; [None] when the unit has no interface file *)
}

type t

(** Recursively scan [roots] for [.cmt] files and load every
    implementation unit, with its [.cmti] when there is one. Duplicate
    module names keep the first copy (dune builds shared test modules
    once per executable). Unreadable files are skipped. *)
val load : roots:string list -> t

(** Build an index from already-loaded units (for tests that typecheck
    fixture modules in-process). *)
val of_units : unit_info list -> t

val mem : t -> string -> bool

(** Iterate/fold in deterministic (load) order. *)
val iter : t -> f:(unit_info -> unit) -> unit

val fold : t -> init:'a -> f:('a -> unit_info -> 'a) -> 'a

(** Number of loaded units. *)
val size : t -> int
