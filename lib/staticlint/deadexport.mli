(** [tl-dead-export]: exported [val]s of lib/ units with no reference
    from any other loaded unit, after resolving module aliases (dune's
    wrappers included). Exports referenced only from test/ are listed
    separately and are not findings. *)

type export = {
  unit_name : string;  (** e.g. ["Hsfq_engine__Prng"] *)
  name : string;
  file : string;  (** the .mli, or the .ml when the unit has none *)
  line : int;
}

(** [(findings, test_only)]: the dead exports as sorted findings, and the
    exports whose only users are tests, sorted by location. *)
val scan : Cmt_index.t -> Finding.t list * export list
