(** Pass 1: inventory of module-top-level bindings, classified by
    {!Mutability}. *)

type entry = {
  unit_name : string;
  source : string;  (** repo-relative .ml, [""] if unrecorded *)
  name : string;  (** dotted within the unit for nested modules *)
  line : int;
  verdict : Mutability.verdict;
}

(** All top-level bindings in every loaded unit (nested [struct]s
    included), sorted by (source, line, name). Builds a fresh
    {!Mutability.env} unless one is supplied. *)
val of_index : ?env:Mutability.env -> Cmt_index.t -> entry list

(** One-line count summary for the driver's inventory report. *)
val summary : entry list -> string
