(** A single finding of the typed-tree analyzer (hsfq_tlint). *)

type t = { rule : string; file : string; line : int; msg : string }

val make : rule:string -> file:string -> line:int -> msg:string -> t

(** Sort by (file, line, rule, msg), the report order, and drop exact
    duplicates (several detectors may flag the same construct at the
    same site). *)
val sort : t list -> t list

val to_string : t -> string
