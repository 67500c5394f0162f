(** Typed rules guarding the decision path: [tl-hot-hashtbl] (Hashtbl
    types or operations inside hot-path modules) and [tl-leaf-retarget]
    (any [<- ] assignment to a [leaf] record field, whole-program). *)

(** Scan one unit (for fixture tests). *)
val scan_unit : Cmt_index.unit_info -> Finding.t list

(** Scan every loaded unit; sorted, deduplicated. *)
val scan : Cmt_index.t -> Finding.t list
