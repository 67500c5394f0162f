(** Source-hygiene rules over typedtrees, scoped to lib/, bin/,
    examples/, test/ and bench/: [tl-poly-compare] and
    [tl-stdlib-minmax] (Stdlib [compare]/[min]/[max] on a non-immediate
    operand type), [tl-nan-compare], [tl-obj-magic],
    [tl-assert-validation] (an [assert] on anything but [false]),
    [tl-hashtbl-find-exn] (a [Hashtbl.find] whose [Not_found] is not
    handled at the call) and [tl-missing-mli] (a lib/ unit without an
    interface, unless it holds only module aliases and module types). *)

(** Never a pointer: [int], [char], [bool], [unit], and the repo's named
    immediates ([Time.t], [Time.span], [Event_queue.timer]). *)
val is_immediate_type : Types.type_expr -> bool

(** [Some head] when the expression is [match Hashtbl.find .. with
    exception Not_found -> ..] or [try Hashtbl.find .. with Not_found ->
    ..]: the find's miss is handled at the call. [head] is the
    [Hashtbl.find] identifier. *)
val guarded_find : Typedtree.expression -> Typedtree.expression option

(** Scan one unit (for fixture tests). *)
val scan_unit : Cmt_index.unit_info -> Finding.t list

(** Scan every loaded unit; sorted, deduplicated. *)
val scan : Cmt_index.t -> Finding.t list
