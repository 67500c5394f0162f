(** Classify a binding's type as shared-mutable (and how the mutation is
    protected) from [Types.type_expr] alone. *)

type protection =
  | Unguarded  (** ref / array / Hashtbl / mutable field, bare *)
  | Atomic  (** [Atomic.t] somewhere, nothing unguarded *)
  | Domain_local  (** [Domain.DLS.key] — per-domain by construction *)
  | Lock_bearing
      (** mutable state co-located with a [Mutex.t]/[Condition.t] in the
          same type: presumed lock-protected *)

type verdict =
  | Immutable
  | Mutable of protection

val protection_to_string : protection -> string
val verdict_to_string : verdict -> string

(** Strip [Stdlib.] / [Stdlib__] prefixes from a type-constructor path
    name. *)
val normalize : string -> string

(** Project type declarations plus wrapper-module aliases, so named
    types classify across compilation units. *)
type env

val build_env : Cmt_index.t -> env

(** Resolve wrapper/local module aliases in a dotted path name
    (longest-prefix, iterated). *)
val resolve : env -> string -> string

(** [classify ~env ~unit ty] walks [ty] to a bounded depth, resolving
    named constructors through [env] (trying both the path as written
    and qualified by [unit], the walking module's name). *)
val classify : ?env:env -> unit:string -> Types.type_expr -> verdict
