(** The suppression list of hsfq_tlint.

    Lines of [<rule> <path> <justification...>]; '#' comments and blank
    lines are skipped.  Duplicate (rule, path) keys and malformed lines
    are load errors.  Entries that suppress nothing are "stale" and fail
    the run unless explicitly allowed. *)

type t

(** The empty whitelist (no file). *)
val empty : t

(** Load and validate a whitelist file.  [Error msg] on I/O problems,
    malformed lines, or duplicate (rule, path) entries. *)
val load : string -> (t, string) result

(** Parse whitelist text directly (for tests). [path] is used in error
    and stale messages only. *)
val load_string : path:string -> string -> (t, string) result

(** The justification text of an entry, if present. *)
val justification : t -> rule:string -> path:string -> string option

type outcome = {
  live : Finding.t list;  (** unsuppressed, sorted by location *)
  suppressed : int;
  stale : (int * string * string) list;
      (** (line, rule, path) of entries that matched nothing, sorted by
          whitelist line number — deterministic, unlike the [Hashtbl]
          iteration order this replaces *)
}

val apply : t -> Finding.t list -> outcome

(** Print live findings (stdout), stale entries (stderr) and the
    one-line summary; returns the exit code: 1 if there are live
    findings, or stale entries without [allow_stale]; 0 otherwise.
    [scanned] is the summary's subject, e.g. ["93 file(s)"]. *)
val report :
  tool:string -> allow_stale:bool -> scanned:string -> t -> Finding.t list -> int
