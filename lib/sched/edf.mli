(** Earliest Deadline First — the paper's canonical hard real-time leaf
    scheduler (Liu & Layland 1973).

    Job-oriented: a task *releases* a job with an absolute deadline; the
    runnable job with the earliest deadline is selected. [withdraw] removes
    a job when it completes or blocks. EDF guarantees all deadlines iff
    utilization <= 1 ({!Hsfq_qos.Admission.edf_admissible}), and — the
    paper's motivation for not using it for soft real-time — provides no
    guarantee at all under overload. *)

type t

val create : unit -> t

val release : t -> id:int -> deadline:int -> unit
(** Make job [id] runnable with the given absolute deadline (any integer
    unit, as long as callers are consistent; the kernel uses
    nanoseconds). A second
    [release] of a live job replaces its deadline. *)

val withdraw : t -> id:int -> unit
(** Remove job [id] from the ready set (completion or blocking). *)

val select_id : t -> int
(** The runnable job with the earliest deadline (FIFO among equals), or
    [-1] iff none is runnable. Non-destructive: selecting does not
    remove the job. *)

val deadline_of : t -> id:int -> int option
val backlogged : t -> int
