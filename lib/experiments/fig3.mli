(** Figure 3: "Computation of virtual time, start tag, and finish tag in
    SFQ: an example" — the §3 worked example replayed exactly.

    Threads A (weight 1) and B (weight 2) become runnable at t = 0 with
    10 ms quanta, each consuming its full quantum. B blocks at t = 60 ms,
    A blocks at t = 90 ms (idle period), A wakes at t = 110 ms, B wakes at
    t = 115 ms; later A exits and B has the CPU to itself. The paper's
    narrative fixes the key values: A and B receive 20 ms and 40 ms before
    t = 60; during the idle period v = 50; on re-arrival both threads are
    stamped with start tag 50. *)

type step = {
  time_ms : int;  (** quantum start *)
  thread : string;
  start_tag : int;  (** exact {!Hsfq_sched.Vtime} tags: ms of work / weight *)
  finish_tag : int;  (** after the quantum completes *)
  vt : int;  (** virtual time during the quantum *)
}

type result = {
  steps : step list;
  work_a_60 : int;  (** ms of CPU received by A in [0, 60) *)
  work_b_60 : int;
  v_during_idle : int;  (** [-1] if the server never idled *)
  s_a_rearrival : int;  (** [-1] if A never re-arrived *)
  s_b_rearrival : int;
  work_a_after : int;  (** ms received by A in [115, 145) *)
  work_b_after : int;
  audit : Common.check;  (** every replayed transition passes the audit *)
}

val run : unit -> result
val checks : result -> Common.check list

val render_gantt : result -> string
(** The execution timeline as an ASCII Gantt chart (one cell per 10 ms
    quantum) — the shape of the paper's Figure 3. *)

val print : result -> unit
