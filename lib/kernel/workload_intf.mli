(** Thread behaviour, as seen by the simulated kernel.

    A workload is a generator of {!action}s. The kernel calls [next] when
    the previous action has completed: after the requested CPU work has
    been fully executed (for [Compute]) or the sleep has elapsed. State
    (loop counters, frame indices, round numbers) lives inside the
    closure.

    Actions with zero/past durations are skipped by the kernel, which
    immediately asks for the next action — so a periodic task that missed
    its release simply starts the round late, as a real kernel would
    run it. *)

open Hsfq_engine

type action =
  | Compute of Time.span
      (** Execute this much CPU work (possibly across many quanta and
          preemptions). *)
  | Sleep_for of Time.span  (** Block for a relative duration. *)
  | Sleep_until of Time.t
      (** Block until an absolute instant (periodic releases). If the
          instant is already past, the workload is asked for its next
          action immediately. *)
  | Lock of int
      (** Acquire a kernel mutex ({!Kernel.create_mutex}). Free: acquired
          instantly (zero cost) and the next action is fetched. Held:
          the thread blocks until granted — with weight donation to the
          holder when both share a weighted leaf class (§4). *)
  | Unlock of int
      (** Release a held mutex (zero cost); ownership passes FIFO to the
          first live waiter. *)
  | Io of int * int
      (** Issue a request of the given size (in device units, >= 1) to a
          kernel I/O device ({!Kernel.create_device}) and block until it
          completes. The device serves requests FIFO, concurrently with
          the CPU — this is the "threads may block for I/O even before
          they are preempted" behaviour SFQ is designed for (§3). *)
  | Exit  (** Terminate the thread. *)

type t = now:Time.t -> action
(** [next ~now] — [now] is the simulated time at which the previous
    action completed. *)

val forever_compute : Time.span -> t
(** Compute [span] at a time, forever. *)

val of_list : action list -> t
(** Play the actions in order, then [Exit]. *)
