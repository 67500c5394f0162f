(** Dhrystone-like synthetic benchmark.

    The paper's primary workload: "a CPU intensive application that
    executes a number of operations in a loop. The number of loops
    completed in a fixed duration was used as the performance metric"
    (§5). Here a loop is a fixed amount of CPU work. The counter keeps
    the completed loops as runs: a run is a stretch of loops that
    complete exactly [loop_cost] apart, stored as its first completion
    time and its loop count, so a loop costs one compare and one
    increment. Throughput over any window is the bucketed sum of
    {!series}, which is built from the runs on demand. *)

open Hsfq_engine

type counter

val make : loop_cost:Time.span -> unit -> Hsfq_kernel.Workload_intf.t * counter
(** An endless loop of [loop_cost] CPU work per iteration. *)

val loops : counter -> int
(** Loops completed so far. *)

val series : counter -> Series.t
(** One (completion time, 1.0) sample per completed loop, in time
    order, built from the runs on each call: call it once per use. *)
