(** Dhrystone-like synthetic benchmark.

    The paper's primary workload: "a CPU intensive application that
    executes a number of operations in a loop. The number of loops
    completed in a fixed duration was used as the performance metric"
    (§5). Here a loop is a fixed amount of CPU work. The counter keeps
    the completed loops as runs: a run is a stretch of loops that
    complete exactly [loop_cost] apart, stored as its first completion
    time and its loop count, so a loop costs one compare and one
    increment. Throughput per window is read off the runs by
    {!bucket_loops}; the per-loop {!series} is built from them on
    demand. *)

open Hsfq_engine

type counter

val make : loop_cost:Time.span -> unit -> Hsfq_kernel.Workload_intf.t * counter
(** An endless loop of [loop_cost] CPU work per iteration. *)

val loops : counter -> int
(** Loops completed so far. *)

val series : counter -> Series.t
(** One (completion time, 1.0) sample per completed loop, in time
    order, built from the runs on each call: call it once per use. *)

val bucket_loops : counter -> width:Time.span -> until:Time.t -> float array
(** The loops completed in each window [\[0,w), \[w,2w), ...] covering
    [\[0, until)]: [Series.bucket_sum (series c) ~width ~until], bit for
    bit, counted off the runs without building the series.
    @raise Invalid_argument if [width <= 0]. *)
