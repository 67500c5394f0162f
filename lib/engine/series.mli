(** Time series recording and bucketing.

    A series is an append-only sequence of (time, value) samples. The
    experiments bucket series into fixed windows (e.g. per-second
    throughput) to print the same axes the paper's figures use. *)

type t

val create : unit -> t
val add : t -> Time.t -> float -> unit
val times : t -> Time.t array
val values : t -> float array

val bucket_sum : t -> width:Time.span -> until:Time.t -> float array
(** [bucket_sum s ~width ~until] sums samples into consecutive windows
    [\[0,w), \[w,2w), ...] covering [\[0, until)]. *)

val value_at : t -> Time.t -> float
(** Cumulative sum of all samples with timestamp <= the given time.
    (Samples must have been added in nondecreasing time order.) *)
