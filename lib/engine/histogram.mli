(** Fixed-width binned histogram over a float range.

    Values below the range go to an underflow bin, above to an overflow
    bin. Used for latency/slack distributions in the experiments. *)

type t

val create : lo:float -> hi:float -> bins:int -> t
(** [bins >= 1], [hi > lo]. *)

val add : t -> float -> unit
val count : t -> int
val underflow : t -> int
val overflow : t -> int

val bin_count : t -> int -> int
(** Count in bin [i] (0-based). *)

val bin_bounds : t -> int -> float * float
(** [lo, hi) of bin [i]. *)

val render : t -> width:int -> string
(** Small ASCII rendering: one line per non-empty bin with a bar scaled to
    [width] characters. *)
