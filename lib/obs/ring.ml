(* Preallocated tracepoint ring (structure-of-arrays).

   One event is nine fixed-size int columns: code/time/pid, four int
   payload words and the two virtual-time payload words x/y.  [emit]
   writes one cell of each column and bumps the sequence counter; once
   the ring wraps, the oldest event is overwritten.  Every payload is an
   immediate, so nothing here allocates after [create]. *)

type t = {
  mask : int; (* capacity - 1; capacity is a power of two *)
  codev : int array;
  timev : int array;
  pidv : int array;
  av : int array;
  bv : int array;
  cv : int array;
  dv : int array;
  xv : int array;
  yv : int array;
  mutable seq : int; (* events ever emitted *)
}

let round_pow2 n =
  let p = ref 16 in
  while !p < n do
    p := !p * 2
  done;
  !p

let create ~capacity =
  if capacity < 1 then invalid_arg "Ring.create: capacity must be positive";
  let cap = round_pow2 capacity in
  {
    mask = cap - 1;
    codev = Array.make cap 0;
    timev = Array.make cap 0;
    pidv = Array.make cap 0;
    av = Array.make cap 0;
    bv = Array.make cap 0;
    cv = Array.make cap 0;
    dv = Array.make cap 0;
    xv = Array.make cap 0;
    yv = Array.make cap 0;
    seq = 0;
  }

let capacity r = r.mask + 1
let total r = r.seq
let length r = if r.seq <= r.mask then r.seq else r.mask + 1
let clear r = r.seq <- 0

let emit r ~code ~time ~pid ~a ~b ~c ~d ~x ~y =
  let i = r.seq land r.mask in
  r.codev.(i) <- code;
  r.timev.(i) <- time;
  r.pidv.(i) <- pid;
  r.av.(i) <- a;
  r.bv.(i) <- b;
  r.cv.(i) <- c;
  r.dv.(i) <- d;
  r.xv.(i) <- x;
  r.yv.(i) <- y;
  r.seq <- r.seq + 1

(* Physical slot of logical index [i], oldest recorded event first. *)
let slot r i =
  if i < 0 || i >= length r then invalid_arg "Ring: index out of range";
  (r.seq - length r + i) land r.mask

let code r i = r.codev.(slot r i)
let time r i = r.timev.(slot r i)
let pid r i = r.pidv.(slot r i)
let a r i = r.av.(slot r i)
let b r i = r.bv.(slot r i)
let c r i = r.cv.(slot r i)
let d r i = r.dv.(slot r i)
let x r i = r.xv.(slot r i)
let y r i = r.yv.(slot r i)
