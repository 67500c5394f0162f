(* Binary min-heap on (time, seq) whose three columns hold immediates
   only: time, insertion sequence, and the entry's key. A heap move is a
   plain integer store, so sifting never runs OCaml's write barrier
   ([caml_modify]).

   A key names what fires. A key [k >= 0] is persistent timer [k]; a
   key [k < 0] is one-shot slot [lnot k]. Timers are ids into two
   columns that only grow: [actions.(k)], the thunk stored once by
   [timer], and [armed_seq.(k)], the sequence number of the timer's
   pending entry or [-1] when disarmed. So arming, disarming and firing
   a timer store ints only. A timer's heap entry is live iff
   [armed_seq.(k)] equals the entry's seq: disarming or re-arming leaves
   the old entry in the heap as a stale one, dropped lazily when it
   surfaces, or by compaction once stale entries outnumber live ones in
   a non-trivially sized heap. Timer ids are never freed or renumbered.

   One-shots cannot be disarmed, so their entries are always live.
   Their thunks sit in [once], one slot per in-flight event; a fired
   slot goes onto a free stack of slot ints (LIFO) and the next
   one-shot reuses it, so steady-state churn allocates nothing. A parked
   slot keeps its fired thunk until it is reused or the slot table
   shrinks (storing a placeholder would cost a barrier per fire). Slot
   numbers are private, so the shrink renumbers the in-flight ones
   densely.

   Firing leaves the fired entry at the root as a dead hole, because
   the common next operation is a push from the fired thunk (a re-armed
   timer, a wake, a completion): that push writes its entry into the
   root and sifts it down once, the classic heap-replace, instead of a
   pop's sift-down followed by a push's sift-up. Every other heap
   operation closes the hole first with the pop's own [remove_top].
   The hole is never counted in [live] or [stale]. *)

type timer = int

type t = {
  (* The heap: [size] entries in three immediate columns. *)
  mutable times : int array; (* Time.t is int (nanoseconds) *)
  mutable seqs : int array;
  mutable keys : int array;
  mutable size : int;
  mutable next_seq : int;
  (* Timers [0, ntimers). *)
  mutable actions : (unit -> unit) array;
  mutable armed_seq : int array; (* [-1]: disarmed *)
  mutable ntimers : int;
  (* One-shot slots [0, nonce): each in the heap or parked on [free].
     [free] always has the length of [once], so parking never grows. *)
  mutable once : (unit -> unit) array;
  mutable nonce : int;
  mutable free : int array;
  mutable nfree : int;
  mutable live : int; (* armed timers + in-flight one-shots *)
  mutable stale : int; (* dead timer entries still in the heap *)
  mutable fired : int; (* key of the last [take_until] hit, or [no_key] *)
  mutable hole : bool; (* the root is the fired entry, awaiting a push *)
}

let nothing () = ()

(* Not a key: [lnot no_key] is [max_int], never a slot. *)
let no_key = min_int

let create () =
  {
    times = [||];
    seqs = [||];
    keys = [||];
    size = 0;
    next_seq = 0;
    actions = [||];
    armed_seq = [||];
    ntimers = 0;
    once = [||];
    nonce = 0;
    free = [||];
    nfree = 0;
    live = 0;
    stale = 0;
    fired = no_key;
    hole = false;
  }

let rec pow2_above c n = if c >= n then c else pow2_above (2 * c) n

(* A copy of the first [n] cells of [a] in a fresh array of [cap]. *)
let resized a n cap fill =
  let b = Array.make cap fill in
  Array.blit a 0 b 0 n;
  b

let timer t f =
  let k = t.ntimers in
  if k = Array.length t.actions then begin
    let cap = Int.max 16 (2 * k) in
    t.actions <- resized t.actions k cap nothing;
    t.armed_seq <- resized t.armed_seq k cap (-1)
  end;
  t.actions.(k) <- f;
  t.ntimers <- k + 1;
  k

let armed t k = t.armed_seq.(k) >= 0

let disarm t k =
  if t.armed_seq.(k) >= 0 then begin
    t.armed_seq.(k) <- -1;
    t.live <- t.live - 1;
    t.stale <- t.stale + 1
  end

let[@inline] is_stale t k sq = k >= 0 && t.armed_seq.(k) <> sq

(* Move the in-flight one-shot slots into a fresh dense table of [cap]
   and empty the free stack: the table's shrink path. *)
let repool t cap =
  let once = Array.make cap nothing in
  let n = ref 0 in
  for i = 0 to t.size - 1 do
    let k = t.keys.(i) in
    if k < 0 then begin
      once.(!n) <- t.once.(lnot k);
      t.keys.(i) <- lnot !n;
      incr n
    end
  done;
  t.once <- once;
  t.nonce <- !n;
  t.free <- Array.make cap 0;
  t.nfree <- 0

(* Cold path of [schedule] when no slot is parked. *)
let new_slot t =
  if t.nonce = Array.length t.once then begin
    let cap = pow2_above 16 (2 * (t.nonce + 1)) in
    t.once <- resized t.once t.nonce cap nothing;
    t.free <- resized t.free t.nfree cap 0
  end;
  let s = t.nonce in
  t.nonce <- s + 1;
  s

let grow_heap t =
  let ncap = Int.max 16 (2 * Array.length t.times) in
  t.times <- resized t.times t.size ncap 0;
  t.seqs <- resized t.seqs t.size ncap 0;
  t.keys <- resized t.keys t.size ncap 0

(* Strict ordering: earlier time first, FIFO (arming order) among
   entries set for the same instant. *)
let[@inline] lt t i j =
  let ti = t.times.(i) and tj = t.times.(j) in
  if ti < tj then true else if tj < ti then false else t.seqs.(i) < t.seqs.(j)

(* Hole-based sifting: the moving entry rides in the arguments and is
   written exactly once at its final position, so each level costs one
   3-int copy. No [ref] for the running minimum either: a ref cell
   would be a heap allocation per pop. *)
let[@inline] place t i tm sq k =
  t.times.(i) <- tm;
  t.seqs.(i) <- sq;
  t.keys.(i) <- k

let rec sift_up_from t i tm sq k =
  if i = 0 then place t i tm sq k
  else begin
    let p = (i - 1) / 2 in
    let tp = t.times.(p) in
    if tp > tm || (tp = tm && t.seqs.(p) > sq) then begin
      place t i tp t.seqs.(p) t.keys.(p);
      sift_up_from t p tm sq k
    end
    else place t i tm sq k
  end

let rec sift_down_from t i tm sq k =
  let l = (2 * i) + 1 in
  if l >= t.size then place t i tm sq k
  else begin
    let r = l + 1 in
    let s = if r < t.size && lt t r l then r else l in
    let ts = t.times.(s) in
    if ts < tm || (ts = tm && t.seqs.(s) < sq) then begin
      place t i ts t.seqs.(s) t.keys.(s);
      sift_down_from t s tm sq k
    end
    else place t i tm sq k
  end

(* Capacity release, same policy as [Keyed_heap]: once occupancy falls
   below a quarter of capacity, shrink to a power of two leaving 2x
   headroom. It applies to the heap columns and to the one-shot slot
   table (occupancy: in-flight one-shots), so retained memory follows
   the live event count down. The guards are a handful of loads and
   compares; the O(n) copies are amortized O(1) per operation by the
   trigger/post-shrink hysteresis gap. As in [Keyed_heap], capacity
   under 1024 slots is never released: hysteresis cannot protect a
   queue that oscillates between empty and a few hundred in-flight
   events every cycle (the churn micro-benchmark's shape), and arrays
   that small don't pin memory worth reclaiming. Timer columns never
   shrink: their ids are permanent. *)
let shrink_if_sparse t =
  let cap = Array.length t.times in
  if cap > 1024 && 4 * t.size < cap then begin
    let ncap = pow2_above 16 (2 * t.size) in
    t.times <- resized t.times t.size ncap 0;
    t.seqs <- resized t.seqs t.size ncap 0;
    t.keys <- resized t.keys t.size ncap 0
  end;
  let inflight = t.nonce - t.nfree in
  if Array.length t.once > 1024 && 4 * inflight < Array.length t.once then
    repool t (pow2_above 16 (2 * inflight))

let compact t =
  let j = ref 0 in
  for i = 0 to t.size - 1 do
    let k = t.keys.(i) and sq = t.seqs.(i) in
    if not (is_stale t k sq) then begin
      place t !j t.times.(i) sq k;
      incr j
    end
  done;
  t.size <- !j;
  t.stale <- 0;
  for i = (t.size / 2) - 1 downto 0 do
    sift_down_from t i t.times.(i) t.seqs.(i) t.keys.(i)
  done;
  shrink_if_sparse t

(* Drop the top entry. *)
let remove_top t =
  t.size <- t.size - 1;
  let n = t.size in
  if n > 0 then sift_down_from t 0 t.times.(n) t.seqs.(n) t.keys.(n)

let close_hole t =
  if t.hole then begin
    t.hole <- false;
    remove_top t
  end

(* The hole does not count: the trigger sees the entries it would see
   had the fired entry been removed at once. *)
let needs_compaction t =
  let n = if t.hole then t.size - 1 else t.size in
  n >= 64 && 2 * t.stale > n

(* Room for one more entry. Compaction may renumber one-shot slots, so
   it runs before the caller picks one; it closes the hole first. *)
let reserve t =
  if needs_compaction t then begin
    close_hole t;
    compact t
  end;
  if (not t.hole) && t.size = Array.length t.times then grow_heap t

(* Into the hole when there is one (one sift down from the root),
   otherwise at the end (one sift up). *)
let push t ~at k =
  let sq = t.next_seq in
  t.next_seq <- sq + 1;
  if k >= 0 then t.armed_seq.(k) <- sq;
  t.live <- t.live + 1;
  if t.hole then begin
    t.hole <- false;
    sift_down_from t 0 at sq k
  end
  else begin
    t.size <- t.size + 1;
    sift_up_from t (t.size - 1) at sq k
  end

let negative_time fn = invalid_arg ("Event_queue." ^ fn ^ ": negative time")

let arm t k ~at =
  if at < 0 then negative_time "arm";
  disarm t k;
  reserve t;
  push t ~at k

let schedule t ~at thunk =
  if at < 0 then negative_time "schedule";
  reserve t;
  let s =
    if t.nfree > 0 then begin
      t.nfree <- t.nfree - 1;
      t.free.(t.nfree)
    end
    else new_slot t
  in
  t.once.(s) <- thunk;
  push t ~at (lnot s)

(* Drop stale entries sitting at the top of the heap. *)
let rec settle t =
  if t.size > 0 && is_stale t t.keys.(0) t.seqs.(0) then begin
    t.stale <- t.stale - 1;
    remove_top t;
    settle t
  end

let next_time t =
  close_hole t;
  settle t;
  if t.size = 0 then None else Some t.times.(0)

(* Fire the top entry: disarm its timer or park its one-shot slot,
   record its key for [taken] and leave the entry as the hole. Returns
   its time. No shrink may follow before [taken] reads the slot. *)
let fire_top t =
  let at = t.times.(0) and k = t.keys.(0) in
  if k >= 0 then t.armed_seq.(k) <- -1
  else begin
    t.free.(t.nfree) <- lnot k;
    t.nfree <- t.nfree + 1
  end;
  t.live <- t.live - 1;
  t.fired <- k;
  t.hole <- true;
  at

(* The shrink's guards are inlined: below the 1024 floor, the common
   case, no call is made at all. *)
let take_until t ~horizon =
  close_hole t;
  settle t;
  if Array.length t.times > 1024 || Array.length t.once > 1024 then
    shrink_if_sparse t;
  if t.size > 0 && t.times.(0) <= horizon then fire_top t
  else begin
    t.fired <- no_key;
    -1
  end

let taken t =
  let k = t.fired in
  if k >= 0 then t.actions.(k) else if k = no_key then nothing else t.once.(lnot k)

let pending t = t.live
let capacity t = Array.length t.times

(* Deterministic retained-words accounting: three heap columns, the two
   timer columns, the one-shot table and its free stack, and the queue
   record itself (16 fields and a header). *)
let footprint_words t =
  (3 * Array.length t.times)
  + (2 * Array.length t.actions)
  + (2 * Array.length t.once)
  + 17
