(* Binary min-heap on (time, seq) whose three columns hold immediates
   only: time, insertion sequence, and the event's pool slot. A heap
   move is a plain integer store, so sifting never runs OCaml's write
   barrier ([caml_modify]). When thunk and handle columns moved with
   every sift level, that barrier was a quarter of the simulator's time.

   Pointers live in the slot pool, two arrays indexed by slot:
   [pool.(s)] is the handle record bound to slot [s], stored once when
   the slot is first handed out, and [thunks.(s)] is its event's thunk,
   stored once per [schedule] and cleared when the event dies, so fired
   or cancelled closures are not retained. A dead slot goes onto a free
   stack of slot ints (LIFO) and the next [schedule] reuses it with its
   record, so steady-state churn allocates nothing.

   Cancellation accounting is O(1): each record references the queue's
   shared counters, so [cancel] maintains [live] directly. Cancellation
   stays lazy (a cancelled entry is dropped when it surfaces at the
   top); once cancelled entries outnumber live ones in a non-trivially
   sized heap, the next [schedule] compacts in place and re-heapifies.

   Recycling fired handles makes firing the last use of a handle, the
   same contract cancellation always had; callers that keep a handle
   around clear their reference from inside the fired thunk (the kernel
   does) or never touch it again. Each record carries a small identity
   ([handle_id]) assigned when the record is first allocated and kept
   across recycling, so tests (and diagnostics) can observe reuse
   without comparing physical equality. *)

(* Shared mutable counters; referenced by both the queue and every handle
   so [cancel : handle -> unit] can update them without a queue arg. *)
type stats = {
  mutable live : int; (* scheduled, not cancelled, not fired *)
  mutable stale : int; (* cancelled but still occupying a heap entry *)
}

let pending_st = 0
let cancelled_st = 1
let fired_st = 2

type handle = { mutable hstate : int; hid : int; stats : stats }

type t = {
  (* The heap: [size] entries in three immediate columns. *)
  mutable times : int array; (* Time.t is int (nanoseconds) *)
  mutable seqs : int array;
  mutable slots : int array;
  mutable size : int;
  mutable next_seq : int;
  (* The slot pool. Slots [0, nslots) are each in the heap, parked on
     the free stack, or a hole (released record, reclaimed by the next
     [repool]). *)
  mutable pool : handle array;
  mutable thunks : (unit -> unit) array; (* [nothing] at a dead slot *)
  mutable nslots : int;
  mutable free : int array; (* parked slots (a stack) *)
  mutable nfree : int;
  mutable next_hid : int; (* identity for the next fresh handle record *)
  mutable taken : unit -> unit; (* thunk of the last [take_until] hit *)
  stats : stats;
}

let nothing () = ()
let dummy_stats = { live = 0; stale = 0 }

let dummy_handle = { hstate = fired_st; hid = -1; stats = dummy_stats }

let create () =
  {
    times = [||];
    seqs = [||];
    slots = [||];
    size = 0;
    next_seq = 0;
    pool = [||];
    thunks = [||];
    nslots = 0;
    free = [||];
    nfree = 0;
    next_hid = 0;
    taken = nothing;
    stats = { live = 0; stale = 0 };
  }

let handle_id h = h.hid
let null = dummy_handle
let is_null h = h.hid < 0

(* The parked records are capped at twice the in-heap entry count
   (floor 1024): steady-state churn still recycles every handle, but a
   queue that once held 10^6 in-flight events stops pinning 10^6 dead
   records once it drains — the excess goes to the GC instead of the
   free stack. The floor matches the array-shrink floor and exists for
   the same reason: a cap of [2 * size] alone follows a draining queue
   all the way down, so a queue that oscillates between empty and a few
   hundred in-flight events (the churn micro-benchmark's shape) would
   discard most of its parked records every drain and reallocate them
   every refill. A thousand parked 4-word records is a few KB — not
   worth reclaiming. *)
let free_limit t = Int.max 1024 (2 * t.size)

let rec pow2_above c n = if c >= n then c else pow2_above (2 * c) n

(* A copy of the first [n] cells of [a] in a fresh array of [cap]. *)
let resized a n cap =
  let b = Array.make cap 0 in
  Array.blit a 0 b 0 n;
  b

(* Move every occupied slot — heap entries first, then parked ones in
   stack order — into a fresh dense pool of [cap] slots, dropping the
   holes. The pool's only growth and shrink path: both leave at least
   2x headroom, so the O(live) renumbering is amortized O(1). *)
let repool t cap =
  let pool = Array.make cap dummy_handle and thunks = Array.make cap nothing in
  for i = 0 to t.size - 1 do
    pool.(i) <- t.pool.(t.slots.(i));
    thunks.(i) <- t.thunks.(t.slots.(i));
    t.slots.(i) <- i
  done;
  for k = 0 to t.nfree - 1 do
    let s = t.size + k in
    pool.(s) <- t.pool.(t.free.(k));
    t.free.(k) <- s
  done;
  t.pool <- pool;
  t.thunks <- thunks;
  t.nslots <- t.size + t.nfree

(* Cold path of [schedule] when no slot is parked: a fresh slot bound to
   a fresh record with a fresh identity. *)
let new_slot t =
  if t.nslots = Array.length t.pool then
    repool t (pow2_above 16 (2 * (t.size + 1)));
  let s = t.nslots in
  t.nslots <- s + 1;
  t.pool.(s) <- { hstate = pending_st; hid = t.next_hid; stats = t.stats };
  t.next_hid <- t.next_hid + 1;
  s

let grow_heap t =
  let ncap = Int.max 16 (2 * Array.length t.times) in
  t.times <- resized t.times t.size ncap;
  t.seqs <- resized t.seqs t.size ncap;
  t.slots <- resized t.slots t.size ncap

(* Slot [s]'s event is dead (fired or cancelled) and about to leave the
   heap: drop its thunk and park the slot, or release its record once
   [free_limit] records are parked (the slot becomes a hole). *)
let release t s =
  t.thunks.(s) <- nothing;
  if t.nfree < free_limit t then begin
    if t.nfree = Array.length t.free then
      t.free <- resized t.free t.nfree (Int.max 16 (2 * t.nfree));
    t.free.(t.nfree) <- s;
    t.nfree <- t.nfree + 1
  end
  else t.pool.(s) <- dummy_handle

(* Strict ordering: earlier time first, FIFO (schedule order) among
   events set for the same instant. *)
let[@inline] lt t i j =
  let ti = t.times.(i) and tj = t.times.(j) in
  if ti < tj then true else if tj < ti then false else t.seqs.(i) < t.seqs.(j)

(* Hole-based sifting: the moving entry rides in the arguments and is
   written exactly once at its final position, so each level costs one
   3-int copy. No [ref] for the running minimum either: a ref cell
   would be a heap allocation per pop. *)
let[@inline] place t i tm sq sl =
  t.times.(i) <- tm;
  t.seqs.(i) <- sq;
  t.slots.(i) <- sl

let rec sift_up_from t i tm sq sl =
  if i = 0 then place t i tm sq sl
  else begin
    let p = (i - 1) / 2 in
    let tp = t.times.(p) in
    if tp > tm || (tp = tm && t.seqs.(p) > sq) then begin
      place t i tp t.seqs.(p) t.slots.(p);
      sift_up_from t p tm sq sl
    end
    else place t i tm sq sl
  end

let rec sift_down_from t i tm sq sl =
  let l = (2 * i) + 1 in
  if l >= t.size then place t i tm sq sl
  else begin
    let r = l + 1 in
    let s = if r < t.size && lt t r l then r else l in
    let ts = t.times.(s) in
    if ts < tm || (ts = tm && t.seqs.(s) < sq) then begin
      place t i ts t.seqs.(s) t.slots.(s);
      sift_down_from t s tm sq sl
    end
    else place t i tm sq sl
  end

(* Capacity release on the drain paths, same policy as [Keyed_heap]:
   once occupancy falls below a quarter of capacity, shrink to a power
   of two leaving 2x headroom. It applies to the heap columns, the free
   stack (trimmed to [free_limit] first) and the slot pool, so retained
   memory follows the live event count down. The guards are a handful
   of loads and compares; the O(n) copies are amortized O(1) per
   operation by the trigger/post-shrink hysteresis gap. As in
   [Keyed_heap], capacity under 1024 slots is never released:
   hysteresis cannot protect a queue that oscillates between empty and
   a few hundred in-flight events every cycle (the churn
   micro-benchmark's shape), and arrays that small don't pin memory
   worth reclaiming. *)
let shrink_if_sparse t =
  let cap = Array.length t.times in
  if cap > 1024 && 4 * t.size < cap then begin
    let ncap = pow2_above 16 (2 * t.size) in
    t.times <- resized t.times t.size ncap;
    t.seqs <- resized t.seqs t.size ncap;
    t.slots <- resized t.slots t.size ncap
  end;
  let limit = free_limit t in
  if t.nfree > limit then begin
    for k = limit to t.nfree - 1 do
      t.pool.(t.free.(k)) <- dummy_handle
    done;
    t.nfree <- limit
  end;
  let fcap = Array.length t.free in
  if fcap > 1024 && 4 * t.nfree < fcap then
    t.free <- resized t.free t.nfree (pow2_above 16 (2 * t.nfree));
  let used = t.size + t.nfree in
  if Array.length t.pool > 1024 && 4 * used < Array.length t.pool then
    repool t (pow2_above 16 (2 * used))

let compact t =
  let j = ref 0 in
  for i = 0 to t.size - 1 do
    let s = t.slots.(i) in
    if t.pool.(s).hstate = pending_st then begin
      place t !j t.times.(i) t.seqs.(i) s;
      incr j
    end
    else release t s (* only cancelled entries linger in the heap *)
  done;
  t.size <- !j;
  t.stats.stale <- 0;
  for i = (t.size / 2) - 1 downto 0 do
    sift_down_from t i t.times.(i) t.seqs.(i) t.slots.(i)
  done;
  shrink_if_sparse t

let needs_compaction t = t.size >= 64 && 2 * t.stats.stale > t.size

let schedule t ~at thunk =
  if at < 0 then invalid_arg "Event_queue.schedule: negative time";
  if needs_compaction t then compact t;
  if t.size = Array.length t.times then grow_heap t;
  let s =
    if t.nfree > 0 then begin
      t.nfree <- t.nfree - 1;
      t.free.(t.nfree)
    end
    else new_slot t
  in
  let h = t.pool.(s) in
  h.hstate <- pending_st;
  t.thunks.(s) <- thunk;
  let sq = t.next_seq in
  t.next_seq <- sq + 1;
  t.size <- t.size + 1;
  t.stats.live <- t.stats.live + 1;
  sift_up_from t (t.size - 1) at sq s;
  h

let cancel h =
  if h.hstate = pending_st then begin
    h.hstate <- cancelled_st;
    h.stats.live <- h.stats.live - 1;
    h.stats.stale <- h.stats.stale + 1
  end

let is_cancelled h = h.hstate = cancelled_st

(* Drop the top entry. Its slot must already be released: a pool
   shrink here renumbers only heap and parked slots. *)
let remove_top t =
  t.size <- t.size - 1;
  let n = t.size in
  if n > 0 then sift_down_from t 0 t.times.(n) t.seqs.(n) t.slots.(n);
  shrink_if_sparse t

(* Drop cancelled entries sitting at the top of the heap. *)
let rec settle t =
  if t.size > 0 && t.pool.(t.slots.(0)).hstate = cancelled_st then begin
    t.stats.stale <- t.stats.stale - 1;
    release t t.slots.(0);
    remove_top t;
    settle t
  end

let next_time t =
  settle t;
  if t.size = 0 then None else Some t.times.(0)

(* Fire the top entry: mark it fired, record its thunk in [t.taken],
   park its slot and drop its entry. Returns its time. *)
let fire_top t =
  let at = t.times.(0) and s = t.slots.(0) in
  t.taken <- t.thunks.(s);
  t.pool.(s).hstate <- fired_st;
  t.stats.live <- t.stats.live - 1;
  release t s;
  remove_top t;
  at

let take_until t ~horizon =
  settle t;
  if t.size > 0 && t.times.(0) <= horizon then fire_top t
  else begin
    t.taken <- nothing;
    -1
  end

let taken t = t.taken

let pop t =
  settle t;
  if t.size = 0 then None
  else begin
    let at = fire_top t in
    Some (at, t.taken)
  end

let pending t = t.stats.live
let capacity t = Array.length t.times
let retained_handles t = t.nfree

(* Deterministic retained-words accounting: three heap columns, the
   two slot-pool arrays, the free stack, the parked handle records (4
   words each incl. header) and the queue record itself. *)
let footprint_words t =
  (3 * Array.length t.times) + (2 * Array.length t.pool) + Array.length t.free
  + (4 * t.nfree) + 14
