(* Structure-of-arrays binary min-heap on (key, seq), carrying (gen, id).

   The hot path of every scheduler in this repository is push/pop on this
   heap, so the representation is four parallel flat int arrays instead
   of a boxed entry record behind a polymorphic comparator: a push
   writes four ints, a sift moves one entry per level — no per-entry
   allocation, no closure call per comparison.

   A pop leaves its entry at the root as a dead hole, because the
   common next operation is a push (the SFQ select -> charge cycle pops
   a client and pushes it back): that push writes its entry into the
   root and sifts it down once, the classic heap-replace, instead of a
   pop's sift-down followed by a push's sift-up. Every other heap
   operation closes the hole first with the pop's own [remove_top];
   [size] never counts it.

   Lazy deletion needs a backstop: a client that cycles
   arrive -> block without ever being selected leaves one stale entry per
   cycle and never pops, so the heap would grow without bound. Callers
   report invalidations ([invalidate]) and install a validity predicate
   ([set_validator]); when more than half the entries are stale the next
   push compacts the arrays in place and re-heapifies (O(n), amortized
   O(1) per stale entry). *)

type t = {
  mutable keys : int array;
  mutable seqs : int array;
  mutable gens : int array;
  mutable ids : int array;
  mutable size : int;
  mutable next_seq : int;
  mutable stale : int; (* caller-reported invalidations still queued *)
  mutable validator : (id:int -> gen:int -> bool) option;
  mutable last : int; (* key of the most recently popped entry *)
  mutable peeked : int; (* key of the most recent [peek_valid] hit *)
  mutable hole : bool; (* the root is the popped entry, awaiting a push *)
}

let create () =
  {
    keys = [||];
    seqs = [||];
    gens = [||];
    ids = [||];
    size = 0;
    next_seq = 0;
    stale = 0;
    validator = None;
    last = 0;
    peeked = 0;
    hole = false;
  }

let set_validator t valid = t.validator <- Some valid
let invalidate t = t.stale <- t.stale + 1

let size t = if t.hole then t.size - 1 else t.size
let last_key t = t.last
let peeked_key t = t.peeked

(* Strict ordering: smaller key first, FIFO (push sequence) among ties. *)
let[@inline] lt t i j =
  let ki = t.keys.(i) and kj = t.keys.(j) in
  ki < kj || (ki = kj && t.seqs.(i) < t.seqs.(j))

(* Hole-based sifting: the moving entry rides in the arguments and is
   written exactly once at its final position, so each level costs one
   4-int copy. No [ref] for the running minimum either: a ref cell
   would be a heap allocation per pop. *)
let[@inline] place t i key sq gen id =
  t.keys.(i) <- key;
  t.seqs.(i) <- sq;
  t.gens.(i) <- gen;
  t.ids.(i) <- id

let rec sift_up_from t i key sq gen id =
  if i = 0 then place t i key sq gen id
  else begin
    let p = (i - 1) / 2 in
    let kp = t.keys.(p) in
    if kp > key || (kp = key && t.seqs.(p) > sq) then begin
      place t i kp t.seqs.(p) t.gens.(p) t.ids.(p);
      sift_up_from t p key sq gen id
    end
    else place t i key sq gen id
  end

let rec sift_down_from t i key sq gen id =
  let l = (2 * i) + 1 in
  if l >= t.size then place t i key sq gen id
  else begin
    let r = l + 1 in
    let s = if r < t.size && lt t r l then r else l in
    let ks = t.keys.(s) in
    if ks < key || (ks = key && t.seqs.(s) < sq) then begin
      place t i ks t.seqs.(s) t.gens.(s) t.ids.(s);
      sift_down_from t s key sq gen id
    end
    else place t i key sq gen id
  end

let grow t =
  let cap = Array.length t.keys in
  if t.size >= cap then begin
    let ncap = if cap = 0 then 16 else cap * 2 in
    let nk = Array.make ncap 0 in
    Array.blit t.keys 0 nk 0 t.size;
    t.keys <- nk;
    let ns = Array.make ncap 0 in
    Array.blit t.seqs 0 ns 0 t.size;
    t.seqs <- ns;
    let ng = Array.make ncap 0 in
    Array.blit t.gens 0 ng 0 t.size;
    t.gens <- ng;
    let ni = Array.make ncap 0 in
    Array.blit t.ids 0 ni 0 t.size;
    t.ids <- ni
  end

(* Capacity release: arrays only ever doubled before this existed, so a
   heap that once held 10^6 entries pinned ~32 MB forever. Shrink to a
   power of two that still leaves 2x headroom once occupancy drops below
   a quarter of capacity. The 2x gap between the shrink threshold
   (size < cap/4) and the post-shrink occupancy (size = ncap/2) gives
   hysteresis: after a shrink, at least cap/2 pushes must happen before
   the next grow, and after a grow at least 3/4 of the entries must pop
   before the next shrink — no thrashing at a boundary. Hysteresis
   cannot help a workload that oscillates between empty and full,
   though (each swing legitimately crosses both thresholds), so
   capacity below 1024 slots (~32 KB) is never released: small heaps
   that drain and refill every cycle — the push+pop micro-benchmark,
   per-quantum timer queues — keep their arrays, and the release path
   only engages at the scales where pinned memory actually matters. *)
let pow2_above ~floor n =
  let c = ref floor in
  while !c < n do
    c := !c * 2
  done;
  !c

let shrink_if_sparse t =
  let cap = Array.length t.keys in
  if cap > 1024 && 4 * t.size < cap then begin
    let ncap = pow2_above ~floor:16 (2 * t.size) in
    if ncap < cap then begin
      t.keys <- Array.sub t.keys 0 ncap;
      t.seqs <- Array.sub t.seqs 0 ncap;
      t.gens <- Array.sub t.gens 0 ncap;
      t.ids <- Array.sub t.ids 0 ncap
    end
  end

let remove_top t =
  t.size <- t.size - 1;
  let n = t.size in
  if n > 0 then sift_down_from t 0 t.keys.(n) t.seqs.(n) t.gens.(n) t.ids.(n);
  (* Pops are the only drain path for valid entries (compaction only
     sees stale ones), so capacity release must hook here too. The
     guard inside is two loads and a compare; the O(n) copy itself is
     amortized O(1) per pop by the hysteresis gap. *)
  shrink_if_sparse t

let close_hole t =
  if t.hole then begin
    t.hole <- false;
    remove_top t
  end

(* A popped entry stays as the hole unless dropping it would release
   capacity: then [remove_top] and its shrink run now, so capacity
   follows pops exactly as without the hole. *)
let vacate_top t =
  let cap = Array.length t.keys in
  if cap > 1024 && 4 * (t.size - 1) < cap then remove_top t else t.hole <- true

let compact t =
  close_hole t;
  match t.validator with
  | None -> ()
  | Some valid ->
    let j = ref 0 in
    for i = 0 to t.size - 1 do
      if valid ~id:t.ids.(i) ~gen:t.gens.(i) then begin
        place t !j t.keys.(i) t.seqs.(i) t.gens.(i) t.ids.(i);
        incr j
      end
    done;
    t.size <- !j;
    t.stale <- 0;
    (* Floyd heapify: O(n). *)
    for i = (t.size / 2) - 1 downto 0 do
      sift_down_from t i t.keys.(i) t.seqs.(i) t.gens.(i) t.ids.(i)
    done;
    shrink_if_sparse t

(* Compaction pays off only once stale entries dominate and the heap is
   big enough for the O(n) rebuild to beat their log-factor drag. The
   hole does not count: the trigger sees the entries it would see had
   the popped entry been removed at once. *)
let needs_compaction t =
  let n = size t in
  n >= 64 && 2 * t.stale > n

(* Into the hole when there is one (one sift down from the root),
   otherwise at the end (one sift up). *)
let push t ~key ~gen ~id =
  if needs_compaction t then compact t;
  let sq = t.next_seq in
  t.next_seq <- sq + 1;
  if t.hole then begin
    t.hole <- false;
    sift_down_from t 0 key sq gen id
  end
  else begin
    grow t;
    t.size <- t.size + 1;
    sift_up_from t (t.size - 1) key sq gen id
  end

let dropped_stale t = if t.stale > 0 then t.stale <- t.stale - 1

(* Pops and peeks run against the installed validator and return the
   entry's id (or -1 on empty), its key readable via [last_key] /
   [peeked_key]. The loop is a top-level function — a local [let rec]
   would allocate a closure over [t] and [valid] on every call. *)
let rec pop_valid_loop t valid =
  if t.size = 0 then -1
  else begin
    let gen = t.gens.(0) and id = t.ids.(0) in
    if valid ~id ~gen then begin
      t.last <- t.keys.(0);
      vacate_top t;
      id
    end
    else begin
      remove_top t;
      dropped_stale t;
      pop_valid_loop t valid
    end
  end

let pop_valid t =
  match t.validator with
  | None -> invalid_arg "Keyed_heap.pop_valid: no validator installed"
  | Some valid ->
    close_hole t;
    pop_valid_loop t valid

let rec peek_valid_loop t valid =
  if t.size = 0 then -1
  else begin
    let gen = t.gens.(0) and id = t.ids.(0) in
    if valid ~id ~gen then begin
      t.peeked <- t.keys.(0);
      id
    end
    else begin
      remove_top t;
      dropped_stale t;
      peek_valid_loop t valid
    end
  end

let peek_valid t =
  match t.validator with
  | None -> invalid_arg "Keyed_heap.peek_valid: no validator installed"
  | Some valid ->
    close_hole t;
    peek_valid_loop t valid

let stale_bound t = t.stale

let capacity t = Array.length t.keys

(* Retained words across the four int columns, headers included. *)
let footprint_words t = (4 * Array.length t.keys) + 8

(* Rewrite queued entry ids through [map] (old id -> new id, negative =
   no mapping). Used by owners that renumber their dense tables under
   compaction: keys and seqs are untouched, so heap order — including
   FIFO tie order — is exactly preserved. Entries whose id has no
   mapping are left as-is; they can only be stale (the owner just
   renumbered every live id), and the owner's validator keeps rejecting
   them because generation numbers are globally unique. *)
let remap_ids t map =
  close_hole t;
  let n = Array.length map in
  for i = 0 to t.size - 1 do
    let s = t.ids.(i) in
    if s >= 0 && s < n && map.(s) >= 0 then t.ids.(i) <- map.(s)
  done
