(* Structure-of-arrays binary min-heap on (key, seq), carrying (gen, id).

   The hot path of every scheduler in this repository is push/pop on this
   heap, so the representation is four parallel flat int arrays instead
   of a boxed entry record behind a polymorphic comparator: a push
   writes four ints, a pop swaps array cells — no per-entry allocation,
   no closure call per comparison.

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
  }

let set_validator t valid = t.validator <- Some valid
let invalidate t = t.stale <- t.stale + 1

let size t = t.size
let last_key t = t.last
let peeked_key t = t.peeked

let clear t =
  t.size <- 0;
  t.stale <- 0

(* Strict ordering: smaller key first, FIFO (push sequence) among ties. *)
let lt t i j =
  let ki = t.keys.(i) and kj = t.keys.(j) in
  ki < kj || (ki = kj && t.seqs.(i) < t.seqs.(j))

let swap t i j =
  let k = t.keys.(i) in
  t.keys.(i) <- t.keys.(j);
  t.keys.(j) <- k;
  let s = t.seqs.(i) in
  t.seqs.(i) <- t.seqs.(j);
  t.seqs.(j) <- s;
  let g = t.gens.(i) in
  t.gens.(i) <- t.gens.(j);
  t.gens.(j) <- g;
  let d = t.ids.(i) in
  t.ids.(i) <- t.ids.(j);
  t.ids.(j) <- d

let rec sift_up t i =
  if i > 0 then begin
    let parent = (i - 1) / 2 in
    if lt t i parent then begin
      swap t i parent;
      sift_up t parent
    end
  end

(* No [ref] for the running minimum: a ref cell is a heap allocation per
   recursion level, and this runs on every pop. *)
let rec sift_down t i =
  let l = (2 * i) + 1 and r = (2 * i) + 2 in
  let s = if l < t.size && lt t l i then l else i in
  let s = if r < t.size && lt t r s then r else s in
  if s <> i then begin
    swap t i s;
    sift_down t s
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

(* Keep [i]'s entry, moving it down to slot [j] (j <= i). *)
let keep t ~src ~dst =
  if dst <> src then begin
    t.keys.(dst) <- t.keys.(src);
    t.seqs.(dst) <- t.seqs.(src);
    t.gens.(dst) <- t.gens.(src);
    t.ids.(dst) <- t.ids.(src)
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

let compact t =
  match t.validator with
  | None -> ()
  | Some valid ->
    let j = ref 0 in
    for i = 0 to t.size - 1 do
      if valid ~id:t.ids.(i) ~gen:t.gens.(i) then begin
        keep t ~src:i ~dst:!j;
        incr j
      end
    done;
    t.size <- !j;
    t.stale <- 0;
    (* Floyd heapify: O(n). *)
    for i = (t.size / 2) - 1 downto 0 do
      sift_down t i
    done;
    shrink_if_sparse t

(* Compaction pays off only once stale entries dominate and the heap is
   big enough for the O(n) rebuild to beat their log-factor drag. *)
let needs_compaction t = t.size >= 64 && 2 * t.stale > t.size

let push t ~key ~gen ~id =
  if needs_compaction t then compact t;
  grow t;
  let i = t.size in
  t.keys.(i) <- key;
  t.seqs.(i) <- t.next_seq;
  t.gens.(i) <- gen;
  t.ids.(i) <- id;
  t.next_seq <- t.next_seq + 1;
  t.size <- t.size + 1;
  sift_up t i

let remove_top t =
  t.size <- t.size - 1;
  if t.size > 0 then begin
    keep t ~src:t.size ~dst:0;
    sift_down t 0
  end;
  (* Pops are the only drain path for valid entries (compaction only
     sees stale ones), so capacity release must hook here too. The
     guard inside is two loads and a compare; the O(n) copy itself is
     amortized O(1) per pop by the hysteresis gap. *)
  shrink_if_sparse t

let dropped_stale t = if t.stale > 0 then t.stale <- t.stale - 1

(* Pops and peeks run against the installed validator and return the
   entry's id (or -1 on empty), its key readable via [last_key] /
   [peeked_key]. The loop is a top-level function — a local [let rec]
   would allocate a closure over [t] and [valid] on every call. *)
let rec pop_valid_loop t valid =
  if t.size = 0 then -1
  else begin
    let key = t.keys.(0) and gen = t.gens.(0) and id = t.ids.(0) in
    remove_top t;
    if valid ~id ~gen then begin
      t.last <- key;
      id
    end
    else begin
      dropped_stale t;
      pop_valid_loop t valid
    end
  end

let pop_valid t =
  match t.validator with
  | None -> invalid_arg "Keyed_heap.pop_valid: no validator installed"
  | Some valid -> pop_valid_loop t valid

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
  | Some valid -> peek_valid_loop t valid

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
  let n = Array.length map in
  for i = 0 to t.size - 1 do
    let s = t.ids.(i) in
    if s >= 0 && s < n && map.(s) >= 0 then t.ids.(i) <- map.(s)
  done
