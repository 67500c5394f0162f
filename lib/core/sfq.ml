open Hsfq_sched

let algorithm_name = "sfq"

(* Client state lives in a dense table of parallel arrays, so a
   scheduling decision (select + charge) touches only flat int/byte
   arrays — no hashing, and no allocation: tags, weights and v(t) are
   exact integers on the {!Vtime} scale, so every store is an immediate.

   The table is indexed by *slot*, not by the caller's client id: slots
   are allocated from a free list on arrive and recycled on depart, and
   when live clients fall below a quarter of capacity the columns are
   packed and halved (see [compact]). That keeps retained memory O(live
   clients) under sustained arrive/depart churn and frees the caller to
   use arbitrary non-negative ids (they no longer size the table). The
   id -> slot map is a flat open-addressed index of slots (see
   [slot_lookup]); slot-keyed twins ([arrive_slot], [block_slot],
   [charge_slot]) let callers that cache their slot — the hierarchy
   caches one per child node — skip even that probe. Owners that hold
   slots across operations subscribe to compaction moves with
   [set_on_remap]. *)

(* Per-client lifecycle, one byte per client. *)
let st_absent = '\000'
let st_blocked = '\001'
let st_runnable = '\002'

(* Bounds *live* clients (slots), not ids: 2^22 concurrent clients is
   far beyond any simulated workload, and ids no longer size anything. *)
let max_clients = 1 lsl 22

type t = {
  mutable cap : int; (* length of every per-slot array *)
  mutable weightv : int array; (* administered weight, Vtime units *)
  mutable donatedv : int array; (* extra weight received via [donate] *)
  mutable startv : int array; (* start tag of the pending quantum *)
  mutable finishv : int array; (* finish tag of the last quantum *)
  mutable remv : int array;
      (* Vtime remainder carried from the last charge; reset to 0 when
         the start tag is taken from v(t) *)
  mutable statev : Bytes.t; (* st_absent / st_blocked / st_runnable *)
  mutable genv : int array; (* generation of the queued heap entry *)
  mutable idv : int array; (* slot -> client id; -1 = free slot *)
  mutable index : int array;
      (* id -> slot, open-addressed: a cell holds a live slot or -1, and
         the cell's key is that slot's [idv] entry, so the index stores
         slots only. A power of two at least twice the live count,
         rebuilt at compaction. *)
  mutable ishift : int; (* 63 - log2 (length index): the hash's shift *)
  mutable top : int; (* slots [0, top) are allocated or on the free list *)
  mutable freev : int array; (* stack of free slots below [top] *)
  mutable nfree : int;
  mutable nlive : int; (* known clients: runnable + blocked *)
  queue : Keyed_heap.t; (* runnable slots keyed by start tag *)
  donations : (int, int * int) Hashtbl.t;
      (* blocked -> (recipient, amount), keyed by client *ids* so
         compaction never touches it; cold path only (donate / revoke /
         depart), never touched by a scheduling decision *)
  mutable vt : int; (* v(t) *)
  mutable max_finish : int; (* largest finish tag ever assigned *)
  mutable nrun : int;
  mutable servers : int;
      (* claim capacity: how many selections may be outstanding at once.
         1 (the default) is the paper's single-CPU protocol; the
         multiprocessor hierarchy raises the *root* scheduler's capacity
         to the CPU count (claims are pop-only, so each child subtree
         serves at most one CPU at a time — see Hierarchy.set_servers). *)
  mutable svc : int array; (* claimed slots, [0, nsvc) *)
  mutable nsvc : int; (* outstanding selections not yet charged *)
  mutable on_remap : (id:int -> slot:int -> unit) option;
      (* compaction notification for callers caching slots *)
  mutable obs : Hsfq_obs.Trace.sys option;
      (* tracepoint sink; [None] keeps every decision at a single extra
         match branch *)
  mutable obs_on : bool ref;
      (* the tracer's live enabled cell (Trace.on_cell), cached so a
         disabled tracepoint costs one load + branch, no cross-module
         call *)
  mutable obs_node : int; (* hierarchy node id this SFQ serves, for events *)
  mutable next_gen : int;
      (* global generation counter for heap entries: per-slot counters
         would restart at 0 when a freed slot is reused, making the new
         occupant's entries collide with stale ones still queued under
         the same slot (select would then pop an obsolete start tag and
         drag v(t) backwards) *)
}

(* The id index never shrinks below 16 cells. *)
let index_min_bits = 4
let index_min = 1 lsl index_min_bits

let create ?rng:_ ?quantum_hint:_ () =
  let t =
    {
      cap = 0;
      weightv = [||];
      donatedv = [||];
      startv = [||];
      finishv = [||];
      remv = [||];
      statev = Bytes.empty;
      genv = [||];
      idv = [||];
      index = Array.make index_min (-1);
      ishift = 63 - index_min_bits;
      top = 0;
      freev = [||];
      nfree = 0;
      nlive = 0;
      queue = Keyed_heap.create ();
      donations = Hashtbl.create 4;
      vt = 0;
      max_finish = 0;
      nrun = 0;
      servers = 1;
      svc = Array.make 1 (-1);
      nsvc = 0;
      on_remap = None;
      obs = None;
      obs_on = ref false;
      obs_node = -1;
      next_gen = 0;
    }
  in
  (* One closure for the heap's compaction/pop validity checks, built
     once: a queued entry is live iff its slot still holds a runnable
     client under the same generation. Compaction-remapped entries keep
     their gen (the column moves with them); entries left pointing at a
     freed or reused slot fail the gen check because generations are
     globally unique. *)
  Keyed_heap.set_validator t.queue (fun ~id ~gen ->
      id < t.cap
      && Char.equal (Bytes.get t.statev id) st_runnable
      && t.genv.(id) = gen);
  t

let set_obs t sys ~node =
  t.obs <- sys;
  t.obs_node <- node;
  match sys with
  | Some s -> t.obs_on <- Hsfq_obs.Trace.on_cell s
  | None -> t.obs_on <- ref false

let set_on_remap t f = t.on_remap <- f

(* Index of [slot] in the outstanding-claim set, -1 if not claimed.
   [nsvc] is bounded by the server count (the CPU count in the
   multiprocessor hierarchy), so the linear scan is O(1) in practice —
   and, like every other decision-path helper, allocation-free. *)
let rec claim_index_from t slot i =
  if i >= t.nsvc then -1
  else if t.svc.(i) = slot then i
  else claim_index_from t slot (i + 1)

let claim_index t slot = claim_index_from t slot 0

let set_servers t n =
  if n < 1 then invalid_arg "Sfq.set_servers: capacity < 1";
  if n < t.nsvc then
    invalid_arg "Sfq.set_servers: outstanding selections exceed new capacity";
  if n > Array.length t.svc then begin
    let ns = Array.make n (-1) in
    Array.blit t.svc 0 ns 0 t.nsvc;
    t.svc <- ns
  end;
  t.servers <- n

let[@inline] servers t = t.servers

(* The id index: linear probing from a multiplicative (Fibonacci) hash,
   the top bits of [id * 2^63/phi]. At most half the cells are full, so
   a probe reads ~1.5 cells on a hit and ~2.5 on a miss; each is an int
   load plus an [idv] compare — no hashing closure, no boxing, no
   allocation. *)
let[@inline] home t id = (id * 0x4F1BBCDCBFA53E0B) lsr t.ishift

let rec probe t id i =
  let s = t.index.(i) in
  if s < 0 then -1
  else if t.idv.(s) = id then s
  else probe t id ((i + 1) land (Array.length t.index - 1))

(* id -> slot, -1 if unknown. *)
let[@inline] slot_lookup t id = probe t id (home t id)

let rec place t slot i =
  if t.index.(i) < 0 then t.index.(i) <- slot
  else place t slot ((i + 1) land (Array.length t.index - 1))

(* Rebuild the index at [2^bits] cells from the live slots: on growth,
   and at compaction, where slots move and the live count has fallen. *)
let reindex t bits =
  t.index <- Array.make (1 lsl bits) (-1);
  t.ishift <- 63 - bits;
  for s = 0 to t.top - 1 do
    if t.idv.(s) >= 0 then place t s (home t t.idv.(s))
  done

let rec bits_above b n = if 1 lsl b >= n then b else bits_above (b + 1) n

(* Insert a new client's slot, keeping the load <= 1/2. Its [idv] is
   set and it lies below [top], so a doubling rebuild places it too. *)
let index_add t slot =
  if 2 * (t.nlive + 1) > Array.length t.index then reindex t (64 - t.ishift)
  else place t slot (home t t.idv.(slot))

(* Backward-shift deletion: walk the run after the emptied cell and
   move back every entry whose home does not lie cyclically in
   (hole, j], so no probe run is ever broken by a hole. *)
let rec close_gap t hole j =
  let m = Array.length t.index - 1 in
  let j = (j + 1) land m in
  let s = t.index.(j) in
  if s < 0 then t.index.(hole) <- -1
  else if (j - home t t.idv.(s)) land m >= (j - hole) land m then begin
    t.index.(hole) <- s;
    close_gap t j j
  end
  else close_gap t hole j

let rec cell_of t slot i =
  if t.index.(i) = slot then i
  else cell_of t slot ((i + 1) land (Array.length t.index - 1))

(* Remove a live slot (its [idv] still set) from the index. *)
let index_remove t slot =
  let c = cell_of t slot (home t t.idv.(slot)) in
  close_gap t c c

let[@inline] slot_of_id t ~id = if id < 0 then -1 else slot_lookup t id
let[@inline] id_of_slot t ~slot = if slot >= 0 && slot < t.cap then t.idv.(slot) else -1

let state t id =
  let s = slot_of_id t ~id in
  if s < 0 then st_absent else Bytes.get t.statev s

let known t id = not (Char.equal (state t id) st_absent)

let slot_checked t id =
  let s = slot_of_id t ~id in
  if s < 0 then invalid_arg (Printf.sprintf "Sfq: unknown client %d" id);
  s

let rec pow2_above c n = if c >= n then c else pow2_above (2 * c) n

let grow t slot =
  let ncap = pow2_above (Int.max 16 (2 * t.cap)) (slot + 1) in
  let column a =
    let n = Array.make ncap 0 in
    Array.blit a 0 n 0 t.cap;
    n
  in
  t.weightv <- column t.weightv;
  t.donatedv <- column t.donatedv;
  t.startv <- column t.startv;
  t.finishv <- column t.finishv;
  t.remv <- column t.remv;
  t.genv <- column t.genv;
  let nst = Bytes.make ncap st_absent in
  Bytes.blit t.statev 0 nst 0 t.cap;
  t.statev <- nst;
  let ni = Array.make ncap (-1) in
  Array.blit t.idv 0 ni 0 t.cap;
  t.idv <- ni;
  t.cap <- ncap

let[@inline always] effective_weight t slot =
  t.weightv.(slot) + t.donatedv.(slot)

let fresh_gen t =
  let g = t.next_gen in
  t.next_gen <- t.next_gen + 1;
  g

let enqueue t slot =
  let g = fresh_gen t in
  t.genv.(slot) <- g;
  Keyed_heap.push t.queue ~key:t.startv.(slot) ~gen:g ~id:slot

(* Idle transition: "when the CPU is idle, v(t) is set to the maximum of
   finish tags assigned to any thread" (§3, rule 2). *)
let note_idle t =
  if t.nrun = 0 then t.vt <- Int.max t.vt t.max_finish

let free_slot t slot =
  if t.nfree >= Array.length t.freev then begin
    let n = Int.max 16 (2 * Array.length t.freev) in
    let nf = Array.make n 0 in
    Array.blit t.freev 0 nf 0 t.nfree;
    t.freev <- nf
  end;
  t.freev.(t.nfree) <- slot;
  t.nfree <- t.nfree + 1

(* Occupancy-triggered compaction, from [depart]: pack live slots to the
   front (order-preserving), halve the columns down to 2x headroom, and
   tell everyone holding a slot where it went — queued heap entries via
   [Keyed_heap.remap_ids] (keys/seqs untouched, so dispatch order and
   FIFO tie-breaks are byte-identical), the caller via [on_remap]. The
   heap then drops its dead entries (the departed clients', and any
   other stale one) and re-heapifies, so after a departure-heavy
   compaction it holds exactly the runnable clients: the first pops
   discard nothing, and no push runs a whole-heap compaction. The
   2x gap between the trigger (live < cap/4) and post-compaction
   occupancy (live = ncap/2) gives the same no-thrash hysteresis as the
   keyed heap's release. O(cap), amortized O(1) per depart. *)
let compact t =
  let old_top = t.top in
  let map = Array.make (Int.max 1 old_top) (-1) in
  let j = ref 0 in
  for s = 0 to old_top - 1 do
    if t.idv.(s) >= 0 then begin
      let d = !j in
      map.(s) <- d;
      if d <> s then begin
        t.weightv.(d) <- t.weightv.(s);
        t.donatedv.(d) <- t.donatedv.(s);
        t.startv.(d) <- t.startv.(s);
        t.finishv.(d) <- t.finishv.(s);
        t.remv.(d) <- t.remv.(s);
        Bytes.set t.statev d (Bytes.get t.statev s);
        t.genv.(d) <- t.genv.(s);
        t.idv.(d) <- t.idv.(s)
      end;
      incr j
    end
  done;
  let live = !j in
  for s = live to old_top - 1 do
    t.idv.(s) <- -1;
    Bytes.set t.statev s st_absent
  done;
  t.top <- live;
  t.nfree <- 0;
  let ncap = pow2_above 16 (2 * live) in
  if ncap < t.cap then begin
    t.weightv <- Array.sub t.weightv 0 ncap;
    t.donatedv <- Array.sub t.donatedv 0 ncap;
    t.startv <- Array.sub t.startv 0 ncap;
    t.finishv <- Array.sub t.finishv 0 ncap;
    t.remv <- Array.sub t.remv 0 ncap;
    t.statev <- Bytes.sub t.statev 0 ncap;
    t.genv <- Array.sub t.genv 0 ncap;
    t.idv <- Array.sub t.idv 0 ncap;
    if Array.length t.freev > ncap then t.freev <- [||];
    t.cap <- ncap
  end;
  reindex t (bits_above index_min_bits (2 * live));
  for i = 0 to t.nsvc - 1 do
    t.svc.(i) <- map.(t.svc.(i))
  done;
  Keyed_heap.remap_ids t.queue map;
  Keyed_heap.compact t.queue;
  match t.on_remap with
  | None -> ()
  | Some f ->
    for s = 0 to live - 1 do
      f ~id:t.idv.(s) ~slot:s
    done

let maybe_compact t = if t.cap > 64 && 4 * t.nlive < t.cap then compact t

(* A new id becomes a blocked client with [F = 0] and no remainder:
   allocate a slot (recycling the free list before extending the
   high-water mark) and index it. Its first wake then takes
   [S = max(v(t), 0) = v(t)] — rule 1 with j = 1. Out-of-line: once per
   client lifetime, keeping the wake body alloc-free. *)
let register t ~id ~weight =
  if t.nlive >= max_clients then
    invalid_arg
      (Printf.sprintf "Sfq: %d live clients exceeds the table limit" t.nlive);
  let slot =
    if t.nfree > 0 then begin
      t.nfree <- t.nfree - 1;
      t.freev.(t.nfree)
    end
    else begin
      let s = t.top in
      if s >= t.cap then grow t s;
      t.top <- t.top + 1;
      s
    end
  in
  t.idv.(slot) <- id;
  index_add t slot;
  t.nlive <- t.nlive + 1;
  t.weightv.(slot) <- weight;
  t.donatedv.(slot) <- 0;
  t.startv.(slot) <- t.vt;
  t.finishv.(slot) <- 0;
  t.remv.(slot) <- 0;
  Bytes.set t.statev slot st_blocked;
  slot

let admit t ~id ~weight =
  if weight <= 0 then invalid_arg "Sfq.admit: weight <= 0";
  if id < 0 then invalid_arg "Sfq.admit: negative client id";
  if slot_lookup t id >= 0 then
    invalid_arg (Printf.sprintf "Sfq.admit: client %d already known" id);
  ignore (register t ~id ~weight : int)

(* The one blocked -> runnable transition (rule 1: S = max(v, F)), at
   the slot's stored weight. A start tag taken from v(t) restarts the
   client's tag stream, so its remainder is dropped with the forgiven
   lag. *)
let rewake t slot =
  if t.vt > t.finishv.(slot) then begin
    t.startv.(slot) <- t.vt;
    t.remv.(slot) <- 0
  end
  else t.startv.(slot) <- t.finishv.(slot);
  Bytes.set t.statev slot st_runnable;
  t.nrun <- t.nrun + 1;
  enqueue t slot

let arrive t ~id ~weight =
  if weight <= 0 then invalid_arg "Sfq.arrive: weight <= 0";
  if id < 0 then invalid_arg "Sfq.arrive: negative client id";
  let slot = slot_lookup t id in
  let slot = if slot < 0 then register t ~id ~weight else slot in
  (* A blocked client may return with a different share (e.g. its class
     weight was re-administered while it slept): the new weight governs
     the quantum it is about to request. Already runnable: idempotent,
     the weight argument is ignored. *)
  if Char.equal (Bytes.get t.statev slot) st_blocked then begin
    t.weightv.(slot) <- weight;
    rewake t slot
  end

let arrive_slot t ~slot ~weight =
  if slot < 0 || slot >= t.cap || t.idv.(slot) < 0 then
    invalid_arg "Sfq.arrive_slot: no client at slot";
  if weight <= 0 then invalid_arg "Sfq.arrive: weight <= 0";
  if Char.equal (Bytes.get t.statev slot) st_blocked then begin
    t.weightv.(slot) <- weight;
    rewake t slot
  end

let wake t ~id =
  let slot = slot_checked t id in
  if Char.equal (Bytes.get t.statev slot) st_blocked then rewake t slot

let revoke t ~blocked =
  match Hashtbl.find_opt t.donations blocked with
  | None -> ()
  | Some (recipient, amount) ->
    let rslot = slot_of_id t ~id:recipient in
    if rslot >= 0 then t.donatedv.(rslot) <- t.donatedv.(rslot) - amount;
    Hashtbl.remove t.donations blocked

let depart t ~id =
  let slot = slot_of_id t ~id in
  if slot >= 0 then begin
    if claim_index t slot >= 0 then invalid_arg "Sfq.depart: client in service";
    if Char.equal (Bytes.get t.statev slot) st_runnable then begin
      t.nrun <- t.nrun - 1;
      (* A runnable, not-in-service client has exactly one queued heap
         entry; it just went stale. *)
      Keyed_heap.invalidate t.queue
    end;
    t.genv.(slot) <- fresh_gen t;
    (* Weight conservation: give back any weight this client donated, and
       drop donations aimed at it (their blockers re-donate on the next
       ownership change, see Kernel.unlock_mutex). *)
    revoke t ~blocked:id;
    Hashtbl.fold
      (fun b (r, _) acc -> if r = id then b :: acc else acc)
      t.donations []
    |> List.iter (fun b -> revoke t ~blocked:b);
    index_remove t slot;
    Bytes.set t.statev slot st_absent;
    t.idv.(slot) <- -1;
    free_slot t slot;
    t.nlive <- t.nlive - 1;
    note_idle t;
    maybe_compact t
  end

let set_weight t ~id ~weight =
  if weight <= 0 then invalid_arg "Sfq.set_weight: weight <= 0";
  let slot = slot_checked t id in
  t.weightv.(slot) <- weight

let select_id t =
  if t.nsvc >= t.servers then
    invalid_arg "Sfq.select_id: previous selection not yet charged";
  let slot = Keyed_heap.pop_valid t.queue in
  if slot < 0 then -1
  else begin
    t.svc.(t.nsvc) <- slot;
    t.nsvc <- t.nsvc + 1;
    (* Rule 2: while busy, v(t) is the start tag of the quantum in
       service.  With several claims outstanding this is the most
       recently selected one, kept monotone explicitly: at servers > 1
       a client pinned at its one-CPU rate cap legitimately carries
       start tags that lag v(t) (its finish tags advance at
       service/weight < the aggregate virtual rate), so a freshly
       popped tag can sit below the clock.  At servers = 1 select and
       charge strictly alternate, every enqueued tag is >= the vt it
       was assigned under, and the max is inert. *)
    t.vt <- Int.max t.vt (Keyed_heap.last_key t.queue);
    let id = t.idv.(slot) in
    (if !(t.obs_on) then
       match t.obs with
       | None -> ()
       | Some s ->
         Hsfq_obs.Trace.emitf s ~code:Hsfq_obs.Trace.ev_pick ~a:t.obs_node
           ~b:id ~c:0 ~d:0 ~x:t.vt ~y:0);
    id
  end

(* Hot charge body, on an in-service slot. [ci] is the slot's index in
   the claim set (validated by the caller); swap-removal keeps the set
   dense without disturbing the other outstanding claims. The tag rule
   F = S + ⌊(l·unit + r)/w⌋ runs first, so an overflow raises before
   any state moves. *)
let do_charge t ~ci ~slot ~service ~runnable =
  if service < 0 then invalid_arg "Sfq.charge: negative service";
  let ew = effective_weight t slot and rem = t.remv.(slot) in
  let step = Vtime.step ~service ~weight:ew ~rem in
  let finish = Vtime.add t.startv.(slot) step in
  t.remv.(slot) <- Vtime.carry ~service ~weight:ew ~rem ~step;
  t.nsvc <- t.nsvc - 1;
  t.svc.(ci) <- t.svc.(t.nsvc);
  t.svc.(t.nsvc) <- -1;
  t.finishv.(slot) <- finish;
  if finish > t.max_finish then t.max_finish <- finish;
  (if !(t.obs_on) then
     match t.obs with
     | None -> ()
     | Some s ->
       let id = t.idv.(slot) in
       Hsfq_obs.Trace.emitf s ~code:Hsfq_obs.Trace.ev_tag_update ~a:t.obs_node
         ~b:id
         ~c:(if runnable then 1 else 0)
         ~d:0 ~x:service ~y:finish;
       Hsfq_obs.Metrics.charge_sample (Hsfq_obs.Trace.metrics s) ~node:id
         ~service ~norm:step ~vt:t.vt);
  if runnable then begin
    (* A continuously backlogged client keeps its own tag stream:
       start <- finish, NOT fmax vt finish.  Clamping to v(t) here
       would erase the lag a weight-heavy client accumulates while
       saturating its one-CPU cap at servers > 1 and collapse the
       allocation to equal shares; the capped max-min (feasible-
       weight) split requires the lagging tags to keep their claim to
       the next quantum.  At servers = 1 the clamp was inert anyway:
       v(t) equals this slot's start tag while it is in service, so
       finish >= v(t) always.  Clients re-arriving from blocked still
       clamp to v(t) in [arrive], which is what forgives banked
       credit.  The remainder carries over: the tag stream is exact. *)
    t.startv.(slot) <- finish;
    enqueue t slot
  end
  else begin
    Bytes.set t.statev slot st_blocked;
    t.genv.(slot) <- fresh_gen t;
    t.nrun <- t.nrun - 1;
    note_idle t
  end

let rec claim_of_id t ~id i =
  if i >= t.nsvc then -1
  else if id >= 0 && t.idv.(t.svc.(i)) = id then i
  else claim_of_id t ~id (i + 1)

let charge t ~id ~service ~runnable =
  (* The claimed slots know their ids, so the id-keyed charge needs no
     hash lookup: scan the (CPU-count-bounded) claim set. *)
  let ci = claim_of_id t ~id 0 in
  if ci < 0 then invalid_arg "Sfq.charge: client not in service";
  do_charge t ~ci ~slot:t.svc.(ci) ~service ~runnable

let charge_slot t ~slot ~service ~runnable =
  let ci = if slot < 0 then -1 else claim_index t slot in
  if ci < 0 then invalid_arg "Sfq.charge: client not in service";
  do_charge t ~ci ~slot ~service ~runnable

let block_slot t ~slot =
  if slot >= 0 && slot < t.cap && t.idv.(slot) >= 0 then begin
    if claim_index t slot >= 0 then
      invalid_arg "Sfq.block: client in service (use charge ~runnable:false)";
    if Char.equal (Bytes.get t.statev slot) st_runnable then begin
      Bytes.set t.statev slot st_blocked;
      t.genv.(slot) <- fresh_gen t;
      t.nrun <- t.nrun - 1;
      Keyed_heap.invalidate t.queue;
      note_idle t
    end
  end

let block t ~id = block_slot t ~slot:(slot_of_id t ~id)

(* No re-key of an already-queued recipient is needed: the ready queue is
   ordered by start tags, and a start tag never depends on the weight —
   [S = max(v, F)] (rule 1). The donated weight only changes the divisor
   of the *next* finish-tag computation in [charge], matching the
   weight-change semantics ([set_weight] also takes effect on the next
   quantum). So the queued key stays equal to the start tag at all
   times. *)
let donate t ~blocked ~recipient =
  if blocked = recipient then invalid_arg "Sfq.donate: self-donation";
  let bslot = slot_checked t blocked in
  let rslot = slot_checked t recipient in
  revoke t ~blocked;
  let amount = t.weightv.(bslot) in
  t.donatedv.(rslot) <- t.donatedv.(rslot) + amount;
  Hashtbl.replace t.donations blocked (recipient, amount)

let mem t ~id = known t id

let start_tag t ~id =
  let slot = slot_checked t id in
  t.startv.(slot)

let finish_tag t ~id =
  let slot = slot_checked t id in
  t.finishv.(slot)

let is_runnable t ~id =
  let slot = slot_checked t id in
  Char.equal (Bytes.get t.statev slot) st_runnable

let[@inline] backlogged t = t.nrun
let[@inline] virtual_time t = t.vt

(* ------- diagnostics / audit probes (lib/check, doc/INVARIANTS.md) ------- *)

let clients t =
  let acc = ref [] in
  for s = t.top - 1 downto 0 do
    if t.idv.(s) >= 0 then acc := t.idv.(s) :: !acc
  done;
  List.sort Int.compare !acc

(* Slot probes for the audit's scan: int reads, so they allocate
   nothing in any profile. They and the scalar probes above and below
   are inlined (in the release profile), so each of the scan's reads is
   a load, not a call. *)
let[@inline] slot_bound t = t.top
let[@inline] slot_weight t ~slot = t.weightv.(slot)
let[@inline] slot_effective_weight t ~slot = effective_weight t slot
let[@inline] slot_start t ~slot = t.startv.(slot)
let[@inline] slot_finish t ~slot = t.finishv.(slot)
let[@inline] slot_remainder t ~slot = t.remv.(slot)
let[@inline] slot_runnable t ~slot = Char.equal (Bytes.get t.statev slot) st_runnable
let[@inline] slot_live t ~slot = not (Char.equal (Bytes.get t.statev slot) st_absent)

let weight t ~id =
  let slot = slot_checked t id in
  t.weightv.(slot)

let effective_weight_of t ~id =
  let slot = slot_checked t id in
  effective_weight t slot

let in_service t = if t.nsvc = 0 then -1 else t.idv.(t.svc.(t.nsvc - 1))

let[@inline] claim_count t = t.nsvc
let[@inline] claim_id t i = t.idv.(t.svc.(i))

let[@inline] max_finish_tag t = t.max_finish

let[@inline] donation_count t = Hashtbl.length t.donations

let donations t =
  Hashtbl.fold
    (fun blocked (recipient, amount) acc -> (blocked, recipient, amount) :: acc)
    t.donations []

let capacity t = t.cap
let live_clients t = t.nlive
let queued t = Keyed_heap.size t.queue

(* Deterministic retained-words accounting (array lengths, not GC
   sampling): 7 int columns, the state bytes, the free stack, the id
   index, and the ready queue. *)
let footprint_words t =
  (7 * t.cap)
  + ((t.cap + 7) / 8)
  + Array.length t.svc
  + Array.length t.freev
  + Array.length t.index
  + Keyed_heap.footprint_words t.queue
