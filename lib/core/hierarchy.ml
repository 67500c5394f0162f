type id = int
type kind = Leaf | Internal

(* Nodes cache a direct reference to their parent (and every internal
   node owns its SFQ directly), so the kernel entry points —
   [schedule_id], [update_ns], [setrun], [sleep] — walk the tree
   through pointers: no hashing, and no allocation in steady state.
   The id -> node map is a dense array indexed by id, used only where
   the API hands us a bare id.

   Ids of removed nodes are recycled through a min-first pool: reuse
   concentrates live ids low, so under sustained mknod/rmnod churn the
   id frontier ([next_id]) decays as trailing slots free up and the
   nodes array can actually shrink — without ever renumbering a live
   node (ids are public; the kernel and leaf schedulers hold them). *)

type node = {
  nid : id;
  comp : string; (* path component; "" for the root *)
  parent : node option; (* cached direct reference; [None] for the root *)
  kind : kind;
  mutable weight : int; (* Vtime units *)
  mutable runnable : bool;
  sfq : Sfq.t option; (* child scheduler; [Some] iff internal *)
  mutable pslot : int;
      (* this node's slot in the parent's SFQ (-1 for the root), cached
         so the per-decision walks ([setrun]/[sleep]/[update]) never
         hash an id; kept fresh across SFQ compactions by the
         [Sfq.set_on_remap] subscription installed at node creation *)
  mutable children : id list; (* reverse creation order *)
  mutable by_name : (string, id) Hashtbl.t option;
      (* [Some] iff internal ([parse]/[mknod] only, never hot); leaves
         carry no table at all — at 10^5 leaf tenants the empty
         4-bucket tables were pure dead weight. Mutable because rmnod
         rebuilds it smaller once occupancy drops (a Hashtbl never
         shrinks its bucket array on remove). *)
}

(* Min-first pool of freed node ids (cold: mknod/rmnod only). *)
type pool = { mutable heap : int array; mutable n : int }

type t = {
  mutable nodes : node option array; (* slot = id; [None] after rmnod *)
  mutable next_id : id;
  pool : pool; (* freed ids below [next_id], smallest first *)
  mutable count : int;
  (* Observation point for the invariant audit (Hsfq_check): called after
     every transition of an internal node's SFQ, with that node's id.
     Must not mutate the hierarchy. *)
  mutable audit_hook : (node:id -> event:string -> unit) option;
  (* Tracepoint sink (Hsfq_obs): [attach_obs] fans it out to every
     internal node's SFQ and emits node-lifecycle events here. *)
  mutable obs : Hsfq_obs.Trace.sys option;
}

let root = 0

let audited t ~node ~event =
  match t.audit_hook with
  | None -> ()
  | Some hook -> hook ~node ~event

let set_audit_hook t hook = t.audit_hook <- hook

let obs_emit t ~code ~a ~b ~c =
  match t.obs with
  | None -> ()
  | Some s -> Hsfq_obs.Trace.emit0 s ~code ~a ~b ~c ~d:0

let make_node ~nid ~comp ~parent ~weight kind =
  {
    nid;
    comp;
    parent;
    kind;
    weight;
    runnable = false;
    sfq = (match kind with Internal -> Some (Sfq.create ()) | Leaf -> None);
    pslot = -1;
    children = [];
    by_name =
      (match kind with
      | Internal -> Some (Hashtbl.create 8)
      | Leaf -> None);
  }

let pool_push p id =
  if p.n >= Array.length p.heap then begin
    let cap = Int.max 16 (2 * Array.length p.heap) in
    let nh = Array.make cap 0 in
    Array.blit p.heap 0 nh 0 p.n;
    p.heap <- nh
  end;
  let i = ref p.n in
  p.n <- p.n + 1;
  p.heap.(!i) <- id;
  let continue = ref true in
  while !continue && !i > 0 do
    let parent = (!i - 1) / 2 in
    if p.heap.(parent) > p.heap.(!i) then begin
      let tmp = p.heap.(parent) in
      p.heap.(parent) <- p.heap.(!i);
      p.heap.(!i) <- tmp;
      i := parent
    end
    else continue := false
  done

(* Smallest pooled id, -1 if empty. Shrinks the backing array with the
   usual quarter-occupancy trigger so a drained pool releases memory. *)
let pool_pop p =
  if p.n = 0 then -1
  else begin
    let top = p.heap.(0) in
    p.n <- p.n - 1;
    p.heap.(0) <- p.heap.(p.n);
    let i = ref 0 in
    let continue = ref true in
    while !continue do
      let l = (2 * !i) + 1 and r = (2 * !i) + 2 in
      let s = ref !i in
      if l < p.n && p.heap.(l) < p.heap.(!s) then s := l;
      if r < p.n && p.heap.(r) < p.heap.(!s) then s := r;
      if !s <> !i then begin
        let tmp = p.heap.(!s) in
        p.heap.(!s) <- p.heap.(!i);
        p.heap.(!i) <- tmp;
        i := !s
      end
      else continue := false
    done;
    let cap = Array.length p.heap in
    if cap > 64 && 4 * p.n < cap then p.heap <- Array.sub p.heap 0 (cap / 2);
    top
  end

(* Keep each internal node's child slots fresh: the SFQ reports every
   live client's slot after a compaction, and clients of a hierarchy SFQ
   are exactly the child node ids. *)
let install_remap t n =
  match n.sfq with
  | None -> ()
  | Some s ->
    Sfq.set_on_remap s
      (Some
         (fun ~id ~slot ->
           match
             if id >= 0 && id < Array.length t.nodes then t.nodes.(id)
             else None
           with
           | Some c -> c.pslot <- slot
           | None -> ()))

let create () =
  let nodes = Array.make 16 None in
  nodes.(root) <-
    Some
      (make_node ~nid:root ~comp:"" ~parent:None ~weight:Hsfq_sched.Vtime.unit
         Internal);
  let t =
    {
      nodes;
      next_id = 1;
      pool = { heap = [||]; n = 0 };
      count = 1;
      audit_hook = None;
      obs = None;
    }
  in
  (match nodes.(root) with Some r -> install_remap t r | None -> ());
  t

let unknown id = invalid_arg (Printf.sprintf "Hierarchy: unknown node %d" id)

(* [node] and the one-field accessors below are inlined (in the release
   profile), so such a read from another module is a bounds check and
   loads, not a call. *)
let[@inline] node t id =
  if id >= 0 && id < Array.length t.nodes then
    match t.nodes.(id) with Some n -> n | None -> unknown id
  else unknown id

let node_opt t id =
  if id >= 0 && id < Array.length t.nodes then t.nodes.(id) else None

let sfq_of n =
  match n.sfq with
  | Some s -> s
  | None -> invalid_arg (Printf.sprintf "Hierarchy: node %d is a leaf" n.nid)

let names_of n =
  match n.by_name with
  | Some h -> h
  | None ->
    invalid_arg (Printf.sprintf "Hierarchy: node %d is a leaf" n.nid)

let rec pow2_above c n = if c >= n then c else pow2_above (2 * c) n

let grow t needed =
  let cap = Array.length t.nodes in
  if needed >= cap then begin
    let ncap = pow2_above (2 * cap) (needed + 1) in
    let nn = Array.make ncap None in
    Array.blit t.nodes 0 nn 0 cap;
    t.nodes <- nn
  end

(* Reuse the smallest freed id below the frontier; fall back to a fresh
   one. Pool entries can go stale two ways — trimmed past by [rmnod]'s
   frontier decay and then re-covered by fresh frontier allocations, so
   a popped id is used only if its slot is actually free. *)
let rec alloc_id t =
  let id = pool_pop t.pool in
  if id < 0 then begin
    let nid = t.next_id in
    t.next_id <- t.next_id + 1;
    grow t nid;
    nid
  end
  else if
    id < t.next_id
    && (match t.nodes.(id) with None -> true | Some _ -> false)
  then id
  else alloc_id t

(* After a removal at the frontier, let [next_id] decay past every
   trailing freed slot, then release array capacity once live ids
   occupy under a quarter of it (2x-headroom hysteresis, same policy as
   Sfq/Keyed_heap). Stale pool entries >= next_id are discarded lazily
   by [alloc_id]. *)
let trim_frontier t =
  while
    t.next_id > 1
    && (match t.nodes.(t.next_id - 1) with None -> true | Some _ -> false)
  do
    t.next_id <- t.next_id - 1
  done;
  let cap = Array.length t.nodes in
  if cap > 32 && 4 * t.next_id < cap then begin
    let ncap = pow2_above 16 (2 * t.next_id) in
    if ncap < cap then t.nodes <- Array.sub t.nodes 0 ncap
  end

(* Rebuild an internal node's name table once removals leave its bucket
   array under a quarter occupied: Hashtbl.remove never returns bucket
   memory, so a parent that once held 10^5 children would otherwise pin
   a 10^5-bucket table forever. *)
let reclaim_names n =
  match n.by_name with
  | None -> ()
  | Some h ->
    let s = Hashtbl.stats h in
    if
      s.Hashtbl.num_buckets > 32
      && 4 * s.Hashtbl.num_bindings < s.Hashtbl.num_buckets
    then begin
      let nh = Hashtbl.create (Int.max 8 (2 * s.Hashtbl.num_bindings)) in
      Hashtbl.iter (fun k v -> Hashtbl.replace nh k v) h;
      n.by_name <- Some nh
    end

let rec rev_path n acc =
  match n.parent with None -> acc | Some p -> rev_path p (n.comp :: acc)

let name_of t id = Path.join (rev_path (node t id) [])

let mknod t ~name ~parent ~weight kind =
  match Hsfq_sched.Vtime.weight_of_float weight with
  | exception Invalid_argument msg -> Error msg
  | _ when not (Path.is_valid_component name) ->
    Error (Printf.sprintf "invalid node name %S" name)
  | weight ->
    match node_opt t parent with
    | None -> Error (Printf.sprintf "unknown parent %d" parent)
    | Some p when p.kind = Leaf -> Error "parent is a leaf node"
    | Some p when Hashtbl.mem (names_of p) name ->
      Error (Printf.sprintf "duplicate node name %S" name)
    | Some p ->
      let nid = alloc_id t in
      let n = make_node ~nid ~comp:name ~parent:(Some p) ~weight kind in
      t.nodes.(nid) <- Some n;
      t.count <- t.count + 1;
      p.children <- nid :: p.children;
      Hashtbl.replace (names_of p) name nid;
      install_remap t n;
      (* Pre-register the child in the parent's SFQ, blocked, so weight
         administration works before the node first runs. *)
      let psfq = sfq_of p in
      Sfq.admit psfq ~id:nid ~weight;
      n.pslot <- Sfq.slot_of_id psfq ~id:nid;
      audited t ~node:parent ~event:"mknod";
      (match t.obs with
      | None -> ()
      | Some s ->
        (match n.sfq with
        | Some sf -> Sfq.set_obs sf (Some s) ~node:nid
        | None -> ());
        Hsfq_obs.Trace.name_lane s
          ~lane:(Hsfq_obs.Trace.node_lane nid)
          ~name:(name_of t nid);
        Hsfq_obs.Trace.emit0 s ~code:Hsfq_obs.Trace.ev_mknod ~a:parent ~b:nid
          ~c:0 ~d:0);
      Ok nid

(* Fan the tracepoint sink out: every internal node's SFQ emits
   pick/tag-update events under its own node id, and every node gets a
   named exporter lane.  Nodes created later are wired by [mknod]. *)
let attach_obs t sys =
  t.obs <- sys;
  for id = 0 to t.next_id - 1 do
    match node_opt t id with
    | None -> ()
    | Some n ->
      (match n.sfq with
      | Some sf -> Sfq.set_obs sf sys ~node:n.nid
      | None -> ());
      (match sys with
      | None -> ()
      | Some s ->
        Hsfq_obs.Trace.name_lane s
          ~lane:(Hsfq_obs.Trace.node_lane n.nid)
          ~name:(if n.nid = root then "/" else name_of t n.nid))
  done

let parse t ?(hint = root) name =
  match Path.split name with
  | Error e -> Error e
  | Ok parts ->
    let start = if Path.is_absolute name then root else hint in
    (match node_opt t start with
    | None -> Error (Printf.sprintf "unknown hint node %d" start)
    | Some _ ->
      let rec walk cur = function
        | [] -> Ok cur
        | comp :: rest ->
          let n = node t cur in
          let hit =
            match n.by_name with
            | None -> None (* leaves have no children (and no table) *)
            | Some h -> Hashtbl.find_opt h comp
          in
          (match hit with
          | Some child -> walk child rest
          | None ->
            (* Report the prefix actually walked so far, not the root. *)
            Error
              (Printf.sprintf "no node %S under %s" comp (name_of t cur)))
      in
      walk start parts)

let rmnod t id =
  if id = root then Error "cannot remove the root"
  else
    match node_opt t id with
    | None -> Error (Printf.sprintf "unknown node %d" id)
    | Some n when n.children <> [] -> Error "node has children"
    | Some n when n.runnable -> Error "node is runnable"
    | Some n ->
      let p = match n.parent with Some p -> p | None -> assert false in
      Sfq.depart (sfq_of p) ~id;
      p.children <- List.filter (fun c -> c <> id) p.children;
      Hashtbl.remove (names_of p) n.comp;
      reclaim_names p;
      t.nodes.(id) <- None;
      t.count <- t.count - 1;
      pool_push t.pool id;
      trim_frontier t;
      audited t ~node:p.nid ~event:"rmnod";
      obs_emit t ~code:Hsfq_obs.Trace.ev_rmnod ~a:p.nid ~b:id ~c:0;
      Ok ()

let set_weight t id w =
  if w <= 0. then invalid_arg "Hierarchy.set_weight: weight <= 0";
  if id = root then invalid_arg "Hierarchy.set_weight: root has no weight";
  let w = Hsfq_sched.Vtime.weight_of_float w in
  let n = node t id in
  n.weight <- w;
  let p = match n.parent with Some p -> p | None -> assert false in
  Sfq.set_weight (sfq_of p) ~id ~weight:w;
  audited t ~node:p.nid ~event:"set_weight"

let[@inline] weight t id = (node t id).weight
let[@inline] kind_of t id = (node t id).kind

let parent_of t id =
  match (node t id).parent with None -> None | Some p -> Some p.nid

let children_of t id = List.rev (node t id).children

let[@inline] children_newest_first t id = (node t id).children
let[@inline] node_weight n = n.weight
let[@inline] node_runnable n = n.runnable
let[@inline] node_slot n = n.pslot

let depth t id =
  let rec up n acc =
    match n.parent with None -> acc | Some p -> up p (acc + 1)
  in
  up (node t id) 0

let node_count t = t.count

let render_tree t =
  let buf = Buffer.create 256 in
  let rec walk id depth =
    let n = node t id in
    let name = if id = root then "/" else n.comp in
    Buffer.add_string buf
      (Printf.sprintf "%s%-20s w=%-6g %-8s %s\n"
         (String.make (2 * depth) ' ')
         name
         (Hsfq_sched.Vtime.to_float n.weight)
         (match n.kind with Internal -> "internal" | Leaf -> "leaf")
         (if n.runnable then "runnable" else "idle"));
    List.iter (fun c -> walk c (depth + 1)) (List.rev n.children)
  in
  walk root 0;
  Buffer.contents buf

let[@inline] is_runnable t id = (node t id).runnable
let virtual_time_of t id = Sfq.virtual_time (sfq_of (node t id))
let[@inline] internal_sfq t id = sfq_of (node t id)

let start_tag_of t id =
  let n = node t id in
  match n.parent with
  | None -> invalid_arg "Hierarchy.start_tag_of: root has no tags"
  | Some p -> Sfq.start_tag (sfq_of p) ~id

(* The kernel entry points below run once per scheduling decision, so
   their tree walks are top-level recursive functions — a [let rec]
   local to the entry point would allocate a closure per call. Weights,
   tags and service are ints, so nothing they pass to [Sfq] boxes. *)

(* Mark [n] runnable and walk up, stopping at the first ancestor that was
   already runnable (paper: hsfq_setrun). *)
let rec setrun_up t n =
  if not n.runnable then begin
    n.runnable <- true;
    match n.parent with
    | None -> ()
    | Some p ->
      let psfq = sfq_of p in
      Sfq.arrive_slot psfq ~slot:n.pslot ~weight:n.weight;
      audited t ~node:p.nid ~event:"setrun";
      obs_emit t ~code:Hsfq_obs.Trace.ev_node_setrun ~a:p.nid ~b:n.nid ~c:0;
      setrun_up t p
  end

let setrun t id = setrun_up t (node t id)

(* Mark [n] un-runnable and walk up while ancestors lose their last
   runnable child (paper: hsfq_sleep). Only for nodes not in service. *)
let rec sleep_up t n =
  if n.runnable then begin
    n.runnable <- false;
    match n.parent with
    | None -> ()
    | Some p ->
      let psfq = sfq_of p in
      Sfq.block_slot psfq ~slot:n.pslot;
      audited t ~node:p.nid ~event:"sleep";
      obs_emit t ~code:Hsfq_obs.Trace.ev_node_sleep ~a:p.nid ~b:n.nid ~c:0;
      if Sfq.backlogged psfq = 0 then sleep_up t p
  end

let sleep t id = sleep_up t (node t id)

let rec descend_id t n =
  match n.kind with
  | Leaf -> n.nid
  | Internal ->
    let child = Sfq.select_id (sfq_of n) in
    if child >= 0 then begin
      audited t ~node:n.nid ~event:"select";
      descend_id t (node t child)
    end
    else if n.parent = None then
      (* Runnable root with nothing selectable: every runnable subtree
         is claimed by a concurrent decision path (multi-server
         dispatch, see [set_servers]) — report no work rather than
         violate a sibling's claim. Impossible below the root: a child
         appears in its parent's ready queue only while unclaimed, and
         claims release bottom-up, so a descent never enters a subtree
         whose own children are all claimed. *)
      -1
    else
      (* A runnable node with no selectable child violates the
         runnability invariant. *)
      assert false

let schedule_id t =
  let r = node t root in
  if not r.runnable then -1 else descend_id t r

(* Multiprocessor dispatch: allow [p] concurrent root->leaf decision
   paths. Claims are taken level by level as [schedule_id] descends and
   released bottom-up by [update]'s walk, so two paths can only ever
   contend at the root — every deeper node is reached by at most one
   path at a time (its parent's claim on it is exclusive). Raising the
   root scheduler's claim capacity is therefore sufficient, and leaving
   every other node at capacity 1 keeps the single-claim protocol
   enforced where it must hold. *)
let set_servers t p =
  if p < 1 then invalid_arg "Hierarchy.set_servers: capacity < 1";
  Sfq.set_servers (sfq_of (node t root)) p

(* Charge [service] up the tree. *)
let rec update_up t n ~service runnable_child =
  n.runnable <- runnable_child;
  match n.parent with
  | None -> ()
  | Some p ->
    let psfq = sfq_of p in
    Sfq.charge_slot psfq ~slot:n.pslot ~service ~runnable:runnable_child;
    audited t ~node:p.nid ~event:"charge";
    update_up t p ~service (Sfq.backlogged psfq > 0)

let update_ns t ~leaf ~service_ns ~leaf_runnable =
  if service_ns < 0 then invalid_arg "Hierarchy.update_ns: negative service";
  update_up t (node t leaf) ~service:service_ns leaf_runnable

let donate t ~blocked ~recipient =
  if blocked = recipient then Error "donate: self-donation"
  else
    let b = node t blocked and r = node t recipient in
    match (b.parent, r.parent) with
    | Some pb, Some pr when pb.nid = pr.nid ->
      Sfq.donate (sfq_of pb) ~blocked ~recipient;
      audited t ~node:pb.nid ~event:"donate";
      obs_emit t ~code:Hsfq_obs.Trace.ev_node_donate ~a:blocked ~b:recipient
        ~c:pb.nid;
      Ok ()
    | _ -> Error "donate: nodes must be siblings"

let revoke t ~blocked =
  let b = node t blocked in
  match b.parent with
  | None -> ()
  | Some p ->
    Sfq.revoke (sfq_of p) ~blocked;
    audited t ~node:p.nid ~event:"revoke";
    obs_emit t ~code:Hsfq_obs.Trace.ev_node_revoke ~a:blocked ~b:(-1) ~c:p.nid

(* Bulk-construction hint: pre-size an internal node's name table so a
   10^5-child mknod storm doesn't rehash it through a dozen doublings
   (Hashtbl grows by copy-and-rehash of every binding). *)
let reserve_children t id expected =
  if expected < 0 then invalid_arg "Hierarchy.reserve_children: negative";
  let n = node t id in
  let h = names_of n in
  let s = Hashtbl.stats h in
  if expected > s.Hashtbl.num_buckets then begin
    let nh = Hashtbl.create expected in
    Hashtbl.iter (fun k v -> Hashtbl.replace nh k v) h;
    n.by_name <- Some nh
  end

let capacity t = Array.length t.nodes

(* Deterministic retained-words accounting (array lengths, list
   lengths, and hashtable bucket counts — not GC sampling): the nodes
   array and id pool, plus per live node its record, children list,
   name-table buckets/bindings, and the child SFQ. *)
let footprint_words t =
  let words =
    ref (Array.length t.nodes + Array.length t.pool.heap + 8)
  in
  for id = 0 to t.next_id - 1 do
    match t.nodes.(id) with
    | None -> ()
    | Some n ->
      words := !words + 16 + (3 * List.length n.children);
      (match n.by_name with
      | None -> ()
      | Some h ->
        let s = Hashtbl.stats h in
        words :=
          !words + s.Hashtbl.num_buckets + (4 * s.Hashtbl.num_bindings));
      (match n.sfq with
      | None -> ()
      | Some s -> words := !words + Sfq.footprint_words s)
  done;
  !words
