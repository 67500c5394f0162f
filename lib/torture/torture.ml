open Hsfq_engine
module Hierarchy = Hsfq_core.Hierarchy
module Kernel = Hsfq_kernel.Kernel
module Leaf_sched = Hsfq_kernel.Leaf_sched
module Interrupt_source = Hsfq_kernel.Interrupt_source
module W = Hsfq_kernel.Workload_intf
module Invariant = Hsfq_check.Invariant
module Kernel_audit = Hsfq_check.Kernel_audit
module Hierarchy_audit = Hsfq_check.Hierarchy_audit

type config = {
  seed : int;
  ops : int;
  audit_period : int;
  max_leaves : int;
  max_spawns : int;
  prepopulate : int;
  cpus : int;
}

let config ?(ops = 10_000) ?(audit_period = 1) ?(max_leaves = 16)
    ?(max_spawns = 192) ?(prepopulate = 0) ?(cpus = 1) seed =
  if ops < 0 then invalid_arg "Torture.config: ops < 0";
  if audit_period < 1 then invalid_arg "Torture.config: audit_period < 1";
  if max_leaves < 1 then invalid_arg "Torture.config: max_leaves < 1";
  if max_spawns < 0 then invalid_arg "Torture.config: max_spawns < 0";
  if prepopulate < 0 || prepopulate > max_leaves then
    invalid_arg "Torture.config: prepopulate outside [0, max_leaves]";
  if cpus < 1 then invalid_arg "Torture.config: cpus < 1";
  { seed; ops; audit_period; max_leaves; max_spawns; prepopulate; cpus }

type op =
  | Advance of Time.span
  | Spawn of { leaf : int; weight : int; profile : int }
  | Start of int
  | Kill of int
  | Move of { th : int; leaf : int }
  | Suspend of int
  | Resume of int
  | Interrupt of Time.span
  | Interrupt_on of { cpu : int; dur : Time.span }
      (* multiprocessor runs only: an interrupt storm targets one CPU *)
  | Mknod of { group : int; weight : int }
  | Rmnod of int

let op_to_string = function
  | Advance d -> Printf.sprintf "advance %s" (Time.to_string d)
  | Spawn { leaf; weight; profile } ->
    Printf.sprintf "spawn leaf:%d weight:%d profile:%d" leaf weight profile
  | Start i -> Printf.sprintf "start %d" i
  | Kill i -> Printf.sprintf "kill %d" i
  | Move { th; leaf } -> Printf.sprintf "move %d -> leaf:%d" th leaf
  | Suspend i -> Printf.sprintf "suspend %d" i
  | Resume i -> Printf.sprintf "resume %d" i
  | Interrupt d -> Printf.sprintf "interrupt %s" (Time.to_string d)
  | Interrupt_on { cpu; dur } ->
    Printf.sprintf "interrupt cpu:%d %s" cpu (Time.to_string dur)
  | Mknod { group; weight } -> Printf.sprintf "mknod group:%d weight:%d" group weight
  | Rmnod i -> Printf.sprintf "rmnod %d" i

let trace_to_string ops =
  String.concat "\n"
    (List.mapi (fun i o -> Printf.sprintf "%4d  %s" i (op_to_string o)) ops)

(* Minimal growable array: slots are never removed, so an index assigned
   at creation stays meaningful for the rest of the run (and across
   trace subsequences during shrinking). *)
module Vec = struct
  type 'a t = { mutable arr : 'a array; mutable len : int }

  let create () = { arr = [||]; len = 0 }
  let length v = v.len
  let get v i = v.arr.(i)

  let push v x =
    if v.len = Array.length v.arr then begin
      let grown = Array.make (Int.max 8 (2 * Array.length v.arr)) x in
      Array.blit v.arr 0 grown 0 v.len;
      v.arr <- grown
    end;
    v.arr.(v.len) <- x;
    v.len <- v.len + 1
end

let n_mutexes = 4
let n_devices = 2

type leaf_slot = {
  node : Hierarchy.id;
  handle : Leaf_sched.Sfq_leaf.handle;
  mutable live : bool;
}

type thread_slot = { tid : Kernel.tid; tweight : float }

type sys = {
  sim : Sim.t;
  hier : Hierarchy.t;
  k : Kernel.t;
  sink : Invariant.sink;
  actx : Kernel_audit.ctx;
  groups : Hierarchy.id array;
  leaves : leaf_slot Vec.t;
  threads : thread_slot Vec.t;
  oprng : Prng.t;
  wl_base : Prng.t;
  mutexes : int array;
  devices : int array;
  max_leaves : int;
  max_spawns : int;
  cpus : int;
  mutable n_live_leaves : int;
  mutable leaf_counter : int;
  mutable trace_rev : op list;
}

(* Per-thread behaviour, drawn lazily from the thread's own PRNG stream
   (keyed by spawn index, so a replayed trace regenerates identical
   workloads). Nested locks are always taken in ascending mutex order,
   so the workloads themselves can never deadlock — every stall the
   driver observes is the kernel's doing. *)
let make_workload sys ~profile ~rng : W.t =
  let usec lo hi = Time.microseconds (Prng.int_in rng lo hi) in
  let pending = Queue.create () in
  let push a = Queue.push a pending in
  let refill () =
    match profile land 3 with
    | 0 ->
      push (W.Compute (usec 100 3000));
      if Prng.bernoulli rng 0.5 then push (W.Sleep_for (usec 200 6000));
      if Prng.bernoulli rng 0.02 then push W.Exit
    | 1 ->
      let i = Prng.int rng n_mutexes and j = Prng.int rng n_mutexes in
      let lo = sys.mutexes.(Int.min i j) and hi = sys.mutexes.(Int.max i j) in
      push (W.Lock lo);
      push (W.Compute (usec 50 800));
      if hi <> lo && Prng.bernoulli rng 0.4 then begin
        push (W.Lock hi);
        push (W.Compute (usec 20 300));
        push (W.Unlock hi)
      end;
      if Prng.bernoulli rng 0.01 then
        (* die while still holding: exercises the holder hand-off *)
        push W.Exit
      else begin
        push (W.Unlock lo);
        push (W.Sleep_for (usec 100 2000))
      end
    | 2 ->
      push (W.Compute (usec 50 1500));
      push (W.Io (sys.devices.(Prng.int rng n_devices), Prng.int_in rng 1 3));
      if Prng.bernoulli rng 0.03 then push W.Exit
    | _ ->
      push (W.Sleep_for (usec 500 8000));
      push (W.Compute (usec 100 1000));
      if Prng.bernoulli rng 0.05 then push W.Exit
  in
  fun ~now:_ ->
    if Queue.is_empty pending then refill ();
    match Queue.take_opt pending with
    | Some a -> a
    | None -> W.Compute (Time.microseconds 100)

(* The cap is on *live* leaves, not leaves ever created, so a long
   churn run keeps cycling mknod/rmnod instead of saturating after the
   first [max_leaves] creations. Slot indices still never recycle. *)
let add_leaf sys ~group ~weight =
  if sys.n_live_leaves < sys.max_leaves then begin
    let name = Printf.sprintf "L%d" sys.leaf_counter in
    sys.leaf_counter <- sys.leaf_counter + 1;
    let parent = sys.groups.(group mod Array.length sys.groups) in
    match
      Hierarchy.mknod sys.hier ~name ~parent
        ~weight:(float_of_int (Int.max 1 weight))
        Hierarchy.Leaf
    with
    | Error _ -> ()
    | Ok node ->
      let lf, handle = Leaf_sched.Sfq_leaf.make () in
      Kernel.install_leaf sys.k node lf;
      Vec.push sys.leaves { node; handle; live = true };
      sys.n_live_leaves <- sys.n_live_leaves + 1
  end

let kernel_config srng =
  {
    Kernel.default_quantum = Time.microseconds (Prng.int_in srng 300 1500);
    context_switch_cost = Time.nanoseconds 500;
    sched_cost_per_level = Time.nanoseconds 100;
    preemption =
      (if Prng.bool srng then Kernel.Quantum_boundary else Kernel.Preempt_on_wake);
    housekeeping_period = Time.seconds 1;
    (* Fixed, not drawn: keeping the srng stream identical to the
       single-CPU driver preserves byte-for-byte P=1 replay of
       pre-multiprocessor traces. Inert at cpus = 1 regardless. *)
    migration_cost = Time.microseconds 3;
  }

let init cfg =
  let sim = Sim.create () in
  let hier = Hierarchy.create () in
  let master = Prng.create cfg.seed in
  (* Independent streams: structure, op generation, per-thread workloads.
     A replay consumes the op stream not at all and the workload streams
     identically, so both modes see the same system. *)
  let srng = Prng.stream master 0 in
  let oprng = Prng.stream master 1 in
  let wl_base = Prng.stream master 2 in
  let k = Kernel.create ~config:(kernel_config srng) ~cpus:cfg.cpus sim hier in
  let sink = Invariant.create () in
  (* Group fan-out scales with the prepopulated leaf count so a giant
     run builds a genuinely wide tree (and each group's by_name map +
     parent Sfq grow large enough for compaction to be reachable). *)
  let ngroups =
    Int.max (Prng.int_in srng 1 3) (Int.min 64 (cfg.prepopulate / 2048))
  in
  let groups = Array.make ngroups Hierarchy.root in
  let per_group = (cfg.prepopulate + ngroups - 1) / Int.max 1 ngroups in
  for g = 0 to ngroups - 1 do
    match
      Hierarchy.mknod hier
        ~name:(Printf.sprintf "g%d" g)
        ~parent:Hierarchy.root
        ~weight:(float_of_int (Prng.int_in srng 1 4))
        Hierarchy.Internal
    with
    | Ok id ->
      groups.(g) <- id;
      if per_group > 4 then Hierarchy.reserve_children hier id per_group
    | Error e -> failwith e
  done;
  let mutexes = Array.make n_mutexes 0 in
  for m = 0 to n_mutexes - 1 do
    mutexes.(m) <- Kernel.create_mutex k
  done;
  let devices = Array.make n_devices 0 in
  for d = 0 to n_devices - 1 do
    devices.(d) <-
      Kernel.create_device k
        (if d land 1 = 0 then Kernel.Fixed_service (Time.microseconds 150)
         else
           Kernel.Exponential_service
             { mean = Time.microseconds 400; seed = Prng.int srng 1_000_000 })
  done;
  let sys =
    {
      sim;
      hier;
      k;
      sink;
      actx = Kernel_audit.create sink;
      groups;
      leaves = Vec.create ();
      threads = Vec.create ();
      oprng;
      wl_base;
      mutexes;
      devices;
      max_leaves = cfg.max_leaves;
      max_spawns = cfg.max_spawns;
      cpus = cfg.cpus;
      n_live_leaves = 0;
      leaf_counter = 0;
      trace_rev = [];
    }
  in
  let nleaves = Int.max (Prng.int_in srng 2 4) cfg.prepopulate in
  for _ = 1 to nleaves do
    add_leaf sys ~group:(Prng.int srng ngroups) ~weight:(Prng.int_in srng 1 8)
  done;
  Kernel.add_interrupt_source k
    (Interrupt_source.Periodic
       {
         period = Time.microseconds (Prng.int_in srng 2000 8000);
         cost = Time.microseconds (Prng.int_in srng 10 60);
       });
  (* Multiprocessor runs give every further CPU its own periodic source
     (per-CPU interrupt pressure). Gated on [cpus > 1] so single-CPU
     runs draw exactly the pre-multiprocessor srng stream. *)
  for c = 1 to cfg.cpus - 1 do
    Kernel.add_interrupt_source k ~cpu:c
      (Interrupt_source.Periodic
         {
           period = Time.microseconds (Prng.int_in srng 2000 8000);
           cost = Time.microseconds (Prng.int_in srng 10 60);
         })
  done;
  sys

(* Ops are interpreted totally: slot operands wrap modulo the current
   population and inapplicable ops (start on a started thread, kill on
   Running, move to the thread's own leaf, ...) are skipped, so any op
   list — in particular any subsequence produced by the shrinker — is a
   valid input. *)
let thread_slot sys i =
  if Vec.length sys.threads = 0 then None
  else Some (Vec.get sys.threads (i mod Vec.length sys.threads))

let leaf_slot sys i =
  if Vec.length sys.leaves = 0 then None
  else begin
    let s = Vec.get sys.leaves (i mod Vec.length sys.leaves) in
    if s.live then Some s else None
  end

let leaf_referenced sys node =
  let found = ref false in
  for i = 0 to Vec.length sys.threads - 1 do
    let s = Vec.get sys.threads i in
    if Kernel.state sys.k s.tid <> Kernel.Exited && Kernel.leaf_of sys.k s.tid = node
    then found := true
  done;
  !found

let apply sys op =
  let k = sys.k in
  match op with
  | Advance d -> if d > 0 then Kernel.run_until k (Time.add (Sim.now sys.sim) d)
  | Spawn { leaf; weight; profile } -> (
    if Vec.length sys.threads < sys.max_spawns then
      match leaf_slot sys leaf with
      | None -> ()
      | Some slot ->
        let idx = Vec.length sys.threads in
        let wl = make_workload sys ~profile ~rng:(Prng.stream sys.wl_base idx) in
        let tid = Kernel.spawn k ~name:(Printf.sprintf "t%d" idx) ~leaf:slot.node wl in
        let tweight = float_of_int (Int.max 1 weight) in
        Leaf_sched.Sfq_leaf.add slot.handle ~tid ~weight:tweight;
        Vec.push sys.threads { tid; tweight })
  | Start i -> (
    match thread_slot sys i with
    | Some s when Kernel.state k s.tid = Kernel.Created -> Kernel.start k s.tid
    | Some _ | None -> ())
  | Kill i -> (
    match thread_slot sys i with
    | Some s when Kernel.state k s.tid <> Kernel.Running -> Kernel.kill k s.tid
    | Some _ | None -> ())
  | Move { th; leaf } -> (
    match (thread_slot sys th, leaf_slot sys leaf) with
    | Some s, Some dst
      when Kernel.state k s.tid <> Kernel.Running
           && Kernel.state k s.tid <> Kernel.Exited
           && Kernel.leaf_of k s.tid <> dst.node ->
      Leaf_sched.Sfq_leaf.add dst.handle ~tid:s.tid ~weight:s.tweight;
      Kernel.move k s.tid ~to_leaf:dst.node
    | _ -> ())
  | Suspend i -> (
    match thread_slot sys i with
    | Some s when Kernel.state k s.tid <> Kernel.Exited -> Kernel.suspend k s.tid
    | Some _ | None -> ())
  | Resume i -> (
    match thread_slot sys i with
    | Some s -> Kernel.resume k s.tid
    | None -> ())
  | Interrupt d -> if d > 0 then Kernel.interrupt k ~duration:d
  | Interrupt_on { cpu; dur } ->
    if dur > 0 then Kernel.interrupt_on k ~cpu:(cpu mod sys.cpus) ~duration:dur
  | Mknod { group; weight } -> add_leaf sys ~group ~weight
  | Rmnod i -> (
    match leaf_slot sys i with
    | None -> ()
    | Some slot ->
      if sys.n_live_leaves > 1 && not (leaf_referenced sys slot.node) then begin
        match Hierarchy.rmnod sys.hier slot.node with
        | Ok () ->
          Kernel.uninstall_leaf sys.k slot.node;
          slot.live <- false;
          sys.n_live_leaves <- sys.n_live_leaves - 1
        | Error _ -> ()
      end)

let gen_op sys =
  let rng = sys.oprng in
  let nth = Vec.length sys.threads in
  let nlv = Vec.length sys.leaves in
  let spawn () =
    Spawn
      {
        leaf = Prng.int rng (Int.max 1 nlv);
        weight = Prng.int_in rng 1 8;
        profile = Prng.int rng 4;
      }
  in
  if nth = 0 then spawn ()
  else begin
    let pick () = Prng.int rng nth in
    match Prng.int rng 100 with
    | r when r < 22 -> Advance (Time.microseconds (Prng.int_in rng 20 5000))
    | r when r < 38 -> spawn ()
    | r when r < 52 -> Start (pick ())
    | r when r < 60 -> Kill (pick ())
    | r when r < 70 -> Move { th = pick (); leaf = Prng.int rng (Int.max 1 nlv) }
    | r when r < 78 -> Suspend (pick ())
    | r when r < 88 -> Resume (pick ())
    | r when r < 92 ->
      (* Multiprocessor runs target a random CPU (interrupt storms per
         CPU); the extra draw is gated so cpus = 1 consumes exactly the
         legacy op stream. *)
      if sys.cpus > 1 then
        Interrupt_on
          {
            cpu = Prng.int rng sys.cpus;
            dur = Time.microseconds (Prng.int_in rng 10 300);
          }
      else Interrupt (Time.microseconds (Prng.int_in rng 10 300))
    | r when r < 96 -> Mknod { group = Prng.int rng 8; weight = Prng.int_in rng 1 6 }
    | _ -> Rmnod (Prng.int rng (Int.max 1 nlv))
  end

let audit sys =
  Kernel_audit.check sys.actx (Kernel.dump sys.k);
  Hierarchy_audit.check_all sys.sink sys.hier

type outcome = {
  ops_run : int;
  trace : op list;
  violations : Invariant.violation list;
  crash : string option;
  footprint_words : int;
}

let failed o = o.crash <> None || o.violations <> []

let outcome_summary o =
  match (o.crash, o.violations) with
  | None, [] -> Printf.sprintf "%d ops clean" o.ops_run
  | Some e, _ -> Printf.sprintf "crash after %d ops: %s" o.ops_run e
  | None, v :: _ ->
    Printf.sprintf "%d violation(s) after %d ops (first: %s)"
      (List.length o.violations) o.ops_run
      (Invariant.violation_to_string v)

let exec cfg next =
  let sys = init cfg in
  let outcome ops_run crash =
    {
      ops_run;
      trace = List.rev sys.trace_rev;
      violations = Invariant.violations sys.sink;
      crash;
      footprint_words = Hierarchy.footprint_words sys.hier;
    }
  in
  audit sys;
  if Invariant.count sys.sink > 0 then outcome 0 None
  else begin
    let rec go i =
      match next sys i with
      | None -> outcome i None
      | Some op -> (
        sys.trace_rev <- op :: sys.trace_rev;
        match apply sys op with
        | () ->
          if (i + 1) mod cfg.audit_period = 0 then audit sys;
          if Invariant.count sys.sink > 0 then outcome (i + 1) None
          else go (i + 1)
        | exception e -> outcome (i + 1) (Some (Printexc.to_string e)))
    in
    go 0
  end

let run cfg =
  exec cfg (fun sys i -> if i >= cfg.ops then None else Some (gen_op sys))

(* A torture run touches no state outside its [sys] (built from the seed
   alone), so a seed sweep is embarrassingly parallel; Par.sweep merges
   outcomes in seed order, keeping the result independent of [jobs]. *)
let sweep ?(jobs = 1) ?minor_heap cfg ~seeds =
  Hsfq_par.Par.sweep ?minor_heap ~jobs ~tasks:seeds (fun seed ->
      run { cfg with seed })

let replay cfg ops =
  let arr = Array.of_list ops in
  exec cfg (fun _ i -> if i >= Array.length arr then None else Some arr.(i))

let shrink cfg ops =
  let fails l = failed (replay cfg l) in
  if not (fails ops) then ops
  else begin
    let cur = ref (Array.of_list ops) in
    let chunk = ref (Int.max 1 (Array.length !cur / 2)) in
    let halving = ref true in
    while !halving do
      let i = ref 0 in
      while !i < Array.length !cur do
        let len = Array.length !cur in
        let hi = Int.min len (!i + !chunk) in
        let cand =
          Array.append (Array.sub !cur 0 !i) (Array.sub !cur hi (len - hi))
        in
        if Array.length cand < len && fails (Array.to_list cand) then cur := cand
        else i := hi
      done;
      if !chunk > 1 then chunk := !chunk / 2 else halving := false
    done;
    Array.to_list !cur
  end
