(* Pass 3: allocation sites on declared hot paths.

   For each configured hot module we take the declared root functions
   (the per-decision entrypoints), close over the module-local call
   graph (minus declared cold helpers like [grow]/[compact]) and walk
   every reachable body for constructs that allocate per call:

   - closures, tuples, records, non-constant constructors, arrays,
     lazy/pack values;
   - partial applications (omitted-argument holes, or an application
     whose result is still an arrow);
   - calls into allocating stdlib families (Printf/Format/List/Buffer/
     Hashtbl/Queue/Stack, string building, Array.make & friends, [ref]),
     except a [Hashtbl.find] whose [Not_found] is handled at the call
     (find-on-hit allocates nothing);
   - float boxing: a float stored into a non-flat record field, or a
     float crossing a compilation-unit boundary (dune builds with
     -opaque semantics between units, so the callee can't be inlined
     and floats box at the call).

   Error paths ([raise]/[failwith]/[invalid_arg] arguments) are exempt:
   allocation while dying is fine.  Everything found is a [tl-hot-alloc]
   or [tl-float-box] finding that must be fixed or whitelisted with a
   justification — the whitelist entries double as the repo's documented
   allocation budget, cross-checked against BENCH_sched.json.

   A config may also name barrier-free functions: bodies that must store
   no value that may be a pointer, into a record field, an array element
   or a ref. Such a store compiles to [caml_modify], OCaml's write
   barrier; in a heap sift it runs once per level. Each one is a
   [tl-hot-barrier] finding. *)

type config = {
  source : string; (* repo-relative .ml *)
  roots : string list; (* per-decision entrypoints *)
  cold : string list; (* out-of-line slow paths excluded from the walk *)
  barrier_free : string list; (* bodies that store immediates only *)
}

let configs =
  [
    (* The zero-alloc contract is on [select_id]/[charge], the wake
       and the slot-keyed entries. Tags, weights and v(t) are ints, so
       tl-float-box on these roots proves no float reaches a scheduling
       decision; the id index's probe is on the walk too. [register]
       (first arrival: slot allocation + index insert, which may rebuild
       the index) is once per lifetime, not per decision.
       [compact]/[free_slot] are the amortized-O(1) shrink machinery on
       the depart path. *)
    {
      source = "lib/core/sfq.ml";
      roots =
        [ "select_id"; "charge"; "charge_slot"; "arrive"; "arrive_slot";
          "wake"; "block_slot" ];
      cold = [ "grow"; "register"; "compact"; "free_slot" ];
      barrier_free = [];
    };
    (* Same shape one level up: the kernel dispatch loop runs on
       [schedule_id]/[update_ns], which must stay allocation-free. *)
    {
      source = "lib/core/hierarchy.ml";
      roots = [ "schedule_id"; "update_ns"; "setrun"; "sleep" ];
      cold = [];
      barrier_free = [];
    };
    (* The audits' clean path: the pre-state capture, one sweep of the
       SFQ's columns and the per-transition predicates. Cold: the ready
       buffer's growth, and the donation list, built only while a
       donation is outstanding. The report path is not reachable from
       these roots. *)
    {
      source = "lib/check/sfq_rules.ml";
      roots =
        [ "capture"; "capture_ready"; "state_clean"; "arrive_ok"; "select_ok";
          "charge_ok"; "block_ok"; "depart_ok"; "set_weight_ok" ];
      cold = [ "grow_ready"; "outstanding_donations" ];
      barrier_free = [];
    };
    (* The hierarchy hook: the node's sweep and one slot probe per
       child. [report_node] builds paths and closures for a report. *)
    {
      source = "lib/check/hierarchy_audit.ml";
      roots = [ "check_node" ];
      cold = [ "report_node" ];
      barrier_free = [];
    };
    (* The SFQ leaf adapter's per-event bodies (the kernel reaches them
       through the leaf record's closures). *)
    {
      source = "lib/kernel/leaf_sched.ml";
      roots = [ "sfq_enqueue"; "sfq_charge" ];
      cold = [];
      barrier_free = [];
    };
    (* The columns hold ints only: the sifts, the hole's fill
       ([push]) and close ([close_hole]) never run the write barrier. *)
    {
      source = "lib/sched/keyed_heap.ml";
      roots =
        [ "push"; "pop_valid"; "peek_valid"; "invalidate"; "last_key";
          "peeked_key"; "close_hole" ];
      cold = [ "grow"; "compact"; "shrink_if_sparse" ];
      barrier_free =
        [ "push"; "pop_valid"; "close_hole"; "vacate_top"; "place";
          "sift_up_from"; "sift_down_from"; "remove_top"; "compact" ];
    };
    (* [next_time] deliberately absent: its option is a peek for tests
       and diagnostics; the simulation driver's per-event path is
       [take_until]/[taken]. [timer] runs once per timer, not per event.
       [new_slot] is the free-stack-dry slow path of [schedule];
       [repool]/[resized] are the slot-table and column growth/shrink
       copies. Timers and the heap move immediates only: arming,
       disarming, firing, the sifts, [place], [remove_top], the hole's
       fill ([push]) and close ([close_hole]), [settle] and [compact]
       never run the write barrier. [schedule] stores its one-shot
       thunk, the one pointer store per one-shot. *)
    {
      source = "lib/engine/event_queue.ml";
      roots =
        [ "arm"; "disarm"; "armed"; "schedule"; "take_until"; "taken";
          "pending"; "close_hole" ];
      cold =
        [ "grow_heap"; "compact"; "new_slot"; "repool"; "resized";
          "shrink_if_sparse" ];
      barrier_free =
        [ "arm"; "disarm"; "push"; "take_until"; "fire_top"; "place";
          "sift_up_from"; "sift_down_from"; "remove_top"; "close_hole";
          "settle"; "compact" ];
    };
    (* The simulation driver on top of it: scheduling, timers and the
       per-event drain loop. *)
    {
      source = "lib/engine/sim.ml";
      roots = [ "at"; "after"; "arm"; "arm_after"; "disarm"; "drain_until" ];
      cold = [];
      barrier_free = [ "arm"; "arm_after"; "disarm"; "drain_until" ];
    };
    (* The steady-state kernel cycle: wake -> dispatch -> interrupt
       pause/resume -> slice completion -> sleep. Cold: the mutex and
       I/O paths (once per lock/request, not per event). The interrupt
       path re-arms the CPU's timers and stores immediates only. *)
    {
      source = "lib/kernel/kernel.ml";
      roots =
        [ "dispatch_cpu"; "make_runnable"; "activate"; "do_wake"; "end_dispatch";
          "complete_slice"; "pause_dispatch"; "do_interrupt"; "interrupts_done" ];
      cold =
        [ "acquire_or_wait"; "enqueue_mutex_waiter"; "unlock_mutex"; "hand_off";
          "grant_wake"; "release_mutex_links"; "submit_io"; "io_complete" ];
      barrier_free = [ "pause_dispatch"; "do_interrupt"; "interrupts_done" ];
    };
    (* The FAIR baselines and svr4: their decision paths
       ([select_id]/[charge]) must hold the measured words/decision in
       BENCH_sched.json (lottery ~3, the rest ~0). Their per-client
       [Hashtbl.find] lookups handle [Not_found] at the call, so they
       allocate nothing on a hit and pass the banned-call check. *)
    {
      source = "lib/sched/wfq.ml";
      roots = [ "select_id"; "charge" ];
      cold = [];
      barrier_free = [];
    };
    {
      source = "lib/sched/scfq.ml";
      roots = [ "select_id"; "charge" ];
      cold = [];
      barrier_free = [];
    };
    {
      source = "lib/sched/fqs.ml";
      roots = [ "select_id"; "charge" ];
      cold = [];
      barrier_free = [];
    };
    {
      source = "lib/sched/stride.ml";
      roots = [ "select_id"; "charge" ];
      cold = [];
      barrier_free = [];
    };
    {
      source = "lib/sched/round_robin.ml";
      roots = [ "select_id"; "charge" ];
      cold = [];
      barrier_free = [];
    };
    {
      source = "lib/sched/eevdf.ml";
      roots = [ "select_id"; "charge" ];
      cold = [ "create" ];
      barrier_free = [];
    };
    {
      source = "lib/sched/lottery.ml";
      roots = [ "select_id"; "charge" ];
      cold = [ "ready_add" ];
      barrier_free = [];
    };
    {
      source = "lib/sched/svr4.ml";
      roots = [ "select_id"; "charge"; "quantum_of" ];
      cold = [ "rt_queue"; "second_tick" ];
      barrier_free = [];
    };
    {
      source = "lib/obs/ring.ml";
      roots = [ "emit" ];
      cold = [];
      barrier_free = [];
    };
    {
      source = "lib/obs/trace.ml";
      roots =
        [ "emitf"; "emit0"; "on"; "on_cell"; "set_now"; "sys_set_now" ];
      cold = [];
      barrier_free = [];
    };
    {
      source = "lib/obs/metrics.ml";
      roots =
        [ "charge_sample"; "incr_preempt"; "wait_sample"; "ensure" ];
      cold = [ "grow" ];
      barrier_free = [];
    };
  ]

(* ------------------------------------------------------------------ *)

let is_float_type ty =
  match Types.get_desc ty with
  | Tconstr (p, [], _) -> String.equal (Path.name p) "float"
  | _ -> false

let error_path_head = function
  | "raise" | "raise_notrace" | "invalid_arg" | "failwith" -> true
  | _ -> false

let banned_head name =
  let pre p =
    let lp = String.length p in
    String.length name >= lp && String.equal (String.sub name 0 lp) p
  in
  if
    pre "Printf." || pre "Format." || pre "List." || pre "Buffer."
    || pre "Hashtbl." || pre "Queue." || pre "Stack." || pre "string_of_"
  then true
  else
    match name with
    | "Array.make" | "Array.init" | "Array.copy" | "Array.append"
    | "Array.sub" | "Array.of_list" | "Array.to_list" | "Array.make_matrix"
    | "Bytes.make" | "Bytes.create" | "Bytes.copy" | "Bytes.sub"
    | "String.make" | "String.init" | "String.concat" | "String.sub"
    | "^" | "@" | "ref" ->
      true
    | _ -> false

(* Peel the outer lambda spine of a top-level function: those
   [Texp_function] nodes are the definition itself (allocated once at
   module init), not a per-call cost.  Multi-case [function] arms all
   continue the spine. *)
let rec bodies acc (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_function { cases; _ } ->
    List.fold_left
      (fun acc (c : Typedtree.value Typedtree.case) -> bodies acc c.c_rhs)
      acc cases
  | _ -> e :: acc

(* Parameter count of a top-level function's lambda spine; [None] once
   an optional parameter makes the spine's shape unreliable. *)
let rec spine_arity (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_function { arg_label = Optional _; _ } -> None
  | Texp_function { cases = [ c ]; _ } ->
    Option.map succ (spine_arity c.c_rhs)
  | Texp_function _ -> Some 1
  | _ -> Some 0

(* Module-local references out of an expression, for the call graph:
   any [Pident] whose name is one of the module's top-level bindings. *)
let local_refs ~defined e =
  let acc = ref [] in
  let expr sub (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_ident (Path.Pident id, _, _) ->
      let n = Ident.name id in
      if Hashtbl.mem defined n then acc := n :: !acc
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let iter = { Tast_iterator.default_iterator with expr } in
  iter.expr iter e;
  !acc

let head_name (e : Typedtree.expression) =
  match e.exp_desc with
  | Texp_ident (p, _, vd) -> Some (p, vd, Mutability.normalize (Path.name p))
  | _ -> None

let scan_body ~unit_name ~file ~fname ~arity_of body =
  let findings = ref [] in
  let flag ?(ghost_too = false) rule (loc : Location.t) msg =
    if ghost_too || not loc.loc_ghost then
      findings :=
        Finding.make ~rule ~file ~line:loc.loc_start.pos_lnum
          ~msg:(Printf.sprintf "%s (in hot function [%s])" msg fname)
        :: !findings
  in
  let alloc loc what = flag "tl-hot-alloc" loc ("allocates: " ^ what) in
  (* A find-on-hit [Hashtbl.find] allocates nothing: its guarding match
     or try is visited first and records the find's head. *)
  let handled = ref [] in
  let expr sub (e : Typedtree.expression) =
    let recurse () = Tast_iterator.default_iterator.expr sub e in
    (match Hygiene.guarded_find e with
    | Some h -> handled := h :: !handled
    | None -> ());
    match e.exp_desc with
    | Texp_apply (head, args) -> (
      match head_name head with
      | Some (_, _, name) when error_path_head name ->
        () (* dying is allowed to allocate: skip the whole subtree *)
      | head_info ->
        let known_arity = ref None in
        (match head_info with
        | Some (p, vd, name) ->
          let is_prim =
            match vd.val_kind with
            | Val_prim prim ->
              known_arity := Some prim.prim_arity;
              true
            | _ -> false
          in
          (match p with
          | Path.Pident id when not is_prim ->
            known_arity := arity_of (Ident.name id)
          | _ -> ());
          if banned_head name && not (List.memq head !handled) then
            alloc e.exp_loc (Printf.sprintf "call to [%s]" name);
          if not is_prim then begin
            let cross_unit =
              match p with
              | Path.Pident _ -> false
              | _ ->
                let h = Path.head p in
                Ident.persistent h
                && not (String.equal (Ident.name h) unit_name)
            in
            if cross_unit then begin
              let floaty =
                is_float_type e.exp_type
                || List.exists
                     (fun (_, a) ->
                       match a with
                       | Some (a : Typedtree.expression) ->
                         is_float_type a.exp_type
                       | None -> false)
                     args
              in
              if floaty then
                flag "tl-float-box" e.exp_loc
                  (Printf.sprintf
                     "float crosses the unit boundary at [%s]; the callee \
                      can't be inlined (-opaque), so the float boxes — \
                      keep the quantity an int (see Hsfq_sched.Vtime)"
                     name)
            end
          end
        | None -> ());
        let partial =
          List.exists (fun (_, a) -> Option.is_none a) args
          ||
          (* An application whose result is still an arrow is a partial
             application — except a fully-applied primitive (e.g.
             [Array.get] fetching a stored closure) or module-local
             function (a getter of a cached thunk), which just returns
             an existing value. *)
          match (Types.get_desc e.exp_type, !known_arity) with
          | Tarrow _, Some arity -> List.length args < arity
          | Tarrow _, None -> true
          | _ -> false
        in
        if partial then alloc e.exp_loc "partial application (closure)";
        recurse ())
    | Texp_function _ ->
      (* A local [let f x = ...] gives its [fun] a ghost location; the
         closure is real all the same. *)
      flag ~ghost_too:true "tl-hot-alloc" e.exp_loc "allocates: closure";
      recurse ()
    | Texp_tuple _ -> alloc e.exp_loc "tuple"; recurse ()
    | Texp_record _ -> alloc e.exp_loc "record"; recurse ()
    | Texp_construct (lid, _, args) ->
      if args <> [] then
        alloc e.exp_loc
          (Printf.sprintf "constructor [%s]"
             (String.concat "." (Longident.flatten lid.txt)));
      recurse ()
    | Texp_variant (label, arg) ->
      if Option.is_some arg then
        alloc e.exp_loc (Printf.sprintf "polymorphic variant [`%s]" label);
      recurse ()
    | Texp_array els ->
      if els <> [] then alloc e.exp_loc "array literal";
      recurse ()
    | Texp_lazy _ -> alloc e.exp_loc "lazy value"; recurse ()
    | Texp_pack _ -> alloc e.exp_loc "first-class module"; recurse ()
    | Texp_setfield (_, _, lbl, v) ->
      (match lbl.lbl_repres with
      | Record_float -> () (* flat float record: unboxed store *)
      | _ ->
        if is_float_type v.exp_type then
          flag "tl-float-box" e.exp_loc
            (Printf.sprintf
               "float stored into mixed-record field [%s] boxes; make the \
                record all-float or use a floatarray"
               lbl.lbl_name));
      recurse ()
    | Texp_assert _ -> () (* compiled out under -noassert *)
    | _ -> recurse ()
  in
  let iter = { Tast_iterator.default_iterator with expr } in
  iter.expr iter body;
  !findings

(* Stores in a barrier-free body. A float is stored unboxed into a float
   array or a flat float record, so only those float stores pass. *)
let scan_barrier ~file ~fname body =
  let findings = ref [] in
  let flag (loc : Location.t) what =
    findings :=
      Finding.make ~rule:"tl-hot-barrier" ~file ~line:loc.loc_start.pos_lnum
        ~msg:
          (Printf.sprintf
             "stores a possible pointer into %s: a write barrier \
              (caml_modify) in barrier-free function [%s]"
             what fname)
      :: !findings
  in
  let stored_arg args n =
    match List.nth_opt args n with
    | Some (_, Some (a : Typedtree.expression)) -> Some a
    | _ -> None
  in
  let expr sub (e : Typedtree.expression) =
    (match e.exp_desc with
    | Texp_setfield (_, _, lbl, v) ->
      if
        lbl.lbl_repres <> Record_float
        && not (Hygiene.is_immediate_type v.exp_type)
      then flag e.exp_loc (Printf.sprintf "field [%s]" lbl.lbl_name)
    | Texp_apply
        ( { exp_desc = Texp_ident (_, _, { val_kind = Val_prim prim; _ }); _ },
          args ) -> (
      let stored =
        match prim.prim_name with
        | "%array_safe_set" | "%array_unsafe_set" -> stored_arg args 2
        | "%setfield0" -> stored_arg args 1
        | _ -> None
      in
      match stored with
      | Some v
        when not
               (Hygiene.is_immediate_type v.exp_type
               || is_float_type v.exp_type) ->
        flag e.exp_loc "an array element or ref"
      | _ -> ())
    | _ -> ());
    Tast_iterator.default_iterator.expr sub e
  in
  let iter = { Tast_iterator.default_iterator with expr } in
  iter.expr iter body;
  !findings

(* ------------------------------------------------------------------ *)

let top_level_bindings (str : Typedtree.structure) =
  List.concat_map
    (fun (item : Typedtree.structure_item) ->
      match item.str_desc with
      | Tstr_value (_, vbs) ->
        List.filter_map
          (fun (vb : Typedtree.value_binding) ->
            match vb.vb_pat.pat_desc with
            | Tpat_var (id, _) -> Some (Ident.name id, vb.vb_expr)
            | _ -> None)
          vbs
      | _ -> [])
    str.str_items

let scan_unit config (u : Cmt_index.unit_info) =
  let binds = top_level_bindings u.structure in
  let defined = Hashtbl.create 32 in
  List.iter (fun (n, e) -> Hashtbl.replace defined n e) binds;
  let missing_roots =
    List.filter
      (fun r -> not (Hashtbl.mem defined r))
      (config.roots @ config.barrier_free)
  in
  let cold = Hashtbl.create 8 in
  List.iter (fun c -> Hashtbl.replace cold c ()) config.cold;
  (* close over the local call graph from the roots, skipping cold *)
  let reachable = Hashtbl.create 32 in
  let rec visit n =
    if
      (not (Hashtbl.mem reachable n))
      && (not (Hashtbl.mem cold n))
      && Hashtbl.mem defined n
    then begin
      Hashtbl.replace reachable n ();
      match Hashtbl.find_opt defined n with
      | Some e -> List.iter visit (local_refs ~defined e)
      | None -> ()
    end
  in
  List.iter visit config.roots;
  let findings =
    List.concat_map
      (fun (n, e) ->
        (* non-function bindings evaluate once at module init, not per
           call: sentinels like event_queue's [dummy_handle] may
           allocate there freely *)
        let is_function =
          match e.Typedtree.exp_desc with
          | Texp_function _ -> true
          | _ -> false
        in
        if Hashtbl.mem reachable n && is_function then
          List.concat_map
            (scan_body ~unit_name:u.modname ~file:u.source ~fname:n
               ~arity_of:(fun f ->
                 Option.bind (Hashtbl.find_opt defined f) spine_arity))
            (bodies [] e)
        else [])
      binds
  in
  let barriers =
    List.concat_map
      (fun n ->
        match Hashtbl.find_opt defined n with
        | Some e ->
          List.concat_map (scan_barrier ~file:u.source ~fname:n) (bodies [] e)
        | None -> [])
      config.barrier_free
  in
  let missing =
    List.map
      (fun r ->
        Finding.make ~rule:"tl-hot-missing" ~file:config.source ~line:1
          ~msg:
            (Printf.sprintf
               "declared hot root [%s] not found at the module top level — \
                update the hot-path config in lib/staticlint/allocpass.ml"
               r))
      missing_roots
  in
  missing @ findings @ barriers

let scan index =
  let by_source = Hashtbl.create 16 in
  Cmt_index.iter index ~f:(fun u ->
      if not (Hashtbl.mem by_source u.source) then
        Hashtbl.replace by_source u.source u);
  let findings =
    List.concat_map
      (fun config ->
        match Hashtbl.find_opt by_source config.source with
        | Some u -> scan_unit config u
        | None ->
          [
            Finding.make ~rule:"tl-hot-missing" ~file:config.source ~line:1
              ~msg:
                "no .cmt loaded for this configured hot module — build with \
                 [dune build @check] first";
          ])
      configs
  in
  Finding.sort findings
