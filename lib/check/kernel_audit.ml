open Hsfq_core

type thread_state = Created | Runnable | Running | Blocked | Exited

let state_to_string = function
  | Created -> "Created"
  | Runnable -> "Runnable"
  | Running -> "Running"
  | Blocked -> "Blocked"
  | Exited -> "Exited"

type thread_view = {
  tid : int;
  tname : string;
  leaf : int;
  state : thread_state;
  waiting_mutex : int option;
  wake_armed : bool;
  suspended : bool;
  wake_pending : bool;
}

type mutex_view = { mid : int; holder : int option; waiters : int list }

type leaf_view = {
  node : int;
  label : string;
  sfq : Sfq.t option;
  backlogged : int;
  leaf_runnable : bool;
}

type cpu_view = {
  cpu : int;
  slice_end : int option;
  completion_armed : bool;
  arrivals : int list;
}

type view = {
  threads : thread_view list;
  mutexes : mutex_view list;
  leaves : leaf_view list;
  running : (int * int) list; (* (cpu, tid) of each live dispatch *)
  cpus : cpu_view list;
}

type ctx = { sink : Invariant.sink; last_vt : (string, int) Hashtbl.t }

let create sink = { sink; last_vt = Hashtbl.create 8 }

let check_threads sink ~event v lookup =
  List.iter
    (fun tv ->
      let chk inv = Invariant.check sink ~invariant:inv ~node:"kernel" ~event in
      chk "wake-handle"
        ((not tv.wake_armed) || (tv.state = Blocked && not tv.suspended))
        "thread %d (%s) holds a wake timer in state %s%s" tv.tid tv.tname
        (state_to_string tv.state)
        (if tv.suspended then " while suspended" else "");
      chk "suspend-state"
        ((not tv.suspended) || tv.state = Created || tv.state = Blocked)
        "thread %d is suspended in state %s" tv.tid (state_to_string tv.state);
      chk "suspend-state"
        ((not tv.wake_pending) || tv.suspended)
        "thread %d has a banked wake but is not suspended" tv.tid;
      if tv.state = Running then
        chk "run-state"
          (List.exists (fun (_, r) -> r = tv.tid) v.running)
          "thread %d is Running but no CPU is dispatching it" tv.tid)
    v.threads;
  (* Per-CPU run-state rules: every dispatch executes a Running thread,
     no CPU holds two dispatches, and no thread runs on two CPUs. *)
  let chk inv = Invariant.check sink ~invariant:inv ~node:"kernel" ~event in
  let seen_cpu = Hashtbl.create 8 and seen_tid = Hashtbl.create 8 in
  List.iter
    (fun (cpu, r) ->
      chk "run-state"
        (not (Hashtbl.mem seen_cpu cpu))
        "cpu %d holds two dispatches" cpu;
      Hashtbl.replace seen_cpu cpu ();
      chk "run-state"
        (not (Hashtbl.mem seen_tid r))
        "thread %d is dispatched on two CPUs" r;
      Hashtbl.replace seen_tid r ();
      chk "run-state"
        (match lookup r with
        | Some tv -> tv.state = Running
        | None -> false)
        "thread %d dispatched on cpu %d is not in state Running" r cpu)
    v.running

(* A running slice ends by its armed completion or by an arrival that
   pauses it first; a CPU without one arms no completion. *)
let check_slices sink ~event v =
  List.iter
    (fun cv ->
      let chk inv = Invariant.check sink ~invariant:inv ~node:"kernel" ~event in
      match cv.slice_end with
      | Some e ->
        chk "slice-end"
          (cv.completion_armed || List.exists (fun a -> a <= e) cv.arrivals)
          "cpu %d: the slice ending at %d has no armed completion and no \
           pending interrupt arrival at or before its end"
          cv.cpu e
      | None ->
        chk "slice-end" (not cv.completion_armed)
          "cpu %d arms a completion but runs no slice" cv.cpu)
    v.cpus

let check_mutexes sink ~event v lookup =
  List.iter
    (fun mv ->
      let node = Printf.sprintf "mutex-%d" mv.mid in
      let chk inv = Invariant.check sink ~invariant:inv ~node ~event in
      (match mv.holder with
      | Some h -> (
        match lookup h with
        | None -> chk "mutex-sanity" false "holder %d is not a kernel thread" h
        | Some tv ->
          chk "mutex-sanity" (tv.state <> Exited)
            "holder %d has exited; its waiters are stranded" h)
      | None ->
        chk "mutex-sanity" (mv.waiters = []) "free mutex has %d queued waiter(s)"
          (List.length mv.waiters));
      let seen = Hashtbl.create 4 in
      List.iter
        (fun w ->
          chk "mutex-sanity" (not (Hashtbl.mem seen w)) "waiter %d queued twice" w;
          Hashtbl.replace seen w ();
          chk "mutex-sanity" (mv.holder <> Some w) "thread %d waits on its own mutex" w;
          match lookup w with
          | None -> chk "mutex-sanity" false "waiter %d is not a kernel thread" w
          | Some tv ->
            chk "mutex-sanity" (tv.state = Blocked) "waiter %d is %s, not Blocked" w
              (state_to_string tv.state);
            chk "mutex-sanity"
              (tv.waiting_mutex = Some mv.mid)
              "waiter %d queued here but its waiting_mutex is %s" w
              (match tv.waiting_mutex with
              | None -> "unset"
              | Some m -> string_of_int m))
        mv.waiters)
    v.mutexes;
  (* and the reverse direction: a thread claiming to wait must be queued *)
  let mutexes = Hashtbl.create 8 in
  List.iter (fun mv -> Hashtbl.replace mutexes mv.mid mv) v.mutexes;
  List.iter
    (fun tv ->
      match tv.waiting_mutex with
      | None -> ()
      | Some m ->
        let chk inv = Invariant.check sink ~invariant:inv ~node:"kernel" ~event in
        chk "mutex-sanity"
          (match Hashtbl.find_opt mutexes m with
          | Some mv -> List.mem tv.tid mv.waiters
          | None -> false)
          "thread %d claims to wait on mutex %d but is not queued there" tv.tid m;
        chk "mutex-sanity" (tv.state = Blocked)
          "thread %d waits on mutex %d in state %s" tv.tid m
          (state_to_string tv.state))
    v.threads

(* Same-leaf (waiter, holder) pairs — the set the donation ledger of each
   leaf's SFQ must equal. *)
let expected_donations v lookup =
  let expected = Hashtbl.create 8 in
  List.iter
    (fun mv ->
      match mv.holder with
      | None -> ()
      | Some h -> (
        match lookup h with
        | None -> ()
        | Some hv ->
          List.iter
            (fun w ->
              match lookup w with
              | Some wv when wv.leaf = hv.leaf ->
                let prev =
                  match Hashtbl.find_opt expected wv.leaf with
                  | Some l -> l
                  | None -> []
                in
                Hashtbl.replace expected wv.leaf ((w, h) :: prev)
              | _ -> ())
            mv.waiters))
    v.mutexes;
  expected

let check_leaf ctx ~event v lookup expected lv =
  let sink = ctx.sink in
  let node = if lv.label = "" then Printf.sprintf "leaf-%d" lv.node else lv.label in
  let chk inv = Invariant.check sink ~invariant:inv ~node ~event in
  chk "leaf-runnability"
    (lv.leaf_runnable = (lv.backlogged > 0))
    "hierarchy runnable flag is %b but the class has %d runnable member(s)"
    lv.leaf_runnable lv.backlogged;
  match lv.sfq with
  | None -> ()
  | Some sfq ->
    Sfq_rules.check_state sink ~where:(fun () -> (node, event)) sfq;
    let vt = Sfq.virtual_time sfq in
    (match Hashtbl.find_opt ctx.last_vt node with
    | Some prev ->
      chk "vt-monotone" (vt >= prev)
        "virtual time went backwards between audits: %d -> %d" prev vt
    | None -> ());
    Hashtbl.replace ctx.last_vt node vt;
    List.iter
      (fun tv ->
        if tv.leaf = lv.node && (tv.state = Runnable || tv.state = Running) then
          chk "runnable-enqueued"
            (Sfq.mem sfq ~id:tv.tid && Sfq.is_runnable sfq ~id:tv.tid)
            "thread %d (%s) is %s but not a runnable client of its leaf's SFQ"
            tv.tid tv.tname (state_to_string tv.state))
      v.threads;
    List.iter
      (fun c ->
        match lookup c with
        | None -> chk "leaf-membership" false "SFQ client %d is not a kernel thread" c
        | Some tv ->
          chk "leaf-membership" (tv.state <> Exited)
            "exited thread %d is still registered in the SFQ" c;
          chk "leaf-membership" (tv.leaf = lv.node)
            "thread %d is registered here but belongs to leaf %d" c tv.leaf;
          if Sfq.is_runnable sfq ~id:c then
            chk "runnable-enqueued"
              (tv.state = Runnable || tv.state = Running)
              "SFQ lists thread %d runnable but its state is %s" c
              (state_to_string tv.state))
      (Sfq.clients sfq);
    let expect =
      match Hashtbl.find_opt expected lv.node with Some l -> l | None -> []
    in
    let recorded = Sfq.donations sfq in
    List.iter
      (fun (b, r, amount) ->
        chk "donation-ledger"
          (List.exists (fun (w, h) -> w = b && h = r) expect)
          "recorded donation %d -> %d (%d) has no backing mutex wait" b r amount)
      recorded;
    List.iter
      (fun (w, h) ->
        chk "donation-ledger"
          (List.exists (fun (b, r, _) -> b = w && r = h) recorded)
          "thread %d blocks on holder %d in this leaf but no donation is recorded"
          w h)
      expect

let check ?(event = "kernel-audit") ctx v =
  let threads = Hashtbl.create 32 in
  List.iter (fun tv -> Hashtbl.replace threads tv.tid tv) v.threads;
  let lookup tid = Hashtbl.find_opt threads tid in
  check_threads ctx.sink ~event v lookup;
  check_slices ctx.sink ~event v;
  check_mutexes ctx.sink ~event v lookup;
  let expected = expected_donations v lookup in
  List.iter (fun lv -> check_leaf ctx ~event v lookup expected lv) v.leaves
