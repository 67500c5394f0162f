let available_cores () = Int.max 1 (Domain.recommended_domain_count ())

(* The one jobs-resolution policy (bin/hsfq_sim, Torture.sweep and the
   bench all used to roll their own, divergently): <= 0 means "auto",
   one worker per available core — which on a single-core box resolves
   to 1, i.e. the serial path, because any jobs>=2 configuration there
   is pure oversubscription.  An explicit jobs>=2 is honored as given
   (the bench asks for exactly that to measure the overhead). *)
let resolve_jobs jobs = if jobs <= 0 then available_cores () else jobs

let default_jobs () = resolve_jobs 0

let set_minor_heap = function
  | None -> ()
  | Some words ->
    if words > 0 then Gc.set { (Gc.get ()) with Gc.minor_heap_size = words }

(* Spawn up to [workers] domains running [job].  The runtime caps the
   number of live domains (and [Domain.spawn] raises [Failure] once the
   cap is reached); the workers already running keep their place, so a
   [jobs] above the cap just means a smaller pool, and a refused first
   spawn means the caller does all the work alone. *)
let spawn_workers ~minor_heap ~workers job =
  let rec go k acc =
    if k = workers then acc
    else
      match
        Domain.spawn (fun () ->
            (* A fresh domain starts on the runtime-default nursery
               whatever the main domain set, so per-worker sizing must
               happen here. *)
            set_minor_heap minor_heap;
            job ())
      with
      | d -> go (k + 1) (d :: acc)
      | exception Failure _ -> acc
  in
  go 0 []

(* One sweep on [workers] extra domains plus the calling one: every
   domain runs the same self-scheduling chunk loop over an atomic index
   (the "deque" is a bump counter, which is all a sweep of independent
   tasks needs), and the join publishes their result stores. *)
let pool_sweep ~minor_heap ~workers ~tasks f =
  let n = Array.length tasks in
  let chunk = Int.max 1 (n / (4 * (workers + 1))) in
  let next = Atomic.make 0 in
  (* Option slots keep ['b] boxed, so concurrent stores to distinct
     indices are plain pointer writes (no float-array flattening). *)
  let results = Array.make n None in
  let exns = Array.make n None in
  let first_failed = Atomic.make max_int in
  let record_failure i =
    let rec go () =
      let cur = Atomic.get first_failed in
      if i < cur && not (Atomic.compare_and_set first_failed cur i) then go ()
    in
    go ()
  in
  let job () =
    let continue = ref true in
    while !continue do
      let start = Atomic.fetch_and_add next chunk in
      if start >= n || Atomic.get first_failed < max_int then
        continue := false
      else
        for i = start to Int.min n (start + chunk) - 1 do
          match f tasks.(i) with
          | r -> results.(i) <- Some r
          | exception e ->
            exns.(i) <- Some (e, Printexc.get_raw_backtrace ());
            record_failure i
        done
    done
  in
  (* The calling domain does task work too, so it adopts the workers'
     nursery for the duration of the sweep (restored after): every task
     of a ~minor_heap sweep sees the requested nursery, whichever domain
     claims its chunk. *)
  let saved = (Gc.get ()).Gc.minor_heap_size in
  let domains = spawn_workers ~minor_heap ~workers job in
  Fun.protect
    ~finally:(fun () ->
      List.iter Domain.join domains;
      if minor_heap <> None then
        Gc.set { (Gc.get ()) with Gc.minor_heap_size = saved })
    (fun () ->
      set_minor_heap minor_heap;
      job ());
  match Atomic.get first_failed with
  | i when i = max_int ->
    Array.map
      (function Some r -> r | None -> assert false (* all tasks ran *))
      results
  | i -> (
    match exns.(i) with
    | Some (e, bt) -> Printexc.raise_with_backtrace e bt
    | None -> assert false (* first_failed only set with exns.(i) *))

let sweep ?minor_heap ~jobs ~tasks f =
  let n = Array.length tasks in
  let jobs = resolve_jobs jobs in
  if jobs <= 1 || n <= 1 then Array.map f tasks
  else pool_sweep ~minor_heap ~workers:(Int.min (jobs - 1) (n - 1)) ~tasks f

let sweep_seeded ?minor_heap ~jobs ~rng ~tasks f =
  let tasks = Array.mapi (fun i task -> (i, task)) tasks in
  sweep ?minor_heap ~jobs ~tasks (fun (i, task) ->
      f ~rng:(Hsfq_engine.Prng.stream rng i) task)
