open Hsfq_engine

type counter = {
  mutable completed : int;
  mutable misses : int;
  slack : Stats.t;
  slack_s : Series.t;
}

let make ~period ~cost ?(phase = 0) ?deadline ?rounds () =
  if period <= 0 || cost <= 0 then invalid_arg "Periodic.make: bad parameters";
  let rel_deadline = match deadline with Some d -> d | None -> period in
  let c =
    {
      completed = 0;
      misses = 0;
      slack = Stats.create ();
      slack_s = Series.create ();
    }
  in
  let next_release = ref phase in
  let cur_deadline = ref 0 in
  let in_round = ref false in
  let done_ () = match rounds with Some n -> c.completed >= n | None -> false in
  let next ~now =
    if !in_round then begin
      (* The round's computation just completed. *)
      in_round := false;
      let slack = Time.diff !cur_deadline now in
      c.completed <- c.completed + 1;
      if slack < 0 then c.misses <- c.misses + 1;
      Stats.add c.slack (float_of_int slack);
      Series.add c.slack_s now (float_of_int slack)
    end;
    if done_ () then Hsfq_kernel.Workload_intf.Exit
    else if Time.compare now !next_release < 0 then
      Hsfq_kernel.Workload_intf.Sleep_until !next_release
    else begin
      (* Release (possibly late): begin the round's computation. *)
      in_round := true;
      cur_deadline := Time.add !next_release rel_deadline;
      next_release := Time.add !next_release period;
      Hsfq_kernel.Workload_intf.Compute cost
    end
  in
  (next, c)

let completed c = c.completed
let misses c = c.misses
let slack_stats c = c.slack
let slack_series c = c.slack_s
