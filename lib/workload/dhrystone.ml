open Hsfq_engine

type counter = { mutable count : int; samples : Series.t }

let make ~loop_cost () =
  if loop_cost <= 0 then invalid_arg "Dhrystone.make: loop_cost <= 0";
  let c = { count = 0; samples = Series.create () } in
  let started = ref false in
  let compute = Hsfq_kernel.Workload_intf.Compute loop_cost in
  let next ~now =
    (* Each call after the first marks the completion of a loop. *)
    if !started then begin
      c.count <- c.count + 1;
      Series.add c.samples now 1.0
    end
    else started := true;
    compute
  in
  (next, c)

let loops c = c.count
let series c = c.samples
let loops_before c time = int_of_float (Series.value_at c.samples time)
