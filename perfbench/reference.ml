(* A fixed reference computation that tracks the speed of the host.

   The benchmark's host is a shared VM whose speed drifts by up to 1.8x
   over spans of seconds to minutes, and slow phases can last a whole
   run.  A pass of this computation runs between the measured reps, and
   the harness reports host times against the run's passes, so drift
   that hits both alike cancels.  It is
   a discrete-event loop shaped like the simulator's hot path: a binary
   heap of timed events, a closure call per event, and a fresh event
   record per step that stays live for a while (so it is promoted and
   later swept, as simulator state is), plus a random read-modify-write
   in a 16 MB table.  It uses nothing from the repository's libraries,
   so no change to them moves it. *)

type ev = { at : int; seq : int; act : int -> int }

let heap_size = 1 lsl 15
let keep_size = 1 lsl 16

(* Outside the OCaml heap, so it does not show in the heap metrics. *)
let table =
  Bigarray.Array1.create Bigarray.int Bigarray.c_layout (1 lsl 21)

(* One pass: [steps] pops and pushes on a heap of [heap_size] pending
   events, with event times drawn from a fixed linear congruential
   generator.  Returns a checksum so the work cannot be optimised away. *)
let pass steps =
  Bigarray.Array1.fill table 0;
  let mask = Bigarray.Array1.dim table - 1 in
  let dummy = { at = 0; seq = 0; act = Fun.id } in
  let h = Array.make heap_size dummy in
  let keep = Array.make keep_size dummy in
  let n = ref 0 in
  let lt a b = a.at < b.at || (a.at = b.at && a.seq < b.seq) in
  let push e =
    let i = ref !n in
    incr n;
    while !i > 0 && lt e h.((!i - 1) / 2) do
      h.(!i) <- h.((!i - 1) / 2);
      i := (!i - 1) / 2
    done;
    h.(!i) <- e
  in
  let pop () =
    let top = h.(0) in
    decr n;
    let last = h.(!n) in
    let i = ref 0 and fin = ref false in
    while not !fin do
      let l = (2 * !i) + 1 in
      if l >= !n then fin := true
      else begin
        let c = if l + 1 < !n && lt h.(l + 1) h.(l) then l + 1 else l in
        if lt h.(c) last then begin
          h.(!i) <- h.(c);
          i := c
        end
        else fin := true
      end
    done;
    h.(!i) <- last;
    top
  in
  let rng = ref 0x2545F491 in
  let next () =
    rng := ((!rng * 1103515245) + 12345) land 0x3FFFFFFF;
    !rng
  in
  let acts = [| (fun x -> x + 1); (fun x -> x lxor 0x55); (fun x -> x * 3) |] in
  for i = 0 to heap_size - 2 do
    push { at = next () land 0xFFFF; seq = i; act = acts.(i mod 3) }
  done;
  let sum = ref 0 in
  for i = 0 to steps - 1 do
    let e = pop () in
    sum := e.act !sum land max_int;
    let r = next () in
    let j = (r lsr 3) land mask in
    Bigarray.Array1.unsafe_set table j (Bigarray.Array1.unsafe_get table j + !sum);
    let e' = { at = e.at + 1 + (r land 0xFFF); seq = heap_size + i; act = acts.(r mod 3) } in
    keep.(i land (keep_size - 1)) <- e';
    push e'
  done;
  !sum

(* Host ns for one pass of [steps] events. *)
let time_ns ~steps =
  let t0 = Measure.now_ns () in
  ignore (Sys.opaque_identity (pass steps));
  Measure.now_ns () - t0

(* Host seconds one pass of [nominal_steps] takes on the nominal host:
   about what it takes in a fast phase of a 2-vCPU Xeon VM (2.1 GHz).
   A time in nominal seconds is a host time divided by the run's fastest
   pass (scaled to [nominal_steps]) times this. *)
let nominal_steps = 200_000
let nominal_s = 0.1

(* Host ns of a pass of [steps], scaled to [nominal_steps]. *)
let scaled_ns ~steps =
  float_of_int (time_ns ~steps) *. float_of_int nominal_steps /. float_of_int steps

(* [f ()] for each rep, with a reference pass before the first rep and
   after every rep.  Returns the reps and the fastest pass. *)
let interleaved ~steps ~reps_until f =
  let fastest = ref (scaled_ns ~steps) in
  let reps =
    reps_until (fun () ->
        let x = f () in
        fastest := Float.min !fastest (scaled_ns ~steps);
        x)
  in
  (reps, !fastest)

(* Host seconds [s] in seconds of the nominal host, against the fastest
   reference pass [ref_ns] of the same run. *)
let nominal_secs s ref_ns = s *. nominal_s /. (ref_ns /. 1e9)
