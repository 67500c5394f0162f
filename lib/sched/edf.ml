type job = { mutable deadline : int; mutable live : bool; mutable gen : int }

type t = {
  jobs : (int, job) Hashtbl.t;
  queue : Keyed_heap.t;
  mutable nlive : int;
}

let valid t ~id ~gen =
  match Hashtbl.find_opt t.jobs id with
  | None -> false
  | Some j -> j.live && j.gen = gen

let create () =
  let t = { jobs = Hashtbl.create 16; queue = Keyed_heap.create (); nlive = 0 } in
  (* Enables compaction once stale entries dominate (see Keyed_heap). *)
  Keyed_heap.set_validator t.queue (valid t);
  t

let release t ~id ~deadline =
  let j =
    match Hashtbl.find_opt t.jobs id with
    | Some j -> j
    | None ->
      let j = { deadline; live = false; gen = 0 } in
      Hashtbl.replace t.jobs id j;
      j
  in
  if not j.live then t.nlive <- t.nlive + 1
  else
    (* Re-release while still queued: the previous entry goes stale. *)
    Keyed_heap.invalidate t.queue;
  j.live <- true;
  j.deadline <- deadline;
  j.gen <- j.gen + 1;
  Keyed_heap.push t.queue ~key:deadline ~gen:j.gen ~id

let withdraw t ~id =
  match Hashtbl.find_opt t.jobs id with
  | None -> ()
  | Some j ->
    if j.live then begin
      j.live <- false;
      j.gen <- j.gen + 1;
      t.nlive <- t.nlive - 1;
      Keyed_heap.invalidate t.queue
    end

let select_id t = Keyed_heap.peek_valid t.queue

let deadline_of t ~id =
  match Hashtbl.find_opt t.jobs id with
  | Some j when j.live -> Some j.deadline
  | _ -> None

let backlogged t = t.nlive
