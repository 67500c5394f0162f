(** Pass 3: allocation sites ([tl-hot-alloc]) and float boxing
    ([tl-float-box]) on declared hot paths, and write barriers
    ([tl-hot-barrier]) in declared barrier-free functions, from
    typedtrees. *)

type config = {
  source : string;  (** repo-relative .ml of the hot module *)
  roots : string list;  (** per-decision entrypoint functions *)
  cold : string list;  (** slow-path helpers excluded from the walk *)
  barrier_free : string list;
      (** functions whose own bodies store no possible pointer (no
          [caml_modify]); not closed over callees *)
}

(** Scan one unit against one config (for fixture tests). Unknown roots
    and missing modules surface as [tl-hot-missing] findings. *)
val scan_unit : config -> Cmt_index.unit_info -> Finding.t list

(** Scan the repo's hot-path contract: sfq select_id/charge, hierarchy
    schedule/update/setrun/sleep, keyed_heap and event_queue minus their
    grow/compact slow paths, the sim driver, the kernel cycle, the
    select_id/charge of every FAIR baseline and svr4, the lib/obs
    record path and the Dhrystone loop; plus the event queue's
    barrier-free heap moves. *)
val scan : Cmt_index.t -> Finding.t list
