(** The whole-program typed analyzer: inventory + domain-race +
    hot-path rules + allocation pass + source hygiene + dead exports,
    with the BENCH_sched.json cross-check and the whitelist/exit-code
    contract. *)

(** Run every pass over a loaded index. Returns the full inventory, the
    sorted findings and the exports used only by tests. *)
val analyze :
  Cmt_index.t -> Inventory.entry list * Finding.t list * Deadexport.export list

(** [bench_findings ~file src]: the [tl-bench-budget] findings for the
    BENCH_sched.json text [src], one per budget row whose counter is over
    its budget or absent from its row (exposed for tests). *)
val bench_findings : file:string -> string -> Finding.t list

type options = {
  whitelist_path : string option;
  allow_stale : bool;
  show_inventory : bool;
  bench_path : string option;
  roots : string list;  (** directories scanned for .cmt files *)
}

(** Load, analyze, report. Exit code: 0 clean, 1 findings or stale
    whitelist entries, 2 usage/IO errors. *)
val run : options -> int
