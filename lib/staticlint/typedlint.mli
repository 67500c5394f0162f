(** The whole-program typed analyzer: inventory + domain-race +
    hot-path rules + allocation pass, with the BENCH_sched.json
    cross-check and the whitelist/exit-code contract. *)

(** Run the three passes over a loaded index. Returns the full
    inventory and the sorted findings. *)
val analyze : Cmt_index.t -> Inventory.entry list * Finding.t list

(** (benchmark name, measured key, max value) minor-words budgets
    implied by the hot-path allocation contract. *)
val bench_budgets : (string * string * float) list

(** Extract ["key": <number>] following ["benchmark"] in a JSON blob
    (exposed for tests). *)
val find_number : string -> benchmark:string -> key:string -> float option

(** Check measured minor-words numbers against {!bench_budgets}.
    Returns (findings, warnings) — missing rows warn, busted budgets
    are findings. *)
val bench_check : path:string -> Finding.t list * string list

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
