(** Pass 2 support: module reachability from [Par.sweep] worker
    entrypoints, over the .cmt import graph. *)

(** Transitive closure over an explicit adjacency list. Nodes absent
    from [nodes] are leaves. The result table's keys are the reachable
    node set (seeds included). *)
val closure :
  nodes:(string * string list) list ->
  seeds:string list ->
  (string, unit) Hashtbl.t

(** All loaded units satisfying {!imports_par}, in load order. *)
val worker_seeds : Cmt_index.t -> string list

(** Units reachable (via imports, restricted to loaded units) from the
    worker seeds. *)
val from_workers : Cmt_index.t -> (string, unit) Hashtbl.t
