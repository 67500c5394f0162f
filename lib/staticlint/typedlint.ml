(* The whole-program typed analyzer: wiring the passes together and
   cross-checking the hot-path allocation contract against the
   measured benchmark numbers. *)

let domain_race_pass ~env index =
  let entries = Inventory.of_index ~env index in
  let reachable = Reach.from_workers index in
  let findings =
    List.filter_map
      (fun (e : Inventory.entry) ->
        match e.verdict with
        | Mutability.Mutable Mutability.Unguarded
          when Hashtbl.mem reachable e.unit_name
               (* the race pass's findings cover the libraries; test and
                  driver globals show up in --inventory but aren't
                  worker-shared unless a lib/ module reaches them *)
               && String.length e.source > 4
               && String.equal (String.sub e.source 0 4) "lib/" ->
          Some
            (Finding.make ~rule:"tl-domain-race" ~file:e.source ~line:e.line
               ~msg:
                 (Printf.sprintf
                    "top-level mutable global [%s] is reachable from \
                     Par.sweep worker domains; unguarded shared state is a \
                     data race — use Atomic.t, Domain.DLS, a lock-bearing \
                     record, or keep it in instance state"
                    e.name))
        | _ -> None)
      entries
  in
  (entries, findings)

let analyze index =
  let env = Mutability.build_env index in
  let entries, race = domain_race_pass ~env index in
  let dead, test_only = Deadexport.scan index in
  let findings =
    Finding.sort
      (race @ Hotrules.scan index @ Allocpass.scan index @ Hygiene.scan index
     @ dead)
  in
  (entries, findings, test_only)

(* ------------------------------------------------------------------ *)
(* BENCH_sched.json cross-check: the alloc pass proving "no allocation
   sites on the sfq decision path" only means something if the measured
   minor-words number agrees.  A tiny substring scanner is enough for
   the bench tool's stable output shape (one flat row object per line);
   this library cannot depend on bench/'s reader. *)

let per_decision = "minor_words_per_decision"

let bench_budgets =
  [
    (* row name, counter, max value consistent with the typed pass's
       findings + whitelist *)
    ("sfq/Q=512", per_decision, 1.0); (* select_id/charge: ~0 measured *)
    ("hierarchy/depth=16", per_decision, 2.0); (* schedule_id/update_ns: ~0 measured *)
    (* The same decision under the always-on audit: the clean path
       (Sfq_rules, Hierarchy_audit) allocates nothing; ~0 measured. *)
    ("hierarchy-audited/depth=4", per_decision, 1.0);
    ("keyed-heap/push+pop n=256", per_decision, 1.0); (* zero-alloc contract *)
    ("event-queue/churn n=256", per_decision, 1.0); (* timers store ints only: ~0 measured *)
    (* The FAIR baselines' select_id/charge: ~0 measured (lottery's
       ticket draw included: the Prng state is unboxed). *)
    ("wfq/Q=8", per_decision, 1.0);
    ("scfq/Q=8", per_decision, 1.0);
    ("fqs/Q=8", per_decision, 1.0);
    ("stride/Q=8", per_decision, 1.0);
    ("round-robin/Q=8", per_decision, 1.0);
    ("eevdf/Q=8", per_decision, 1.0);
    ("lottery/Q=8", per_decision, 1.0);
    ("svr4-ts/Q=8", per_decision, 2.0); (* ring deques + select_id: ~0 measured *)
    (* The sim_speed row of the kernel cycle (dev profile): the cycle
       itself allocates nothing; the rest is the interactive workloads'
       actions and samples plus the -opaque float boxes whitelisted in
       kernel.ml.  ~6.9 measured. *)
    ("timer-churn", "minor_words_per_event", 10.0);
  ]

(* The number after ["key":] inside the row object that follows
   ["row":], or [None] when the row or its key is absent. *)
let find_number src ~row ~key =
  let n = String.length src in
  let rec index_from i sub =
    let ls = String.length sub in
    if i + ls > n then n
    else if String.equal (String.sub src i ls) sub then i
    else index_from (i + 1) sub
  in
  let start = index_from 0 ("\"" ^ row ^ "\":") in
  let close = if start >= n then n else index_from start "}" in
  let k = index_from start ("\"" ^ key ^ "\":") + String.length key + 3 in
  if k > close then None
  else
    let skip c = Char.equal c ' ' || Char.equal c '\t' in
    let digit c = (c >= '0' && c <= '9') || String.contains ".-+eE" c in
    let i = ref k in
    while !i < n && skip src.[!i] do
      incr i
    done;
    let j = ref !i in
    while !j < n && digit src.[!j] do
      incr j
    done;
    float_of_string_opt (String.sub src !i (!j - !i))

let bench_findings ~file src =
  List.filter_map
    (fun (row, key, budget) ->
      let finding msg =
        Some (Finding.make ~rule:"tl-bench-budget" ~file ~line:1 ~msg)
      in
      match find_number src ~row ~key with
      | None ->
        finding
          (Printf.sprintf
             "row %S has no %s: a renamed row or counter leaves its \
              allocation budget unchecked — rerun [make bench], or rename \
              the row in the budget table in lib/staticlint/typedlint.ml"
             row key)
      | Some v when v > budget ->
        finding
          (Printf.sprintf
             "%s measures %s %.3f, over the %.1f budget implied by the \
              hot-path allocation contract — either a new allocation crept \
              in or the budget table in lib/staticlint/typedlint.ml needs a \
              justified bump"
             row key v budget)
      | Some _ -> None)
    bench_budgets

(* ------------------------------------------------------------------ *)

type options = {
  whitelist_path : string option;
  allow_stale : bool;
  show_inventory : bool;
  bench_path : string option;
  roots : string list;
}

let run opts =
  let index = Cmt_index.load ~roots:opts.roots in
  if Cmt_index.size index = 0 then begin
    Printf.eprintf
      "hsfq_tlint: no .cmt files under %s — run [dune build @check] first\n"
      (String.concat " " opts.roots);
    2
  end
  else begin
    let entries, findings, test_only = analyze index in
    let bench =
      match opts.bench_path with
      | None -> Ok []
      | Some path -> (
        match In_channel.with_open_bin path In_channel.input_all with
        | src -> Ok (bench_findings ~file:(Filename.basename path) src)
        | exception Sys_error e -> Error ("cannot read bench results: " ^ e))
    in
    if opts.show_inventory then
      List.iter
        (fun (e : Inventory.entry) ->
          match e.verdict with
          | Mutability.Immutable -> ()
          | Mutability.Mutable p ->
            Printf.printf "%s:%d: inventory: [%s] %s.%s\n" e.source e.line
              (Mutability.protection_to_string p)
              e.unit_name e.name)
        entries;
    let wl =
      match opts.whitelist_path with
      | None -> Ok Whitelist.empty
      | Some path -> Whitelist.load path
    in
    match (wl, bench) with
    | Error msg, _ | _, Error msg ->
      Printf.eprintf "hsfq_tlint: %s\n" msg;
      2
    | Ok wl, Ok bench_findings ->
      if test_only <> [] then begin
        Printf.printf
          "hsfq_tlint: %d export(s) used only by tests (listed, not \
           findings):\n"
          (List.length test_only);
        (* one line per file; [test_only] is sorted by location *)
        let rec by_file = function
          | [] -> ()
          | (e : Deadexport.export) :: _ as es ->
            let mine, rest =
              List.partition
                (fun (x : Deadexport.export) -> String.equal x.file e.file)
                es
            in
            Printf.printf "  %s: %s\n" e.file
              (String.concat ", "
                 (List.map (fun (x : Deadexport.export) -> x.name) mine));
            by_file rest
        in
        by_file test_only
      end;
      let scanned =
        Printf.sprintf "%d unit(s), %s" (Cmt_index.size index)
          (Inventory.summary entries)
      in
      Whitelist.report ~tool:"hsfq_tlint" ~allow_stale:opts.allow_stale
        ~scanned wl
        (Finding.sort (findings @ bench_findings))
  end
