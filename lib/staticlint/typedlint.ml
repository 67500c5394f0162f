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
   the bench tool's stable output shape. *)

let per_decision = "minor_words_per_decision"

let bench_budgets =
  [
    (* name, measured key, max value consistent with the typed pass's
       findings + whitelist *)
    ("sfq/Q=512", per_decision, 1.0); (* select_id/charge: ~0 measured *)
    ("hierarchy/depth=16", per_decision, 2.0); (* schedule_id/update_ns: ~0 measured *)
    ("keyed-heap/push+pop n=256", per_decision, 1.0); (* zero-alloc contract *)
    ("event-queue/churn n=256", per_decision, 1.0); (* timers store ints only: ~0 measured *)
    (* The FAIR baselines' select_id/charge: ~0 measured, except
       lottery's ~3 (Prng.int's boxed int64 state store). *)
    ("wfq/Q=8", per_decision, 1.0);
    ("scfq/Q=8", per_decision, 1.0);
    ("fqs/Q=8", per_decision, 1.0);
    ("stride/Q=8", per_decision, 1.0);
    ("round-robin/Q=8", per_decision, 1.0);
    ("eevdf/Q=8", per_decision, 1.0);
    ("lottery/Q=8", per_decision, 4.0);
    ("svr4-ts/Q=8", per_decision, 2.0); (* ring deques + select_id: ~0 measured *)
    (* The sim_speed row of the kernel cycle (dev profile): the cycle
       itself allocates nothing; the rest is the interactive workloads'
       actions and samples plus the -opaque float boxes whitelisted in
       kernel.ml.  ~8.0 measured. *)
    ("timer-churn", "minor_words_per_event", 10.0);
  ]

let find_number src ~benchmark ~key =
  let quoted = "\"" ^ benchmark ^ "\"" in
  let n = String.length src in
  let index_from_opt start sub =
    let ls = String.length sub in
    let rec go i =
      if i + ls > n then None
      else if String.equal (String.sub src i ls) sub then Some i
      else go (i + 1)
    in
    go start
  in
  match index_from_opt 0 quoted with
  | None -> None
  | Some bpos -> (
    match index_from_opt (bpos + String.length quoted) ("\"" ^ key ^ "\"") with
    | None -> None
    | Some kpos -> (
      let i = ref (kpos + String.length key + 2) in
      while
        !i < n
        && (Char.equal src.[!i] ':' || Char.equal src.[!i] ' '
          || Char.equal src.[!i] '\t')
      do
        incr i
      done;
      let start = !i in
      while
        !i < n
        &&
        let c = src.[!i] in
        (c >= '0' && c <= '9')
        || Char.equal c '.' || Char.equal c '-' || Char.equal c '+'
        || Char.equal c 'e' || Char.equal c 'E'
      do
        incr i
      done;
      if !i = start then None
      else float_of_string_opt (String.sub src start (!i - start))))

let bench_check ~path =
  match
    let ic = open_in_bin path in
    Fun.protect
      ~finally:(fun () -> close_in_noerr ic)
      (fun () -> really_input_string ic (in_channel_length ic))
  with
  | exception Sys_error e ->
    ([], [ Printf.sprintf "cannot read bench results %s: %s" path e ])
  | src ->
    List.fold_left
      (fun (findings, warnings) (benchmark, key, budget) ->
        match find_number src ~benchmark ~key with
        | None ->
          ( findings,
            Printf.sprintf
              "benchmark %S has no %s in %s — rerun [make bench] to refresh \
               the cross-check"
              benchmark key path
            :: warnings )
        | Some words when words > budget ->
          ( Finding.make ~rule:"tl-bench-budget" ~file:(Filename.basename path)
              ~line:1
              ~msg:
                (Printf.sprintf
                   "%s measures %s %.3f, over the %.1f budget implied by the \
                    hot-path allocation contract — either a new allocation \
                    crept in or the budget table in \
                    lib/staticlint/typedlint.ml needs a justified bump"
                   benchmark key words budget)
            :: findings,
            warnings )
        | Some _ -> (findings, warnings))
      ([], []) bench_budgets

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
    let bench_findings, bench_warnings =
      match opts.bench_path with
      | Some path -> bench_check ~path
      | None -> ([], [])
    in
    List.iter (Printf.eprintf "hsfq_tlint: warning: %s\n") bench_warnings;
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
    match wl with
    | Error msg ->
      Printf.eprintf "hsfq_tlint: %s\n" msg;
      2
    | Ok wl ->
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
