(* hsfq_tlint — whole-program typed analyzer over dune's .cmt files,
   the repo's one lint.

   Passes (see doc/STATIC_ANALYSIS.md):

   - inventory        every module-top-level binding, classified by how
                      its type's mutation is protected
   - tl-domain-race   unguarded mutable globals in units reachable from
                      Par.sweep worker entrypoints (import graph)
   - tl-hot-hashtbl / tl-leaf-retarget / tl-hot-alloc / tl-float-box
                      hot-path typed rules and the allocation-site walk,
                      plus tl-bench-budget cross-checking the measured
                      minor-words numbers in BENCH_sched.json
   - tl-poly-compare / tl-stdlib-minmax / tl-nan-compare / tl-obj-magic /
     tl-assert-validation / tl-hashtbl-find-exn / tl-missing-mli
                      source hygiene over lib/ bin/ examples/ test/ bench/
   - tl-dead-export   lib/ exports no other unit references; exports used
                      only by tests are listed in the summary, not failed

   Needs typedtrees: run [dune build @check] first (the @lint alias
   depends on it).  Whitelist: lines of [<rule> <path> <justification...>].
   Exit codes: 0 clean, 1 findings/stale, 2 usage/IO. *)

module Typedlint = Hsfq_staticlint.Typedlint

let usage =
  "hsfq_tlint [--whitelist FILE] [--allow-stale] [--inventory] [--bench \
   FILE] [ROOT...]"

let () =
  let whitelist_file = ref "" in
  let allow_stale = ref false in
  let inventory = ref false in
  let bench = ref "" in
  let roots = ref [] in
  let spec =
    [
      ( "--whitelist",
        Arg.Set_string whitelist_file,
        "FILE suppressions: lines of <rule> <path> <justification...>" );
      ( "--allow-stale",
        Arg.Set allow_stale,
        " don't fail on whitelist entries that matched nothing" );
      ( "--inventory",
        Arg.Set inventory,
        " print every mutable top-level binding with its classification" );
      ( "--bench",
        Arg.Set_string bench,
        "FILE cross-check minor_words_per_decision in this BENCH_sched.json" );
    ]
  in
  Arg.parse spec (fun d -> roots := d :: !roots) usage;
  let roots =
    match List.rev !roots with
    | [] -> if Sys.file_exists "_build/default" then [ "_build/default" ] else [ "." ]
    | rs -> rs
  in
  exit
    (Typedlint.run
       {
         whitelist_path =
           (if String.equal !whitelist_file "" then None
            else Some !whitelist_file);
         allow_stale = !allow_stale;
         show_inventory = !inventory;
         bench_path = (if String.equal !bench "" then None else Some !bench);
         roots;
       })
