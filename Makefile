# Convenience targets; everything is plain dune underneath.

.PHONY: all build test lint check bench bench-smoke bench-diff sim-speed-smoke scale-smoke smp-smoke torture-smoke sweep-smoke soak figures examples regen-golden clean

all: build

build:
	dune build @all

test:
	dune runtest

# Source lint: the whole-program typed analyzer (bin/hsfq_tlint, over
# .cmt artifacts) with tlint.whitelist.  Also runs as part of
# `dune runtest`.  See doc/STATIC_ANALYSIS.md.
lint:
	dune build @lint

# Tier-1 verification: strict build + tests + lint + bench, sim-speed,
# torture and parallel-sweep smoke passes.
check: build test lint bench-smoke sim-speed-smoke scale-smoke smp-smoke torture-smoke sweep-smoke

# Full harness: regenerate every paper figure + micro-benchmarks.
bench:
	dune exec bench/main.exe

# Figures + one iteration of every micro-benchmark, no Bechamel quota:
# catches hot-path crashes/invariant trips without paying for timings.
bench-smoke:
	dune build @bench-smoke

# Perf-regression gate: a fresh --micro-only run diffed against the
# committed BENCH_sched.json by bench/hsfq_bench_diff over the gate
# table in bench/bench_rows.ml.  Timing drift outside [0.75, 1.33] is
# advisory (timing noise can't fail the build); deterministic counters
# (events, minor words, footprints, migrations) that move, a lost row,
# or a structural bound broken in either file (sweeps at or below 1x,
# scale log-slope and reclaim, smp migrations and cost) exit non-zero.
# Re-run `make bench` to refresh the baseline when a change is real.
bench-diff:
	dune build @bench-diff

# End-to-end dispatch sanity: shrunk sim-speed workloads through the
# full dispatch path against the gate table: events fire and each
# scenario stays under its minor-words/event ceiling (the zero-alloc
# dispatch contract).
sim-speed-smoke:
	dune build @sim-speed-smoke

# Churn/compaction sanity: the scale mixes (steady / arrival-heavy /
# departure-heavy) at a toy Q against the gate table: compaction fires
# and reclaims.  The full sweep at Q = 10^4..10^6 runs in `make bench`
# and lands in BENCH_sched.json's "scale" section, which
# `make bench-diff` gates with the same rules plus exact footprints.
scale-smoke:
	dune build @scale-smoke

# Multiprocessor dispatch sanity: shrunk P = 1/2/4/8 workloads against
# the gate table — P=1 never migrates, P>1 storms do, and per-event cost
# stays flat in P.  The full rows live in BENCH_sched.json's "smp"
# section, which `make bench-diff` gates with the same rules plus exact
# event and migration counts.
smp-smoke:
	dune build @smp-smoke

# Lifecycle torture, quick slice: 8 seeds x 2000 ops with per-op
# audits.  The full acceptance sweep is
# `dune exec bin/hsfq_sim.exe -- torture --seeds 100 -n 50000`.
torture-smoke:
	dune build @torture-smoke

# Parallel-sweep smoke: a tiny jobs=2 torture sweep on the domain pool
# with a worker --minor-heap, so the fan-out stays wired from the CLI
# down.
sweep-smoke:
	dune build @sweep-smoke

# Long-horizon soak, outside tier-1: 10^9 SFQ quanta, 14 always-backlogged
# clients with weights 1..999999 units and adversarial quantum lengths,
# Theorem 1 checked exactly over every window (test/soak.ml; tier-1
# runs the same code at 10^6 quanta). Prints PASS or the violating pair
# and window.
soak:
	dune build test/soak.exe
	./_build/default/test/soak.exe 1000000000

# Regenerate the golden trace dumps (test/golden/*.trace) after an
# intentional change to the event schema, the exporters or the traced
# experiments' scheduling.  test/test_obs.ml requires byte-equality
# with these files; review the diff before committing.
regen-golden:
	dune build bin/hsfq_sim.exe
	dune exec bin/hsfq_sim.exe -- trace fig1 --text > test/golden/fig1.trace
	dune exec bin/hsfq_sim.exe -- trace fig5 --text --capacity 1024 > test/golden/fig5.trace

# Figure data as CSV under ./figures (for plotting).
figures:
	dune exec bin/hsfq_sim.exe -- csv --all --dir figures

examples:
	dune exec examples/quickstart.exe
	dune exec examples/video_server.exe
	dune exec examples/multiclass.exe
	dune exec examples/qos_manager.exe
	dune exec examples/file_server.exe
	dune exec examples/router.exe

clean:
	dune clean
