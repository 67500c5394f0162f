#!/usr/bin/env python3
"""Build and run the repository benchmark.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>

Run from the root of a source checkout.  Builds perfbench/bench.exe with
dune in the release profile (the shared dune cache is disabled, so the
build stays inside the checkout, in _build and .bench_build), then runs
it with the same arguments.
The benchmark prints one JSON object as the last line of standard output;
build output goes to standard error.  Exits non-zero, printing no result,
if the checkout cannot be built or the benchmark fails.
"""

import json
import os
import shutil
import subprocess
import sys

BUILD_TIMEOUT_S = 850
RUN_TIMEOUT_S = 175
WORKLOADS = ("video-server", "deep-tree", "timer-churn", "paper-suite")


def fail(msg, code=2):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(code)


def parse(argv):
    opts = {"--workload": None, "--seed": "1", "--seconds": "25", "--trace": "0"}
    i = 0
    while i < len(argv):
        key = argv[i]
        if key not in opts or i + 1 >= len(argv):
            fail("usage: run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>")
        opts[key] = argv[i + 1]
        i += 2
    if opts["--workload"] not in WORKLOADS:
        fail("--workload must be one of " + ", ".join(WORKLOADS))
    if opts["--trace"] not in ("0", "1"):
        fail("--trace must be 0 or 1")
    for key in ("--seed", "--seconds"):
        try:
            int(opts[key])
        except ValueError:
            fail(key + " must be an integer")
    return opts


def dune_command():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    opam = shutil.which("opam")
    if opam:
        return [opam, "exec", "--", "dune"]
    fail("dune not found on PATH")


def declared_vs_printed(out, trace):
    """Fail unless the result line carries exactly the metrics, with the
    units, that BENCHMARK.json declares for this trace mode."""
    with open("BENCHMARK.json") as f:
        spec = json.load(f)
    declared = spec["per_layer" if trace == "1" else "end_to_end"]
    want = {m["name"]: m["unit"] for m in declared}
    lines = out.strip().splitlines()
    try:
        result = json.loads(lines[-1])
        got = {k: v["unit"] for k, v in result["metrics"].items()}
    except (IndexError, ValueError, KeyError, TypeError):
        sys.stderr.write(out)
        fail("benchmark printed no result line", 6)
    if got != want:
        sys.stderr.write(out)
        fail("metrics differ from BENCHMARK.json: %s" % sorted(set(got) ^ set(want)), 6)


def main():
    opts = parse(sys.argv[1:])
    for needed in ("BENCHMARK.json", "dune-project", "lib", os.path.join("perfbench", "dune")):
        if not os.path.exists(needed):
            fail("run from the root of a source checkout (missing %s)" % needed)
    # Keep every build artefact inside the checkout: no shared dune cache,
    # and dune's own cache directory redirected under .bench_build.
    env = dict(
        os.environ,
        DUNE_CACHE="disabled",
        XDG_CACHE_HOME=os.path.abspath(os.path.join(".bench_build", "xdg-cache")),
    )
    build = dune_command() + [
        "build", "--root", ".", "--profile", "release", "--display", "quiet",
        "./perfbench/bench.exe",
    ]
    try:
        done = subprocess.run(build, env=env, stdout=sys.stderr, timeout=BUILD_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("build timed out", 3)
    if done.returncode != 0:
        fail("build failed", 3)
    exe = os.path.join("_build", "default", "perfbench", "bench.exe")
    args = [exe]
    for key in ("--workload", "--seed", "--seconds", "--trace"):
        args += [key, opts[key]]
    try:
        done = subprocess.run(args, stdout=subprocess.PIPE, timeout=RUN_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("benchmark timed out", 4)
    out = done.stdout.decode()
    if done.returncode != 0:
        sys.stderr.write(out)
        fail("benchmark exited with code %d" % done.returncode, 5)
    declared_vs_printed(out, opts["--trace"])
    sys.stdout.write(out)
    sys.stdout.flush()


if __name__ == "__main__":
    main()
