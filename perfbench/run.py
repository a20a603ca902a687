#!/usr/bin/env python3
"""The ammBoost simulator benchmark.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout. Builds perfbench/perf.exe with dune,
then measures for S seconds, every measured run in a fresh process:

  --trace 0  5 to 15 set-up runs (System.run with epochs = 0), then untraced
             System.run executions for S seconds; prints every end-to-end
             metric of BENCHMARK.json (medians over the runs). A fixed
             reference load runs between measured runs, and the timed metrics
             are scaled to the host speed at which it takes REF_NOMINAL_S, so
             drift in the host's speed cancels.
  --trace 1  traced cycles (System.run, then the benchmark's drive untraced
             and traced) for S seconds; prints every per-layer metric of
             BENCHMARK.json (medians over the cycles) and writes the drive's
             spans as Chrome trace JSON under .bench_out/.

Every run is checked: the simulator's own invariants, the result digest
(equal to perfbench/spec.json's for the default seed, equal across runs for
any seed), and on --trace 1 the drive's fidelity to System.run and its span
coverage. The last line of stdout is one JSON object; the exit code is 1
when any check failed and 2 when the benchmark could not run at all.
"""

import argparse
import json
import os
import statistics
import subprocess
import sys
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
OUT = os.path.join(ROOT, ".bench_out")
EXE = os.path.join(ROOT, "_build", "default", "perfbench", "perf.exe")
SETUP_RUNS = (5, 15)  # at least 5 set-up runs, more while they total under 2 s
SETUP_TOTAL_S = 2.0
# Each invocation spreads its untraced runs over SUBSEEDS inputs derived
# from --seed (seed tokens "N.0", "N.1", ...), so the medians average over
# inputs as well as over runs; every input runs at least twice, so runs of
# one input can be checked to agree. Traced cycles all use input "N.0".
SUBSEEDS = 3
MIN_RUNS = 2 * SUBSEEDS
# The reference load's time at nominal host speed. Timed end-to-end metrics
# are scaled by (measured reference time / REF_NOMINAL_S), measured just
# before and after each run, so host speed drift cancels; a program change
# cannot move the reference, so it still moves the metric.
REF_NOMINAL_S = 0.3
DEADLINE_S = 150  # start no new run past this, to end well within 180 s
KILL_AFTER_S = 170
STARTED = time.monotonic()


def fail(msg):
    print("perfbench: " + msg, file=sys.stderr)
    sys.exit(2)


def build(env):
    if not os.path.isfile(os.path.join(ROOT, "dune-project")):
        fail("no dune-project at %s: run from the root of a source checkout" % ROOT)
    proc = subprocess.run(
        ["dune", "build", "--root", ROOT, "./perfbench/perf.exe"],
        cwd=ROOT, env=env, stdout=sys.stderr, stderr=sys.stderr)
    if proc.returncode != 0:
        fail("build failed")


def perf(env, *args):
    """One measured process; returns (exit code, parsed last stdout line).
    A process still running near the 180 s limit is killed and fails."""
    try:
        proc = subprocess.run([EXE, *args], cwd=ROOT, env=env, stdout=subprocess.PIPE,
                              stderr=sys.stderr, text=True,
                              timeout=max(1.0, KILL_AFTER_S - (time.monotonic() - STARTED)))
    except subprocess.TimeoutExpired:
        return 124, {}
    lines = proc.stdout.strip().splitlines()
    try:
        out = json.loads(lines[-1]) if lines else {}
    except json.JSONDecodeError:
        out = {}
    return proc.returncode, out


def repeat(seconds, once, min_runs):
    """Call once(i) for i = 0, 1, ... while the next call is expected to end
    within `seconds` (at least min_runs times, never past the deadline)."""
    results = []
    t0 = time.monotonic()
    longest = 0.0
    while len(results) < min_runs or time.monotonic() - t0 + longest <= seconds:
        if time.monotonic() - STARTED > DEADLINE_S:
            break
        t = time.monotonic()
        results.append(once(len(results)))
        longest = max(longest, time.monotonic() - t)
    return results


def reference(env, problems):
    code, out = perf(env, "calibrate")
    if code != 0 or not out.get("ok"):
        problems.append("the reference load failed")
        return REF_NOMINAL_S
    return out["ref_s"]


def calibrated(env, problems, once):
    """Wrap once(i) so each run records the host's slowness: the mean of the
    reference times just before and after it, over REF_NOMINAL_S."""
    last = [reference(env, problems)]

    def run(i):
        code, out = once(i)
        ref = reference(env, problems)
        out["slowness"] = (last[0] + ref) / 2 / REF_NOMINAL_S
        last[0] = ref
        return code, out
    return run


def median(xs):
    return statistics.median(xs) if xs else 0.0


def token(seed, i):
    return "%d.%d" % (seed, i % SUBSEEDS)


def check_digests(spec, wl, seed, outs):
    """Runs of one input agree; the default seed's inputs give the recorded
    digests. outs holds (seed token, output) pairs."""
    by_token = {}
    for tok, out in outs:
        by_token.setdefault(tok, set()).add(out["digest"])
    problems = ["runs of input %s disagree on the result digest: %s" % (tok, sorted(ds))
                for tok, ds in sorted(by_token.items()) if len(ds) > 1]
    expected = spec["workloads"][wl]
    if seed == expected["default_seed"]:
        problems += ["input %s gives digest %s, recorded %s" % (tok, d, expected["digests"][tok])
                     for tok, ds in sorted(by_token.items()) for d in ds
                     if d != expected["digests"][tok]]
    return problems


def end_to_end(env, spec, wl, seed, seconds):
    problems = []
    setups = []
    setup = calibrated(env, problems, lambda i: perf(env, "setup", wl, token(seed, i)))
    while len(setups) < SETUP_RUNS[0] or (
            len(setups) < SETUP_RUNS[1]
            and sum(out.get("setup_s", 0.0) for _, out in setups) < SETUP_TOTAL_S):
        setups.append(setup(len(setups)))
    if any(code != 0 or not out.get("ok") for code, out in setups):
        problems.append("a set-up run failed its checks")
    run = calibrated(env, problems, lambda i: perf(env, "e2e", wl, token(seed, i)))
    runs = repeat(seconds, lambda i: (token(seed, i),) + run(i), MIN_RUNS)
    good = [(tok, out) for tok, code, out in runs if code == 0 and out.get("ok")]
    if len(good) < len(runs):
        problems.append("%d of %d runs failed their checks" % (len(runs) - len(good), len(runs)))
    problems += check_digests(spec, wl, seed, good)
    good = [out for _, out in good]
    attempted = sum(out.get("attempted", 0) for _, _, out in runs) or 1
    metrics = {
        "tx_per_s": median([out["processed"] / out["wall_s"] * out["slowness"] for out in good]),
        "setup_s": median([out["setup_s"] / out["slowness"]
                           for _, out in setups if "setup_s" in out]),
        "rss_peak_mb": median([out["rss_kb"] / 1024.0 for out in good]),
        "alloc_words_per_tx": median([out["alloc_words"] / out["processed"] for out in good]),
        # 1 - failed_frac: every attempted transaction either processed or
        # rejected by the AMM; a run failing a check counts as 0.
        "processed_frac": 0.0 if problems else median(
            [out["processed"] / out["attempted"] for out in good]),
    }
    print("%s seed %d: %d runs, %d set-up runs; unscaled medians: tx_per_s %.6g, setup_s %.6g;"
          " host slowness %.3f" % (
              wl, seed, len(runs), len(setups),
              median([out["processed"] / out["wall_s"] for out in good]),
              median([out["setup_s"] for _, out in setups if "setup_s" in out]),
              median([out["slowness"] for out in good])), file=sys.stderr)
    return problems, attempted, metrics


def per_layer(env, spec, wl, seed, seconds):
    problems = []
    trace_out = os.path.join(OUT, "trace-%s-%d.json" % (wl, seed))
    cycles = repeat(seconds, lambda _: perf(env, "trace", wl, token(seed, 0), trace_out), 2)
    good = [out for code, out in cycles if code == 0 and out.get("ok")]
    if len(good) < len(cycles):
        problems.append("%d of %d traced cycles failed (checks, drive fidelity or span coverage)"
                        % (len(cycles) - len(good), len(cycles)))
    problems += check_digests(spec, wl, seed, [(token(seed, 0), out) for out in good])
    attempted = sum(int(out.get("processor.txs", 0)) for _, out in cycles) or 1
    metrics = {n: median([out[n] for out in good if n in out])
               for n in good[0] if n not in ("ok", "digest")} if good else {}
    print("%s seed %d: %d traced cycles; spans in %s" % (
        wl, seed, len(cycles), os.path.relpath(trace_out, ROOT)), file=sys.stderr)
    return problems, attempted, metrics


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        benchmark = json.load(f)
    with open(os.path.join(ROOT, "perfbench", "spec.json")) as f:
        spec = json.load(f)
    if args.workload not in spec["workloads"]:
        fail("unknown workload %r (have %s)" % (args.workload, ", ".join(spec["workloads"])))

    env = dict(os.environ, DUNE_CACHE="disabled", OCAML_RUNTIME_EVENTS_DIR=OUT)
    build(env)
    os.makedirs(OUT, exist_ok=True)

    measure = per_layer if args.trace else end_to_end
    problems, attempted, values = measure(env, spec, args.workload, args.seed, args.seconds)
    declared = benchmark["per_layer" if args.trace else "end_to_end"]
    missing = [m["name"] for m in declared if m["name"] not in values]
    if missing and not problems:
        problems.append("metrics not measured: " + ", ".join(missing))
    metrics = {}
    for m in declared:
        value = values.get(m["name"], 0.0)
        metrics[m["name"]] = {"value": value, "unit": m["unit"]}
        print("%-30s %-16.8g %s" % (m["name"], value, m["unit"]))
    for p in problems:
        print("perfbench: FAILED: " + p, file=sys.stderr)
    # A run failing any check counts all its attempts as failed.
    print(json.dumps({"correct": not problems, "attempted": attempted,
                      "failed": attempted if problems else 0, "metrics": metrics}))
    sys.exit(1 if problems else 0)


if __name__ == "__main__":
    main()
