"""beampower benchmark: seeded workloads, end-to-end metrics, traced layers.

    python3 perfbench/run.py --workload dqn_train --seed 1 --seconds 36 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 36 --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing installed;
``--trace 1`` alternates untraced and traced rounds and reports the
per-layer metrics plus the tracing overhead.  ``--workload all`` runs every
workload in its own process and also prints the gate-2 ratio.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import resource
import subprocess
import sys
import time
from pathlib import Path
from statistics import median

sys.path.insert(0, str(Path(__file__).resolve().parent))

from tracing import Tracer, layer_metrics  # noqa: E402
from workloads import (HERE, ROOT, WORKLOADS, MissingProgram,  # noqa: E402
                       load_beampower, load_expected)

WORK_DIR = ROOT / ".perfbench_work"
SETUP_PROBES = 5

# (name, unit, better); BENCHMARK.json lists the same metrics
END_TO_END = [
    ("setup_s", "s", "lower"),
    ("wall_s", "s", "lower"),
    ("steps_per_s", "1/s", "higher"),
    ("op_ms_p50", "ms", "lower"),
    ("op_ms_tail", "ms", "lower"),
    ("decide_us_per_step", "us", "lower"),
    ("peak_rss_mb", "MB", "lower"),
    ("ok_ratio", "ratio", "higher"),
]


def tail_percentile(ops_per_round: int) -> float:
    """Highest percentile with at least ten of one round's ops beyond it.

    It depends only on the (seed-fixed) round, never on how many rounds
    fitted in the time, so a faster program is judged at the same
    percentile as a slower one.
    """
    return max(0.0, 100.0 * (1.0 - 10.0 / ops_per_round))


def percentile(values, p: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    k = max(1, math.ceil(p / 100.0 * len(ordered)))
    return ordered[k - 1]


def op_latencies(rounds) -> list[float]:
    """Each operation's median latency over the rounds.

    Every round repeats the same operations in the same order, so a host
    stall that hits one round's copy of an operation is dropped, while a
    cost the program pays on that operation every time is kept.
    """
    cols = itertools.zip_longest(*(r.op_s for r in rounds))
    return [median(x for x in col if x is not None) for col in cols]


def setup_time(name: str) -> float:
    """Import-to-first-episode time, from a fresh interpreter."""
    proc = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), name],
                          cwd=ROOT, capture_output=True, text=True, timeout=120,
                          check=True)
    return float(proc.stdout.split()[-1])


def run_rounds(wl, bp, inputs, expected, seconds: float, tracer=None):
    """Repeat whole rounds while another fits in ``seconds``.

    Without a tracer, one set-up probe runs before each round (and more at
    the end, up to SETUP_PROBES), so set-up is sampled across the same
    stretch of time as the rounds.  With a tracer, untraced and traced
    rounds alternate and no set-up is sampled.
    Returns (untraced rounds, traced rounds, set-up samples).
    """
    plain, traced, setup = [], [], []
    start = time.perf_counter()
    while True:
        if tracer is None:
            setup.append(setup_time(wl.name))
        plain.append(wl.run_round(bp, inputs, expected, WORK_DIR))
        step = plain[-1].wall_s
        if tracer is not None:
            with tracer.installed(bp):
                traced.append(wl.run_round(bp, inputs, expected, WORK_DIR))
            step += traced[-1].wall_s
        if time.perf_counter() - start + step > seconds:
            break
    while tracer is None and len(setup) < SETUP_PROBES:
        setup.append(setup_time(wl.name))
    return plain, traced, setup


def end_to_end(rounds, setup: list[float]) -> tuple[dict, str]:
    # a round whose every job failed still reports (zeros), it does not abort
    ops = op_latencies(rounds) or [0.0]
    per_round = max(1, len(rounds[0].op_s))
    p_tail = tail_percentile(per_round)
    attempted = sum(r.attempted for r in rounds)
    failed = sum(r.failed for r in rounds)
    values = {
        "setup_s": median(setup),
        "wall_s": median(r.wall_s for r in rounds),
        "steps_per_s": median(r.steps / r.wall_s for r in rounds),
        "op_ms_p50": median(ops) * 1e3,
        "op_ms_tail": percentile(ops, p_tail) * 1e3,
        "decide_us_per_step":
            median(r.decision_s / max(1, r.steps) for r in rounds) * 1e6,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "ok_ratio": (attempted - failed) / attempted,
    }
    note = (f"  {'failed_ratio':44s} {failed / attempted:.6g} ratio "
            f"({failed}/{attempted}; ok_ratio is 1 minus this)\n"
            f"op_ms_tail is p{p_tail:.2f}: {per_round} ops per round, each "
            f"op's median over {len(rounds)} round(s), {len(ops)} samples")
    return {n: {"value": values[n], "unit": u} for n, u, _ in END_TO_END}, note


def verdicts(rounds) -> tuple[bool, list[str]]:
    """Correct when every job ran and its outputs are the recorded ones:
    its fingerprint and, on voice_sweep, whether its summary row survives
    the report round trip.  The round-trip mismatches on record in
    expected.json are failed operations but leave the verdict intact; a
    new one makes it false."""
    jobs = [j for r in rounds for j in r.jobs]
    matched = sum(j.matched for j in jobs)
    lines = [f"outputs: {matched}/{len(jobs)} jobs match expected.json"]
    bad = {}
    for j in jobs:
        if not j.ok:
            bad.setdefault(j.key, j.error)
    if bad:
        lines.append(f"failed jobs ({len(bad)} distinct):")
        lines += [f"  {k}: {v}" for k, v in sorted(bad.items())]
    return matched == len(jobs), lines


def run_workload(args) -> int:
    wl = WORKLOADS[args.workload]
    try:
        bp = load_beampower()
    except MissingProgram as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    expected = load_expected()[wl.name]
    WORK_DIR.mkdir(exist_ok=True)
    inputs = wl.inputs(args.seed)
    print(f"workload {wl.name}, seed {args.seed}: {wl.why}")

    if not args.trace:
        rounds, _, setup = run_rounds(wl, bp, inputs, expected, args.seconds)
        metrics, note = end_to_end(rounds, setup)
        correct, lines = verdicts(rounds)
    else:
        tracer = Tracer()
        plain, traced, _ = run_rounds(wl, bp, inputs, expected, args.seconds, tracer)
        overhead = median(r.wall_s for r in traced) / median(r.wall_s for r in plain)
        metrics = layer_metrics(tracer, traced, overhead)
        rounds = plain + traced
        correct, lines = verdicts(rounds)
        same = all(r.digests() == plain[0].digests() for r in rounds)
        correct = correct and same
        lines.append(f"traced fingerprints equal untraced: {same}")
        note = (f"tracing overhead {overhead:.4f}x over {len(traced)} traced "
                f"round(s); {len(tracer.spans)} spans written to "
                f"{WORK_DIR.name}/spans_{wl.name}.jsonl")
        if tracer.missing:
            note += "; entry points not found: " + ", ".join(tracer.missing_names())
        tracer.dump(WORK_DIR / f"spans_{wl.name}.jsonl")

    for name, m in metrics.items():
        print(f"  {name:44s} {m['value']:.6g} {m['unit']}")
    print(note)
    for line in lines:
        print(line)
    print(json.dumps({"correct": correct,
                      "attempted": sum(r.attempted for r in rounds),
                      "failed": sum(r.failed for r in rounds),
                      "metrics": metrics}))
    return 0


def run_all(args) -> int:
    """Every workload in its own process (peak memory is per process)."""
    results = {}
    for name in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                              timeout=600)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            return proc.returncode
        results[name] = json.loads(proc.stdout.strip().splitlines()[-1])
    metrics = {f"{w}.{m}": v for w, res in results.items()
               for m, v in res["metrics"].items()}
    if not args.trace:
        dqn = results["dqn_train"]["metrics"]["decide_us_per_step"]["value"]
        bf = results["oracle_sweep"]["metrics"]["decide_us_per_step"]["value"]
        metrics["gate2_ratio"] = {"value": dqn / bf, "unit": "ratio"}
        print(f"gate-2 ratio (M=8): dqn {dqn:.6g} us/step / brute_force "
              f"{bf:.6g} us/step = {dqn / bf:.6g}")
    print(json.dumps({"correct": all(r["correct"] for r in results.values()),
                      "attempted": sum(r["attempted"] for r in results.values()),
                      "failed": sum(r["failed"] for r in results.values()),
                      "metrics": metrics}))
    return 0


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return p.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
