"""Command-line front end: seeded experiment runs, the exhaustive baseline,
trace post-processing and a re-run of the shipped golden runs.

Exit codes: 0 success, 1 configuration error, 2 bad command-line usage,
missing inputs or a failed run, 3 verification or report mismatch.
"""

from __future__ import annotations

import argparse
import concurrent.futures
import contextlib
import functools
import os
import sys
import tempfile
from itertools import zip_longest
from pathlib import Path

from . import sim
from .config import ConfigError, NetworkConfig, parse_value, text_hash
from .geometry import build_layout

OUT_ENV_VAR = "BEAMPOWER_OUT"


def _default_out() -> str:
    return os.environ.get(OUT_ENV_VAR, "results")


def _load_config(args) -> NetworkConfig:
    """The config file with each given option overriding its key, 0 included.
    A list option parses as the key's value in a config file does; an empty
    one, or a malformed item, is a config error naming the option."""
    cfg = NetworkConfig.load(args.config) if args.config else NetworkConfig()
    over = {}
    for option, key in (("engines", "engines"), ("m", "m_list"), ("seeds", "seeds")):
        text = getattr(args, option)
        if text is None:
            continue
        if not text.strip():
            raise ConfigError(f"--{option} needs at least one value, got {text!r}")
        try:
            over[key] = parse_value(key, text)
        except ConfigError as exc:
            raise ConfigError(f"--{option}: {exc}") from None
    if args.episodes is not None:
        over["episode_cap"] = args.episodes
    return cfg.replace(**over) if over else cfg


def _run_job(config: NetworkConfig, m: int, seed: int, engine: str):
    """Executed in a worker process; returns everything the parent writes."""
    run = sim.run_experiment(config, m, seed, engine)
    best = sim.best_complete_episode(run.episodes)
    return {
        "summary": sim.summarize_run(config, run),
        "trace_rows": sim.trace_rows(run, config),
        "samples": best.eff_sinr_samples() if best is not None else [],
    }


def _write_run_outputs(out: Path, config: NetworkConfig, results: list) -> None:
    # the layout does not depend on M, so one header serves every trace
    cfg_text = config.to_text()
    cfg_hash = text_hash(cfg_text)
    header = sim.trace_header(cfg_text, build_layout(config))
    for res in results:
        summary = res["summary"]
        stem = f"{summary['engine']}_M{summary['m']}_s{summary['seed']}"
        sim.write_trace(out / f"trace_{stem}.csv", header, res["trace_rows"])
        if summary["ccdf_file"]:
            body = [f"# config_hash = {cfg_hash}", "eff_sinr_db"]
            body += [sim.fmt(x) for x in res["samples"]]
            (out / summary["ccdf_file"]).write_text("\n".join(body) + "\n")
    _emit_runtime_ratios(out, _append_summary(out / "summary.csv",
                                              [res["summary"] for res in results]))


def _formatted(row: dict) -> dict:
    """A summary row as ``sim.read_summary`` returns it: column -> text."""
    return {c: sim.fmt(row[c]) for c in sim.SUMMARY_COLUMNS}


def _append_summary(path: Path, rows: list) -> list[dict]:
    """Merge ``rows`` into the summary by (engine, M, seed); return the rows
    written.  Rows read back are written as read; only new rows are formatted."""
    existing = sim.read_summary(path) if path.exists() else []
    merged = {(r["engine"], r["m"], r["seed"]): r
              for r in existing + [_formatted(row) for row in rows]}
    ordered = sorted(merged.values(), key=lambda r: (r["engine"], int(r["m"]),
                                                     int(r["seed"])))
    path.write_text("\n".join(sim.summary_lines(ordered)) + "\n")
    return ordered


def _emit_runtime_ratios(out: Path, rows: list[dict]) -> None:
    """Per-step decision-time ratio dqn / brute_force for matched (M, seed)."""
    per_step = {}
    for r in rows:
        steps = int(r["steps"]) if r["steps"] else 0
        if steps and r["decision_time_s"]:
            per_step[(r["engine"], r["m"], r["seed"])] = \
                float(r["decision_time_s"]) / steps
    lines = ["m,seed,dqn_step_s,brute_force_step_s,ratio"]
    for (engine, m, seed), dqn_t in sorted(per_step.items()):
        if engine != "dqn":
            continue
        bf_t = per_step.get(("brute_force", m, seed))
        if bf_t:
            lines.append(",".join([m, seed, *map(sim.fmt, (dqn_t, bf_t, dqn_t / bf_t))]))
    if len(lines) > 1:
        (out / "runtime_ratio.csv").write_text("\n".join(lines) + "\n")


def cmd_run(args, force_engines: tuple | None = None) -> int:
    config = _load_config(args)
    if force_engines:
        config = config.replace(engines=force_engines)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    jobs = [(engine, m, seed) for engine in config.engines
            for m in config.m_list for seed in config.seeds]
    results = []
    failed = None
    # one loop in job order, serial or parallel: the first failing job
    # stops the run, and only the jobs before it are written
    with contextlib.ExitStack() as stack:
        if args.workers > 1:
            pool = stack.enter_context(
                concurrent.futures.ProcessPoolExecutor(max_workers=args.workers))
            stack.callback(pool.shutdown, cancel_futures=True)
            outcomes = [pool.submit(_run_job, config, m, seed, engine).result
                        for engine, m, seed in jobs]
        else:
            outcomes = [functools.partial(_run_job, config, m, seed, engine)
                        for engine, m, seed in jobs]
        for job, outcome in zip(jobs, outcomes):
            try:
                results.append(outcome())
            except Exception as exc:
                failed = (job, exc)
                break
    if results:
        _write_run_outputs(out, config, results)
    if failed:
        (job, exc) = failed
        print(f"run failed for engine={job[0]} M={job[1]} seed={job[2]}: {exc}",
              file=sys.stderr)
        return 2
    print(f"wrote {len(results)} run(s) to {out}")
    return 0


def cmd_oracle(args) -> int:
    return cmd_run(args, force_engines=("brute_force",))


def cmd_ccdf(args) -> int:
    config, run = sim.read_trace(args.trace)
    if run is None:
        print("trace contains no steps", file=sys.stderr)
        return 2
    episodes = run.episodes
    if args.all_steps:
        samples = [g for e in episodes for g in e.eff_sinr_samples()]
    else:
        best = sim.best_complete_episode(episodes)
        if best is None:
            print("every episode aborted; rerun with --all-steps", file=sys.stderr)
            return 2
        samples = best.eff_sinr_samples()
    curve = sim.ccdf(samples)
    out = Path(args.out) if args.out else Path(args.trace).with_suffix(".ccdf.csv")
    lines = [f"# config_hash = {config.config_hash()}", "threshold_db,prob"]
    lines += [f"{sim.fmt(t)},{sim.fmt(p)}" for t, p in curve]
    out.write_text("\n".join(lines) + "\n")
    print(f"wrote {out}")
    return 0


def _summary_mismatches(rows: list[dict], summary_path: Path) -> list[tuple]:
    """(key, column, summary value, recomputed value) for each non-timing
    difference of the text ``rows`` from ``summary_path``, including a
    recomputed row it lacks."""
    original = {(r["engine"], r["m"], r["seed"]): r
                for r in sim.read_summary(summary_path)}
    compare = [c for c in sim.SUMMARY_COLUMNS if c not in sim.TIMING_COLUMNS]
    mismatches = []
    for row in rows:
        key = (row["engine"], row["m"], row["seed"])
        got = original.get(key)
        if got is None:
            mismatches.append((key, "row", None, "present"))
            continue
        mismatches += [(key, c, got[c], row[c]) for c in compare if got[c] != row[c]]
    return mismatches


def cmd_report(args) -> int:
    trace_dir = Path(args.dir)
    rows = []
    for path in sorted(trace_dir.glob("trace_*.csv")):
        config, run = sim.read_trace(path)
        if run is not None:
            rows.append(_formatted(sim.summarize_run(config, run)))
    if not rows:
        print(f"no traces found in {trace_dir}", file=sys.stderr)
        return 2
    out = trace_dir / "summary_recomputed.csv"
    out.write_text("\n".join(sim.summary_lines(rows)) + "\n")
    print(f"wrote {out}")
    summary_path = trace_dir / "summary.csv"
    if not summary_path.exists():
        return 0
    mismatches = _summary_mismatches(rows, summary_path)
    if mismatches:
        for key, col, a, b in mismatches:
            print(f"mismatch {key} {col}: summary={a!r} recomputed={b!r}",
                  file=sys.stderr)
        return 3
    print("recomputed summary matches summary.csv (timing columns excluded)")
    return 0


# ---------------------------------------------------------------------------
# verify


def _golden_dir() -> Path:
    return Path(__file__).resolve().parent / "golden"


def _first_difference(got: Path, want: Path) -> int | None:
    """The 1-based number of the first line at which two files differ, or
    None when their bytes are equal."""
    lines = zip_longest(*(p.read_bytes().splitlines(keepends=True) for p in (got, want)))
    return next((n for n, (a, b) in enumerate(lines, 1) if a != b), None)


def _rerun_problems(trace: Path, golden: Path, out: Path) -> list[str]:
    """Re-run a golden trace's run into ``out`` as ``run`` runs it, from the
    header's config and the rows' engine, M and seed; return how the files
    written differ from their golden copies.  ``summary.csv`` is compared in
    its non-timing columns, every other file byte for byte."""
    try:
        config, run = sim.read_trace(trace)
    except ValueError as exc:
        return [str(exc)]
    if run is None:
        return ["the trace holds no steps"]
    out.mkdir()
    _write_run_outputs(out, config, [_run_job(config, run.m, run.seed, run.engine)])
    problems = []
    for path in sorted(out.iterdir()):
        want = golden / path.name
        if not want.exists():
            problems.append(f"{path.name} has no golden copy")
        elif path.name == "summary.csv":
            problems += [f"summary.csv {key} {col}: golden={a!r} re-run={b!r}"
                         for key, col, a, b in
                         _summary_mismatches(sim.read_summary(path), want)]
        elif (line := _first_difference(path, want)) is not None:
            problems.append(f"{path.name} differs from line {line}")
    return problems


def cmd_verify(args) -> int:
    golden = _golden_dir()
    traces = sorted(golden.glob("trace_*.csv"))
    failed = [] if traces else [f"{golden}: no golden trace"]
    with tempfile.TemporaryDirectory() as tmp:
        for trace in traces:
            problems = _rerun_problems(trace, golden, Path(tmp) / trace.stem)
            if problems:
                failed.append(f"{trace.name}: {'; '.join(problems)}")
            else:
                print(f"PASS  {trace.name}")
        written = {path.name for path in Path(tmp).glob("*/*")}
    failed += [f"{path.name}: no golden run writes it"
               for path in sorted(golden.iterdir()) if path.name not in written]
    for line in failed:
        print(f"FAIL  {line}")
    return 3 if failed else 0


# ---------------------------------------------------------------------------


def _worker_count(text: str) -> int:
    """``--workers``: a whole number of processes, at least 1."""
    n = int(text)
    if n < 1:
        raise argparse.ArgumentTypeError(f"expected at least 1, got {n}")
    return n


@functools.lru_cache(maxsize=8)
def build_parser(default_out: str) -> argparse.ArgumentParser:
    """The parser, built once per default output directory; ``main`` passes
    ``_default_out()`` so a changed ``$BEAMPOWER_OUT`` still takes effect."""
    p = argparse.ArgumentParser(prog="beampower",
                                description=__doc__.splitlines()[0])
    sub = p.add_subparsers(dest="command", required=True)

    def add_run_args(sp):
        sp.add_argument("--config", help="path to a key=value config file")
        sp.add_argument("--out", default=default_out,
                        help=f"output directory (default ${OUT_ENV_VAR} or ./results)")
        sp.add_argument("--engines", help="comma-separated engine filter")
        sp.add_argument("--m", help="comma-separated codebook sizes")
        sp.add_argument("--seeds", help="comma-separated seeds")
        sp.add_argument("--episodes", type=int, help="episode cap override")
        sp.add_argument("--workers", type=_worker_count, default=1,
                        help="parallel worker processes (at least 1)")

    sp = sub.add_parser("run", help="run the configured experiment matrix")
    add_run_args(sp)

    sp = sub.add_parser("oracle", help="run the exhaustive-search baseline only")
    add_run_args(sp)

    sub.add_parser("verify", help="re-run the golden runs and compare their files")

    sp = sub.add_parser("ccdf", help="effective-SINR CCDF from a trace file")
    sp.add_argument("--trace", required=True)
    sp.add_argument("--out")
    sp.add_argument("--all-steps", action="store_true",
                    help="pool every step instead of the best episode")

    sp = sub.add_parser("report", help="recompute summary metrics from traces")
    sp.add_argument("--dir", required=True)
    return p


def main(argv=None) -> int:
    args = build_parser(_default_out()).parse_args(argv)
    # looked up at call time, not bound into the cached parser, so a
    # replaced ``cmd_*`` function is the one that runs
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except Exception as exc:
        print(f"{args.command} failed: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entry()
