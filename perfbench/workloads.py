"""The three benchmark workloads, the inputs each derives from a seed, and
the correctness checks applied to their outputs.

A workload run is made of *jobs*.  A job is one simulated training run:
(engine, M, simulator seed).  The benchmark seed picks a fixed list of
simulator seeds from a catalogue, so the same benchmark seed always gives
the same jobs, and every job has an expected fingerprint recorded in
``expected.json``.  One *round* executes every job once; a timed run repeats
whole rounds.
"""

from __future__ import annotations

import contextlib
import csv
import hashlib
import io
import json
import random
import shutil
import sys
import time
from dataclasses import dataclass
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED_PATH = HERE / "expected.json"
VOICE_CONFIG = HERE / "voice.ini"
M = 8                            # array size of both q=1 workloads (gate 2 is at M=8)


class MissingProgram(RuntimeError):
    """Raised when the checkout holds no beampower sources to benchmark."""


def load_beampower(root: Path = ROOT):
    """Import beampower from ``<root>/src`` and from nowhere else."""
    src = root / "src"
    if not (src / "beampower" / "__init__.py").is_file():
        raise MissingProgram(f"no beampower sources under {src}")
    sys.path.insert(0, str(src))
    import beampower
    if Path(beampower.__file__).resolve().parent != (src / "beampower").resolve():
        raise MissingProgram(f"imported beampower from {beampower.__file__}, "
                             f"not from {src}")
    return beampower


# ---------------------------------------------------------------------------
# fingerprints


def _hex(x) -> str:
    return "" if x is None else float(x).hex()


def fingerprint(episodes) -> str:
    """sha256 over the in-memory results of one job, floats via float.hex.

    Built from EpisodeResult/StepRecord values, not from the trace text, so a
    change of trace formatting leaves it alone while any change of the
    simulated numbers changes it.
    """
    h = hashlib.sha256()
    for ep in episodes:
        for s in ep.steps:
            h.update(",".join([
                str(ep.index), str(s.t), "" if s.action is None else str(s.action),
                *map(_hex, s.powers_dbm), *map(str, s.beams),
                *map(_hex, s.sinr_db), *map(_hex, s.eff_sinr_db),
                _hex(s.reward), _hex(s.loss)]).encode())
            h.update(b"\n")
    return h.hexdigest()


def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


# ---------------------------------------------------------------------------
# round results


@dataclass
class JobOutcome:
    key: str                     # "<engine>:<simulator seed>"
    ops: int                     # operations the job accounts for
    digest: str | None = None    # None when the job raised
    error: str | None = None     # why the job failed, if it did
    matched: bool = False        # ran, and its outputs are the recorded ones
    ok: bool = False             # matched, and no failure, known or new


@dataclass
class RoundResult:
    wall_s: float
    op_s: list                   # host latency of each operation
    steps: int
    episodes: int
    decision_s: float
    jobs: list                   # JobOutcome per job
    frame_steps: int
    runs: int                    # simulated runs (jobs) in the round

    @property
    def attempted(self) -> int:
        return sum(j.ops for j in self.jobs)

    @property
    def failed(self) -> int:
        return sum(j.ops for j in self.jobs if not j.ok)

    def digests(self) -> dict:
        return {j.key: j.digest for j in self.jobs}


def _judge(jobs, expected: dict) -> None:
    """Mark each job ok when it ran and its fingerprint is the recorded one."""
    for j in jobs:
        if j.error is not None:
            continue
        want = expected.get(j.key)
        if want is None:
            j.error = "no recorded fingerprint"
        elif j.digest != want:
            j.error = f"fingerprint {j.digest[:12]} != recorded {want[:12]}"
        else:
            j.matched = j.ok = True


# ---------------------------------------------------------------------------
# workloads


@dataclass
class EpisodeLoop:
    """Training runs driven one ``run_episode`` call at a time.

    An operation is one ``run_episode`` call, timed from outside: the
    program's own ``EpisodeResult.wall_time_s`` starts after
    ``begin_episode`` and so misses the episode set-up.
    """

    name: str
    why: str
    engine: str
    episodes: int                # per job, with no stop on convergence
    jobs_per_round: int
    catalogue: int               # simulator seeds 1..catalogue

    def inputs(self, seed: int) -> list[int]:
        rng = random.Random(f"{self.name}:{seed}")
        return sorted(rng.sample(range(1, self.catalogue + 1), self.jobs_per_round))

    def config(self, bp, sim_seed: int):
        return bp.NetworkConfig(q=1, m_list=(M,), engines=(self.engine,),
                                seeds=(sim_seed,))

    def first_episode_ready(self, bp) -> None:
        """Everything before the first step of a job: the set-up probe."""
        cfg = self.config(bp, 1)
        env = bp.sim.TwoCellEnv(cfg, M, 1)
        engine = bp.sim.make_engine(self.engine, cfg, env, 1)
        env.begin_episode()
        engine.begin_episode(env)

    def run_round(self, bp, jobs: list[int], expected: dict,
                  work: Path) -> RoundResult:
        sim = bp.sim
        op_s, results, outcomes = [], [], []
        perf = time.perf_counter
        wall0 = perf()
        for s in jobs:
            job = JobOutcome(key=f"{self.engine}:{s}", ops=self.episodes)
            episodes = []
            try:
                cfg = self.config(bp, s)
                env = sim.TwoCellEnv(cfg, M, s)
                engine = sim.make_engine(self.engine, cfg, env, s)
                for _ in range(self.episodes):
                    t0 = perf()
                    ep = sim.run_episode(env, engine)
                    op_s.append(perf() - t0)
                    episodes.append(ep)
            except Exception as exc:     # a failing job is counted, not fatal
                job.error = f"{type(exc).__name__}: {exc}"
            outcomes.append(job)
            results.append(episodes)
        wall = perf() - wall0
        for job, episodes in zip(outcomes, results):
            if job.error is None:
                job.digest = fingerprint(episodes)
        _judge(outcomes, expected)
        flat = [ep for eps in results for ep in eps]
        return RoundResult(
            wall_s=wall, op_s=op_s, steps=sum(len(e.steps) for e in flat),
            episodes=len(flat), decision_s=sum(e.decision_time_s for e in flat),
            jobs=outcomes, frame_steps=self.config(bp, 1).frame_steps,
            runs=len(jobs))

    def record(self, bp, work: Path) -> dict:
        """Fingerprints of every catalogue job, for ``expected.json``."""
        out = {}
        for s in range(1, self.catalogue + 1):
            res = self.run_round(bp, [s], {}, work)
            out.update(res.digests())
        return out


VOICE_ENGINES = ("fpa", "tabular", "dqn")
KNOWN_MISMATCH = "summary_mismatch"  # expected.json key of known round-trip failures


@dataclass
class VoiceSweep:
    """Seed sweeps of ``beampower run`` invocations, each followed by one
    ``report``.

    One sweep is the 30-seed sweep probed for this workload: one invocation
    per simulator seed, as ROADMAP open item 4 runs them, each running all
    three voice engines with the default stop on convergence.  The
    invocations of a sweep all write into one output directory, so
    ``summary.csv`` accumulates across them (to 90 rows), and ``report
    --dir`` then reads the directory back.  A round runs every simulator
    seed of the catalogue once, as several sweeps, each into a fresh
    directory; the benchmark seed decides which seeds share a sweep and in
    what order they run.  So a round's work, and the runs whose summary row
    fails the round trip, are the same for every benchmark seed, and the
    failed share of a run depends neither on the seed nor on how many
    rounds fitted.  An operation, the unit the latencies time, is one
    invocation; failures are counted per simulated run inside it, the unit
    in which the summary round trip fails.
    """

    name: str
    why: str
    seeds_per_sweep: int
    sweeps_per_round: int

    @property
    def catalogue(self) -> int:
        return self.seeds_per_sweep * self.sweeps_per_round

    def inputs(self, seed: int) -> list[list[int]]:
        seeds = list(range(1, self.catalogue + 1))
        random.Random(f"{self.name}:{seed}").shuffle(seeds)
        n = self.seeds_per_sweep
        return [seeds[i:i + n] for i in range(0, len(seeds), n)]

    def first_episode_ready(self, bp) -> None:
        from beampower import cli          # noqa: F401  (part of the set-up)
        bp.NetworkConfig.load(VOICE_CONFIG)

    def run_round(self, bp, sweeps: list[list[int]], expected: dict,
                  work: Path) -> RoundResult:
        from beampower import cli
        sim = bp.sim
        out = work / "voice_out"

        # keep each run's in-memory results for the fingerprint check
        captured = {}
        inner = sim.run_experiment

        def capture(config, m, seed, engine_name, *args, **kwargs):
            run = inner(config, m, seed, engine_name, *args, **kwargs)
            captured[f"{engine_name}:{seed}"] = run
            return run

        op_s, mismatches = [], {}
        sink = io.StringIO()
        perf = time.perf_counter
        wall = 0.0
        sim.run_experiment = capture
        try:
            for seeds in sweeps:
                if out.exists():
                    shutil.rmtree(out)
                out.mkdir(parents=True)
                wall0 = perf()
                for s in seeds:
                    argv = ["run", "--config", str(VOICE_CONFIG), "--out", str(out),
                            "--seeds", str(s), "--workers", "1"]
                    t0 = perf()
                    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                        cli.main(argv)
                    op_s.append(perf() - t0)
                    sink.seek(0)
                    sink.truncate()
                with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
                    cli.main(["report", "--dir", str(out)])
                wall += perf() - wall0
                mismatches.update(_round_trip(out, sim, [
                    f"{engine}:{s}" for s in seeds for engine in VOICE_ENGINES]))
        finally:
            sim.run_experiment = inner

        known = set(expected.get(KNOWN_MISMATCH, ()))
        outcomes = [JobOutcome(key=f"{engine}:{s}", ops=1)
                    for seeds in sweeps for s in seeds for engine in VOICE_ENGINES]
        for job in outcomes:
            run = captured.get(job.key)
            if run is None:
                job.error = "run did not complete"
            else:
                job.digest = fingerprint(run.episodes)
        _judge(outcomes, expected)
        for job in outcomes:
            why = mismatches.get(job.key)
            if job.digest is not None and why:
                job.ok = False
                job.error = why if job.error is None else f"{job.error}; {why}"
                # a round-trip failure not on record is a changed output
                job.matched = job.matched and job.key in known
        runs = list(captured.values())
        return RoundResult(
            wall_s=wall, op_s=op_s, steps=sum(r.steps_total for r in runs),
            episodes=sum(len(r.episodes) for r in runs),
            decision_s=sum(r.decision_time_s for r in runs), jobs=outcomes,
            frame_steps=bp.NetworkConfig(q=0).frame_steps, runs=len(runs))

    def record(self, bp, work: Path) -> dict:
        """Fingerprints of every catalogue run, and the runs whose summary
        row does not survive the report round trip."""
        res = self.run_round(bp, [list(range(1, self.catalogue + 1))], {}, work)
        out = res.digests()
        out[KNOWN_MISMATCH] = sorted(_round_trip(work / "voice_out", bp.sim, out))
        return out


def _round_trip(out: Path, sim, keys) -> dict:
    """The runs among ``keys`` ("<engine>:<seed>") whose summary.csv row
    differs from its ``report`` read-back in a non-timing column -> why."""
    summary = _read_csv_rows(out / "summary.csv")
    recomputed = _read_csv_rows(out / "summary_recomputed.csv")
    skip = set(getattr(sim, "TIMING_COLUMNS", ()))
    found = {key: _summary_mismatch(summary.get(key), recomputed.get(key), skip)
             for key in keys}
    return {key: why for key, why in found.items() if why}


def _read_csv_rows(path: Path) -> dict:
    """summary-style CSV keyed by "<engine>:<seed>"; empty if absent."""
    if not path.exists():
        return {}
    with open(path, newline="") as fh:
        return {f"{r['engine']}:{r['seed']}": r
                for r in csv.DictReader(line for line in fh if not line.startswith("#"))}


def _summary_mismatch(row: dict | None, again: dict | None, skip: set) -> str | None:
    """Why a summary.csv row and its report read-back disagree, or None."""
    if row is None or again is None:
        return "summary row missing"
    for col in row:
        if col not in skip and row[col] != again.get(col):
            return f"summary {col}: {row[col]!r} != recomputed {again.get(col)!r}"
    return None


# Why each workload is here, and which layers it loads or bypasses: the same
# text is in BENCHMARK.json.
WORKLOADS = {
    "dqn_train": EpisodeLoop(
        name="dqn_train",
        why="paper's primary algorithm (gate-3 shape): dqn q=1 M=8; loads agents "
            "act/replay/sgd_step and sim.begin_episode; oracle and file I/O idle",
        engine="dqn", episodes=300, jobs_per_round=16, catalogue=64),
    "oracle_sweep": EpisodeLoop(
        name="oracle_sweep",
        why="the complexity baseline (gate-2 ratio): brute_force q=1 M=8, 1024 "
            "candidates/step; loads oracle and radio.sinr_db; agents and file I/O idle",
        engine="brute_force", episodes=10, jobs_per_round=6, catalogue=64),
    "voice_sweep": VoiceSweep(
        name="voice_sweep",
        why="seed sweeps as users run them (ROADMAP item 4): 30-seed sweeps, one cli "
            "run per seed of fpa/tabular/dqn, q=0 M=1, then report; loads config, "
            "channel, trace I/O, cli; oracle idle",
        seeds_per_sweep=30, sweeps_per_round=6),
}
