"""Spans and counters around the calls into each beampower module.

The tracer patches each module's public entry points where the caller binds
them (``beampower.sim.realize_channel``, ``TwoCellEnv.begin_episode``, the
engines' ``act``/``learn``, ...) for the length of one traced round, and
restores them afterwards.  Nothing in the package itself changes.

Entry points called a few times per step record a span each: name, start,
end, parent and self time (the span minus its children).  Calls made
thousands of times per step (``radio.sinr_db`` inside the oracle) and the
tiny geometry helpers are *leaves*: only their durations are kept, and
their time is still charged to the enclosing span as child time.
"""

from __future__ import annotations

import contextlib
import json
import math
import os
import time
from array import array
from collections import Counter
from pathlib import Path
from statistics import median


class Tracer:
    def __init__(self):
        self.spans = []              # (id, name, start, end, parent id, self)
        self.leaves = {}             # name -> array of durations (s)
        self.counters = Counter()
        self.missing = []            # entry points the package no longer has
        self._stack = [[-1, 0.0]]    # open frames: [span id, child time]
        self._next_id = 0

    # ---- wrappers --------------------------------------------------------

    def span(self, name, fn, on_result=None):
        tracer, stack, perf = self, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            sid = tracer._next_id
            tracer._next_id += 1
            parent = stack[-1]
            frame = [sid, 0.0]
            stack.append(frame)
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                parent[1] += t1 - t0
                tracer.spans.append((sid, name, t0, t1, parent[0], t1 - t0 - frame[1]))
            if on_result is not None:
                on_result(result)
            return result
        return traced

    def leaf(self, name, fn):
        samples = self.leaves.setdefault(name, array("d"))
        stack, perf = self._stack, time.perf_counter

        def timed(*args, **kwargs):
            t0 = perf()
            result = fn(*args, **kwargs)
            d = perf() - t0
            samples.append(d)
            stack[-1][1] += d
            return result
        return timed

    # ---- installation ----------------------------------------------------

    @contextlib.contextmanager
    def installed(self, bp):
        """Patch the entry points for the duration of the block."""
        from beampower import agents, cli, oracle
        sim, cfg = bp.sim, bp.NetworkConfig
        env = sim.TwoCellEnv
        count = self.counters
        last_drop = [None]

        def count_candidates(res):
            count["oracle.candidates"] += getattr(res, "n_evaluated", 0)

        def note_drop(fn):
            def drawn(rng, cx, cy, r):
                last_drop[0] = (cx, cy)
                return fn(rng, cx, cy, r)
            return drawn

        def check_drop(fn):
            # a drop is accepted when the nearest site is the disk it came from
            def associated(x, y, layout):
                sid = fn(x, y, layout)
                site = layout.site(sid)
                if (site.x, site.y) == last_drop[0]:
                    count["geometry.drops_accepted"] += 1
                return sid
            return associated

        def bytes_written(fn):
            # size of every output file a CLI command created or changed
            def scanned(args, *rest, **kwargs):
                out = Path(getattr(args, "out", None) or args.dir)
                before = _snapshot(out)
                try:
                    return fn(args, *rest, **kwargs)
                finally:
                    for name, (stamp, size) in _snapshot(out).items():
                        if before.get(name) != (stamp, size):
                            count["sim.io.bytes"] += size
            return scanned

        span, leaf = self.span, self.leaf
        plan = [
            (sim, "run_episode", lambda f: span("sim.run_episode", f)),
            (sim, "run_experiment", lambda f: span("sim.run_experiment", f)),
            (env, "__init__", lambda f: span("sim.env_init", f)),
            (env, "begin_episode", lambda f: span("sim.begin_episode", f)),
            (env, "channels", lambda f: span("sim.channels", f)),
            (sim, "trace_rows", lambda f: span("sim.io.trace_rows", f)),
            (sim, "write_trace", lambda f: span("sim.io.write", f)),
            (sim, "read_trace", lambda f: span("sim.io.read", f)),
            (sim, "read_summary", lambda f: span("sim.io.read", f)),
            (sim.DqnEngine, "act", lambda f: span("agents.act", f)),
            (sim.DqnEngine, "learn", lambda f: span("agents.dqn_learn", f)),
            (sim.TabularEngine, "act", lambda f: span("agents.act", f)),
            (sim.TabularEngine, "learn", lambda f: span("agents.tabular_learn", f)),
            (sim, "sgd_step", lambda f: span("agents.sgd_step", f)),
            (agents.ReplayBuffer, "sample", lambda f: span("agents.replay_sample", f)),
            (sim, "tabular_update", lambda f: span("agents.tabular_update", f)),
            (sim, "brute_force",
             lambda f: span("oracle.brute_force", f, on_result=count_candidates)),
            (sim, "realize_channel", lambda f: span("channel.realize_channel", f)),
            (sim, "draw_link_fading", lambda f: leaf("channel.draw_link_fading", f)),
            (sim, "sinr_db", lambda f: leaf("radio.sinr_db", f)),
            (oracle, "sinr_db", lambda f: leaf("radio.sinr_db", f)),
            (sim, "reflect_into_cell", lambda f: leaf("geometry.reflect_into_cell", f)),
            (sim, "uniform_disk_point",
             lambda f: leaf("geometry.uniform_disk_point", note_drop(f))),
            (sim, "associate", lambda f: leaf("geometry.associate", check_drop(f))),
            (cfg, "from_text", lambda f: span("config.from_text", f)),
            (cfg, "load", lambda f: span("config.load", f)),
            (cfg, "to_text", lambda f: span("config.to_text", f)),
            (cfg, "config_hash", lambda f: span("config.config_hash", f)),
            (cfg, "__post_init__", lambda f: span("config.validate", f)),
            (cli, "cmd_run", lambda f: bytes_written(span("cli.run", f))),
            (cli, "cmd_report", lambda f: bytes_written(span("cli.report", f))),
            (cli, "_write_run_outputs", lambda f: span("sim.io.write", f)),
        ]
        saved = []
        try:
            for owner, attr, wrap in plan:
                raw = vars(owner).get(attr)
                if raw is None:
                    if (owner, attr) not in self.missing:
                        self.missing.append((owner, attr))
                    continue
                saved.append((owner, attr, raw))
                if isinstance(raw, classmethod):
                    setattr(owner, attr, classmethod(wrap(raw.__func__)))
                else:
                    setattr(owner, attr, wrap(raw))
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def missing_names(self) -> list[str]:
        return [f"{getattr(o, '__name__', o)}.{a}" for o, a in self.missing]

    # ---- read-out --------------------------------------------------------

    def durations(self, name: str) -> list[float]:
        if name in self.leaves:
            return list(self.leaves[name])
        return [end - start for _, n, start, end, _, _ in self.spans if n == name]

    def self_times(self, name: str) -> list[float]:
        return [s for _, n, _, _, _, s in self.spans if n == name]

    def outermost(self, prefix: str) -> float:
        """Total time in spans named ``prefix*`` not nested in another one."""
        names = {sid: n for sid, n, *_ in self.spans}
        return sum(end - start for _, n, start, end, parent, _ in self.spans
                   if n.startswith(prefix)
                   and not names.get(parent, "").startswith(prefix))

    def dump(self, path: Path) -> None:
        """Write every span, then one aggregate line per leaf, as JSON lines."""
        with open(path, "w") as fh:
            for sid, name, start, end, parent, self_s in self.spans:
                fh.write(json.dumps({"id": sid, "name": name, "start": start,
                                     "end": end, "parent": parent,
                                     "self": self_s}) + "\n")
            for name, samples in self.leaves.items():
                fh.write(json.dumps({"leaf": name, "calls": len(samples),
                                     "total": math.fsum(samples)}) + "\n")


def _snapshot(directory: Path) -> dict:
    if not directory.is_dir():
        return {}
    out = {}
    with os.scandir(directory) as it:
        for entry in it:
            if entry.is_file():
                st = entry.stat()
                out[entry.name] = (st.st_mtime_ns, st.st_size)
    return out


# ---------------------------------------------------------------------------
# per-layer metrics

# (name, unit, better); BENCHMARK.json lists the same metrics in this order
# and README.md says which end-to-end metric each should move, on which
# workload.
LAYER_METRICS = [
    ("sim.begin_episode.us_p50", "us", "lower"),
    ("sim.begin_episode.calls", "count", "lower"),
    ("sim.walk_used_ratio", "ratio", "higher"),
    ("sim.run_episode.self_us_per_step", "us", "lower"),
    ("sim.channels.us_per_step", "us", "lower"),
    ("sim.io.trace_rows_us", "us", "lower"),
    ("sim.io.write_us", "us", "lower"),
    ("sim.io.read_us", "us", "lower"),
    ("sim.io.bytes_written", "bytes", "lower"),
    ("channel.realize_channel.us_p50", "us", "lower"),
    ("channel.realize_channel.calls_per_step", "count", "lower"),
    ("channel.draw_link_fading.calls", "count", "lower"),
    ("geometry.reflect_into_cell.calls_per_step", "count", "lower"),
    ("geometry.drop_accept_ratio", "ratio", "higher"),
    ("radio.sinr_db.us_p50", "us", "lower"),
    ("radio.sinr_db.calls_per_step", "count", "lower"),
    ("agents.act.us_p50", "us", "lower"),
    ("agents.learn.us_p50", "us", "lower"),
    ("agents.sgd_step.us_p50", "us", "lower"),
    ("agents.replay_sample.us_p50", "us", "lower"),
    ("agents.tabular_update.us_p50", "us", "lower"),
    ("agents.learn_useful_ratio", "ratio", "higher"),
    ("oracle.brute_force.us_p50", "us", "lower"),
    ("oracle.candidate_us", "us", "lower"),
    ("oracle.candidates_evaluated", "count", "lower"),
    ("config.from_text.calls", "count", "lower"),
    ("config.to_text.calls", "count", "lower"),
    ("config.us_per_run", "us", "lower"),
    ("cli.run.self_us", "us", "lower"),
    ("cli.report.us", "us", "lower"),
    ("trace.overhead_ratio", "ratio", "lower"),
]


def _p50_us(values) -> float:
    return median(values) * 1e6 if values else 0.0


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(tracer: Tracer, rounds: list, overhead: float) -> dict:
    """Per-layer values from the traced rounds.

    Counts are per round (every round repeats the same jobs, so they repeat
    exactly), times are medians per call or totals per step or per
    simulated run.
    """
    n = len(rounds)
    steps = sum(r.steps for r in rounds)
    runs = sum(r.runs for r in rounds)
    walk = sum(r.episodes * r.frame_steps for r in rounds)
    calls = {name: len(tracer.durations(name)) for name in (
        "sim.begin_episode", "channel.realize_channel", "channel.draw_link_fading",
        "geometry.reflect_into_cell", "geometry.associate", "radio.sinr_db",
        "agents.sgd_step", "agents.dqn_learn", "config.from_text",
        "config.to_text")}
    learn = tracer.durations("agents.dqn_learn") + tracer.durations("agents.tabular_learn")
    values = {
        "sim.begin_episode.us_p50": _p50_us(tracer.durations("sim.begin_episode")),
        "sim.begin_episode.calls": calls["sim.begin_episode"] / n,
        "sim.walk_used_ratio": _ratio(steps, walk),
        "sim.run_episode.self_us_per_step":
            _ratio(sum(tracer.self_times("sim.run_episode")), steps) * 1e6,
        "sim.channels.us_per_step":
            _ratio(sum(tracer.durations("sim.channels")), steps) * 1e6,
        "sim.io.trace_rows_us":
            _ratio(sum(tracer.durations("sim.io.trace_rows")), runs) * 1e6,
        "sim.io.write_us": _ratio(sum(tracer.self_times("sim.io.write")), runs) * 1e6,
        "sim.io.read_us": _ratio(tracer.outermost("sim.io.read"), runs) * 1e6,
        "sim.io.bytes_written": tracer.counters["sim.io.bytes"] / n,
        "channel.realize_channel.us_p50":
            _p50_us(tracer.durations("channel.realize_channel")),
        "channel.realize_channel.calls_per_step":
            _ratio(calls["channel.realize_channel"], steps),
        "channel.draw_link_fading.calls": calls["channel.draw_link_fading"] / n,
        "geometry.reflect_into_cell.calls_per_step":
            _ratio(calls["geometry.reflect_into_cell"], steps),
        "geometry.drop_accept_ratio":
            _ratio(tracer.counters["geometry.drops_accepted"], calls["geometry.associate"]),
        "radio.sinr_db.us_p50": _p50_us(tracer.durations("radio.sinr_db")),
        "radio.sinr_db.calls_per_step": _ratio(calls["radio.sinr_db"], steps),
        "agents.act.us_p50": _p50_us(tracer.durations("agents.act")),
        "agents.learn.us_p50": _p50_us(learn),
        "agents.sgd_step.us_p50": _p50_us(tracer.durations("agents.sgd_step")),
        "agents.replay_sample.us_p50": _p50_us(tracer.durations("agents.replay_sample")),
        "agents.tabular_update.us_p50":
            _p50_us(tracer.durations("agents.tabular_update")),
        "agents.learn_useful_ratio":
            _ratio(calls["agents.sgd_step"], calls["agents.dqn_learn"]),
        "oracle.brute_force.us_p50": _p50_us(tracer.durations("oracle.brute_force")),
        "oracle.candidate_us":
            _ratio(sum(tracer.durations("oracle.brute_force")),
                   tracer.counters["oracle.candidates"]) * 1e6,
        "oracle.candidates_evaluated": tracer.counters["oracle.candidates"] / n,
        "config.from_text.calls": calls["config.from_text"] / n,
        "config.to_text.calls": calls["config.to_text"] / n,
        "config.us_per_run": _ratio(tracer.outermost("config."), runs) * 1e6,
        "cli.run.self_us": _p50_us(tracer.self_times("cli.run")),
        "cli.report.us": _p50_us(tracer.durations("cli.report")),
        "trace.overhead_ratio": overhead,
    }
    return {name: {"value": values[name], "unit": unit}
            for name, unit, _ in LAYER_METRICS}
