"""The benchmark's own tests.

    python3 perfbench/selftest.py
"""

import json
import subprocess
import sys
import tempfile
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import workloads  # noqa: E402
from tracing import LAYER_METRICS, Tracer  # noqa: E402
from workloads import EpisodeLoop, VoiceSweep, WORKLOADS  # noqa: E402

BP = workloads.load_beampower()
BENCHMARK = json.loads((workloads.ROOT / "BENCHMARK.json").read_text())


def small_dqn():
    return EpisodeLoop(name="t", why="", engine="dqn", episodes=40,
                       jobs_per_round=2, catalogue=8)


def small_voice():
    return VoiceSweep(name="t", why="", seeds_per_sweep=2, sweeps_per_round=2)


class TestInputs(unittest.TestCase):
    def test_seed_changes_inputs(self):
        for wl in WORKLOADS.values():
            self.assertEqual(wl.inputs(1), wl.inputs(1))
            self.assertNotEqual(wl.inputs(1), wl.inputs(2))

    def test_voice_round_runs_the_whole_catalogue(self):
        # so the failed share of a voice run is the same for every seed
        wl = WORKLOADS["voice_sweep"]
        for seed in (1, 2):
            seeds = [s for sweep in wl.inputs(seed) for s in sweep]
            self.assertEqual(sorted(seeds), list(range(1, wl.catalogue + 1)))

    def test_every_input_has_a_recorded_fingerprint(self):
        expected = workloads.load_expected()
        for name, wl in WORKLOADS.items():
            for seed in range(20):
                seeds = wl.inputs(seed)
                if name == "voice_sweep":
                    seeds = [s for sweep in seeds for s in sweep]
                engines = workloads.VOICE_ENGINES if name == "voice_sweep" else (wl.engine,)
                for s in seeds:
                    for e in engines:
                        self.assertIn(f"{e}:{s}", expected[name])


class TestTracing(unittest.TestCase):
    def check_traced_equals_untraced(self, wl, jobs):
        with tempfile.TemporaryDirectory() as tmp:
            work = Path(tmp)
            plain = wl.run_round(BP, jobs, {}, work)
            tracer = Tracer()
            with tracer.installed(BP):
                traced = wl.run_round(BP, jobs, {}, work)
        self.assertTrue(all(plain.digests().values()))
        self.assertEqual(plain.digests(), traced.digests())
        self.assertTrue(tracer.spans)
        self.assertEqual(tracer.missing, [])
        return tracer

    def test_traced_fingerprints_equal_untraced_dqn(self):
        tracer = self.check_traced_equals_untraced(small_dqn(), [1, 2])
        self.assertTrue(tracer.durations("agents.sgd_step"))

    def test_traced_fingerprints_equal_untraced_oracle(self):
        wl = EpisodeLoop(name="t", why="", engine="brute_force", episodes=1,
                         jobs_per_round=1, catalogue=8)
        tracer = self.check_traced_equals_untraced(wl, [3])
        self.assertTrue(tracer.durations("radio.sinr_db"))

    def test_traced_fingerprints_equal_untraced_voice(self):
        tracer = self.check_traced_equals_untraced(small_voice(), [[1], [2]])
        self.assertGreater(tracer.counters["sim.io.bytes"], 0)

    def test_patches_are_removed(self):
        before = BP.sim.realize_channel
        with Tracer().installed(BP):
            self.assertIsNot(BP.sim.realize_channel, before)
        self.assertIs(BP.sim.realize_channel, before)


class TestFailures(unittest.TestCase):
    def test_exception_is_counted_not_fatal(self):
        wl = small_dqn()
        real = BP.sim.run_episode
        calls = [0]

        def flaky(env, engine, *args, **kwargs):
            calls[0] += 1
            if calls[0] == 50:          # inside the second job
                raise BP.TrainingDiverged("loss is not finite: nan")
            return real(env, engine, *args, **kwargs)

        expected = small_dqn().run_round(BP, [1, 2], {}, None).digests()
        BP.sim.run_episode = flaky
        try:
            res = wl.run_round(BP, [1, 2], expected, None)
        finally:
            BP.sim.run_episode = real
        self.assertEqual(res.attempted, 80)
        self.assertEqual(res.failed, 40)
        self.assertIn("TrainingDiverged", res.jobs[1].error)
        _, note = run.end_to_end([res], [0.1])
        self.assertIn("failed_ratio", note)
        self.assertIn("0.5 ratio (40/80;", note)

    def test_fingerprint_mismatch_is_a_failure(self):
        wl = small_dqn()
        expected = wl.run_round(BP, [1, 2], {}, None).digests()
        expected["dqn:2"] = "0" * 64
        res = wl.run_round(BP, [1, 2], expected, None)
        self.assertEqual((res.attempted, res.failed), (80, 40))
        correct, _ = run.verdicts([res])
        self.assertFalse(correct)

    def test_summary_mismatch_is_a_failure_but_not_incorrect(self):
        row = {"engine": "fpa", "seed": "1", "max_sum_rate": "1.5",
               "wall_time_s": "0.1"}
        same = dict(row, wall_time_s="0.2")
        self.assertIsNone(workloads._summary_mismatch(row, same, {"wall_time_s"}))
        off = dict(row, max_sum_rate="1.6")
        self.assertIn("max_sum_rate",
                      workloads._summary_mismatch(row, off, {"wall_time_s"}))


    def test_only_a_new_summary_mismatch_is_incorrect(self):
        wl = small_voice()
        expected = workloads.load_expected()["voice_sweep"]
        real = workloads._summary_mismatch

        def tampered(row, again, skip):
            if row and (row["engine"], row["seed"]) == ("fpa", "1"):
                return "summary max_sum_rate: tampered"
            return real(row, again, skip)

        known = dict(expected, summary_mismatch=[*expected["summary_mismatch"], "fpa:1"])
        workloads._summary_mismatch = tampered
        try:
            with tempfile.TemporaryDirectory() as tmp:
                new = wl.run_round(BP, [[1, 2]], expected, Path(tmp))
                old = wl.run_round(BP, [[1, 2]], known, Path(tmp))
        finally:
            workloads._summary_mismatch = real
        for res in (new, old):
            self.assertEqual((res.attempted, res.failed), (6, 1))
        self.assertFalse(run.verdicts([new])[0])
        self.assertTrue(run.verdicts([old])[0])


class TestOutput(unittest.TestCase):
    def test_op_latency_drops_a_stall_in_one_round(self):
        rounds = [workloads.RoundResult(wall_s=1.0, op_s=ops, steps=1, episodes=1,
                                        decision_s=0.0, jobs=[], frame_steps=1, runs=1)
                  for ops in ([1.0, 2.0], [1.0, 9.0], [1.2, 2.0])]
        self.assertEqual(run.op_latencies(rounds), [1.0, 2.0])

    def test_benchmark_json_matches_code(self):
        self.assertEqual([w["name"] for w in BENCHMARK["workloads"]], list(WORKLOADS))
        for w in BENCHMARK["workloads"]:
            self.assertEqual(w["why"], WORKLOADS[w["name"]].why)
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in BENCHMARK["end_to_end"]], run.END_TO_END)
        self.assertEqual([(m["name"], m["unit"], m["better"])
                          for m in BENCHMARK["per_layer"]], LAYER_METRICS)

    def check_printed(self, trace: int, declared: list):
        cmd = [sys.executable, str(Path(run.__file__)), "--workload", "voice_sweep",
               "--seed", "3", "--seconds", "1", "--trace", str(trace)]
        proc = subprocess.run(cmd, cwd=workloads.ROOT, capture_output=True,
                              text=True, timeout=300, check=True)
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        self.assertEqual(set(result), {"correct", "attempted", "failed", "metrics"})
        self.assertTrue(result["correct"])
        self.assertEqual({n: m["unit"] for n, m in result["metrics"].items()},
                         {m["name"]: m["unit"] for m in declared})
        printed = [line.split() for line in proc.stdout.splitlines()[:-1]]
        for m in declared:
            self.assertIn([m["name"], m["unit"]], [[w[0], w[-1]] for w in printed if w],
                          m["name"])

    def test_end_to_end_metrics_printed_with_units(self):
        self.check_printed(0, BENCHMARK["end_to_end"])

    def test_per_layer_metrics_printed_with_units(self):
        self.check_printed(1, BENCHMARK["per_layer"])


if __name__ == "__main__":
    unittest.main()
