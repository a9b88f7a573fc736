"""End-to-end checks of the command-line front end."""

import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from beampower import cli, sim
from beampower.sim import TIMING_COLUMNS, read_summary, read_trace


def _write_cfg(tmp_path, text):
    path = tmp_path / "run.cfg"
    path.write_text(text)
    return str(path)


def _tiny_voice_cfg(tmp_path):
    return _write_cfg(tmp_path, "q = 0\nengines = fpa\nseeds = 2\nepisode_cap = 2\n")


def test_run_writes_a_trace_and_a_summary_row(tmp_path):
    out = tmp_path / "out"
    rc = cli.main(["run", "--config", _tiny_voice_cfg(tmp_path),
                   "--out", str(out)])
    assert rc == 0
    assert sorted(p.name for p in out.iterdir()) == ["summary.csv",
                                                     "trace_fpa_M1_s2.csv"]
    # the trace states its run once, in the header
    lines = (out / "trace_fpa_M1_s2.csv").read_text().splitlines()
    assert lines[:2] == [sim.TRACE_VERSION, "# run engine = fpa, m = 1, seed = 2"]
    assert not any(line.startswith("# layout") for line in lines)
    summary = read_summary(out / "summary.csv")
    assert len(summary) == 1
    assert summary[0]["engine"] == "fpa"
    assert summary[0]["m"] == "1"
    assert summary[0]["seed"] == "2"
    assert tuple(summary[0]) == sim.SUMMARY_COLUMNS


def test_run_cli_overrides_replace_config_lists(tmp_path):
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path, "q = 0\nengines = fpa,tabular\nseeds = 1,2,3\n")
    rc = cli.main(["run", "--config", cfg, "--out", str(out),
                   "--engines", "fpa", "--seeds", "5", "--episodes", "2"])
    assert rc == 0
    traces = sorted(p.name for p in out.glob("trace_*.csv"))
    assert traces == ["trace_fpa_M1_s5.csv"]


@pytest.mark.parametrize("option, value, named", [
    ("--episodes", "0", "episode_cap"),
    ("--engines", "", "--engines"), ("--m", "", "--m"), ("--seeds", "", "--seeds"),
    ("--engines", "fpa,,x", "engines"),
    ("--workers", "0", "--workers"), ("--workers", "-4", "--workers"),
])
def test_a_cli_override_of_0_or_empty_is_applied(tmp_path, capsys, option, value,
                                                 named):
    # the config alone runs; an override of 0 or "" is not dropped but
    # applied, and rejected naming the key or the option. A worker count
    # below 1 is bad usage, which argparse rejects itself (exit 2)
    cfg = _write_cfg(tmp_path, "q = 0\nengines = fpa\nepisode_cap = 3\n")
    out = tmp_path / "out"
    try:
        rc = cli.main(["run", "--config", cfg, "--out", str(out), option, value])
    except SystemExit as exc:
        rc = exc.code
    assert rc == (2 if option == "--workers" else 1)
    assert named in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("option, value, item", [
    ("--m", "1,", "''"), ("--m", "4,x", "'x'"), ("--seeds", "1,x", "'x'"),
])
def test_a_malformed_list_item_is_a_config_error_naming_the_option(
        tmp_path, capsys, option, value, item):
    # a list option parses as the same list in a config file does
    cfg = _write_cfg(tmp_path, "q = 0\nengines = fpa\nepisode_cap = 1\n")
    out = tmp_path / "out"
    rc = cli.main(["run", "--config", cfg, "--out", str(out), option, value])
    assert rc == 1
    err = capsys.readouterr().err
    assert option in err and item in err
    assert not out.exists()


def test_a_list_option_strips_spaces_as_a_config_file_does(tmp_path):
    out = tmp_path / "out"
    rc = cli.main(["run", "--config", _tiny_voice_cfg(tmp_path), "--out", str(out),
                   "--engines", "fpa, tabular", "--seeds", " 2 ", "--episodes", "1"])
    assert rc == 0
    traces = sorted(p.name for p in out.glob("trace_*.csv"))
    assert traces == ["trace_fpa_M1_s2.csv", "trace_tabular_M1_s2.csv"]


def test_unknown_config_key_is_a_config_error(tmp_path):
    cfg = _write_cfg(tmp_path, "q = 0\nbeam_budget = 7\n")
    rc = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 1


def test_codebook_size_outside_whitelist_is_rejected(tmp_path):
    cfg = _write_cfg(tmp_path, "q = 1\nm_list = 5\n")
    rc = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 1


def test_unknown_engine_is_a_config_error(tmp_path):
    cfg = _write_cfg(tmp_path, "q = 0\nengines = genie\nepisode_cap = 1\n")
    rc = cli.main(["run", "--config", cfg, "--out", str(tmp_path / "out")])
    assert rc == 1


def test_same_seed_runs_are_byte_identical(tmp_path):
    cfg = _tiny_voice_cfg(tmp_path)
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    assert cli.main(["run", "--config", cfg, "--out", str(out_a)]) == 0
    assert cli.main(["run", "--config", cfg, "--out", str(out_b)]) == 0
    name = "trace_fpa_M1_s2.csv"
    assert (out_a / name).read_bytes() == (out_b / name).read_bytes()
    # summaries match once the wall-clock columns are dropped
    rows_a, rows_b = (read_summary(d / "summary.csv") for d in (out_a, out_b))
    for a, b in zip(rows_a, rows_b):
        for col in a:
            if col not in TIMING_COLUMNS:
                assert a[col] == b[col]


def test_report_confirms_summary_and_flags_tampering(tmp_path):
    out = tmp_path / "out"
    cfg = _tiny_voice_cfg(tmp_path)
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    # a curve that ccdf writes beside the trace is not read as a trace
    assert cli.main(["ccdf", "--trace", str(out / "trace_fpa_M1_s2.csv")]) == 0
    assert (out / "trace_fpa_M1_s2.ccdf.csv").exists()
    assert cli.main(["report", "--dir", str(out)]) == 0
    assert (out / "summary_recomputed.csv").exists()

    summary = out / "summary.csv"
    doctored = summary.read_text().splitlines()
    header = doctored[0].split(",")
    row = doctored[1].split(",")
    row[header.index("max_sum_rate")] = "99.9"
    summary.write_text("\n".join([doctored[0], ",".join(row)]) + "\n")
    assert cli.main(["report", "--dir", str(out)]) == 3


def test_report_fails_on_a_trace_without_a_summary_row(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["run", "--config", _tiny_voice_cfg(tmp_path), "--out", str(out)]) == 0
    summary = out / "summary.csv"
    summary.write_text(summary.read_text().splitlines()[0] + "\n")
    assert cli.main(["report", "--dir", str(out)]) == 3
    assert "('fpa', '1', '2') row" in capsys.readouterr().err


def test_report_rejects_a_v1_trace(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["run", "--config", _tiny_voice_cfg(tmp_path), "--out", str(out)]) == 0
    trace = out / "trace_fpa_M1_s2.csv"
    text = trace.read_text()
    # v2 too: it repeated the run on every row and echoed the cell layout
    for old in ("v1", "v2"):
        trace.write_text(text.replace(sim.TRACE_VERSION, f"# beampower trace {old}"))
        assert cli.main(["report", "--dir", str(out)]) == 2
        assert f"'# beampower trace {old}'" in capsys.readouterr().err


@pytest.mark.parametrize("tamper", ["repeat", "skip"])
def test_report_and_ccdf_reject_steps_out_of_order(tmp_path, capsys, tamper):
    out = tmp_path / "out"
    assert cli.main(["run", "--config", _tiny_voice_cfg(tmp_path), "--out", str(out)]) == 0
    trace = out / "trace_fpa_M1_s2.csv"
    lines = trace.read_text().splitlines()
    last = lines[-1].split(",")
    if tamper == "repeat":
        lines.append(lines[-1])
    else:
        lines[-1] = ",".join([str(int(last[0]) + 1)] + last[1:])
    trace.write_text("\n".join(lines) + "\n")
    capsys.readouterr()
    assert cli.main(["report", "--dir", str(out)]) == 2
    err = capsys.readouterr().err
    assert "trace_fpa_M1_s2.csv" in err and f"episode {last[1]} " in err
    assert cli.main(["ccdf", "--trace", str(trace)]) == 2
    err = capsys.readouterr().err
    assert "trace_fpa_M1_s2.csv" in err and f"episode {last[1]} " in err


def _tamper(rows, how):
    """Edit the trace rows (lists of fields) as ``how`` says; return the
    index of the row the reader should name."""
    if how == "torn":
        del rows[-1][-3:]
        return len(rows) - 1
    rows[0][sim.TRACE_COLUMNS.index("reward")] = "abc"
    return 0


_BAD_ROWS = {
    "torn": "expected 13 fields, found 10",
    "non_numeric": "expected a number in every step column, "
                   "could not convert string to float: 'abc'",
}


@pytest.mark.parametrize("how", list(_BAD_ROWS))
def test_report_and_ccdf_name_the_line_of_a_bad_row(tmp_path, capsys, how):
    out = tmp_path / "out"
    assert cli.main(["run", "--config", _tiny_voice_cfg(tmp_path), "--out", str(out)]) == 0
    trace = out / "trace_fpa_M1_s2.csv"
    lines = trace.read_text().splitlines()
    first = lines.index(",".join(sim.TRACE_COLUMNS)) + 1
    rows = [line.split(",") for line in lines[first:]]
    bad = first + _tamper(rows, how)
    trace.write_text("\n".join(lines[:first] + [",".join(r) for r in rows]) + "\n")
    # line numbers count from 1, so the first row is line first + 1
    message = f"trace_fpa_M1_s2.csv line {bad + 1}: {_BAD_ROWS[how]}"
    capsys.readouterr()
    assert cli.main(["report", "--dir", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert cli.main(["ccdf", "--trace", str(trace)]) == 2
    assert message in capsys.readouterr().err


_EXPECTED_RUN_LINE = "expected the run line '# run engine = E, m = M, seed = S'"
# how the header's run line is replaced (None: deleted) -> what the reader says
_BAD_RUN_LINES = {
    "no_run_line": (None, f"{_EXPECTED_RUN_LINE}, found '# config_hash = "),
    "malformed_run_line": ("# run engine = fpa, m = 1",
                           f"{_EXPECTED_RUN_LINE}, found '# run engine = fpa, m = 1'"),
    "unknown_engine": ("# run engine = genie, m = 1, seed = 2",
                       "unknown engine 'genie', expected one of "
                       "('fpa', 'tabular', 'dqn', 'brute_force')"),
    "m_outside_m_list": ("# run engine = fpa, m = 4, seed = 2",
                         "expected M in (1,), as the header's config has, found M = 4"),
}


@pytest.mark.parametrize("how", list(_BAD_RUN_LINES))
def test_report_and_ccdf_name_the_line_of_a_bad_run_line(tmp_path, capsys, how):
    out = tmp_path / "out"
    assert cli.main(["run", "--config", _tiny_voice_cfg(tmp_path), "--out", str(out)]) == 0
    trace = out / "trace_fpa_M1_s2.csv"
    lines = trace.read_text().splitlines()
    line, said = _BAD_RUN_LINES[how]
    lines[1:2] = [] if line is None else [line]
    trace.write_text("\n".join(lines) + "\n")
    message = f"trace_fpa_M1_s2.csv line 2: {said}"
    capsys.readouterr()
    assert cli.main(["report", "--dir", str(out)]) == 2
    assert message in capsys.readouterr().err
    assert cli.main(["ccdf", "--trace", str(trace)]) == 2
    assert message in capsys.readouterr().err


def test_a_trace_of_only_a_header_has_no_run(tmp_path, capsys):
    out = tmp_path / "out"
    assert cli.main(["run", "--config", _tiny_voice_cfg(tmp_path), "--out", str(out)]) == 0
    lines = (out / "trace_fpa_M1_s2.csv").read_text().splitlines()
    header = "\n".join(lines[:lines.index(",".join(sim.TRACE_COLUMNS)) + 1]) + "\n"
    empty = out / "trace_fpa_M1_s5.csv"
    empty.write_text(header)
    # report skips it beside a trace with rows, and finds nothing when alone
    assert cli.main(["report", "--dir", str(out)]) == 0
    assert [r["seed"] for r in read_summary(out / "summary_recomputed.csv")] == ["2"]
    alone = tmp_path / "alone"
    alone.mkdir()
    (alone / empty.name).write_text(header)
    capsys.readouterr()
    assert cli.main(["report", "--dir", str(alone)]) == 2
    assert f"no traces found in {alone}" in capsys.readouterr().err
    assert cli.main(["ccdf", "--trace", str(empty)]) == 2
    assert "trace contains no steps" in capsys.readouterr().err


def test_report_reproduces_every_run_of_a_seed_sweep(tmp_path):
    # many seeds, not hand-picked ones: a float that does not survive the
    # trace shows up in the summary of only some runs
    failing = []
    for q in (0, 1):
        cfg = _write_cfg(tmp_path, f"q = {q}\nengines = fpa,tabular,dqn\nepisode_cap = 40\n")
        for seed in range(1, 31):
            out = tmp_path / f"q{q}_s{seed}"
            assert cli.main(["run", "--config", cfg, "--out", str(out),
                             "--seeds", str(seed)]) == 0
            if q == 1 and seed <= 2:
                # the exhaustive baseline too, kept short: 256 candidates a step
                assert cli.main(["run", "--config", cfg, "--out", str(out),
                                 "--seeds", str(seed), "--engines", "brute_force",
                                 "--m", "4", "--episodes", "2"]) == 0
            if cli.main(["report", "--dir", str(out)]) != 0:
                failing.append((q, seed))
    assert failing == []


def test_report_on_empty_directory_fails(tmp_path):
    assert cli.main(["report", "--dir", str(tmp_path)]) == 2


def test_ccdf_subcommand_emits_curve(tmp_path):
    out = tmp_path / "out"
    cfg = _tiny_voice_cfg(tmp_path)
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    trace = out / "trace_fpa_M1_s2.csv"
    curve = tmp_path / "curve.csv"
    assert cli.main(["ccdf", "--trace", str(trace), "--out", str(curve)]) == 0
    lines = curve.read_text().splitlines()
    config, _ = read_trace(trace)
    assert lines[0] == f"# config_hash = {config.config_hash()}"
    assert lines[1] == "threshold_db,prob"
    probs = [float(l.split(",")[1]) for l in lines[2:]]
    assert all(a >= b for a, b in zip(probs, probs[1:]))


def test_ccdf_all_steps_pools_every_step_aborted_episodes_included(tmp_path,
                                                                   monkeypatch):
    out = tmp_path / "out"
    # seed 4's first two episodes abort after one step each
    cfg = _write_cfg(tmp_path, "q = 0\nengines = fpa\nseeds = 4\nepisode_cap = 3\n")
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    trace = out / "trace_fpa_M1_s4.csv"
    config, run = read_trace(trace)
    assert [e.aborted for e in run.episodes] == [True, True, False]
    pooled, real = [], sim.ccdf
    monkeypatch.setattr(sim, "ccdf", lambda samples: pooled.append(samples) or real(samples))
    curve = tmp_path / "curve.csv"
    assert cli.main(["ccdf", "--trace", str(trace), "--all-steps",
                     "--out", str(curve)]) == 0
    # both UEs' effective SINRs of every row, in the trace's order
    lines = trace.read_text().splitlines()
    columns = lines.index(",".join(sim.TRACE_COLUMNS))
    at = [sim.TRACE_COLUMNS.index(c) for c in ("eff_sinr_ell_db", "eff_sinr_b_db")]
    rows = [line.split(",") for line in lines[columns + 1:]]
    [samples] = pooled
    assert len(samples) == 2 * run.steps_total == 2 * len(rows)
    assert samples == [float(row[i]) for row in rows for i in at]
    lines = curve.read_text().splitlines()
    assert lines[:2] == [f"# config_hash = {config.config_hash()}", "threshold_db,prob"]
    assert lines[2:] == [f"{sim.fmt(t)},{sim.fmt(p)}" for t, p in real(samples)]


def test_oracle_subcommand_forces_brute_force_engine(tmp_path):
    out = tmp_path / "out"
    cfg = _write_cfg(tmp_path, "q = 1\nengines = fpa\nm_list = 4\n"
                               "seeds = 1\nepisode_cap = 1\n")
    rc = cli.main(["oracle", "--config", cfg, "--out", str(out)])
    assert rc == 0
    traces = sorted(p.name for p in out.glob("trace_*.csv"))
    assert traces == ["trace_brute_force_M4_s1.csv"]


@pytest.mark.parametrize("workers", [1, 2])
def test_first_failing_job_stops_the_run_in_job_order(tmp_path, monkeypatch, capsys,
                                                       workers):
    # job order is tabular s1..s3, then fpa s1..s3; fpa s2 fails
    real = sim.run_experiment

    def failing(config, m, seed, engine_name, *args, **kwargs):
        if (engine_name, seed) == ("fpa", 2):
            raise RuntimeError("injected failure")
        return real(config, m, seed, engine_name, *args, **kwargs)

    monkeypatch.setattr(sim, "run_experiment", failing)
    cfg = _write_cfg(tmp_path, "q = 0\nengines = tabular, fpa\nseeds = 1,2,3\n"
                               "episode_cap = 1\n")
    out = tmp_path / "out"
    rc = cli.main(["run", "--config", cfg, "--out", str(out),
                   "--workers", str(workers)])
    assert rc == 2
    assert "engine=fpa M=1 seed=2: injected failure" in capsys.readouterr().err
    written = ["trace_fpa_M1_s1.csv", "trace_tabular_M1_s1.csv",
               "trace_tabular_M1_s2.csv", "trace_tabular_M1_s3.csv"]
    assert sorted(p.name for p in out.glob("trace_*.csv")) == written
    rows = read_summary(out / "summary.csv")
    assert [(r["engine"], r["seed"]) for r in rows] == [
        ("fpa", "1"), ("tabular", "1"), ("tabular", "2"), ("tabular", "3")]


def test_a_diverged_run_names_its_episode(tmp_path):
    # a huge learning rate makes the q=1 learner's loss overflow early on.
    # A fresh interpreter, because pytest captures the numpy warnings that
    # would otherwise reach stderr ahead of the error line.
    cfg = _write_cfg(tmp_path, "q = 1\nengines = dqn\nm_list = 4\nseeds = 1\n"
                               "episode_cap = 200\nlearning_rate = 1000\n")
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ,
           "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    errors = []
    for workers in (1, 2):
        proc = subprocess.run(
            [sys.executable, "-m", "beampower.cli", "run", "--config", cfg,
             "--out", str(tmp_path / f"w{workers}"), "--workers", str(workers)],
            env=env, capture_output=True, text=True, timeout=120)
        assert proc.returncode == 2
        errors.append(proc.stderr)
    assert errors[0] == errors[1]
    assert re.fullmatch(r"run failed for engine=dqn M=4 seed=1: episode \d+: "
                        r"training loss is not finite: \S+\n", errors[0])


def test_parallel_run_writes_the_serial_bytes(tmp_path):
    cfg = _write_cfg(tmp_path, "q = 0\nengines = fpa, tabular\nseeds = 1,2\n"
                               "episode_cap = 2\n")
    outs = [tmp_path / f"w{w}" for w in (1, 2)]
    for workers, out in zip((1, 2), outs):
        assert cli.main(["run", "--config", cfg, "--out", str(out),
                         "--workers", str(workers)]) == 0
    names = sorted(p.name for p in outs[0].iterdir() if p.name != "summary.csv")
    assert names == sorted(p.name for p in outs[1].iterdir() if p.name != "summary.csv")
    for name in names:
        assert (outs[0] / name).read_bytes() == (outs[1] / name).read_bytes()


def test_summary_merges_across_invocations(tmp_path):
    out = tmp_path / "out"
    cfg = _tiny_voice_cfg(tmp_path)
    assert cli.main(["run", "--config", cfg, "--out", str(out)]) == 0
    assert cli.main(["run", "--config", cfg, "--out", str(out),
                     "--seeds", "7"]) == 0
    rows = read_summary(out / "summary.csv")
    assert [r["seed"] for r in rows] == ["2", "7"]


def _file_bytes(directory: Path) -> dict:
    return {p.name: p.read_bytes() for p in directory.iterdir()}


def test_verify_passes_on_shipped_golden_files(capsys):
    golden = cli._golden_dir()
    shipped = _file_bytes(golden)
    traces = sorted(name for name in shipped if name.startswith("trace_"))
    assert {"trace_dqn_M4_s6.csv", "trace_tabular_M1_s7.csv"} < set(traces)
    rc = cli.main(["verify"])
    lines = capsys.readouterr().out.splitlines()
    assert rc == 0
    assert lines == [f"PASS  {name}" for name in traces]
    assert _file_bytes(golden) == shipped


def _tamper_golden(golden: Path, how: str) -> str:
    """Tamper with a copy of the golden files; return the FAIL line's text."""
    if how == "step_float":
        trace = golden / "trace_dqn_M4_s6.csv"
        lines = trace.read_text().splitlines(keepends=True)
        n = lines.index(",".join(sim.TRACE_COLUMNS) + "\n") + 10
        row = lines[n].split(",")
        col = sim.TRACE_COLUMNS.index("sinr_ell_db")
        row[col] = repr(float(row[col]) + 0.5)
        lines[n] = ",".join(row)
        trace.write_text("".join(lines))
        # line numbers count from 1
        return f"trace_dqn_M4_s6.csv: trace_dqn_M4_s6.csv differs from line {n + 1}"
    if how == "stray_ccdf":
        (golden / "ccdf_dqn_M4_s9.csv").write_text("# config_hash = 0\neff_sinr_db\n")
        return "ccdf_dqn_M4_s9.csv: no golden run writes it"
    if how == "missing_summary":
        (golden / "summary.csv").unlink()
        return "trace_tabular_M1_s7.csv: summary.csv has no golden copy"
    if how == "stray_summary_row":
        summary = golden / "summary.csv"
        lines = summary.read_text().splitlines()
        row = lines[1].split(",")
        row[1:3] = ["8", "9"]               # M and seed of no golden run
        summary.write_text("\n".join(lines + [",".join(row)]) + "\n")
        return f"summary.csv row ('{row[0]}', '8', '9'): no golden run writes it"
    for trace in golden.glob("trace_*.csv"):
        trace.unlink()
    return f"{golden}: no golden trace"


@pytest.mark.parametrize("how", ["step_float", "stray_ccdf", "missing_summary",
                                 "stray_summary_row", "no_trace"])
def test_verify_fails_naming_the_tampered_golden_file(tmp_path, monkeypatch, capsys,
                                                      how):
    golden = tmp_path / "golden"
    shutil.copytree(cli._golden_dir(), golden)
    monkeypatch.setattr(cli, "_golden_dir", lambda: golden)
    named = _tamper_golden(golden, how)
    assert cli.main(["verify"]) == 3
    assert f"FAIL  {named}" in capsys.readouterr().out.splitlines()


def test_parser_follows_the_environment_between_calls(tmp_path, monkeypatch):
    cfg = _tiny_voice_cfg(tmp_path)
    for name in ("a", "b"):
        monkeypatch.setenv(cli.OUT_ENV_VAR, str(tmp_path / name))
        assert cli.main(["run", "--config", cfg]) == 0
        assert (tmp_path / name / "trace_fpa_M1_s2.csv").exists()


def test_main_runs_the_current_command_functions(tmp_path, monkeypatch):
    # the parser is cached, so dispatch must not freeze the first functions
    out = str(tmp_path / "out")
    assert cli.main(["run", "--config", _tiny_voice_cfg(tmp_path), "--out", out]) == 0
    calls = []
    monkeypatch.setattr(cli, "cmd_report", lambda args: calls.append(args.dir) or 0)
    monkeypatch.setattr(cli, "cmd_run", lambda args, **kw: calls.append(kw) or 0)
    assert cli.main(["report", "--dir", out]) == 0
    assert cli.main(["oracle", "--out", out]) == 0
    assert calls == [out, {"force_engines": ("brute_force",)}]


def test_default_out_honours_environment(monkeypatch):
    monkeypatch.setenv(cli.OUT_ENV_VAR, "/tmp/elsewhere")
    assert cli._default_out() == "/tmp/elsewhere"
    monkeypatch.delenv(cli.OUT_ENV_VAR)
    assert cli._default_out() == "results"
