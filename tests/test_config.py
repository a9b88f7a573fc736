"""Every config key changes something, and removed keys stay removed."""

import ast
import dataclasses
import math
import re
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from beampower import cli
from beampower.config import _FIELD_TYPES, _RANGES, ConfigError, NetworkConfig
from beampower.sim import TwoCellEnv, make_engine, run_experiment, trace_rows

SRC = Path(cli.__file__).resolve().parent
CONFIG_NAMES = ("config", "cfg")      # how src/ names a NetworkConfig


def _config_reads(tree) -> set:
    """Attribute names read off a ``config``/``cfg`` name or ``.config``."""
    reads = set()
    for node in ast.walk(tree):
        if not isinstance(node, ast.Attribute):
            continue
        base = node.value
        name = base.id if isinstance(base, ast.Name) else getattr(base, "attr", None)
        if name in CONFIG_NAMES:
            reads.add(node.attr)
    return reads


def _derived_fields() -> dict:
    """Public NetworkConfig members -> the fields they read through self."""
    tree = ast.parse((SRC / "config.py").read_text())
    cls = next(n for n in tree.body
               if isinstance(n, ast.ClassDef) and n.name == "NetworkConfig")
    return {fn.name: {n.attr for n in ast.walk(fn)
                      if isinstance(n, ast.Attribute)
                      and isinstance(n.value, ast.Name) and n.value.id == "self"}
            for fn in cls.body
            if isinstance(fn, ast.FunctionDef) and not fn.name.startswith("_")}


def test_every_config_field_is_read_outside_config():
    reads = set()
    for path in SRC.glob("*.py"):
        if path.name != "config.py":
            reads |= _config_reads(ast.parse(path.read_text()))
    for member, fields in _derived_fields().items():
        if member in reads:
            reads |= fields
    unread = [f.name for f in dataclasses.fields(NetworkConfig) if f.name not in reads]
    assert unread == []


def test_a_float_field_given_an_int_serialises_as_its_text():
    made = NetworkConfig(q=1, max_power_dbm=46, oracle_power_grid=(40, 42, 44, 46),
                         engines=("brute_force",), episode_cap=1)
    read = NetworkConfig.from_text("q = 1\nmax_power_dbm = 46\n"
                                   "oracle_power_grid = 40,42,44,46\n"
                                   "engines = brute_force\nepisode_cap = 1\n")
    assert made == read
    assert made.to_text() == read.to_text()
    assert made.config_hash() == read.config_hash()
    assert type(made.max_power_dbm) is float
    assert {type(p) for p in made.oracle_power_grid} == {float}
    rows = [trace_rows(run_experiment(cfg, 4, 1, "brute_force"), cfg)
            for cfg in (made, read)]
    assert rows[0] == rows[1]


@pytest.mark.parametrize("line", ["l_bs = 3", "net_depth = 2", "n_ue_max = 10",
                                  "n_ues_per_bs = 1", "amr_rate_kbps = 23.85",
                                  # fixed sizes, and the width the minibatch
                                  # fixes: rejected even at their one legal
                                  # value
                                  "n_states = 8", "n_actions = 16",
                                  "net_width = 24"])
def test_removed_key_in_a_config_is_a_config_error(tmp_path, capsys, line):
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"q = 0\nengines = fpa\nepisode_cap = 1\n{line}\n")
    rc = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert repr(line.split(" = ")[0]) in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


@pytest.mark.parametrize("key, value", [
    # a frame without steps would write empty traces that report cannot read
    ("frame_steps", 0), ("frame_steps", -1),
    # unchecked, each of these fails a run part way (exit 2) or is accepted
    ("step_ms", 0), ("replay_capacity", 0), ("bandwidth_hz", 0),
    ("n_paths_nlos", 0), ("p_los", 1.5), ("p_los", -0.5),
    # accepted, each running a setting with no physical or learning meaning
    ("tabular_alpha", 2.0), ("tabular_alpha", 0.0), ("ue_speed_kmh", -5),
    ("initial_power_dbm", 60), ("d_over_lambda", 0), ("payload_bits", -1),
    ("ue_height_m", 0), ("ue_height_m", -1), ("learning_rate", -0.003),
    # accepted, each running nothing: no job, or a dqn that never trains
    # because its buffer cannot hold a minibatch (32)
    ("engines", ""), ("m_list", ""), ("replay_capacity", 8),
    # an unknown engine
    ("engines", "genie"),
])
def test_out_of_range_value_is_a_config_error(tmp_path, capsys, key, value):
    # the voice bearer already rejects an m_list other than (1,), so an empty
    # one is tried on the data bearer
    q = 1 if key == "m_list" else 0
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"q = {q}\nengines = fpa,tabular,dqn\nepisode_cap = 1\n{key} = {value}\n")
    rc = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 1
    assert key in capsys.readouterr().err
    assert not (tmp_path / "out").exists()


def _not_finite(key, value):
    return key, (value,) if isinstance(_FIELD_TYPES[key], tuple) else value


@pytest.mark.parametrize("key, value", [
    # a NaN or an infinity in any float key: cell_radius_m = nan hung the drop
    # loop, max_power_dbm = inf failed the tabular job part way
    *(_not_finite(key, value) for key, kind in _FIELD_TYPES.items()
      if kind in (float, (float,)) for value in (math.nan, math.inf, -math.inf)),
    # math domain errors part way through a run
    ("carrier_mhz", 0.0), ("carrier_mhz", -2100.0), ("bs_height_m", 0.0),
    # a seed numpy rejects part way through a run
    ("seeds", (1, -1)),
    # accepted, with a negative backhaul count or a floor above the ceiling
    ("meas_per_step", -1), ("power_floor_dbm", 50.0),
    # (16 + 2) * 16 is not a square, so no hidden width fits the rule
    ("minibatch", 16),
    # an int key given a bool or a value that is not an integer: a float
    # frame_steps or episode_cap failed the run with a TypeError, and a float
    # n_paths_nlos or tabular_bins wrote a trace header that does not load
    ("frame_steps", 2.5), ("episode_cap", 1.5), ("n_paths_nlos", 2.5),
    ("tabular_bins", 2.5), ("frame_steps", 2.0), ("q", True), ("m_list", (True,)),
    ("seeds", (1.5,)),
    # a float key given a bool wrote a header line ("= true") that does not load
    ("max_power_dbm", True), ("r_max", False), ("oracle_power_grid", (True, 46.0)),
])
def test_invalid_setting_is_a_config_error_naming_the_key(key, value):
    # built in code only, so a gap fails here rather than hanging a run
    with pytest.raises(ConfigError, match=key):
        NetworkConfig(**{"q": 0, key: value})


def test_the_minibatch_fixes_the_hidden_width():
    cfg = NetworkConfig(q=0, minibatch=8)
    assert cfg.net_width == 12
    net = make_engine("dqn", cfg, TwoCellEnv(cfg, 1, 1), 1).net
    assert net.w1.shape == (12, 8) and net.w2.shape == (12, 12)


def test_removed_key_in_a_trace_header_is_a_config_error(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("q = 0\nengines = fpa\nseeds = 2\nepisode_cap = 1\n")
    out = tmp_path / "out"
    assert cli.main(["run", "--config", str(cfg), "--out", str(out)]) == 0
    trace = out / "trace_fpa_M1_s2.csv"
    lines = trace.read_text().splitlines()
    at = lines.index("# cfg minibatch = 32")
    for key in ("net_depth = 2", "n_states = 8", "net_width = 24"):
        trace.write_text("\n".join(lines[:at] + [f"# cfg {key}"] + lines[at:]) + "\n")
        name = repr(key.split(" = ")[0])
        capsys.readouterr()
        assert cli.main(["report", "--dir", str(out)]) == 1
        assert name in capsys.readouterr().err
        assert cli.main(["ccdf", "--trace", str(trace)]) == 1
        assert name in capsys.readouterr().err


def _range_ends(key: str, q: int) -> list:
    """``(value, inside)`` pairs just inside and just outside each finite end
    of ``key``'s declared range, on bearer ``q``: a float end moves by
    ``math.nextafter``, an int end by 1, and a set of allowed values has each
    member inside and one non-member outside.  A list key takes the value in
    place of its default's first entry (last, at the top end), and an empty
    list lies outside."""
    bound, kind = _RANGES[key], _FIELD_TYPES[key]
    listed = isinstance(kind, tuple)
    default = getattr(NetworkConfig(q=q), key)

    def put(value, at=0):
        if not listed:
            return value
        entries = list(default)
        entries[at] = value
        return tuple(entries)

    if isinstance(bound, tuple):
        outsider = bound[-1] * 2            # 2, 128, or an engine name twice
        assert outsider not in bound
        cases = [(put(v), True) for v in bound] + [(put(outsider), False)]
    else:
        if (kind[0] if listed else kind) is int:
            def step(x, way):
                return x + way
        else:
            def step(x, way):
                return math.nextafter(x, way * math.inf)
        cases = []
        for end, at, inward, is_open in ((bound.low, 0, 1, bound.ends[0] == "("),
                                         (bound.high, -1, -1, bound.ends[1] == ")")):
            if math.isfinite(end):
                inner, outer = (step(end, inward), end) if is_open else (end, step(end, -inward))
                cases += [(put(inner, at), True), (put(outer, at), False)]
    return cases + [((), False)] if listed else cases


def _names(key: str, message: str) -> bool:
    return re.search(rf"\b{key}\b", message) is not None


def _check_round_trip_and_walk(cfg: NetworkConfig) -> None:
    """``cfg`` reads back from its text with its hash, and its walk keeps
    both UEs inside their cells."""
    assert cfg.net_width ** 2 == 18 * cfg.minibatch
    back = NetworkConfig.from_text(cfg.to_text())
    assert back == cfg
    assert back.config_hash() == cfg.config_hash()
    env = TwoCellEnv(cfg, cfg.m_list[0], cfg.seeds[0])
    r = env.layout.cell_radius_m
    for episode in range(3):
        env.begin_episode(episode)
        for k in range(env.t_steps + 1):
            for site, (x, y) in zip(env.layout.sites, env.positions(k)):
                assert math.hypot(x - site.x, y - site.y) <= r + 1e-9


@pytest.mark.parametrize("q, key, value, inside", [
    (q, key, value, inside) for key in _RANGES for q in (0, 1)
    for value, inside in _range_ends(key, q)])
def test_each_end_of_a_declared_range_is_checked_naming_its_key(q, key, value, inside):
    kw = {"q": q, key: value}
    if not inside:
        with pytest.raises(ConfigError) as exc:
            NetworkConfig(**kw)
        assert _names(key, str(exc.value)), str(exc.value)
        return
    try:
        cfg = NetworkConfig(**kw)
    except ConfigError as exc:
        # only a rule that ties the key to another may reject it, naming it
        assert _names(key, str(exc)), str(exc)
        assert not re.match(rf"{key} must be (in|one of) ", str(exc)), str(exc)
        return
    _check_round_trip_and_walk(cfg)


@st.composite
def _config_kwargs(draw) -> tuple:
    """NetworkConfig keyword arguments over the bearer, the run matrix, the
    walk and the power levels, many of them out of range, with up to three
    more keys each at one end of its declared range, at most one of them
    just outside; and the keys drawn outside their declared range."""
    def either(edges, low, high):
        return st.one_of(st.sampled_from(edges), st.floats(low, high))

    q = draw(st.sampled_from((0, 1)))
    powers = st.one_of(st.none(), either((0.0, 46.0, 50.0), -20.0, 60.0))
    kw = {
        "q": q,
        # hypothesis leans to a list's first entry: make it a valid M, and
        # let a few voice draws take M = 4, which q=0 rejects
        "m_list": (draw(st.sampled_from((8, 4, 16, 64, 32, 1) if q else (1, 1, 1, 4))),),
        "seeds": tuple(draw(st.lists(st.integers(0, 2**32), min_size=1, max_size=3))),
        "episode_cap": draw(st.integers(1, 5)),
        "frame_steps": draw(st.integers(1, 3)),
        "p_los": draw(either((0.0, 1.0), 0.0, 1.0)),
        "ue_speed_kmh": draw(either((2000.0, 1000.0, 2.0, 0.0), 0.0, 2000.0)),
        "step_ms": draw(either((1000.0, 1.0, 0.5), 0.5, 1000.0)),
        "power_floor_dbm": draw(powers),
        "initial_power_dbm": draw(powers),
        # the width rule accepts a minibatch whose (16 + 2) * minibatch is a
        # square: all of these but 16
        "minibatch": draw(st.sampled_from((2, 8, 16, 18, 32, 50))),
    }
    # one key outside at most, so most draws still test an accepted config
    keys = draw(st.lists(st.sampled_from(sorted(_RANGES)), max_size=3, unique=True))
    out_at = draw(st.one_of(st.none(), st.integers(0, 2))) if keys else None
    outside = set()
    for i, key in enumerate(keys):
        # oracle_power_grid's range has no finite end: its only case is ()
        ends = _range_ends(key, q)
        kw[key], inside = draw(st.sampled_from(
            [end for end in ends if end[1] == (i != out_at)] or ends))
        if not inside:
            outside.add(key)
    return kw, outside


@settings(max_examples=200, derandomize=True, deadline=None, database=None)
@given(_config_kwargs())
def test_every_accepted_config_round_trips_and_walks_inside_its_cells(drawn):
    kw, outside = drawn
    try:
        cfg = NetworkConfig(**kw)
    except ConfigError as exc:
        # a rejection names a key drawn outside its range if there is one,
        # else one of the keys drawn
        assert any(_names(key, str(exc)) for key in outside or kw), str(exc)
        return
    assert not outside
    _check_round_trip_and_walk(cfg)
