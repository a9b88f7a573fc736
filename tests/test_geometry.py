"""Cell layout, uniform drops, association, and the bounded random walk.

Drops and the walk happen in ``TwoCellEnv``, so their properties are checked
through its ``positions`` accessor, whose position 0 is the episode's drop.
With ``ue_speed_kmh = 0`` the UEs never move; the drop does not depend on the
speed, because the walk directions are drawn after it from the same
substream.
"""

import math

import numpy as np
import pytest

from beampower import cli, sim
from beampower.config import ConfigError, NetworkConfig
from beampower.geometry import (
    associate,
    build_layout,
    mobility_step_m,
    reflect_into_cell,
    uniform_disk_point,
)
from beampower.sim import TwoCellEnv


def test_two_site_line_spacing():
    # neighbor spacing is 1.5x the cell radius for both bearers
    voice = build_layout(NetworkConfig(q=0))
    assert voice.sites[0].x == 0.0 and voice.sites[0].y == 0.0
    assert voice.sites[1].x == pytest.approx(525.0)
    data = build_layout(NetworkConfig(q=1, m_list=(4,)))
    assert data.sites[1].x == pytest.approx(225.0)
    assert len(data.sites) == 2


def test_degenerate_radius_rejected():
    with pytest.raises(ConfigError):
        NetworkConfig(q=0, cell_radius_m=0.0)


def test_disk_drop_radial_cdf():
    # uniform area density: P(distance <= d) = (d/r)^2; check sup-norm < 1%
    rng = np.random.default_rng(11)
    r = 350.0
    n = 100_000
    d = np.empty(n)
    for i in range(n):
        x, y = uniform_disk_point(rng, 0.0, 0.0, r)
        d[i] = math.hypot(x, y)
    d.sort()
    emp = np.arange(1, n + 1) / n
    ana = (d / r) ** 2
    assert np.max(np.abs(emp - ana)) < 0.01


def _drops(env: TwoCellEnv) -> tuple:
    """((x_l, y_l), (x_b, y_b)) of the current episode's drop."""
    return tuple(env.positions(0))


def test_drop_determinism_and_membership():
    for q, m in ((0, 1), (1, 4)):
        _check_drops(NetworkConfig(q=q, m_list=(m,), ue_speed_kmh=0.0), m)


def _check_drops(cfg: NetworkConfig, m: int) -> None:
    env = TwoCellEnv(cfg, m, 3)
    layout = env.layout
    drops = []
    for _ in range(300):
        env.begin_episode()
        drops.append(_drops(env))
    # each UE starts inside its own cell and associates to it
    for d in drops:
        for u, (x, y) in enumerate(d):
            site = layout.site(u)
            assert math.hypot(x - site.x, y - site.y) <= layout.cell_radius_m + 1e-9
            assert associate(x, y, layout) == u
    # a drop depends on (seed, episode) alone: a fresh env jumping straight
    # to an episode, in any order, drops the same points
    again = TwoCellEnv(cfg, m, 3)
    for episode in (250, 7, 0, 299):
        again.begin_episode(episode)
        assert _drops(again) == drops[episode]
    assert len(set(drops)) == len(drops)    # every episode re-drops
    other = TwoCellEnv(cfg, m, 4)
    other.begin_episode(0)
    assert _drops(other) != drops[0]


def test_associate_matches_argmin_scan():
    layout = build_layout(NetworkConfig(q=1, m_list=(4,)))
    rng = np.random.default_rng(5)
    for _ in range(200):
        x = rng.uniform(-300, 500)
        y = rng.uniform(-300, 300)
        dists = [math.hypot(x - s.x, y - s.y) for s in layout.sites]
        assert associate(x, y, layout) == int(np.argmin(dists))


def test_associate_midpoint_tie_lowest_id():
    layout = build_layout(NetworkConfig(q=0))
    mid = layout.sites[1].x / 2.0
    assert associate(mid, 0.0, layout) == 0


def test_mobility_displacement_magnitude():
    # 2 km/h for one 1 ms step
    assert mobility_step_m(2.0, 1e-3) == pytest.approx(5.5556e-4, rel=1e-4)
    assert mobility_step_m(0.0, 1e-3) == 0.0


def test_zero_speed_is_fixed_point():
    cfg = NetworkConfig(q=0, ue_speed_kmh=0.0)
    env = TwoCellEnv(cfg, 1, 1)
    for _ in range(5):
        env.begin_episode()
        start = _drops(env)
        for k in range(env.t_steps + 1):
            assert tuple(env.positions(k)) == start


def test_walk_never_leaves_cell(monkeypatch):
    # exaggerated speed so reflections actually trigger: 200 km/h over 1 s
    # steps is 55.6 m per step in a 150 m cell
    cfg = NetworkConfig(q=1, m_list=(4,), ue_speed_kmh=200.0, step_ms=1000.0,
                        frame_steps=500)
    outside = []

    def reflect(x, y, site, r):
        outside.append(math.hypot(x - site.x, y - site.y) > r)
        return reflect_into_cell(x, y, site, r)

    monkeypatch.setattr(sim, "reflect_into_cell", reflect)
    env = TwoCellEnv(cfg, 4, 7)
    r = env.layout.cell_radius_m
    for _ in range(4):
        env.begin_episode()
        for k in range(env.t_steps + 1):
            for u, (x, y) in enumerate(env.positions(k)):
                site = env.layout.site(u)
                assert math.hypot(x - site.x, y - site.y) <= r + 1e-9
    assert sum(outside) > 100


def test_walk_step_of_two_radii_stays_in_the_cell():
    # 1080 km/h over 1 s steps is 300 m per step, exactly 2r in a 150 m
    # cell: the longest step the config accepts
    cfg = NetworkConfig(q=1, m_list=(4,), ue_speed_kmh=1080.0, step_ms=1000.0,
                        frame_steps=50)
    r = cfg.cell_radius_m
    assert mobility_step_m(cfg.ue_speed_kmh, cfg.dt_s) == 2.0 * r
    env = TwoCellEnv(cfg, 4, 5)
    for _ in range(20):
        env.begin_episode()
        for k in range(env.t_steps + 1):
            for u, (x, y) in enumerate(env.positions(k)):
                site = env.layout.site(u)
                assert math.hypot(x - site.x, y - site.y) <= r + 1e-9


@pytest.mark.parametrize("speed_kmh", [1080.001, 2000.0])
def test_walk_step_longer_than_two_radii_is_a_config_error(tmp_path, capsys, speed_kmh):
    # a 300.0003 m or 555.6 m step in a 150 m cell: the reflection cannot
    # fold it back, and at 2000 km/h the UEs walked out to 9.5 r
    cfg = tmp_path / "run.cfg"
    cfg.write_text(f"q = 1\nm_list = 4\nengines = fpa\nepisode_cap = 1\n"
                   f"ue_speed_kmh = {speed_kmh}\nstep_ms = 1000\n")
    rc = cli.main(["run", "--config", str(cfg), "--out", str(tmp_path / "out")])
    assert rc == 1
    err = capsys.readouterr().err
    assert "ue_speed_kmh" in err and "step_ms" in err
    assert not (tmp_path / "out").exists()


def test_reflection_folds_radially():
    site = build_layout(NetworkConfig(q=0)).sites[0]
    # point 400 m out of a 350 m cell folds back to 300 m on the same ray
    x, y = reflect_into_cell(400.0, 0.0, site, 350.0)
    assert (x, y) == (pytest.approx(300.0), pytest.approx(0.0))
    # interior points pass through untouched
    assert reflect_into_cell(10.0, -20.0, site, 350.0) == (10.0, -20.0)
