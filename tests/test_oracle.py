"""Exhaustive joint search against an independently coded enumerator."""

import itertools

import numpy as np
import pytest

from beampower.channel import ChannelModel, build_codebook, noise_power_dbm
from beampower.config import NetworkConfig
from beampower.geometry import build_layout
from beampower.oracle import SearchSpace, brute_force, n_candidates
from beampower.radio import CodeRateMap, db_to_lin, effective_sinr_db, sinr_db
from channel_draws import sample_channel


def _codebook(m: int):
    """The codebook of the configured element spacing and beam centring."""
    cfg = NetworkConfig()
    return build_codebook(m, cfg.d_over_lambda, cfg.codebook_centered)


def _random_channels(rng, m, cfg):
    model = ChannelModel.from_config(cfg)
    layout = build_layout(cfg)
    chans = []
    for u, _ in enumerate(layout.sites):
        row = []
        for site in layout.sites:
            anchor = layout.site(u)
            x = anchor.x + rng.uniform(-100, 100)
            y = rng.uniform(20, 120)
            row.append(sample_channel(model, site, x, y, m, rng))
        chans.append(row)
    return chans


def _enumerate_best(channels, grid, cb, q, code_map, noise_mw):
    """Plain quadruple loop, first strict maximum wins; returns the objective,
    the (p0, n0, p1, n1) assignment, its effective SINRs and the count."""
    best = None
    count = 0
    for p0 in grid:
        for n0 in range(len(cb)):
            for p1 in grid:
                for n1 in range(len(cb)):
                    effs = tuple(effective_sinr_db(
                        sinr_db(channels, (p0, p1), (n0, n1), cb, noise_mw, u),
                        q, code_map) for u in range(2))
                    total = sum(effs)
                    count += 1
                    if best is None or total > best[0]:
                        best = (total, (p0, n0, p1, n1), effs)
    return (*best, count)


def test_candidate_count():
    # a (power, beam) pair per BS: 4 power levels and an 8-beam codebook
    assert n_candidates(4, len(_codebook(8))) == (4 * 8) ** 2


def test_matches_independent_enumerator():
    cfg = NetworkConfig(q=1, m_list=(4,))
    cm = CodeRateMap.from_config(cfg)
    noise_mw = db_to_lin(noise_power_dbm(cfg.bandwidth_hz, cfg.noise_figure_db))
    rng = np.random.default_rng(31)
    grid = (40.0, 46.0)
    for m in (2, 4):
        cb = _codebook(m)
        space = SearchSpace(power_grid_dbm=grid, codebook=cb)
        for _ in range(10):
            chans = _random_channels(rng, m, cfg)
            got = brute_force(chans, space, 1, cm, noise_mw)
            want_obj, want_arg, _, _ = _enumerate_best(chans, grid, cb, 1, cm, noise_mw)
            assert sum(got.eff_sinrs_db) == want_obj
            assert (got.powers_dbm[0], got.beams[0],
                    got.powers_dbm[1], got.beams[1]) == want_arg
            assert got.n_evaluated == n_candidates(len(grid), m)


@pytest.mark.parametrize("q", [0, 1])
def test_matches_independent_enumerator_exactly_at_m8(q):
    # the configured 4-level grid, 1024 candidates per scan; q picks the
    # objective (coding gain or not), the channels are the M=8 data links
    cfg = NetworkConfig(q=1, m_list=(8,))
    cm = CodeRateMap.from_config(cfg)
    noise_mw = db_to_lin(noise_power_dbm(cfg.bandwidth_hz, cfg.noise_figure_db))
    grid = cfg.oracle_power_grid
    assert len(grid) == 4
    cb = _codebook(8)
    space = SearchSpace(power_grid_dbm=grid, codebook=cb)
    rng = np.random.default_rng(40 + q)
    for _ in range(3):
        chans = _random_channels(rng, 8, cfg)
        got = brute_force(chans, space, q, cm, noise_mw)
        obj, (p0, n0, p1, n1), effs, count = _enumerate_best(chans, grid, cb, q,
                                                             cm, noise_mw)
        assert got.powers_dbm == (p0, p1)
        assert got.beams == (n0, n1)
        assert got.eff_sinrs_db == effs
        assert sum(got.eff_sinrs_db) == obj
        assert got.n_evaluated == count == 1024


def test_tied_candidates_take_first_in_scan_order():
    # duplicated grid levels make every power pair a tie
    cfg = NetworkConfig(q=1, m_list=(4,))
    cm = CodeRateMap.from_config(cfg)
    noise_mw = db_to_lin(noise_power_dbm(cfg.bandwidth_hz, cfg.noise_figure_db))
    chans = _random_channels(np.random.default_rng(5), 4, cfg)
    cb = _codebook(4)
    a = brute_force(chans, SearchSpace((44.0, 44.0), cb), 1, cm, noise_mw)
    b = brute_force(chans, SearchSpace((44.0,), cb), 1, cm, noise_mw)
    assert a.powers_dbm == b.powers_dbm == (44.0, 44.0)
    assert a.beams == b.beams
    # every link sees only the first antenna, which every beam weights
    # alike, so all beam pairs tie and the first, (0, 0), must win
    e0 = np.eye(4, dtype=complex)[0]
    flat = brute_force([[e0, e0], [e0, e0]], SearchSpace((44.0,), cb), 1, cm,
                       noise_mw)
    assert flat.beams == (0, 0)


def test_repeat_on_frozen_channels_is_stationary():
    cfg = NetworkConfig(q=1, m_list=(4,))
    cm = CodeRateMap.from_config(cfg)
    noise_mw = db_to_lin(noise_power_dbm(cfg.bandwidth_hz, cfg.noise_figure_db))
    chans = _random_channels(np.random.default_rng(9), 4, cfg)
    space = SearchSpace((40.0, 46.0), _codebook(4))
    first = brute_force(chans, space, 1, cm, noise_mw)
    second = brute_force(chans, space, 1, cm, noise_mw)
    assert first == second
