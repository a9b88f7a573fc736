"""Steering vectors, codebooks, path loss, noise, and channel statistics."""

import math

import numpy as np
import pytest

from beampower.channel import (
    ChannelModel,
    LinkFading,
    bearing,
    build_codebook,
    draw_link_fading,
    link_set,
    noise_power_dbm,
    path_loss_terms,
    realize_channel,
    steering_vector,
)
from beampower.config import NetworkConfig
from beampower.geometry import BsSite
from beampower.sim import TwoCellEnv
from channel_draws import sample_channel

ARRAY_SIZES = (1, 2, 4, 8, 16, 32, 64)
_D_OVER_LAMBDA = NetworkConfig().d_over_lambda


def test_steering_unit_norm():
    for m in ARRAY_SIZES:
        for theta in np.linspace(0.0, math.pi, 17):
            v = steering_vector(theta, m, _D_OVER_LAMBDA)
            assert abs(np.linalg.norm(v) - 1.0) < 1e-12


def test_steering_known_entries():
    # broadside-endfire M=2: cos(0)=1 gives phases 0 and pi
    v = steering_vector(0.0, 2, _D_OVER_LAMBDA)
    assert v == pytest.approx(np.array([1.0, -1.0]) / math.sqrt(2.0))
    # M=4 at 60 degrees: phase step pi/2 per element
    v4 = steering_vector(math.pi / 3.0, 4, _D_OVER_LAMBDA)
    assert v4 == pytest.approx(np.array([1.0, 1j, -1.0, -1j]) / 2.0)


def test_steering_vector_matches_direct_formula_bit_for_bit():
    # the cached phase ramp must not change a single float
    for m in ARRAY_SIZES:
        for d_over_lambda in (0.5, 0.37):
            kd = 2.0 * math.pi * d_over_lambda
            for theta in np.linspace(0.0, math.pi, 23):
                direct = np.exp(1j * kd * np.arange(m) * math.cos(theta)) / math.sqrt(m)
                assert np.array_equal(steering_vector(theta, m, d_over_lambda), direct)
    with pytest.raises(ValueError):
        steering_vector(0.0, 0, _D_OVER_LAMBDA)


def _codebook(m: int):
    """The codebook of the configured element spacing and beam centring."""
    cfg = NetworkConfig()
    return build_codebook(m, cfg.d_over_lambda, cfg.codebook_centered)


def test_codebook_layout():
    # centred bins put beam n at (n + 1/2)*pi/M, edge-aligned ones at n*pi/M
    cb = _codebook(4)
    assert len(cb) == 4
    edge = build_codebook(4, NetworkConfig().d_over_lambda, False)
    for n in range(4):
        assert cb.beam(n) == pytest.approx(
            steering_vector((n + 0.5) * math.pi / 4, 4, _D_OVER_LAMBDA))
        assert edge.beam(n) == pytest.approx(
            steering_vector(n * math.pi / 4, 4, _D_OVER_LAMBDA))
        assert np.array_equal(cb.beam(n), cb.beams[n])
        assert np.array_equal(edge.beam(n), edge.beams[n])


def test_close_in_path_loss_values():
    cfg = NetworkConfig(q=1)
    # 1 m intercept at 28 GHz
    assert path_loss_terms(cfg).at(1.0) == pytest.approx(61.3432, abs=1e-3)
    assert path_loss_terms(cfg).at(100.0) == pytest.approx(101.3432, abs=1e-3)
    # blocked path decays three exponents per decade
    assert path_loss_terms(cfg, los=False).at(100.0) == pytest.approx(121.3432, abs=1e-3)


def test_cost231_path_loss_value():
    cfg = NetworkConfig(q=0)
    # urban value at 1 km, 2100 MHz, 30 m mast, 1.5 m handset
    assert path_loss_terms(cfg).at(1000.0) == pytest.approx(141.4604, abs=1e-3)


def test_path_loss_monotone_and_guarded():
    cfg = NetworkConfig(q=1)
    d = np.linspace(1.0, 300.0, 50)
    pl = [path_loss_terms(cfg).at(x) for x in d]
    assert all(b > a for a, b in zip(pl, pl[1:]))
    with pytest.raises(ValueError):
        path_loss_terms(cfg).at(0.0)


def test_shadowing_only_with_rng():
    # the median path loss is deterministic; shadowing is a per-link fading draw
    cfg = NetworkConfig(q=1, p_los=1.0)
    model = ChannelModel.from_config(cfg)
    base = path_loss_terms(cfg).at(50.0)
    rng = np.random.default_rng(0)
    shadows = [draw_link_fading(model, rng).shadow_db for _ in range(200)]
    assert 2.0 < np.std(shadows) < 6.0  # 4 dB log-normal
    assert path_loss_terms(cfg).at(50.0) == base


def test_noise_power_values():
    nf_db = NetworkConfig().noise_figure_db
    assert noise_power_dbm(180e3, nf_db) == pytest.approx(-112.4473, abs=1e-3)
    assert noise_power_dbm(100e6, nf_db) == pytest.approx(-85.0, abs=1e-9)


def test_bearing_reflects_into_upper_half():
    site = BsSite(id=0, x=0.0, y=0.0)
    assert bearing(site, 1.0, 1.0) == pytest.approx(math.pi / 4)
    assert bearing(site, 1.0, -1.0) == pytest.approx(math.pi / 4)
    assert bearing(site, -1.0, 0.0) == pytest.approx(math.pi)


_DATA = NetworkConfig(q=1, m_list=(4,))


def _data_model() -> ChannelModel:
    return ChannelModel.from_config(_DATA)


def _realize_one(model, fading, site, m, x, y) -> np.ndarray:
    """One link's channel at (x, y), through a one-row link set."""
    return realize_channel(link_set(model, [fading], [site], m), [(x, y)])[0]


def test_direct_path_matches_its_codebook_beam():
    # one-path channel at a bin-center angle peaks at that bin's beam
    model = _data_model()
    for m in (4, 8, 16):
        cb = _codebook(m)
        site = BsSite(id=0, x=0.0, y=0.0)
        for n in range(m):
            theta = (n + 0.5) * math.pi / m
            fad = LinkFading(los=True, gains=np.array([1.0 + 0.0j]),
                             aods=np.array([theta]), shadow_db=0.0)
            x, y = 100.0 * math.cos(theta), 100.0 * math.sin(theta)
            ch = _realize_one(model, fad, site, m, x, y)
            gains = [abs(np.vdot(ch, cb.beam(k))) for k in range(m)]
            assert int(np.argmax(gains)) == n


def test_beam_gain_bounded_by_channel_norm():
    model = _data_model()
    rng = np.random.default_rng(13)
    site = BsSite(id=0, x=0.0, y=0.0)
    cb = _codebook(8)
    for _ in range(100):
        ch = sample_channel(model, site, rng.uniform(10, 150), rng.uniform(-50, 50),
                            8, rng)
        hnorm2 = float(np.vdot(ch, ch).real)
        for n in range(8):
            assert abs(np.vdot(ch, cb.beam(n))) ** 2 <= hnorm2 * (1 + 1e-9)


def test_channel_power_tracks_amplitude_ratio():
    # E||h||^2 * rho^2 / M == 1 across random fadings
    model = _data_model()
    site = BsSite(id=0, x=0.0, y=0.0)
    rng = np.random.default_rng(19)
    vals = []
    for _ in range(4000):
        fad = draw_link_fading(model, rng)
        ch = _realize_one(model, fad, site, 8, 80.0, 35.0)
        pl_eff = (path_loss_terms(_DATA, fad.los).at(math.hypot(80.0, 35.0))
                  + fad.shadow_db - model.tx_gain_dbi - model.ue_gain_dbi)
        rho = 10.0 ** (pl_eff / 20.0)
        vals.append(float(np.vdot(ch, ch).real) * rho**2 / 8.0)
    assert np.mean(vals) == pytest.approx(1.0, rel=0.05)


def test_fading_draw_shapes():
    model = _data_model()
    rng = np.random.default_rng(2)
    seen = {True: 0, False: 0}
    for _ in range(300):
        fad = draw_link_fading(model, rng)
        seen[fad.los] += 1
        if fad.los:
            assert fad.gains.shape == (1,)
            assert abs(abs(fad.gains[0]) - 1.0) < 1e-12
        else:
            assert fad.gains.shape == (4,)
            assert fad.aods.shape == (4,)
            assert np.all((fad.aods >= 0) & (fad.aods <= math.pi))
    # 80% blockage-free on the data bearer
    assert 0.7 < seen[True] / 300 < 0.9


def test_voice_layout_uses_single_antenna():
    cfg = NetworkConfig(q=0)
    env = TwoCellEnv(cfg, cfg.m_list[0], 1)
    assert env.m == 1
    assert len(env.codebook) == 1
    assert env.codebook.beam(0) == pytest.approx(np.array([1.0 + 0.0j]))


def _random_fading(rng, los: bool, n_paths: int) -> LinkFading:
    if los:
        return LinkFading(los=True, gains=np.array([np.exp(1j * rng.uniform(0, 2 * math.pi))]),
                          aods=None, shadow_db=float(rng.normal(0.0, 6.0)))
    gains = (rng.normal(size=n_paths) + 1j * rng.normal(size=n_paths)) / math.sqrt(2 * n_paths)
    return LinkFading(los=False, gains=gains, aods=rng.uniform(0.0, math.pi, size=n_paths),
                      shadow_db=float(rng.normal(0.0, 6.0)))


@pytest.mark.parametrize("m", [1, 8, 64])
@pytest.mark.parametrize("n_paths", [4, 15])
def test_nlos_sum_matches_the_per_path_loop_bit_for_bit(m, n_paths):
    # reference: one steering vector per path, added in draw order
    rng = np.random.default_rng(1000 * m + n_paths)
    site = BsSite(id=0, x=0.0, y=0.0)
    for d_over_lambda in (0.5, 0.37):
        model = ChannelModel.from_config(NetworkConfig(
            q=1, p_los=0.0, n_paths_nlos=n_paths, d_over_lambda=d_over_lambda))
        for _ in range(200):
            fad = _random_fading(rng, False, n_paths)
            ref = np.zeros(m, dtype=complex)
            for g, aod in zip(fad.gains, fad.aods):
                ref += g * steering_vector(aod, m, d_over_lambda)
            assert np.array_equal(link_set(model, [fad], [site], m).small[0], ref)


def _single_link_channel(cfg, fading, site, x, y, m):
    """The direct formula of one link's channel at (x, y)."""
    d = math.hypot(x - site.x, y - site.y)
    pl_eff = (path_loss_terms(cfg, fading.los).at(d) + fading.shadow_db
              - cfg.tx_gain_dbi - cfg.ue_gain_dbi)
    rho = 10.0 ** (pl_eff / 20.0)
    if fading.los:
        small = fading.gains[0] * steering_vector(bearing(site, x, y), m,
                                                  cfg.d_over_lambda)
    else:
        small = np.zeros(m, dtype=complex)
        for g, aod in zip(fading.gains, fading.aods):
            small += g * steering_vector(aod, m, cfg.d_over_lambda)
    return small * (math.sqrt(m) / rho)


@pytest.mark.parametrize("q", [0, 1])
def test_batched_channel_rows_match_the_single_link_formula(q):
    # random link sets of every LOS/NLOS mix, realised in one batch: each
    # row must be the channel its link alone would give, float for float
    rng = np.random.default_rng(31 + q)
    sites = (BsSite(id=0, x=0.0, y=0.0), BsSite(id=1, x=525.0, y=0.0))
    mixes = set()
    for _ in range(300):
        m = 1 if q == 0 else int(rng.choice([2, 4, 8, 16, 64]))
        cfg = NetworkConfig(q=q, tx_gain_dbi=float(rng.uniform(0, 9)),
                            ue_gain_dbi=float(rng.uniform(0, 3)),
                            d_over_lambda=float(rng.choice([0.5, 0.42])))
        model = ChannelModel.from_config(cfg)
        n = int(rng.integers(1, 7))
        fadings = [_random_fading(rng, bool(rng.integers(2)), cfg.n_paths_nlos)
                   for _ in range(n)]
        row_sites = [sites[int(rng.integers(2))] for _ in range(n)]
        positions = [(float(rng.uniform(-400, 900)), float(rng.uniform(-400, 400)))
                     for _ in range(n)]
        links = link_set(model, fadings, row_sites, m)
        h = realize_channel(links, positions)
        assert h.shape == (n, m)
        mixes.add(tuple(f.los for f in fadings))
        for row, f, s, (x, y) in zip(h, fadings, row_sites, positions):
            assert np.array_equal(row, _single_link_channel(cfg, f, s, x, y, m))
    assert (True,) in mixes and (False,) in mixes
    assert any(True in mix and False in mix for mix in mixes)
