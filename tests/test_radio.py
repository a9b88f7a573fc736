"""SINR arithmetic, the adaptive code-rate map, and the 4-bit action register."""

import math

import numpy as np
import pytest

from beampower.channel import build_codebook
from beampower.config import NetworkConfig
from beampower.radio import (
    N_ACTIONS,
    POWER_CODES_DB,
    REGISTER,
    CodeRateMap,
    JointCommand,
    apply_power_cmd,
    db_to_lin,
    effective_sinr_db,
    fpa_power_dbm,
    lin_to_db,
    rx_power_mw,
    sinr_db,
    step_beam,
    sum_rate,
)


def _voice_map() -> CodeRateMap:
    return CodeRateMap.from_config(NetworkConfig(q=0))


def test_db_round_trip():
    for v in (-40.0, 0.0, 17.5):
        assert lin_to_db(db_to_lin(v)) == pytest.approx(v)


def test_rx_power_known_case():
    # 0 dBm into a unit channel aligned with a single-antenna beam -> 1 mW
    h = np.array([1.0 + 0.0j])
    f = np.array([1.0 + 0.0j])
    assert rx_power_mw(0.0, h, f) == pytest.approx(1.0)
    assert rx_power_mw(10.0, h, f) == pytest.approx(10.0)
    with pytest.raises(ValueError):
        rx_power_mw(0.0, h, np.ones(2, dtype=complex))


def _chan(amp: float) -> np.ndarray:
    return np.array([amp + 0.0j])


def _two_cell(p0=40.0, p1=40.0) -> tuple:
    """The leading ``sinr_db`` arguments of a hand-sized single-antenna
    two-cell step with known gains."""
    cfg = NetworkConfig()
    cb = build_codebook(1, cfg.d_over_lambda, cfg.codebook_centered)
    # channels[ue][bs]: serving power gain 1, cross power gain 0.1
    serve, cross = _chan(1.0), _chan(0.31622776601683794)
    channels = [[serve, cross], [cross, serve]]
    return channels, (p0, p1), (0, 0), cb, 1.0


def test_sinr_hand_computed():
    # UE0: S = 10^4, I = 10^3, N = 1 -> 10*log10(10^4/(10^3+1))
    step = _two_cell()
    expect = 10.0 * math.log10(1e4 / (1e3 + 1.0))
    assert sinr_db(*step, 0) == pytest.approx(expect)
    assert sinr_db(*step, 1) == pytest.approx(expect)


def test_sinr_monotone_in_powers():
    rng = np.random.default_rng(3)
    for _ in range(100):
        p0 = rng.uniform(20, 44)
        p1 = rng.uniform(20, 44)
        base = sinr_db(*_two_cell(p0, p1), 0)
        assert sinr_db(*_two_cell(p0 + 1, p1), 0) > base
        assert sinr_db(*_two_cell(p0, p1 + 1), 0) < base


def _beta(cm: CodeRateMap, sinr: float) -> float:
    """Reference code rate at ``sinr``: the entry of ``betas`` at the first
    threshold above it, or the last entry when there is none."""
    for t, b in zip(cm.thresholds_db, cm.betas):
        if sinr < t:
            return b
    return cm.betas[-1]


def test_code_rate_map_betas():
    cm = _voice_map()
    for sinr, beta in ((-2.0, 1.0 / 3.0), (0.0, 0.5), (3.0, 0.5), (5.0, 1.0),
                       (20.0, 1.0)):
        assert _beta(cm, sinr) == pytest.approx(beta)
        assert cm.gain_db(sinr) == 10 * math.log10(1 / _beta(cm, sinr))


@pytest.mark.parametrize("cm", [_voice_map(),
                                CodeRateMap((-3.0, 2.5, 9.0), (0.2, 0.4, 0.7, 1.0))])
def test_code_rate_gain_is_the_gain_of_beta_at_every_threshold(cm):
    for t in cm.thresholds_db:
        for sinr in (math.nextafter(t, -math.inf), t, math.nextafter(t, math.inf),
                     t - 1.0, t + 1.0):
            assert cm.gain_db(sinr) == 10 * math.log10(1 / _beta(cm, sinr))


def test_effective_sinr_adds_repetition_gain():
    cm = _voice_map()
    # 1/3 rate -> +4.77 dB, 1/2 rate -> +3.01 dB, full rate unchanged
    assert effective_sinr_db(-5.0, 0, cm) == pytest.approx(-5.0 + 4.7712, abs=1e-3)
    assert effective_sinr_db(2.0, 0, cm) == pytest.approx(2.0 + 3.0103, abs=1e-3)
    assert effective_sinr_db(7.0, 0, cm) == pytest.approx(7.0)
    # data bearer never gets the bonus
    assert effective_sinr_db(-5.0, 1, cm) == pytest.approx(-5.0)


def test_fpa_share():
    p_max = NetworkConfig().max_power_dbm
    assert fpa_power_dbm(100, 10, p_max) == pytest.approx(36.0)
    assert fpa_power_dbm(100, 1, p_max) == pytest.approx(26.0)
    assert fpa_power_dbm(100, 100, p_max) == pytest.approx(46.0)


def test_power_command_clamps():
    p_max = NetworkConfig().max_power_dbm
    assert apply_power_cmd(45.5, 1.0, p_max) == 46.0
    assert apply_power_cmd(46.0, 3.0, p_max) == 46.0
    assert apply_power_cmd(44.0, -3.0, p_max) == 41.0
    assert apply_power_cmd(1.0, -3.0, p_max, p_floor_dbm=0.0) == 0.0
    assert apply_power_cmd(1.0, -3.0, p_max, p_floor_dbm=None) == -2.0


def test_power_never_exceeds_ceiling_under_random_commands():
    rng = np.random.default_rng(8)
    p = 46.0
    for _ in range(10_000):
        p = apply_power_cmd(p, rng.choice((-3.0, -1.0, 1.0, 3.0)),
                            NetworkConfig().max_power_dbm, p_floor_dbm=0.0)
        assert 0.0 <= p <= 46.0


def test_beam_stepping_wraps():
    assert step_beam(0, -1, 8) == 7
    assert step_beam(7, 1, 8) == 0
    assert step_beam(3, 1, 8) == 4
    assert step_beam(0, 1, 1) == 0


def test_pcode_values():
    # every voice power code, the 2-bit field 2*a[0] + a[1] for BS b
    assert POWER_CODES_DB == (-3.0, -1.0, 1.0, 3.0)
    assert [REGISTER[0][a].dp_b_db for a in (0b00, 0b10, 0b01, 0b11)] == \
        [-3.0, -1.0, 1.0, 3.0]


def test_register_commands_are_distinct():
    for q in (0, 1):
        assert len(REGISTER[q]) == N_ACTIONS
        assert len(set(REGISTER[q])) == N_ACTIONS


def test_register_voice_fields():
    # both power fields read as 2-bit codes into the +/-1, +/-3 dB table
    cmd = REGISTER[0][0b0011]
    assert cmd.dp_b_db == 3.0 and cmd.dp_ell_db == -3.0
    assert cmd.dbeam_b == 0 and cmd.dbeam_ell == 0
    cmd = REGISTER[0][0b1111]
    assert cmd.dp_b_db == 3.0 and cmd.dp_ell_db == 3.0
    cmd = REGISTER[0][0b0100]
    assert cmd.dp_b_db == -3.0 and cmd.dp_ell_db == 1.0
    assert all(c.dbeam_b == 0 and c.dbeam_ell == 0 for c in REGISTER[0])


def test_register_data_fields():
    cmd = REGISTER[1][0b1111]
    assert cmd.dp_b_db == 1.0 and cmd.dp_ell_db == 1.0
    assert cmd.dbeam_ell == 1 and cmd.dbeam_b == 1
    cmd = REGISTER[1][0b0000]
    assert cmd.dp_b_db == -1.0 and cmd.dp_ell_db == -1.0
    assert cmd.dbeam_ell == -1 and cmd.dbeam_b == -1
    # one bit per field: a[0] b power, a[1] l power, a[2] l beam, a[3] b beam
    assert REGISTER[1][0b0001] == JointCommand(1.0, -1.0, -1, -1)
    assert REGISTER[1][0b0010] == JointCommand(-1.0, 1.0, -1, -1)
    assert REGISTER[1][0b0100] == JointCommand(-1.0, -1.0, 1, -1)
    assert REGISTER[1][0b1000] == JointCommand(-1.0, -1.0, -1, 1)


def test_reward_spot_values():
    # voice: reward favours boosting the serving cell over the interferer
    cmd = REGISTER[0][0b0011]
    assert cmd.dp_b_db - cmd.dp_ell_db == 6.0
    cmd = REGISTER[0][0b1010]
    assert cmd.dp_b_db - cmd.dp_ell_db == 0.0


def test_sum_rate_known_value():
    assert sum_rate([(10.0, 10.0)]) == pytest.approx(6.91886, abs=1e-4)
    # averaged across steps
    two = sum_rate([(10.0, 10.0), (10.0, 10.0)])
    assert two == pytest.approx(6.91886, abs=1e-4)
    with pytest.raises(ValueError):
        sum_rate([])


def test_joint_command_is_hashable_record():
    c = JointCommand(dp_b_db=1.0, dp_ell_db=-1.0, dbeam_ell=1, dbeam_b=-1)
    assert c == JointCommand(1.0, -1.0, 1, -1)
