"""Link-level arithmetic: received power, SINR, power/beam commands, the
4-bit joint action register, and the sum-rate metric.

Register layout (bit i of the register value is a[i], bit 0 the LSB):

  q=0 (voice):  2-bit power code for BS b on a[0,1], for BS l on a[2,3],
                with field value 2*a[i] + a[j] and codes
                00 -> -3 dB, 01 -> -1 dB, 10 -> +1 dB, 11 -> +3 dB.
  q=1 (data):   a[0]: BS b power -1/+1 dB,  a[1]: BS l power -1/+1 dB,
                a[2]: BS l beam step down/up, a[3]: BS b beam step down/up.

``REGISTER[q][a]`` tabulates the layout once, as the ``JointCommand`` of each
value; a voice step's reward is its row's ``dp_b_db - dp_ell_db``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import Sequence

import numpy as np

from .channel import BeamCodebook
from .config import NetworkConfig

POWER_CODES_DB = (-3.0, -1.0, 1.0, 3.0)
N_ACTIONS = 16


def db_to_lin(db: float) -> float:
    return 10.0 ** (db / 10.0)


def lin_to_db(lin: float) -> float:
    return 10.0 * math.log10(lin)


# ---------------------------------------------------------------------------
# received power and SINR


def rx_power_mw(p_tx_dbm: float, h: np.ndarray, f: np.ndarray) -> float:
    """P_rx = P_tx(linear mW) * |h^H f|^2; ``np.vdot`` raises ValueError
    when the channel and the beam differ in length."""
    return db_to_lin(p_tx_dbm) * abs(np.vdot(h, f)) ** 2


def sinr_db(channels: Sequence, powers_dbm: Sequence[float], beams: Sequence[int],
            codebook: BeamCodebook, noise_mw: float, ue: int) -> float:
    """SINR of UE ``ue`` in dB: UE j is served by BS j and the other BS
    interferes.  ``channels[ue][bs]`` is an (M,) complex array, and
    ``powers_dbm``/``beams`` hold each BS's transmit power and beam index."""
    num = rx_power_mw(powers_dbm[ue], channels[ue][ue], codebook.beam(beams[ue]))
    other = 1 - ue
    den = noise_mw + rx_power_mw(powers_dbm[other], channels[ue][other],
                                 codebook.beam(beams[other]))
    return lin_to_db(num / den)


@dataclass(frozen=True)
class CodeRateMap:
    """SINR-indexed code rate beta; lower SINR picks a stronger code."""

    thresholds_db: tuple
    betas: tuple

    @classmethod
    def from_config(cls, config: NetworkConfig) -> "CodeRateMap":
        return cls(thresholds_db=config.code_rate_thresholds_db,
                   betas=config.code_rate_betas)

    @cached_property
    def gains_db(self) -> tuple:
        """The coding gain 10*log10(1/beta) of each entry of ``betas``."""
        return tuple(10.0 * math.log10(1.0 / b) for b in self.betas)

    def gain_db(self, sinr: float) -> float:
        """10*log10(1/beta), beta from the first threshold above ``sinr``."""
        for t, g in zip(self.thresholds_db, self.gains_db):
            if sinr < t:
                return g
        return self.gains_db[-1]


def effective_sinr_db(sinr: float, q: int, code_map: CodeRateMap) -> float:
    """Voice links get the coding gain 10*log10(1/beta); data links do not."""
    if q == 1:
        return sinr
    return sinr + code_map.gain_db(sinr)


# ---------------------------------------------------------------------------
# transmit power control


def fpa_power_dbm(n_prb_total: int, n_prb_ue: int, p_max_dbm: float) -> float:
    """Fixed power allocation: an equal share of P_max per resource block."""
    return p_max_dbm - 10.0 * math.log10(n_prb_total) + 10.0 * math.log10(n_prb_ue)


def apply_power_cmd(p_dbm: float, delta_db: float, p_max_dbm: float,
                    p_floor_dbm: float | None = None) -> float:
    """Apply a power command, clamped at P_max (and optionally floored)."""
    p = min(p_max_dbm, p_dbm + delta_db)
    if p_floor_dbm is not None:
        p = max(p_floor_dbm, p)
    return p


def step_beam(n: int, direction: int, m: int) -> int:
    """Circular codebook step: (n + direction) mod M."""
    return (n + direction) % m


# ---------------------------------------------------------------------------
# action register


@dataclass(frozen=True)
class JointCommand:
    """What one register value commands: power deltas in dB, beam steps in
    {-1, 0, +1}."""

    dp_b_db: float
    dp_ell_db: float
    dbeam_ell: int = 0
    dbeam_b: int = 0


def _command(a: int, q: int) -> JointCommand:
    """Register value ``a`` on bearer ``q``, read by the layout in the
    module notes."""
    a0, a1, a2, a3 = ((a >> i) & 1 for i in range(4))
    if q == 0:
        return JointCommand(dp_b_db=POWER_CODES_DB[2 * a0 + a1],
                            dp_ell_db=POWER_CODES_DB[2 * a2 + a3])
    return JointCommand(dp_b_db=1.0 if a0 else -1.0, dp_ell_db=1.0 if a1 else -1.0,
                        dbeam_ell=1 if a2 else -1, dbeam_b=1 if a3 else -1)


# REGISTER[q][a] is the command that register value a carries on bearer q
REGISTER = tuple(tuple(_command(a, q) for a in range(N_ACTIONS)) for q in (0, 1))


# ---------------------------------------------------------------------------
# rate metric


def sum_rate(eff_sinr_db_steps: Sequence[Sequence[float]]) -> float:
    """Average over steps of the Shannon sum rate, SINRs given in dB.

    C = (1/T) * sum_t sum_j log2(1 + 10**(gamma_eff[t][j] / 10))
    """
    t_steps = len(eff_sinr_db_steps)
    if t_steps == 0:
        raise ValueError("need at least one step to compute a sum rate")
    total = 0.0
    for step in eff_sinr_db_steps:
        for g in step:
            total += math.log2(1.0 + db_to_lin(g))
    return total / t_steps
