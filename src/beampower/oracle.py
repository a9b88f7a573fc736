"""Exhaustive joint search over transmit powers and beams.

The point of this module is an unarguable reference optimum, so candidates
are enumerated one by one and each is scored by the two calls of
``radio.sinr_db`` that score an engine's step -- no pruning, no shortcuts.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Sequence

from .channel import BeamCodebook
from .radio import CodeRateMap, effective_sinr_db, sinr_db


def n_candidates(n_powers: int, n_beams: int) -> int:
    """Joint assignments the scan scores per step: a (power, beam) pair for
    each of the two BSs."""
    return (n_powers * n_beams) ** 2


@dataclass(frozen=True)
class SearchSpace:
    """Per-BS power grid (absolute dBm levels) and shared beam codebook of
    the two BSs."""

    power_grid_dbm: tuple
    codebook: BeamCodebook


@dataclass(frozen=True)
class BruteForceResult:
    powers_dbm: tuple
    beams: tuple
    eff_sinrs_db: tuple
    n_evaluated: int


def brute_force(channels: Sequence, space: SearchSpace, q: int,
                code_map: CodeRateMap, noise_mw: float) -> BruteForceResult:
    """Maximise the sum of per-UE effective SINRs over the full grid.

    Candidates are scanned in lexicographic (p_0, n_0, p_1, n_1) order and
    only a strictly better objective replaces the incumbent, so ties
    resolve to the lexicographically smallest assignment.
    """
    codebook = space.codebook
    pairs = [(p, n) for p in space.power_grid_dbm for n in range(len(codebook))]
    best = None
    n_eval = 0
    for (p0, n0), (p1, n1) in itertools.product(pairs, repeat=2):
        powers, beams = (p0, p1), (n0, n1)
        effs = (effective_sinr_db(sinr_db(channels, powers, beams, codebook,
                                          noise_mw, 0), q, code_map),
                effective_sinr_db(sinr_db(channels, powers, beams, codebook,
                                          noise_mw, 1), q, code_map))
        obj = sum(effs)
        n_eval += 1
        if best is None or obj > best[0]:
            best = (obj, powers, beams, effs)
    _, powers, beams, effs = best
    return BruteForceResult(powers_dbm=powers, beams=beams, eff_sinrs_db=effs,
                            n_evaluated=n_eval)
