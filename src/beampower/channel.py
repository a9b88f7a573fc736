"""Steering vectors, beam codebooks, path loss and multipath channel draws.

The array is a uniform linear array along the x-axis, so departure angles
live in [0, pi] (measured from the array axis).  A narrowband geometric
channel toward a UE is

    h = (sqrt(M) / rho) * sum_p alpha_p * a(theta_p)

with per-path complex gains alpha_p, departure angles theta_p and an
amplitude path-loss ratio rho (rho**2 is the linear power loss, antenna
gains folded in), so that E[||h||^2] = M / rho**2.  A channel is a plain
(M,) complex array.

A link's random state is drawn once per episode (``draw_link_fading``).
``link_set`` folds an episode's draws into one table, a row per link, of
everything that does not depend on the UE position: the site, the LOS flag,
the path-loss constants, the shadowing, and for an NLOS link the whole
small-scale sum over its fixed paths.  ``realize_channel`` realises every
row at once for the current UE positions: per link, the distance term of
the path loss, and for the LOS links one shared exponential of their
steering phases.  Every float is computed in the same order as the direct
formula, so the table gives bit-identical channels.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import NamedTuple, Sequence

import numpy as np

from .config import NetworkConfig
from .geometry import BsSite


def steering_vector(theta: float, m: int, d_over_lambda: float) -> np.ndarray:
    """ULA steering vector, entries exp(j*2*pi*d/lambda*m*cos(theta))/sqrt(M).

    :param theta: departure angle in radians, measured from the array axis
    :param m: number of antenna elements
    :param d_over_lambda: element spacing in wavelengths
    """
    if m < 1:
        raise ValueError(f"antenna count must be >= 1, got {m}")
    return np.exp(_phase_ramp(m, d_over_lambda) * math.cos(theta)) / math.sqrt(m)


@lru_cache(maxsize=64)
def _phase_ramp(m: int, d_over_lambda: float) -> np.ndarray:
    """The angle-free factor j*2*pi*d/lambda*m of the steering phases.

    Cached per (M, spacing), so it is shared and made read-only.
    """
    ramp = 1j * (2.0 * math.pi * d_over_lambda) * np.arange(m)
    ramp.flags.writeable = False
    return ramp


@dataclass(frozen=True)
class BeamCodebook:
    """M steering beams at fixed quantised angles."""

    m: int
    beams: np.ndarray           # (M, M) complex, row n = beam n

    def __len__(self) -> int:
        return self.m

    @cached_property
    def rows(self) -> tuple:
        """The rows of ``beams`` as a tuple of views, so ``beam(n)`` is a
        tuple lookup rather than a fresh numpy view."""
        return tuple(self.beams)

    def beam(self, n: int) -> np.ndarray:
        return self.rows[n]


def build_codebook(m: int, d_over_lambda: float, centered: bool) -> BeamCodebook:
    """Quantise [0, pi] into M beams.

    Centred bins place beam n at (n + 1/2)*pi/M; the edge-aligned variant
    uses n*pi/M instead.
    """
    if centered:
        angles = (np.arange(m) + 0.5) * math.pi / m
    else:
        angles = np.arange(m) * math.pi / m
    beams = np.stack([steering_vector(t, m, d_over_lambda) for t in angles])
    return BeamCodebook(m=m, beams=beams)


# ---------------------------------------------------------------------------
# path loss


class PathLossTerms(NamedTuple):
    """A path-loss model split into constants and one distance term:

        PL(d) = intercept_db + slope_db * log10(d / d_ref_m) + offset_db

    in the operation order of the model's formula, so ``at`` is bit-exact.
    """

    intercept_db: float
    slope_db: float
    d_ref_m: float
    offset_db: float
    shadow_sigma_db: float

    def at(self, distance_m: float) -> float:
        return (self.intercept_db + self.slope_db * math.log10(distance_m / self.d_ref_m)
                + self.offset_db)


def path_loss_terms(config: NetworkConfig, los: bool = True) -> PathLossTerms:
    """The distance-free constants of the bearer's path-loss model.

    q=1, close-in:  PL = 32.4 + 20*log10(f_GHz) + 10*n*log10(d/1m)
    q=0, COST231:   urban Hata extension with the standard mobile-height correction
    """
    if config.q == 1:
        n = config.ci_exp_los if los else config.ci_exp_nlos
        f_ghz = config.carrier_mhz / 1e3
        sigma = config.ci_shadow_los_db if los else config.ci_shadow_nlos_db
        return PathLossTerms(32.4 + 20.0 * math.log10(f_ghz), 10.0 * n, 1.0, 0.0, sigma)
    f = config.carrier_mhz
    hb, hm = config.bs_height_m, config.ue_height_m
    a_hm = (1.1 * math.log10(f) - 0.7) * hm - (1.56 * math.log10(f) - 0.8)
    return PathLossTerms(46.3 + 33.9 * math.log10(f) - 13.82 * math.log10(hb) - a_hm,
                         44.9 - 6.55 * math.log10(hb), 1e3,
                         config.cost231_correction_db, config.cost231_shadow_db)


def noise_power_dbm(bandwidth_hz: float, noise_figure_db: float) -> float:
    """Thermal noise power over the signal bandwidth: -174 dBm/Hz + 10log10(BW) + NF."""
    return -174.0 + 10.0 * math.log10(bandwidth_hz) + noise_figure_db


# ---------------------------------------------------------------------------
# multipath channel


@dataclass(frozen=True)
class ChannelModel:
    """Everything needed to draw a link realisation."""

    loss_terms: tuple                # (NLOS, LOS) PathLossTerms: loss_terms[los]
    p_los: float
    n_paths_nlos: int
    d_over_lambda: float
    tx_gain_dbi: float
    ue_gain_dbi: float

    @classmethod
    def from_config(cls, config: NetworkConfig) -> "ChannelModel":
        return cls(loss_terms=(path_loss_terms(config, False), path_loss_terms(config, True)),
                   p_los=config.p_los, n_paths_nlos=config.n_paths_nlos,
                   d_over_lambda=config.d_over_lambda,
                   tx_gain_dbi=config.tx_gain_dbi, ue_gain_dbi=config.ue_gain_dbi)


class LinkFading(NamedTuple):
    """Per-episode random state of one BS->UE link.

    LOS links carry a single unit-modulus gain and take their departure
    angle from the instantaneous geometry; NLOS links carry fixed angles.
    """

    los: bool
    gains: np.ndarray                # (N_p,) complex
    aods: np.ndarray | None          # (N_p,) for NLOS, None for LOS
    shadow_db: float


class LinkSet(NamedTuple):
    """Links realised together at every step, one channel row each.

    Row i's site, LOS flag, path-loss terms and shadowing are entry i of
    ``sites``, ``los``, ``loss`` and ``shadow_db``.  ``small`` holds each
    NLOS row's path sum; the rows ``los_rows`` are filled in at each step,
    from one exponential shared by every LOS link, scaled by their gains
    ``los_gains`` (a column).
    """

    sites: tuple                     # BsSite per row
    los: tuple                       # bool per row
    loss: tuple                      # PathLossTerms per row
    shadow_db: tuple                 # float per row
    los_rows: np.ndarray             # (L,) row indices
    los_gains: np.ndarray            # (L, 1) complex
    small: np.ndarray                # (n, M) complex
    ramp: np.ndarray                 # (M,) steering phase factor
    sqrt_m: float
    tx_gain_dbi: float
    ue_gain_dbi: float


def draw_link_fading(model: ChannelModel, rng: np.random.Generator) -> LinkFading:
    """One stochastic draw: LOS coin, shadowing, and NLOS gains/angles."""
    # rng.normal(0, sigma) and rng.uniform(0, high) would draw the same
    # numbers through the same arithmetic, loc + scale * z and
    # low + (high - low) * u, only with more call overhead
    los = bool(rng.random() < model.p_los)
    sigma = model.loss_terms[los].shadow_sigma_db
    shadow = 0.0 + sigma * rng.standard_normal()
    if los:
        phase = 2.0 * math.pi * rng.random()
        gains = np.array([np.exp(1j * phase)])
        aods = None
    else:
        n_p = model.n_paths_nlos
        aods = math.pi * rng.random(n_p)
        gains = (rng.normal(size=n_p) + 1j * rng.normal(size=n_p)) / math.sqrt(2.0 * n_p)
    return LinkFading(los=los, gains=gains, aods=aods, shadow_db=shadow)


def bearing(site: BsSite, x: float, y: float) -> float:
    """Departure angle of (x, y) seen from the site, folded into [0, pi]."""
    return abs(math.atan2(y - site.y, x - site.x))


def link_set(model: ChannelModel, fadings: Sequence[LinkFading],
             sites: Sequence[BsSite], m: int) -> LinkSet:
    """The set ``realize_channel`` takes: row i is the link of ``fadings[i]``
    from ``sites[i]``.

    An NLOS link's sum over its paths is built from one (N_p, M) exponential
    of the steering phases, accumulated path by path in draw order, which
    is the float order of adding up one steering vector per path.
    """
    ramp, sqrt_m = _phase_ramp(m, model.d_over_lambda), math.sqrt(m)
    small = np.zeros((len(fadings), m), dtype=complex)
    for i, fading in enumerate(fadings):
        if not fading.los:
            cos = np.array([math.cos(aod) for aod in fading.aods.tolist()])
            beams = np.exp(np.multiply.outer(cos, ramp))
            beams /= sqrt_m
            small[i] = np.add.accumulate(fading.gains[:, None] * beams, axis=0)[-1]
    los = tuple(fading.los for fading in fadings)
    los_rows = [i for i, is_los in enumerate(los) if is_los]
    los_gains = np.array([fadings[i].gains[0] for i in los_rows], dtype=complex)
    return LinkSet(sites=tuple(sites), los=los,
                   loss=tuple(model.loss_terms[is_los] for is_los in los),
                   shadow_db=tuple(fading.shadow_db for fading in fadings),
                   los_rows=np.array(los_rows, dtype=np.intp),
                   los_gains=los_gains[:, None], small=small, ramp=ramp,
                   sqrt_m=sqrt_m, tx_gain_dbi=model.tx_gain_dbi,
                   ue_gain_dbi=model.ue_gain_dbi)


def realize_channel(links: LinkSet, positions: Sequence) -> np.ndarray:
    """The (n, M) channel rows of the links at the UE positions, one (x, y)
    per link.

    Path loss follows the instantaneous distance; the LOS angle follows the
    instantaneous bearing, so the channel tracks the mobility.  Row i is
    ``g * a(bearing) * (sqrt(M) / rho)`` for a LOS link and
    ``h_nlos * (sqrt(M) / rho)`` for an NLOS one.
    """
    scales = []
    cos_los = []
    for site, los, loss, shadow_db, (x, y) in zip(links.sites, links.los, links.loss,
                                                  links.shadow_db, positions):
        d = math.hypot(x - site.x, y - site.y)
        pl_eff = loss.at(d) + shadow_db - links.tx_gain_dbi - links.ue_gain_dbi
        scales.append(links.sqrt_m / 10.0 ** (pl_eff / 20.0))
        if los:
            cos_los.append(math.cos(bearing(site, x, y)))
    h = links.small.copy()
    if cos_los:
        beams = np.exp(np.multiply.outer(np.array(cos_los), links.ramp))
        beams /= links.sqrt_m
        h[links.los_rows] = links.los_gains * beams
    h *= np.array(scales)[:, None]
    return h
