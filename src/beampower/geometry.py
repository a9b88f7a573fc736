"""Two-cell layout, user drops and the reflected random walk."""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .config import NetworkConfig


@dataclass(frozen=True)
class BsSite:
    """A base-station site at a fixed position."""

    id: int
    x: float
    y: float


@dataclass(frozen=True)
class Layout:
    sites: tuple[BsSite, ...]
    cell_radius_m: float
    intersite_m: float

    def site(self, sid: int) -> BsSite:
        return self.sites[sid]


def build_layout(config: NetworkConfig) -> Layout:
    """Place the two sites on a line, R = intersite_factor * r apart."""
    big_r = config.intersite_m
    sites = (BsSite(id=0, x=0.0, y=0.0), BsSite(id=1, x=big_r, y=0.0))
    return Layout(sites=sites, cell_radius_m=config.cell_radius_m, intersite_m=big_r)


def uniform_disk_point(rng: np.random.Generator, cx: float, cy: float, r: float):
    """Uniform point on the disk of radius r centred at (cx, cy)."""
    rad = r * math.sqrt(rng.random())
    ang = 2.0 * math.pi * rng.random()
    return cx + rad * math.cos(ang), cy + rad * math.sin(ang)


def associate(x: float, y: float, layout: Layout) -> int:
    """Nearest-site rule; ties go to the lowest site id."""
    best, best_d2 = 0, float("inf")
    for s in layout.sites:
        d2 = (x - s.x) ** 2 + (y - s.y) ** 2
        if d2 < best_d2 - 1e-12:
            best, best_d2 = s.id, d2
    return best


def mobility_step_m(speed_kmh: float, dt_s: float) -> float:
    """Displacement per step for a speed in km/h."""
    return speed_kmh / 3.6 * dt_s


def reflect_into_cell(x: float, y: float, site: BsSite, r: float):
    """Radial reflection at the cell-disk boundary.

    A point within 3r of the site, as a step of at most 2r from inside the
    disk lands (the config rejects longer ones), maps back into the disk.
    """
    dx, dy = x - site.x, y - site.y
    d = math.hypot(dx, dy)
    if d <= r or d == 0.0:
        return x, y
    scale = (2.0 * r - d) / d
    return site.x + dx * scale, site.y + dy * scale
