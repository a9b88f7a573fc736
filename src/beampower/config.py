"""Experiment configuration: radio parameters, learning hyperparameters, run matrix.

A config can be built programmatically or loaded from a plain ``key = value``
text file.  Parameters that differ between the two bearer types (sub-6 GHz
voice, q=0, and mmWave data, q=1) default to the value for the selected
bearer when left unset.
"""

import dataclasses
import hashlib
import math
import typing
from dataclasses import dataclass
from pathlib import Path


class ConfigError(ValueError):
    """Raised for invalid configuration files or values."""


ALLOWED_M = (1, 4, 8, 16, 32, 64)
ALLOWED_ENGINES = ("fpa", "tabular", "dqn", "brute_force")

# (voice, data) defaults for bearer-dependent parameters.
_BEARER_DEFAULTS = {
    "cell_radius_m": (350.0, 150.0),
    "carrier_mhz": (2100.0, 28000.0),
    "tx_gain_dbi": (11.0, 3.0),
    "p_los": (0.9, 0.8),
    "n_paths_nlos": (15, 4),
    "ue_speed_kmh": (5.0, 2.0),
    "frame_steps": (20, 10),
    "bandwidth_hz": (180e3, 100e6),
    "eps_min": (0.15, 0.10),
    "m_list": ((1,), (4,)),
}


@dataclass(frozen=True)
class Interval:
    """The numbers from ``low`` to ``high``; ``ends`` is "[]", "[)", "(]" or
    "()", and a round bracket leaves that end out.  Every comparison with NaN
    is false, so NaN lies in no interval."""

    low: float
    high: float
    ends: str = "[]"

    def __contains__(self, x) -> bool:
        above = self.low < x if self.ends[0] == "(" else self.low <= x
        return above and (x < self.high if self.ends[1] == ")" else x <= self.high)

    def __str__(self) -> str:
        return f"{self.ends[0]}{self.low:g}, {self.high:g}{self.ends[1]}"


_POSITIVE = Interval(0, math.inf, "()")
_NON_NEGATIVE = Interval(0, math.inf, "[)")
_AT_LEAST_1 = Interval(1, math.inf, "[)")


def _ranged(default, bound):
    """A key whose value lies in ``bound``, an ``Interval`` or a tuple of the
    allowed values; ``_validate`` checks each entry of a non-empty list key."""
    return dataclasses.field(default=default, metadata={"range": bound})


@dataclass
class NetworkConfig:
    """All tunables for a run.  Unset bearer-dependent fields resolve per ``q``."""

    # bearer: 0 = sub-6 GHz voice, 1 = mmWave data
    q: int = _ranged(0, (0, 1))

    # geometry
    cell_radius_m: float | None = _ranged(None, _POSITIVE)
    # r > R/2 is required so neighbouring cells overlap and every point of
    # the plane between sites is covered
    intersite_factor: float = _ranged(1.5, Interval(0, 2, "()"))

    # radio
    max_power_dbm: float = 46.0
    # the floor is the low end of Okumura-Hata's stated 150-1500 MHz, which
    # COST231 extends upward; the close-in model states 0.5-100 GHz
    carrier_mhz: float | None = _ranged(None, Interval(150, math.inf, "[)"))
    tx_gain_dbi: float | None = None
    ue_gain_dbi: float = 0.0
    p_los: float | None = _ranged(None, Interval(0, 1))
    n_paths_nlos: int | None = _ranged(None, _AT_LEAST_1)
    ue_speed_kmh: float | None = _ranged(None, _NON_NEGATIVE)
    frame_steps: int | None = _ranged(None, _AT_LEAST_1)
    step_ms: float = _ranged(1.0, _POSITIVE)
    m_list: tuple[int, ...] | None = _ranged(None, ALLOWED_M)

    # antenna array / codebook
    d_over_lambda: float = _ranged(0.5, _POSITIVE)
    codebook_centered: bool = True

    # close-in path loss (mmWave)
    ci_exp_los: float = 2.0
    ci_exp_nlos: float = 3.0
    ci_shadow_los_db: float = 4.0
    ci_shadow_nlos_db: float = 8.0

    # COST231-Hata path loss (sub-6, urban)
    bs_height_m: float = _ranged(30.0, _POSITIVE)
    ue_height_m: float = _ranged(1.5, _POSITIVE)
    cost231_shadow_db: float = 8.0
    cost231_correction_db: float = 3.0

    # receiver noise
    noise_figure_db: float = 9.0
    bandwidth_hz: float | None = _ranged(None, _POSITIVE)

    # SINR targets
    gamma_target_voice_db: float = 3.0
    gamma_min_db: float = -3.0
    gamma0_bf_db: float = 5.0

    # learning
    discount: float = _ranged(0.995, Interval(0, 1, "[)"))
    eps_initial: float = _ranged(1.0, Interval(0, 1))
    eps_decay: float = _ranged(0.9995, Interval(0, 1, "(]"))
    eps_min: float | None = _ranged(None, Interval(0, 1))
    minibatch: int = _ranged(32, _AT_LEAST_1)
    learning_rate: float = _ranged(0.003, _NON_NEGATIVE)
    replay_capacity: int = _ranged(10_000, _AT_LEAST_1)
    r_min: float = -50.0
    r_max: float = 10.0
    tabular_alpha: float = _ranged(0.2, Interval(0, 1, "(]"))
    tabular_bins: int = _ranged(4, _AT_LEAST_1)

    # adaptive code rate (voice)
    code_rate_thresholds_db: tuple[float, ...] = (0.0, 5.0)
    code_rate_betas: tuple[float, ...] = _ranged((1.0 / 3.0, 0.5, 1.0),
                                                 Interval(1.0 / 3.0 - 1e-12, 1))
    voice_activity: float = _ranged(0.8, Interval(0, 1))

    # power allocation
    n_prb_total: int = _ranged(100, _AT_LEAST_1)
    n_prb_ue: int = _ranged(10, _AT_LEAST_1)
    power_floor_dbm: float | None = 0.0
    initial_power_dbm: float | None = None

    # exhaustive-search baseline
    oracle_power_grid: tuple[float, ...] = _ranged((40.0, 42.0, 44.0, 46.0),
                                                   Interval(-math.inf, math.inf, "()"))

    # run matrix; an empty list would run nothing and exit 0
    engines: tuple[str, ...] = _ranged(("dqn",), ALLOWED_ENGINES)
    seeds: tuple[int, ...] = _ranged((1,), _NON_NEGATIVE)
    episode_cap: int = _ranged(2000, _AT_LEAST_1)
    payload_bits: float = _ranged(1e4, _POSITIVE)
    meas_per_step: int = _ranged(1, _NON_NEGATIVE)

    def __post_init__(self):
        self._resolve()
        self._validate()

    def _resolve(self):
        # q picks the bearer defaults, so its own check runs before they are read
        q = _as_kind(int, self.q, "q")
        _check_range("q", q, _RANGES["q"])
        for name, pair in _BEARER_DEFAULTS.items():
            if getattr(self, name) is None:
                object.__setattr__(self, name, pair[q])
        # list-ish fields become tuples, and an int given to a float field a
        # float, so a config built in code serialises as its text form does;
        # a NaN or an infinity is never a valid value
        for name, kind in _FIELD_TYPES.items():
            value = getattr(self, name)
            if isinstance(kind, tuple):
                object.__setattr__(self, name,
                                   tuple(_as_kind(kind[0], v, name) for v in value))
            elif value is not None:
                object.__setattr__(self, name, _as_kind(kind, value, name))

    def _validate(self):
        for name, bound in _RANGES.items():
            _check_range(name, getattr(self, name), bound)
        # the walk's radial reflection keeps a UE in its disk only for steps
        # of at most 2r (a step from inside lands within 3r of the site)
        from .geometry import associate, build_layout, mobility_step_m
        step_m = mobility_step_m(self.ue_speed_kmh, self.dt_s)
        if not step_m <= 2.0 * self.cell_radius_m:
            raise ConfigError(
                f"ue_speed_kmh = {self.ue_speed_kmh} and step_ms = {self.step_ms} give "
                f"a {step_m:g} m walk step, longer than 2 * cell_radius_m = "
                f"{2.0 * self.cell_radius_m:g} m")
        # a UE is dropped again until it lands nearer its own site, so site 1
        # must win a point of its disk: halfway from the cell border to its edge
        layout = build_layout(self)
        if associate((layout.intersite_m + self.cell_radius_m) / 2, 0.0, layout) != 1:
            raise ConfigError(
                f"intersite_factor = {self.intersite_factor} and cell_radius_m = "
                f"{self.cell_radius_m} put the sites too close to tell apart")
        if self.q == 0 and self.m_list != (1,):
            raise ConfigError("voice bearer (q=0) uses a single antenna: m_list must be (1,)")
        if self.q == 1 and 1 in self.m_list:
            raise ConfigError("data bearer (q=1) requires M > 1 in every m_list entry")
        for name in ("power_floor_dbm", "initial_power_dbm"):
            value = getattr(self, name)
            if value is not None and not value <= self.max_power_dbm:
                raise ConfigError(f"{name} must be at most max_power_dbm, got "
                                  f"{value} > {self.max_power_dbm}")
        # a buffer that cannot hold a minibatch never trains
        if self.replay_capacity < self.minibatch:
            raise ConfigError(f"replay_capacity must be >= minibatch, got "
                              f"{self.replay_capacity} < {self.minibatch}")
        # the width rule must give a whole number of hidden units
        from .radio import N_ACTIONS
        if self.net_width ** 2 != (N_ACTIONS + 2) * self.minibatch:
            raise ConfigError(
                f"minibatch={self.minibatch} violates the width rule: "
                f"sqrt(({N_ACTIONS}+2)*minibatch) is not a whole number")
        if not self.eps_min <= self.eps_initial:
            raise ConfigError(f"eps_min {self.eps_min} exceeds eps_initial {self.eps_initial}")
        if len(self.code_rate_betas) != len(self.code_rate_thresholds_db) + 1:
            raise ConfigError("code_rate_betas must have one more entry than thresholds")
        betas = self.code_rate_betas
        if any(b2 < b1 for b1, b2 in zip(betas, betas[1:])):
            raise ConfigError("code_rate_betas must be non-decreasing")
        if any(t2 <= t1 for t1, t2 in
               zip(self.code_rate_thresholds_db, self.code_rate_thresholds_db[1:])):
            raise ConfigError("code_rate_thresholds_db must be strictly increasing")
        if any(p > self.max_power_dbm + 1e-9 for p in self.oracle_power_grid):
            raise ConfigError("oracle_power_grid may not exceed max_power_dbm")
        if not self.n_prb_ue <= self.n_prb_total:
            raise ConfigError(f"n_prb_ue {self.n_prb_ue} exceeds n_prb_total {self.n_prb_total}")

    # ---- derived quantities ------------------------------------------------

    @property
    def intersite_m(self) -> float:
        return self.intersite_factor * self.cell_radius_m

    @property
    def dt_s(self) -> float:
        return self.step_ms * 1e-3

    @property
    def net_width(self) -> int:
        """Hidden width by the rule H = sqrt((|A| + 2) * N_mb), |A| the
        register's values; ``_validate`` rejects a minibatch that leaves a
        remainder."""
        # radio imports this module, so import it here
        from .radio import N_ACTIONS
        return math.isqrt((N_ACTIONS + 2) * self.minibatch)

    def gamma_target_db(self, m: int) -> float:
        """Per-UE SINR target: 3 dB for voice, gamma0 + 10*log10(M) under beamforming."""
        if self.q == 0:
            return self.gamma_target_voice_db
        return self.gamma0_bf_db + 10.0 * math.log10(m)

    def replace(self, **kw) -> "NetworkConfig":
        """Copy with fields overridden; the copy is re-validated."""
        return dataclasses.replace(self, **kw)

    # ---- serialisation -----------------------------------------------------

    def to_text(self) -> str:
        lines = []
        for f in sorted(dataclasses.fields(self), key=lambda f: f.name):
            lines.append(f"{f.name} = {_format_value(getattr(self, f.name))}")
        return "\n".join(lines) + "\n"

    def config_hash(self) -> str:
        return text_hash(self.to_text())

    @classmethod
    def from_text(cls, text: str) -> "NetworkConfig":
        known = {f.name for f in dataclasses.fields(cls)}
        kw = {}
        for lineno, raw in enumerate(text.splitlines(), start=1):
            line = raw.split("#", 1)[0].strip()
            if not line:
                continue
            if "=" not in line:
                raise ConfigError(f"line {lineno}: expected 'key = value', got {raw!r}")
            key, _, value = line.partition("=")
            key = key.strip()
            if key not in known:
                raise ConfigError(f"unknown config key: {key!r}")
            kw[key] = parse_value(key, value.strip())
        return cls(**kw)

    @classmethod
    def load(cls, path: str | Path) -> "NetworkConfig":
        p = Path(path)
        if not p.exists():
            raise ConfigError(f"config file not found: {p}")
        return cls.from_text(p.read_text())


def text_hash(config_text: str) -> str:
    """The ``config_hash`` of a config serialised as ``config_text``."""
    return hashlib.sha256(config_text.encode()).hexdigest()[:12]


def _format_value(v) -> str:
    if v is None:
        return "none"
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, tuple):
        return ",".join(_format_value(x) for x in v)
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _kind(annotation):
    """A field's scalar parser: its type with ``None`` dropped from a union,
    and ``(X,)`` for a ``tuple[X, ...]``."""
    if typing.get_origin(annotation) is tuple:
        return (typing.get_args(annotation)[0],)
    args = [a for a in typing.get_args(annotation) if a is not type(None)]
    return _kind(args[0]) if args else annotation


_FIELD_TYPES = {f.name: _kind(f.type) for f in dataclasses.fields(NetworkConfig)}
# each key's own range, as declared beside its field with ``_ranged``
_RANGES = {f.name: f.metadata["range"] for f in dataclasses.fields(NetworkConfig)
           if "range" in f.metadata}


def _as_kind(kind, value, key: str):
    """``value`` as a float if a float field was given an int, else as is; a
    float that is not finite, a bool in a float or int field, or a
    non-integer in an int field, raises ``ConfigError`` naming ``key``."""
    if kind is float:
        if isinstance(value, bool):
            raise ConfigError(f"{key} takes numbers, got {value!r}")
        if isinstance(value, int):
            return float(value)
        if isinstance(value, float) and not math.isfinite(value):
            raise ConfigError(f"{key} must be finite, got {value}")
    elif kind is int:
        if isinstance(value, bool) or not hasattr(value, "__index__"):
            raise ConfigError(f"{key} takes integers, got {value!r}")
        return int(value)
    return value


def _check_range(key: str, value, bound) -> None:
    """Raise ``ConfigError`` naming ``key`` unless ``value`` lies in ``bound``."""
    entries = value if isinstance(value, tuple) else (value,)
    if not entries:
        raise ConfigError(f"{key} must be non-empty")
    for v in entries:
        if v not in bound:
            within = "one of" if isinstance(bound, tuple) else "in"
            raise ConfigError(f"{key} must be {within} {bound}, got {v!r}")


def _parse_scalar(kind, token: str, key: str):
    token = token.strip()
    if kind is bool:
        if token.lower() in ("true", "1", "yes"):
            return True
        if token.lower() in ("false", "0", "no"):
            return False
        raise ConfigError(f"{key}: expected a boolean, got {token!r}")
    if kind is str:
        return token
    try:
        return kind(token)
    except ValueError as exc:
        raise ConfigError(f"{key}: cannot parse {token!r} as {kind.__name__}") from exc


def parse_value(key: str, value: str):
    """The value of ``key`` from its config-file text; a list splits on commas."""
    kind = _FIELD_TYPES[key]
    if value.lower() == "none":
        return None
    if isinstance(kind, tuple):
        if not value:
            return ()
        return tuple(_parse_scalar(kind[0], tok, key) for tok in value.split(","))
    return _parse_scalar(kind, value, key)
