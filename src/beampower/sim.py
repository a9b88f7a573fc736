"""Two-cell episode machinery: environment, decision engines, the episode
loop, run-level metrics and CSV trace emission.

Conventions
-----------
* BS 0 is "l" (serves UE 0), BS 1 is "b" (serves UE 1); the action register
  addresses them as described in :mod:`beampower.radio`.
* One UE is active per BS, so UE j is served by BS j, j < ``N_CELLS``.
  Each episode drops the UEs afresh and walks them independently of any
  engine decision, so every engine sees bit-identical mobility and channel
  traces for the same (config, seed).
* The learners' state at a step is the 8-vector ``TwoCellEnv.observe``
  builds: each UE's reported position relative to its serving site over the
  cell radius, each BS's power as (P - P_max) / 40 and its beam index as
  2 (n + 1/2) / M - 1, l before b.  A step is scored by one
  ``radio.sinr_db`` call per UE on the step's channels, powers and beams.
* All per-episode randomness (fading, shadowing, walk directions) comes
  from a substream keyed by (seed, episode), and all of it is drawn when
  the episode begins, so the substream is consumed the same way however
  early the radio loop aborts.  The walk itself is advanced only as far as
  a step asks for.
* The four BS->UE links' fading is drawn once per episode, and
  :func:`beampower.channel.link_set` folds the draws into one table, a row
  per link: site, path-loss constants, shadowing and, for an NLOS link, the
  small-scale sum over its fixed paths.  A step realises the rows together
  at the current positions (:func:`beampower.channel.realize_channel`): a
  distance, a path-loss term and a scale per link, plus one exponential
  shared by the LOS links.
* An episode keeps its steps in one flat ``array('d')``, its step log:
  ``LOG_WIDTH`` floats per step, and row k is step t = k.  ``LOG_COLUMNS``
  gives the columns' order, and each one's trace name and text both ways.
  A step without an action stores -1 and a step without a loss NaN; a loss
  that is not finite raises ``TrainingDiverged``, so NaN never stands for a
  real one.  Every number in the log is the float the step computed, so
  traces and summaries read from it are those of the step values.  Only the
  benchmark's fingerprint reads ``EpisodeResult.steps`` (``StepRecord``s).
* A trace reads back as its run: ``read_trace`` parses each row straight
  into its episode's log and rebuilds the ``RunResult``, judging each
  episode's ending by ``episode_ending`` as ``run_episode`` does, with every
  timing 0.  So ``summarize_run`` builds every summary row, ``ccdf_file``
  included, for a run just finished and for one read from its trace alike.
"""

from __future__ import annotations

import math
import operator
import time
from array import array
from collections import defaultdict
from dataclasses import dataclass
from typing import NamedTuple, Sequence

import numpy as np

from .agents import (PolicyState, QNetwork, QTable, ReplayBuffer, TrainingDiverged,
                     decay_epsilon, select_action, sgd_step, tabular_update)
from .channel import (ChannelModel, build_codebook, draw_link_fading, link_set,
                      noise_power_dbm, realize_channel)
from .config import ALLOWED_ENGINES, ConfigError, NetworkConfig, text_hash
from .geometry import (Layout, associate, build_layout, mobility_step_m,
                       reflect_into_cell, uniform_disk_point)
from .oracle import SearchSpace, brute_force, n_candidates
from .radio import (N_ACTIONS, REGISTER, CodeRateMap, JointCommand, db_to_lin,
                    apply_power_cmd, effective_sinr_db, fpa_power_dbm, sinr_db,
                    step_beam, sum_rate)

IDX_ELL = 0
IDX_B = 1
N_CELLS = 2

_STREAM_EPISODE = 202
_STREAM_AGENT = 303


class StepRecord(NamedTuple):
    t: int
    action: int | None
    reward: float
    sinr_db: tuple               # (l, b)
    eff_sinr_db: tuple           # (l, b)
    powers_dbm: tuple
    beams: tuple
    loss: float | None


# an episode's step log, column by column in trace order: (trace name, text
# of a value, value of a text); a float's ``repr`` reads back as that float
_FLOAT = (repr, float)
_BEAM = (lambda n: str(int(n)), int)
LOG_COLUMNS = (
    ("action_hex", lambda a: "" if a < 0 else format(int(a), "x"),
     lambda text: int(text, 16) if text else _NO_ACTION),
    ("p_ell_dbm", *_FLOAT), ("p_b_dbm", *_FLOAT),
    ("beam_ell", *_BEAM), ("beam_b", *_BEAM),
    ("sinr_ell_db", *_FLOAT), ("sinr_b_db", *_FLOAT),
    ("eff_sinr_ell_db", *_FLOAT), ("eff_sinr_b_db", *_FLOAT),
    ("reward", *_FLOAT),
    ("loss", lambda x: "" if math.isnan(x) else repr(x),
     lambda text: float(text) if text else _NO_LOSS),
)
LOG_WIDTH = len(LOG_COLUMNS)
_NO_ACTION, _NO_LOSS = -1.0, math.nan      # stored for no action, no loss
_LOG_NAMES = tuple(name for name, _, _ in LOG_COLUMNS)
_REWARD = _LOG_NAMES.index("reward")
_EFF = _LOG_NAMES.index("eff_sinr_ell_db")     # then eff_sinr_b_db
_call = getattr(operator, "call", lambda f, x: f(x))  # operator.call: Python 3.11+


def _eff_sinr_pairs(log: array) -> list[tuple]:
    """Each step's (l, b) effective SINRs in a step log."""
    return list(zip(log[_EFF::LOG_WIDTH], log[_EFF + 1::LOG_WIDTH]))


@dataclass(slots=True)
class EpisodeResult:
    """One episode: its step log (see the module notes) and how it ended."""

    index: int
    log: array
    converged: bool
    aborted: bool
    wall_time_s: float
    decision_time_s: float

    @property
    def n_steps(self) -> int:
        return len(self.log) // LOG_WIDTH

    @property
    def steps(self) -> list[StepRecord]:
        """The steps as records; only the benchmark's fingerprint reads them."""
        log, w = self.log, LOG_WIDTH
        records = []
        for t in range(self.n_steps):
            a, p_ell, p_b, n_ell, n_b, g_ell, g_b, e_ell, e_b, r, loss = log[t * w:t * w + w]
            records.append(StepRecord(
                t=t, action=None if a < 0 else int(a), reward=r,
                sinr_db=(g_ell, g_b), eff_sinr_db=(e_ell, e_b),
                powers_dbm=(p_ell, p_b), beams=(int(n_ell), int(n_b)),
                loss=None if math.isnan(loss) else loss))
        return records

    @property
    def total_reward(self) -> float:
        return sum(self.log[_REWARD::LOG_WIDTH])

    def eff_sinr_samples(self) -> list[float]:
        return [g for pair in self.eff_sinr_pairs() for g in pair]

    def eff_sinr_pairs(self) -> list[tuple]:
        return _eff_sinr_pairs(self.log)


class TwoCellEnv:
    """Downlink environment with two mutually interfering cells."""

    def __init__(self, config: NetworkConfig, m: int, seed: int):
        self.config = config
        self.m = m
        self.seed = seed
        self.q = config.q
        self.layout = build_layout(config)
        self.codebook = build_codebook(m, config.d_over_lambda, config.codebook_centered)
        self.chan_model = ChannelModel.from_config(config)
        self.noise_dbm = noise_power_dbm(config.bandwidth_hz, config.noise_figure_db)
        self.noise_mw = db_to_lin(self.noise_dbm)
        self.code_map = CodeRateMap.from_config(config)
        self.gamma_target_db = config.gamma_target_db(m)
        self.gamma_min_db = config.gamma_min_db
        self.t_steps = config.frame_steps
        self._step_m = mobility_step_m(config.ue_speed_kmh, config.dt_s)

        if config.initial_power_dbm is not None:
            p0 = config.initial_power_dbm
        elif self.q == 0:
            p0 = fpa_power_dbm(config.n_prb_total, config.n_prb_ue, config.max_power_dbm)
        else:
            p0 = config.max_power_dbm
        self.initial_power_dbm = p0
        self.powers_dbm = [p0] * N_CELLS
        self.beams = [0] * N_CELLS

        self.episode = -1
        self._angles = None          # [ue] walk directions, T floats each
        self._traj = None            # [ue] positions (x, y) walked so far
        self._links = None           # LinkSet, row N_CELLS * ue + bs
        self._chan_cache = {}

    # ---- episode lifecycle -------------------------------------------------

    def begin_episode(self, episode: int | None = None) -> int:
        """Re-drop the UEs, draw the walk directions and the links' fading.

        Every episode is an independent trial: positions, path angles, and
        fading all come from a substream keyed by (seed, episode), so the
        trace of episode k is the same whichever engine drove the run and
        episode k can be reconstructed without replaying 0..k-1.  Transmit
        powers and beam indices are the agent's to carry across episodes.
        The walk is advanced on demand by ``_walk_to``.
        """
        self.episode = self.episode + 1 if episode is None else episode
        rng = np.random.Generator(np.random.PCG64(
            np.random.SeedSequence((self.seed, _STREAM_EPISODE, self.episode))))
        sites = self.layout.sites
        drops = []
        for site in sites:
            while True:
                x, y = uniform_disk_point(rng, site.x, site.y,
                                          self.config.cell_radius_m)
                if associate(x, y, self.layout) == site.id:
                    break
            drops.append((x, y))
        # one row per UE, drawn in the order of one draw per UE
        self._angles = rng.uniform(0.0, 2.0 * math.pi,
                                   size=(N_CELLS, self.t_steps)).tolist()
        model = self.chan_model
        row_sites = [site for _ in range(N_CELLS) for site in sites]
        self._links = link_set(model, [draw_link_fading(model, rng) for _ in row_sites],
                               row_sites, self.m)
        self._traj = [[drop] for drop in drops]
        self._chan_cache = {}
        return self.episode

    def _walk_to(self, pos_idx: int) -> None:
        """Advance every UE's walk until positions 0..pos_idx are known."""
        walked = len(self._traj[0]) - 1
        if pos_idx <= walked:
            return
        step, r = self._step_m, self.config.cell_radius_m
        for site, angles, path in zip(self.layout.sites, self._angles, self._traj):
            x, y = path[-1]
            for a in angles[walked:pos_idx]:
                x += step * math.cos(a)
                y += step * math.sin(a)
                x, y = reflect_into_cell(x, y, site, r)
                path.append((x, y))

    # ---- per-step views ----------------------------------------------------

    def positions(self, pos_idx: int) -> list:
        """Each UE's (x, y) after its first ``pos_idx`` moves, UE l first."""
        self._walk_to(pos_idx)
        return [path[pos_idx] for path in self._traj]

    def _state_at(self, pos_idx: int) -> np.ndarray:
        (x_ell, y_ell), (x_b, y_b) = self.positions(pos_idx)
        site_ell, site_b = self.layout.sites
        r, p_max, m = self.layout.cell_radius_m, self.config.max_power_dbm, self.m
        (p_ell, p_b), (n_ell, n_b) = self.powers_dbm, self.beams
        return np.array([(x_ell - site_ell.x) / r, (y_ell - site_ell.y) / r,
                         (x_b - site_b.x) / r, (y_b - site_b.y) / r,
                         (p_ell - p_max) / 40.0, (p_b - p_max) / 40.0,
                         2.0 * (n_ell + 0.5) / m - 1.0, 2.0 * (n_b + 0.5) / m - 1.0])

    def observe(self, k: int) -> np.ndarray:
        """The learners' state after the k-th move (UEs move, then the agent
        acts); see the module notes."""
        return self._state_at(k + 1)

    def channels(self, k: int):
        """channels[ue][bs] at step k, (M,) arrays realised in one batch from
        the episode's links."""
        if k not in self._chan_cache:
            pos = [xy for xy in self.positions(k + 1) for _ in range(N_CELLS)]
            h = realize_channel(self._links, pos)
            self._chan_cache[k] = [[h[N_CELLS * u + b] for b in range(N_CELLS)]
                                   for u in range(N_CELLS)]
        return self._chan_cache[k]

    def sinrs_db(self, k: int) -> tuple:
        chans, powers, beams = self.channels(k), self.powers_dbm, self.beams
        return tuple(sinr_db(chans, powers, beams, self.codebook, self.noise_mw, u)
                     for u in range(N_CELLS))

    # ---- command application ----------------------------------------------

    def apply_register(self, cmd: JointCommand) -> None:
        """Apply one ``REGISTER`` row to both BSs' powers and beams."""
        cfg = self.config
        self.powers_dbm[IDX_B] = apply_power_cmd(
            self.powers_dbm[IDX_B], cmd.dp_b_db, cfg.max_power_dbm, cfg.power_floor_dbm)
        self.powers_dbm[IDX_ELL] = apply_power_cmd(
            self.powers_dbm[IDX_ELL], cmd.dp_ell_db, cfg.max_power_dbm, cfg.power_floor_dbm)
        self.beams[IDX_ELL] = step_beam(self.beams[IDX_ELL], cmd.dbeam_ell, self.m)
        self.beams[IDX_B] = step_beam(self.beams[IDX_B], cmd.dbeam_b, self.m)

    def set_levels(self, powers_dbm: Sequence[float], beams: Sequence[int]) -> None:
        self.powers_dbm = list(powers_dbm)
        self.beams = [int(n) % self.m for n in beams]


# ---------------------------------------------------------------------------
# decision engines


# An engine's ``act(env, k, s)`` returns the action register value it applies
# at step k, or None when it sets the levels itself.  An engine that learns
# defines ``learn(s, a, r, s_next)`` and ``finish_episode(bonus)``; only such
# an engine is handed states, and ``s_next`` is None on a terminal step.


class FpaEngine:
    """Fixed power allocation: constant per-PRB power share, no coordination."""

    def __init__(self, config: NetworkConfig, env: TwoCellEnv, seed: int):
        self.power_dbm = fpa_power_dbm(config.n_prb_total, config.n_prb_ue,
                                       config.max_power_dbm)

    def begin_episode(self, env: TwoCellEnv) -> None:
        env.set_levels([self.power_dbm] * N_CELLS, [0] * N_CELLS)

    def act(self, env, k, s):
        return None


class BruteForceEngine:
    """Exhaustive re-optimisation of absolute powers and beams every step."""

    def __init__(self, config: NetworkConfig, env: TwoCellEnv, seed: int):
        self.space = SearchSpace(power_grid_dbm=tuple(config.oracle_power_grid),
                                 codebook=env.codebook)

    def begin_episode(self, env: TwoCellEnv) -> None:
        pass

    def act(self, env, k, s):
        res = brute_force(env.channels(k), self.space, env.q, env.code_map,
                          env.noise_mw)
        env.set_levels(res.powers_dbm, res.beams)
        return None


class DqnEngine:
    """Replay-trained Q-network over the joint action register."""

    def __init__(self, config: NetworkConfig, env: TwoCellEnv, seed: int):
        self.rng = np.random.default_rng(np.random.SeedSequence((seed, _STREAM_AGENT)))
        self.net = QNetwork.initialize(self.rng, width=config.net_width)
        self.policy = PolicyState.from_config(config)
        self.buffer = ReplayBuffer(config.replay_capacity)
        self.n_mb = config.minibatch
        self.eta = config.learning_rate

    def begin_episode(self, env: TwoCellEnv) -> None:
        pass

    def act(self, env, k, s):
        decay_epsilon(self.policy)
        return select_action(self.net, s, self.policy, self.rng)

    def learn(self, s, a, r, s_next):
        self.buffer.push(s, a, r, s_next)
        if len(self.buffer) < self.n_mb:
            return None
        _, loss = sgd_step(self.net, *self.buffer.sample(self.n_mb, self.rng),
                           self.policy.discount, self.eta)
        return loss

    def finish_episode(self, bonus: float) -> None:
        self.buffer.adjust_last_reward(bonus)


class TabularEngine:
    """Discretised Q-learning over the same state and action space."""

    def __init__(self, config: NetworkConfig, env: TwoCellEnv, seed: int):
        self.rng = np.random.default_rng(np.random.SeedSequence((seed, _STREAM_AGENT)))
        self.table = QTable(bins=config.tabular_bins)
        self.policy = PolicyState.from_config(config)
        self.alpha = config.tabular_alpha
        self._last_update = None
        self._memo = (None, None)    # (state array, its table row)

    def _row(self, s):
        # run_episode hands act, and then learn, the array that learn looked
        # up as the previous step's next state; reuse its row by identity.
        # Table rows never move, so a memoised row stays valid as it grows
        if s is not self._memo[0]:
            table = self.table
            self._memo = (s, table.row(table.state_index(s)))
        return self._memo[1]

    def begin_episode(self, env: TwoCellEnv) -> None:
        pass

    def act(self, env, k, s):
        decay_epsilon(self.policy)
        s_idx = self._row(s)
        if self.rng.random() < self.policy.epsilon:
            return int(self.rng.integers(N_ACTIONS))
        row = self.table.values[s_idx]
        best = np.flatnonzero(row == row.max())
        # break value ties at random: the table starts all-zero and a fixed
        # tie-break would hard-wire one register until rewards arrive
        return int(self.rng.choice(best))

    def learn(self, s, a, r, s_next):
        s_idx = self._row(s)
        # look the rows up before the update: the next one may grow (replace)
        # table.values
        s_next_idx = None if s_next is None else self._row(s_next)
        tabular_update(self.table.values, s_idx, a, r, s_next_idx,
                       self.alpha, self.policy.discount)
        self._last_update = (s_idx, a)
        return None

    def finish_episode(self, bonus: float) -> None:
        # the update for the final step already ran; the target is linear in
        # r, so adding alpha * bonus reproduces the patched update exactly
        if self._last_update is not None:
            s_idx, a = self._last_update
            self.table.values[s_idx, a] += self.alpha * bonus


def make_engine(name: str, config: NetworkConfig, env: TwoCellEnv, seed: int):
    try:
        cls = {"fpa": FpaEngine, "brute_force": BruteForceEngine,
               "dqn": DqnEngine, "tabular": TabularEngine}[name]
    except KeyError:
        raise ConfigError(f"engines must be one of {ALLOWED_ENGINES}, got {name!r}")
    return cls(config, env, seed)


# ---------------------------------------------------------------------------
# episode loop


def episode_ending(log: array, frame_steps: int, gamma_target_db: float,
                   gamma_min_db: float) -> tuple[bool, bool]:
    """(aborted, converged) of an episode from its step log: it aborted when
    its last step left a UE's effective SINR below ``gamma_min_db``, and it
    converged when it ran all ``frame_steps`` steps with every UE at
    ``gamma_target_db`` or above at each."""
    effs = _eff_sinr_pairs(log)
    aborted = min(effs[-1]) < gamma_min_db
    converged = (not aborted and len(effs) == frame_steps
                 and all(e_ell >= gamma_target_db and e_b >= gamma_target_db
                         for e_ell, e_b in effs))
    return aborted, converged


def run_episode(env: TwoCellEnv, engine) -> EpisodeResult:
    """One frame of ``env.t_steps`` steps: observe, act, score, learn.

    A step's reward is the post-action SINR sum on the data bearer, and on
    the voice bearer the power-code difference of the register's row (0 for
    a step without an action).  The episode aborts (with the reward
    overwritten by r_min) as soon as any UE's effective SINR falls below
    ``env.gamma_min_db``; if instead the final step meets
    ``env.gamma_target_db`` for every UE, r_max is added to the final reward
    and patched into a learning engine's stored experience.
    """
    cfg = env.config
    q, t_steps = env.q, env.t_steps
    gamma_target, gamma_min = env.gamma_target_db, env.gamma_min_db
    register = REGISTER[q]
    episode_index = env.begin_episode()
    engine.begin_episode(env)
    learns = hasattr(engine, "learn")

    log = []
    decision_s = 0.0
    wall0 = time.perf_counter()
    s = env.observe(0) if learns else None
    for k in range(t_steps):
        t0 = time.perf_counter()
        a = engine.act(env, k, s)
        decision_s += time.perf_counter() - t0
        if a is not None:
            cmd = register[a]
            env.apply_register(cmd)
        g_ell, g_b = env.sinrs_db(k)
        eff_ell = effective_sinr_db(g_ell, q, env.code_map)
        eff_b = effective_sinr_db(g_b, q, env.code_map)
        if q == 1:
            r = g_b + g_ell
        elif a is not None:
            r = cmd.dp_b_db - cmd.dp_ell_db
        else:
            r = 0.0
        abort = min(eff_ell, eff_b) < gamma_min
        if abort:
            r = cfg.r_min
        loss = None
        if learns:
            # a continuing step's next state is the state the next step acts
            # on; a terminal step has none
            s_next = None if abort or k == t_steps - 1 else env.observe(k + 1)
            t0 = time.perf_counter()
            loss = engine.learn(s, a, r, s_next)
            decision_s += time.perf_counter() - t0
            s = s_next
        log += (_NO_ACTION if a is None else a, *env.powers_dbm, *env.beams,
                g_ell, g_b, eff_ell, eff_b, r, _NO_LOSS if loss is None else loss)
        if abort:
            break

    log = array("d", log)
    aborted, converged = episode_ending(log, t_steps, gamma_target, gamma_min)
    # a frame has at least one step, and one that did not abort ran them all
    if not aborted and min(eff_ell, eff_b) >= gamma_target:
        log[_REWARD - LOG_WIDTH] += cfg.r_max
        if learns:
            engine.finish_episode(cfg.r_max)

    return EpisodeResult(index=episode_index, log=log, converged=converged,
                         aborted=aborted, wall_time_s=time.perf_counter() - wall0,
                         decision_time_s=decision_s)


@dataclass
class RunResult:
    """A run's episodes; its totals derive from them."""

    engine: str
    m: int
    seed: int
    episodes: list

    @property
    def zeta(self) -> int | None:
        """1-based index of the first converged episode."""
        return convergence_episode(self.episodes)

    @property
    def steps_total(self) -> int:
        return sum(e.n_steps for e in self.episodes)

    @property
    def wall_time_s(self) -> float:
        return sum(e.wall_time_s for e in self.episodes)

    @property
    def decision_time_s(self) -> float:
        return sum(e.decision_time_s for e in self.episodes)


def run_experiment(config: NetworkConfig, m: int, seed: int, engine_name: str,
                   stop_on_convergence: bool = True) -> RunResult:
    """Run episodes until the target holds for a whole frame, or until
    ``config.episode_cap`` episodes have run.

    A ``TrainingDiverged`` is raised again with the episode index in front.
    Overflow warnings are silenced for the whole run: a diverging learner
    overflows before its loss stops being finite, and that check reports it.
    """
    if m not in config.m_list:
        raise ConfigError(f"M={m} is not in the configured m_list {config.m_list}")
    env = TwoCellEnv(config, m, seed)
    engine = make_engine(engine_name, config, env, seed)
    episodes = []
    with np.errstate(over="ignore", invalid="ignore"):
        for _ in range(config.episode_cap):
            try:
                res = run_episode(env, engine)
            except TrainingDiverged as exc:
                raise TrainingDiverged(f"episode {env.episode}: {exc}") from exc
            episodes.append(res)
            if stop_on_convergence and res.converged:
                break
    return RunResult(engine=engine_name, m=m, seed=seed, episodes=episodes)


# ---------------------------------------------------------------------------
# run-level metrics


def convergence_episode(results: Sequence[EpisodeResult]) -> int | None:
    """1-based index of the first episode that held the target for a full
    frame; None if none did."""
    for i, r in enumerate(results):
        if r.converged:
            return i + 1
    return None


def best_complete_episode(results: Sequence[EpisodeResult]) -> EpisodeResult | None:
    """Highest-total-reward non-aborted episode (earliest on ties)."""
    best = None
    for r in results:
        if r.aborted or not r.log:
            continue
        if best is None or r.total_reward > best.total_reward:
            best = r
    return best


def sum_rate_summary(results: Sequence[EpisodeResult]) -> float | None:
    """The largest sum rate of a complete episode, or None if every episode
    aborted."""
    return max((sum_rate(r.eff_sinr_pairs()) for r in results
                if not r.aborted and r.log), default=None)


CCDF_POINTS = 101


def ccdf(samples: Sequence[float]) -> np.ndarray:
    """Empirical P(X > x) on a uniform dB grid of ``CCDF_POINTS`` spanning the
    samples."""
    x = np.asarray(samples, dtype=float)
    if x.size == 0:
        raise ValueError("need at least one sample")
    lo, hi = float(x.min()), float(x.max())
    t = np.linspace(lo, hi, CCDF_POINTS) if hi > lo else np.array([lo])
    probs = np.array([(x > thr).mean() for thr in t])
    return np.column_stack([t, probs])


def throughput_and_frame_loss(zeta: int, t_frame_ms: float, payload_bits: float,
                              activity: float) -> tuple:
    """Payload rate over the episodes spent converging, and the voice frames
    lost while doing so: (payload/(T*zeta) in bits/s, ceil(activity*zeta))."""
    if zeta < 1:
        raise ValueError(f"convergence episode must be >= 1, got {zeta}")
    throughput = payload_bits / (t_frame_ms * 1e-3 * zeta)
    lost = math.ceil(round(activity * zeta, 9))
    return throughput, lost


def backhaul_messages_per_episode(config: NetworkConfig) -> int:
    """Measurement reports relayed per episode: g per step from each of the
    N_CELLS UEs (one per BS) to each of the N_CELLS BSs."""
    return config.meas_per_step * N_CELLS * N_CELLS * config.frame_steps


# ---------------------------------------------------------------------------
# CSV traces

TRACE_COLUMNS = ("t", "engine", "q", "m", "seed", "episode", *_LOG_NAMES)

SUMMARY_COLUMNS = ("engine", "m", "seed", "q", "episodes", "steps", "zeta",
                   "converged", "aborted_episodes", "best_episode",
                   "max_sum_rate", "throughput_bps", "lost_voice_frames",
                   "backhaul_msgs_per_episode", "candidates_per_step",
                   "decision_time_s", "wall_time_s", "ccdf_file")

# wall-clock columns are excluded from reproducibility comparisons
TIMING_COLUMNS = ("decision_time_s", "wall_time_s")

TRACE_VERSION = "# beampower trace v2"


def fmt(v) -> str:
    """A value's text in the output files, trace step columns aside; ``repr``
    reads back as the same float, so a recomputed summary equals the run's."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return "1" if v else "0"
    if isinstance(v, float):
        return repr(float(v))
    return str(v)


def trace_header(config_text: str, layout: Layout) -> str:
    """Everything above a trace's rows, column line included, for the config
    serialised as ``config_text``."""
    lines = [TRACE_VERSION,
             f"# config_hash = {text_hash(config_text)}"]
    for ln in config_text.strip().splitlines():
        lines.append(f"# cfg {ln}")
    for s in layout.sites:
        lines.append(f"# layout site{s.id} = {fmt(s.x)},{fmt(s.y)}")
    lines.append(f"# layout r = {fmt(layout.cell_radius_m)}")
    lines.append(f"# layout R = {fmt(layout.intersite_m)}")
    lines.append(",".join(TRACE_COLUMNS))
    return "\n".join(lines) + "\n"


def trace_rows(run: RunResult, config: NetworkConfig) -> list[str]:
    rows = []
    w, writers = LOG_WIDTH, [write for _, write, _ in LOG_COLUMNS]
    for ep in run.episodes:
        run_cols = f"{run.engine},{config.q},{run.m},{run.seed},{ep.index}"
        for t in range(ep.n_steps):
            rows.append(",".join([str(t), run_cols,
                                  *map(_call, writers, ep.log[t * w:t * w + w])]))
    return rows


def write_trace(path, header: str, rows: Sequence[str]) -> None:
    """Write a trace: ``trace_header`` text, then one line per row."""
    with open(path, "w", newline="\n") as fh:
        fh.write(header)
        fh.writelines(f"{row}\n" for row in rows)


def read_trace(path) -> tuple[NetworkConfig, RunResult | None]:
    """The config in a trace's header and the run its rows hold, timings 0;
    the run is None for a trace without rows.  Each row goes straight into
    its episode's step log, and each episode's ending is judged from the log
    by ``episode_ending``, as ``run_episode`` judges it.  A row that does not
    parse, or that belongs to another run than the first row or the header's
    config, raises ``ValueError`` naming the file and the line."""
    with open(path) as fh:
        version = fh.readline().rstrip("\n")
        if version != TRACE_VERSION:
            raise ValueError(f"unsupported trace version in {path}: {version!r}, "
                             f"expected {TRACE_VERSION!r}")
        cfg_lines = []
        lineno = 1
        for lineno, raw in enumerate(fh, 2):
            line = raw.rstrip("\n")
            if line.startswith("# cfg "):
                cfg_lines.append(line[len("# cfg "):])
            elif line and not line.startswith("#"):
                if tuple(line.split(",")) != TRACE_COLUMNS:
                    raise ValueError(f"unexpected trace columns in {path}")
                break
        config = NetworkConfig.from_text("\n".join(cfg_lines))
        readers, n_fields = [read for _, _, read in LOG_COLUMNS], len(TRACE_COLUMNS)
        logs: dict[int, array] = defaultdict(lambda: array("d"))
        key = None               # (engine, q, m, seed) text of the first row
        for lineno, raw in enumerate(fh, lineno + 1):
            if raw == "\n" or raw.startswith("#"):
                continue
            vals = raw.rstrip("\n").split(",")
            if len(vals) != n_fields:
                raise ValueError(f"{path} line {lineno}: expected {n_fields} fields, "
                                 f"found {len(vals)}")
            try:
                t, ep = int(vals[0]), int(vals[5])
                step = list(map(_call, readers, vals[6:]))
                if key is None:
                    key, key_line = vals[1:5], lineno
                    q, m, seed = map(int, key[1:])
            except ValueError as exc:
                raise ValueError(f"{path} line {lineno}: expected a number in every "
                                 f"step column, {exc}") from None
            if vals[1:5] != key:
                raise ValueError(f"{path} line {lineno}: expected engine,q,m,seed = "
                                 f"{','.join(key)} as on line {key_line}, found "
                                 f"{','.join(vals[1:5])}")
            log = logs[ep]
            # t is the step's position in its episode's log
            if t != len(log) // LOG_WIDTH:
                raise ValueError(f"{path} line {lineno}: episode {ep} has a step t = "
                                 f"{t} where t = {len(log) // LOG_WIDTH} belongs")
            log.fromlist(step)
    if key is None:
        return config, None
    if q != config.q or m not in config.m_list:
        raise ValueError(f"{path} line {key_line}: expected q = {config.q} and M "
                         f"in {config.m_list}, as the header's config has, found "
                         f"q = {q}, M = {m}")
    gamma_target, gamma_min = config.gamma_target_db(m), config.gamma_min_db
    episodes = []
    for idx, log in sorted(logs.items()):
        aborted, converged = episode_ending(log, config.frame_steps, gamma_target,
                                            gamma_min)
        episodes.append(EpisodeResult(index=idx, log=log, converged=converged,
                                      aborted=aborted, wall_time_s=0.0,
                                      decision_time_s=0.0))
    return config, RunResult(engine=key[0], m=m, seed=seed, episodes=episodes)


def summarize_run(config: NetworkConfig, run: RunResult) -> dict:
    """The one summary row of a run, whether ``run_experiment`` returned it
    or ``read_trace`` rebuilt it from its trace: every column but the
    timings derives from what the trace holds.  ``ccdf_file`` names the
    CCDF file that ``run`` writes when a complete episode exists."""
    episodes = run.episodes
    zeta = run.zeta
    max_rate = sum_rate_summary(episodes)
    best = best_complete_episode(episodes)
    throughput = lost = None
    if zeta is not None:
        throughput, lost = throughput_and_frame_loss(
            zeta, config.frame_steps * config.step_ms, config.payload_bits,
            config.voice_activity)
        if config.q == 1:
            lost = None
    return {
        "engine": run.engine, "m": run.m, "seed": run.seed, "q": config.q,
        "episodes": len(episodes),
        "steps": run.steps_total,
        "zeta": zeta,
        "converged": zeta is not None,
        "aborted_episodes": sum(1 for e in episodes if e.aborted),
        "best_episode": None if best is None else best.index + 1,
        "max_sum_rate": max_rate,
        "throughput_bps": throughput,
        "lost_voice_frames": lost,
        "backhaul_msgs_per_episode": backhaul_messages_per_episode(config),
        "candidates_per_step": (n_candidates(len(config.oracle_power_grid), run.m)
                                if run.engine == "brute_force" else None),
        "decision_time_s": run.decision_time_s,
        "wall_time_s": run.wall_time_s,
        "ccdf_file": ("" if best is None
                      else f"ccdf_{run.engine}_M{run.m}_s{run.seed}.csv"),
    }


def summary_lines(rows: Sequence[dict]) -> list[str]:
    """The summary's lines for rows already in text (column -> ``fmt``
    text), the form ``read_summary`` returns."""
    lines = [",".join(SUMMARY_COLUMNS)]
    for row in rows:
        lines.append(",".join(row[c] for c in SUMMARY_COLUMNS))
    return lines


def read_summary(path) -> list[dict]:
    rows = []
    header = None
    with open(path) as fh:
        for raw in fh:
            line = raw.rstrip("\n")
            if not line or line.startswith("#"):
                continue
            if header is None:
                header = line.split(",")
                continue
            rows.append(dict(zip(header, line.split(","))))
    return rows
