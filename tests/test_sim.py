"""Episode loop semantics, deterministic traces, and run summaries."""

import gc
import hashlib
import math
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from beampower import radio, sim
from beampower.channel import (ChannelModel, bearing, draw_link_fading, path_loss_terms,
                               steering_vector)
from beampower.config import ConfigError, NetworkConfig
from beampower.oracle import SearchSpace, brute_force
from beampower.sim import (
    TwoCellEnv,
    backhaul_messages_per_episode,
    best_complete_episode,
    ccdf,
    convergence_episode,
    make_engine,
    read_trace,
    run_episode,
    run_experiment,
    summarize_run,
    sum_rate_summary,
    throughput_and_frame_loss,
    trace_header,
    trace_rows,
    write_trace,
)
from channel_draws import replay_episode_channels


def _voice_cfg(**kw):
    kw.setdefault("engines", ("fpa",))
    kw.setdefault("episode_cap", 3)
    return NetworkConfig(q=0, **kw)


def test_identical_runs_produce_identical_traces():
    cfg = _voice_cfg()
    a = run_experiment(cfg, 1, 3, "fpa")
    b = run_experiment(cfg, 1, 3, "fpa")
    assert trace_rows(a) == trace_rows(b)


def test_channels_are_engine_independent():
    cfg = NetworkConfig(q=1, engines=("fpa",), m_list=(4,), episode_cap=2)
    env_a = TwoCellEnv(cfg, 4, 7)
    env_b = TwoCellEnv(cfg, 4, 7)
    env_a.begin_episode()          # sequential: episode 0
    env_a.begin_episode()          # episode 1
    env_b.begin_episode(1)         # direct jump to episode 1
    # different driving engines cannot change what the UEs will measure
    env_b.set_levels((0.0, 0.0), (3, 2))
    for k in range(cfg.frame_steps + 1):
        assert env_a.positions(k) == env_b.positions(k)
    for u in range(2):
        for s in range(2):
            assert np.allclose(env_a.channels(0)[u][s], env_b.channels(0)[u][s])


def test_observe_normalises_the_state_hand_case(monkeypatch):
    env = TwoCellEnv(NetworkConfig(q=1, m_list=(4,)), 4, 1)  # sites x=0, x=225; r=150
    asked = []

    def positions(pos_idx):
        asked.append(pos_idx)
        return [(15.0, -30.0), (240.0, 30.0)]

    monkeypatch.setattr(env, "positions", positions)
    env.set_levels((46.0, 6.0), (0, 3))
    want = [0.1, -0.2, 0.1, 0.2, 0.0, -1.0, -0.75, 0.75]
    assert env.observe(0) == pytest.approx(want)
    assert env.observe(env.t_steps - 1) == pytest.approx(want)
    # the state after move k + 1
    assert asked == [1, env.t_steps]


def test_walk_does_not_depend_on_read_order():
    # positions are walked on demand; reading a late step first must give
    # the positions and channels of a front-to-back read
    cfg = NetworkConfig(q=1, engines=("fpa",), m_list=(4,), episode_cap=2)
    env_a = TwoCellEnv(cfg, 4, 7)
    env_b = TwoCellEnv(cfg, 4, 7)
    env_a.begin_episode(1)
    env_b.begin_episode(1)
    t = cfg.frame_steps
    forward = [env_a.observe(k) for k in range(t)]
    last_first = env_b.observe(t - 1)
    backward = {k: env_b.observe(k) for k in reversed(range(t))}
    assert np.array_equal(last_first, forward[t - 1])
    for k in range(t):
        assert np.array_equal(forward[k], backward[k])
    env_c = TwoCellEnv(cfg, 4, 7)
    env_c.begin_episode(1)
    late = env_c.channels(t - 1)
    early = env_c.channels(0)
    for u in range(2):
        for s in range(2):
            assert np.array_equal(env_a.channels(t - 1)[u][s], late[u][s])
            assert np.array_equal(env_a.channels(0)[u][s], early[u][s])
    for k in range(t + 1):
        # the walk stays inside the serving cell
        for u, (x, y) in enumerate(env_a.positions(k)):
            site = env_a.layout.site(u)
            assert math.hypot(x - site.x, y - site.y) <= cfg.cell_radius_m + 1e-9


@pytest.fixture
def link_draws(monkeypatch):
    """Every LinkFading the simulator draws, in draw order."""
    draws = []

    def recording(model, rng):
        draws.append(draw_link_fading(model, rng))
        return draws[-1]

    monkeypatch.setattr(sim, "draw_link_fading", recording)
    return draws


def _reference_channel(cfg, model, fading, site, x, y, m):
    # the direct per-step formula that the episode's link table replaces
    d = math.hypot(x - site.x, y - site.y)
    pl_eff = (_reference_path_loss_db(cfg, d, fading.los) + fading.shadow_db
              - model.tx_gain_dbi - model.ue_gain_dbi)
    rho = 10.0 ** (pl_eff / 20.0)
    aods = np.array([bearing(site, x, y)]) if fading.los else fading.aods
    h = np.zeros(m, dtype=complex)
    for g, aod in zip(fading.gains, aods):
        h += g * steering_vector(aod, m, model.d_over_lambda)
    h *= math.sqrt(m) / rho
    return h


@pytest.mark.parametrize("q, m, p_los", [
    (0, 1, None), (0, 1, 0.0), (0, 1, 1.0),
    (1, 4, None), (1, 8, 0.0), (1, 8, 1.0), (1, 16, None),
])
def test_prepared_links_match_direct_formula_bit_for_bit(link_draws, q, m, p_los):
    extra = {} if p_los is None else {"p_los": p_los}
    cfg = NetworkConfig(q=q, m_list=(m,), **extra)
    model = ChannelModel.from_config(cfg)
    kinds = set()
    for seed in (2, 9):
        env = TwoCellEnv(cfg, m, seed)
        for episode in (0, 1, 5):
            del link_draws[:]
            env.begin_episode(episode)
            fading = [link_draws[0:2], link_draws[2:4]]   # [ue][bs], drawn in that order
            kinds.update(f.los for f in link_draws)
            for k in range(env.t_steps):
                pos = env.positions(k + 1)
                chans = env.channels(k)
                for u, (x, y) in enumerate(pos):
                    for b, site in enumerate(env.layout.sites):
                        ref = _reference_channel(cfg, model, fading[u][b], site, x, y, m)
                        assert np.array_equal(chans[u][b], ref)
    assert kinds == ({True, False} if p_los is None else {p_los == 1.0})


def _reference_path_loss_db(cfg, d, los):
    # the bearer's formulas written out in one expression each: close-in at
    # q=1, COST231-Hata at q=0
    if cfg.q == 1:
        n = cfg.ci_exp_los if los else cfg.ci_exp_nlos
        return 32.4 + 20.0 * math.log10(cfg.carrier_mhz / 1e3) + 10.0 * n * math.log10(d)
    f, hb, hm = cfg.carrier_mhz, cfg.bs_height_m, cfg.ue_height_m
    a_hm = (1.1 * math.log10(f) - 0.7) * hm - (1.56 * math.log10(f) - 0.8)
    return (46.3 + 33.9 * math.log10(f) - 13.82 * math.log10(hb) - a_hm
            + (44.9 - 6.55 * math.log10(hb)) * math.log10(d / 1e3)
            + cfg.cost231_correction_db)


@pytest.mark.parametrize("q", [0, 1])
def test_path_loss_split_is_exact(q):
    cfg = NetworkConfig(q=q)
    for los in (True, False):
        terms = path_loss_terms(cfg, los)
        for d in np.logspace(-1.0, 4.0, 151).tolist():
            ref = _reference_path_loss_db(cfg, d, los)
            assert terms.at(d) == ref


def _token(v) -> str:
    if isinstance(v, float):
        return v.hex()
    if isinstance(v, tuple):
        return "(" + ",".join(_token(x) for x in v) + ")"
    return repr(v)


def _steps(ep) -> list[dict]:
    """Each step of an episode's log as {column name: value}."""
    names, w = [name for name, _, _ in sim.LOG_COLUMNS], sim.LOG_WIDTH
    return [dict(zip(names, ep.log[k:k + w])) for k in range(0, len(ep.log), w)]


def _run_digest(run) -> str:
    # each step hashes as the tuple the pins below were recorded from: (t,
    # action or None, reward, the SINR, effective SINR and power pairs, the
    # int beam pair, loss or None), whatever the log's column order
    digest = hashlib.sha256()
    for ep in run.episodes:
        for t, s in enumerate(_steps(ep)):
            a, loss = s["action_hex"], s["loss"]
            digest.update(_token((
                ep.index, t, None if a < 0 else int(a), s["reward"],
                (s["sinr_ell_db"], s["sinr_b_db"]),
                (s["eff_sinr_ell_db"], s["eff_sinr_b_db"]),
                (s["p_ell_dbm"], s["p_b_dbm"]), (int(s["beam_ell"]), int(s["beam_b"])),
                None if math.isnan(loss) else loss)).encode() + b"\n")
    return digest.hexdigest()


def test_dqn_run_matches_pinned_fingerprint():
    # pins the learner's numbers across code versions: any change to replay
    # sampling, the SGD arithmetic, the walk or the channel draws that moves
    # a single bit of a step record changes this digest
    cfg = NetworkConfig(q=1, engines=("dqn",), seeds=(3,), m_list=(8,),
                        episode_cap=40)
    run = run_experiment(cfg, 8, 3, "dqn", stop_on_convergence=False)
    losses = [s["loss"] for ep in run.episodes for s in _steps(ep)]
    assert not all(map(math.isnan, losses))             # the learner trained
    assert _run_digest(run) == (
        "487613c219c6554909ce2c443778d23f604c4e9f258626c5a6040494f22978d0")


def test_dqn_golden_run_matches_pinned_fingerprint():
    # the run behind golden/trace_dqn_M4_s6.csv, which `beampower verify`
    # re-runs: default settings, stopped at convergence after 40 episodes
    cfg = NetworkConfig(q=1, engines=("dqn",), seeds=(6,), m_list=(4,))
    run = run_experiment(cfg, 4, 6, "dqn")
    assert (len(run.episodes), run.steps_total) == (40, 123)
    assert _run_digest(run) == (
        "849b6631855a0bf6bf24dab009faf57c36d473bf00f828b20fa1872edeea7f29")


def test_voice_run_matches_pinned_fingerprint(link_draws):
    # the sub-6 GHz counterpart of the dqn pin: COST231 path loss, 15-path
    # NLOS links and the tabular learner, at q=0 M=1
    cfg = NetworkConfig(q=0, engines=("tabular",), seeds=(3,), episode_cap=40)
    run = run_experiment(cfg, 1, 3, "tabular", stop_on_convergence=False)
    assert len(link_draws) == 4 * 40
    assert any(not f.los for f in link_draws)
    assert any(f.los for f in link_draws)
    assert _run_digest(run) == (
        "d8878a1485b6fff96872a11969bcb95af7f083b2f4b55c810e1b4edeabfb9559")


_TABULAR_Q1_DIGEST = "a2828707b665f3648000474237f4cdc6b85b06499eb804f4a819f13099ed505b"


def _tabular_q1_config():
    return NetworkConfig(q=1, engines=("tabular",), seeds=(2,), m_list=(4,),
                         episode_cap=200)


def test_tabular_data_run_matches_pinned_fingerprint():
    # the tabular learner at q=1 M=4: beams move, so it looks up a few
    # hundred states and its table grows several times
    run = run_experiment(_tabular_q1_config(), 4, 2, "tabular",
                         stop_on_convergence=False)
    assert _run_digest(run) == _TABULAR_Q1_DIGEST


def test_tabular_table_growth_leaves_the_run_unchanged():
    # start the table at one row, so it grows at its 2nd, 3rd, 5th, 9th ...
    # state, both in act and when learn looks up the next state
    cfg = _tabular_q1_config()
    env = TwoCellEnv(cfg, 4, 2)
    eng = make_engine("tabular", cfg, env, 2)
    eng.table.values = np.zeros((1, radio.N_ACTIONS))
    episodes = []
    for _ in range(cfg.episode_cap):
        episodes.append(run_episode(env, eng))
    assert len(eng.table.values) >= len(eng.table.rows) > 256
    assert _run_digest(SimpleNamespace(episodes=episodes)) == _TABULAR_Q1_DIGEST


def _bytes_held_per_step(cfg, m: int, seed: int, engine: str) -> float:
    """Bytes a finished run's RunResult holds per step, by tracemalloc.  A
    short run first keeps one-time allocations out of the count."""
    run_experiment(cfg.replace(episode_cap=50), m, seed, engine,
                   stop_on_convergence=False)
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        run = run_experiment(cfg, m, seed, engine, stop_on_convergence=False)
        gc.collect()
        held = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    return held / run.steps_total


@pytest.mark.parametrize("q, m, engine, episodes, bound", [
    (1, 8, "dqn", 3000, 400),          # about 1.3 steps per episode
    (0, 1, "tabular", 300, 250),       # about 4.4 steps per episode
])
def test_a_run_holds_its_steps_compactly(q, m, engine, episodes, bound):
    # with a record object of four 2-tuples and its floats per step, these
    # runs held 678 and 562 B/step on 64-bit CPython 3.11; the flat step log
    # (sim.LOG_COLUMNS) holds about 280 and 140
    cfg = NetworkConfig(q=q, m_list=(m,), engines=(engine,), seeds=(3,),
                        episode_cap=episodes)
    assert _bytes_held_per_step(cfg, m, 3, engine) < bound


def test_replay_matches_live_channels():
    cfg = NetworkConfig(q=1, engines=("fpa",), m_list=(4,), episode_cap=3)
    env = TwoCellEnv(cfg, 4, 11)
    eng = make_engine("fpa", cfg, env, 11)
    for _ in range(3):
        run_episode(env, eng)
    live = env.channels(0)
    replayed = replay_episode_channels(cfg, 4, 11, 2)[0]
    for u in range(2):
        for s in range(2):
            assert np.allclose(live[u][s], replayed[u][s])


def test_vacuous_thresholds_always_converge():
    # an infinite threshold is not a valid setting; no SINR is this low
    cfg = _voice_cfg(gamma_target_voice_db=-1e9, gamma_min_db=-1e9)
    env = TwoCellEnv(cfg, 1, 1)
    eng = make_engine("fpa", cfg, env, 1)
    res = run_episode(env, eng)
    assert res.converged and not res.aborted
    assert res.n_steps == cfg.frame_steps
    # the final step earns the convergence bonus on top of the zero base reward
    assert _steps(res)[-1]["reward"] == pytest.approx(cfg.r_max)


def test_impossible_floor_aborts_first_step():
    cfg = _voice_cfg(gamma_min_db=1e9)
    env = TwoCellEnv(cfg, 1, 1)
    eng = make_engine("fpa", cfg, env, 1)
    res = run_episode(env, eng)
    assert res.aborted and not res.converged
    assert res.n_steps == 1
    assert _steps(res)[0]["reward"] == cfg.r_min
    assert min(res.eff_sinr_pairs()[-1]) < 1e9


@pytest.mark.parametrize("floor_db, frame_steps, bonus", [
    (1e9, 20, False),      # the first step aborts
    (-1e9, 1, True),       # the first step ends the frame and earns r_max
])
def test_tabular_terminal_step_targets_the_reward_alone(monkeypatch, floor_db,
                                                        frame_steps, bonus):
    # every state's row starts at c, so bootstrapping from a next state would
    # show in the updated value
    cfg = _voice_cfg(engines=("tabular",), gamma_min_db=floor_db,
                     gamma_target_voice_db=-1e9, frame_steps=frame_steps)
    env = TwoCellEnv(cfg, 1, 4)
    eng = make_engine("tabular", cfg, env, 4)
    table, c = eng.table, 7.0
    fresh_row = table.row

    def row(state):
        new = state not in table.rows
        idx = fresh_row(state)
        if new:
            table.values[idx] = c
        return idx

    acted = []
    act = eng.act
    monkeypatch.setattr(table, "row", row)
    monkeypatch.setattr(eng, "act", lambda env, k, s: acted.append(s) or act(env, k, s))
    res = run_episode(env, eng)
    assert res.n_steps == 1 and res.aborted is not bonus
    a = int(res.log[0])
    cmd = radio.REGISTER[0][a]
    r = cfg.r_min if res.aborted else cmd.dp_b_db - cmd.dp_ell_db
    want = (1 - cfg.tabular_alpha) * c + cfg.tabular_alpha * r
    if bonus:
        want += cfg.tabular_alpha * cfg.r_max
    assert table.values[table.rows[table.state_index(acted[0])], a] == want


@pytest.mark.parametrize("engine", ["dqn", "tabular", "fpa", "brute_force"])
@pytest.mark.parametrize("floor_db", [None, -1e9])
def test_run_episode_reads_no_state_past_a_terminal_step(monkeypatch, engine, floor_db):
    # a learner observes the state of each step it acts on and nothing else;
    # fpa and brute_force observe nothing; every step walks its own move only
    extra = {} if floor_db is None else {"gamma_min_db": floor_db}
    cfg = NetworkConfig(q=1, m_list=(4,), engines=(engine,), **extra)
    env = TwoCellEnv(cfg, 4, 5)
    eng = make_engine(engine, cfg, env, 5)
    observed, moves = [], []
    observe, reflect = env.observe, sim.reflect_into_cell
    monkeypatch.setattr(env, "observe", lambda k: observed.append(k) or observe(k))
    monkeypatch.setattr(sim, "reflect_into_cell",
                        lambda *args: moves.append(1) or reflect(*args))
    aborted = 0
    for _ in range(12):
        del observed[:], moves[:]
        res = run_episode(env, eng)
        aborted += res.aborted
        learns = engine in ("dqn", "tabular")
        assert observed == (list(range(res.n_steps)) if learns else [])
        assert len(moves) == sim.N_CELLS * res.n_steps
    assert aborted if floor_db is None else not aborted


def test_run_experiment_rejects_foreign_codebook_size():
    cfg = NetworkConfig(q=1, engines=("dqn",), m_list=(4,))
    with pytest.raises(ConfigError):
        run_experiment(cfg, 8, 1, "dqn")


def test_convergence_and_best_episode_selection():
    cfg = _voice_cfg(episode_cap=5)
    run = run_experiment(cfg, 1, 3, "fpa", stop_on_convergence=False)
    eps = run.episodes
    assert len(eps) == 5
    zeta = convergence_episode(eps)
    if zeta is not None:
        assert eps[zeta - 1].converged
        assert not any(e.converged for e in eps[: zeta - 1])
    best = best_complete_episode(eps)
    complete = [e for e in eps if not e.aborted]
    if complete:
        assert best.total_reward == max(e.total_reward for e in complete)
    rate = sum_rate_summary(eps)
    if complete:
        assert rate == max(radio.sum_rate(e.eff_sinr_pairs()) for e in complete) > 0.0
    else:
        assert rate is None


def test_ccdf_grid_and_monotonicity():
    rng = np.random.default_rng(4)
    samples = rng.normal(10.0, 3.0, size=500)
    curve = ccdf(samples)
    assert curve.shape == (101, 2)
    assert curve[0, 0] == pytest.approx(samples.min())
    assert curve[-1, 0] == pytest.approx(samples.max())
    assert curve[0, 1] == pytest.approx(1.0 - 1.0 / 500)
    assert curve[-1, 1] == 0.0
    assert np.all(np.diff(curve[:, 1]) <= 1e-12)
    single = ccdf([5.0])
    assert single.shape == (1, 2)
    with pytest.raises(ValueError):
        ccdf([])


def test_ccdf_matches_gaussian_tail():
    from scipy import stats

    rng = np.random.default_rng(6)
    samples = rng.normal(0.0, 1.0, size=10_000)
    curve = ccdf(samples)
    sup = max(abs(p - stats.norm.sf(x)) for x, p in curve)
    assert sup < 0.02


def test_throughput_and_lost_frames():
    thr, lost = throughput_and_frame_loss(4, 10.0, 1e4, 0.8)
    assert thr == pytest.approx(250_000.0)
    assert lost == 4
    # 0.8 * 10 lands a hair above 8.0 in floats; the ceiling must not inflate
    assert throughput_and_frame_loss(10, 10.0, 1e4, 0.8)[1] == 8
    with pytest.raises(ValueError):
        throughput_and_frame_loss(0, 10.0, 1e4, 0.8)


def test_backhaul_message_count():
    cfg = _voice_cfg()
    assert backhaul_messages_per_episode(cfg) == 80


def _written_trace(tmp_path, cfg, run):
    path = tmp_path / "trace.csv"
    write_trace(path, trace_header(cfg.to_text(), run.engine, run.m, run.seed),
                trace_rows(run))
    return path


@pytest.mark.parametrize("cfg, m, engine", [
    pytest.param(_voice_cfg(), 1, "fpa", id="fpa"),
    # actions, losses and beams above 0 exercise every column's text form
    pytest.param(NetworkConfig(q=1, m_list=(4,), engines=("dqn",), episode_cap=30),
                 4, "dqn", id="dqn"),
])
def test_trace_round_trip(tmp_path, cfg, m, engine):
    run = run_experiment(cfg, m, 3, engine)
    if engine == "dqn":
        steps = [s for e in run.episodes for s in _steps(e)]
        assert any(s["action_hex"] >= 0 for s in steps)
        assert any(not math.isnan(s["loss"]) for s in steps)
        assert any(s["beam_ell"] > 0 or s["beam_b"] > 0 for s in steps)
    cfg_back, back = read_trace(_written_trace(tmp_path, cfg, run))
    assert cfg_back == cfg
    assert cfg_back.config_hash() == cfg.config_hash()
    assert (back.engine, back.m, back.seed) == (engine, m, 3)
    assert len(back.episodes) == len(run.episodes)
    # floats are written exactly, so every step reads back bit for bit (NaN,
    # the missing loss, included)
    for got, want in zip(back.episodes, run.episodes):
        assert got.index == want.index
        assert got.log.tobytes() == want.log.tobytes()
        assert (got.converged, got.aborted) == (want.converged, want.aborted)
    assert (back.zeta, back.steps_total) == (run.zeta, run.steps_total)
    assert back.wall_time_s == back.decision_time_s == 0.0
    # and the summary rows are equal on everything except wall-clock fields
    direct = summarize_run(cfg, run)
    recomputed = summarize_run(cfg_back, back)
    for key, val in direct.items():
        if key not in sim.TIMING_COLUMNS:
            assert recomputed[key] == val, key


def test_a_trace_without_rows_reads_as_no_run(tmp_path):
    cfg = _voice_cfg()
    path = tmp_path / "trace.csv"
    write_trace(path, trace_header(cfg.to_text(), "fpa", 1, 3), [])
    assert read_trace(path) == (cfg, None)


def _bytes_peak_per_step_reading(path, steps: int) -> float:
    """Peak bytes traced while reading a trace, per step."""
    read_trace(path)                    # imports and caches out of the count
    gc.collect()
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        read_trace(path)
        peak = tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()
    return peak / steps


def test_reading_a_trace_holds_its_steps_compactly(tmp_path):
    # a dict per row peaked at about 790 B/step on 64-bit CPython 3.11; rows
    # parsed straight into each episode's log peak at about 320
    cfg = NetworkConfig(q=1, m_list=(8,), engines=("dqn",), seeds=(3,),
                        episode_cap=3000)
    run = run_experiment(cfg, 8, 3, "dqn", stop_on_convergence=False)
    path = _written_trace(tmp_path, cfg, run)
    assert _bytes_peak_per_step_reading(path, run.steps_total) < 600


def test_read_trace_rejects_other_versions(tmp_path):
    cfg = _voice_cfg()
    header = trace_header(cfg.to_text(), "fpa", 1, 3)
    path = tmp_path / "trace.csv"
    for old in ("v1", "v2"):
        write_trace(path, header.replace(sim.TRACE_VERSION, f"# beampower trace {old}"),
                    [])
        with pytest.raises(ValueError, match=rf"trace\.csv.*'# beampower trace {old}'"):
            read_trace(path)


def test_learning_engines_run_and_log_losses():
    cfg = NetworkConfig(q=0, engines=("dqn",), episode_cap=4)
    run = run_experiment(cfg, 1, 5, "dqn", stop_on_convergence=False)
    losses = [s["loss"] for e in run.episodes for s in _steps(e)
              if not math.isnan(s["loss"])]
    assert losses, "replay buffer reached a minibatch and trained"
    assert all(math.isfinite(l) for l in losses)
    tab = run_experiment(cfg.replace(engines=("tabular",)), 1, 5, "tabular",
                         stop_on_convergence=False)
    assert tab.steps_total > 0


def test_brute_force_engine_reaches_oracle_levels():
    cfg = NetworkConfig(q=1, engines=("brute_force",), m_list=(4,), episode_cap=1)
    run = run_experiment(cfg, 4, 2, "brute_force", stop_on_convergence=False)
    episode = run.episodes[0]
    # the joint optimum in a race condition is both sites at full power
    first = _steps(episode)[0]
    assert (first["p_ell_dbm"], first["p_b_dbm"]) == (46.0, 46.0)
    assert summarize_run(cfg, run)["candidates_per_step"] == (4 * 4) ** 2
    # the env scores each step's levels exactly as the oracle scored them
    env = TwoCellEnv(cfg, 4, 2)
    space = SearchSpace(power_grid_dbm=cfg.oracle_power_grid, codebook=env.codebook)
    channels = replay_episode_channels(cfg, 4, 2, episode.index)
    assert episode.n_steps > 1
    for t, s in enumerate(_steps(episode)):
        res = brute_force(channels[t], space, cfg.q, env.code_map, env.noise_mw)
        assert ((s["p_ell_dbm"], s["p_b_dbm"]), (s["beam_ell"], s["beam_b"])) == (
            res.powers_dbm, res.beams)
        assert [s["eff_sinr_ell_db"].hex(), s["eff_sinr_b_db"].hex()] == [
            g.hex() for g in res.eff_sinrs_db]
