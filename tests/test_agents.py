"""Q-network training mechanics, replay memory, and the tabular learner."""

import math
from collections import deque

import numpy as np
import pytest

from beampower.agents import (
    PolicyState,
    QNetwork,
    QTable,
    ReplayBuffer,
    TrainingDiverged,
    decay_epsilon,
    select_action,
    sgd_step,
    tabular_update,
)
from beampower.config import NetworkConfig


def _net(seed=0) -> QNetwork:
    return QNetwork.initialize(np.random.default_rng(seed), NetworkConfig().net_width)


def _params(net: QNetwork) -> list:
    return [net.w1, net.b1, net.w2, net.b2, net.w3, net.b3]


def _flat_net(out: np.ndarray) -> QNetwork:
    """All-zero weights so the forward pass returns exactly ``out``."""
    n = len(out)
    return QNetwork(w1=np.zeros((24, 8)), b1=np.zeros(24),
                    w2=np.zeros((24, 24)), b2=np.zeros(24),
                    w3=np.zeros((n, 24)), b3=np.asarray(out, dtype=float))


def test_initialize_shapes_and_bounds():
    net = _net()
    assert net.w1.shape == (24, 8)
    assert net.w2.shape == (24, 24)
    assert net.w3.shape == (16, 24)
    for w, fan_in, fan_out in ((net.w1, 8, 24), (net.w2, 24, 24), (net.w3, 24, 16)):
        lim = math.sqrt(6.0 / (fan_in + fan_out))
        assert np.all(np.abs(w) <= lim)
        assert np.std(w) > 0.1 * lim  # actually random, not degenerate
    for b in (net.b1, net.b2, net.b3):
        assert np.all(b == 0.0)


def test_forward_shapes():
    net = _net()
    q = net.forward(np.zeros(8))
    assert q.shape == (16,)
    batch = net._hidden(np.zeros((5, 8)))[2]
    assert batch.shape == (5, 16)
    assert batch[0] == pytest.approx(q)
    with pytest.raises(ValueError):
        net.forward(np.zeros(7))


def bellman_target(r: float, s_next: np.ndarray, terminal: bool, net: QNetwork,
                   discount: float) -> float:
    """Reference target, one transition at a time: r for terminal
    transitions, else r + discount * max_a' Q(s', a')."""
    if terminal:
        return r
    return r + discount * float(np.max(net.forward(s_next)))


def test_bellman_target_values():
    net = _flat_net(np.array([1.0, 0.25, -2.0]))
    s = np.zeros(8)
    assert bellman_target(2.0, s, False, net, 0.99) == pytest.approx(2.99)
    assert bellman_target(2.0, s, True, net, 0.99) == pytest.approx(2.0)
    assert bellman_target(-50.0, s, True, net, 0.995) == pytest.approx(-50.0)
    # sgd_step's loss on one transition is (target - Q(s, a))^2, Q(s, 1) = 0.25
    for live, target in ((True, 2.99), (False, 2.0)):
        _, loss = sgd_step(net, s[None], np.array([1]), np.array([2.0]), s[None],
                           np.array([live]), 0.99, 0.0)
        assert loss == pytest.approx((target - 0.25) ** 2)


def _random_batch(rng, n=32):
    """(states, actions, rewards, next_states, live) of n random transitions."""
    rows = [(rng.normal(size=8), int(rng.integers(16)), float(rng.normal()),
             rng.normal(size=8), not rng.integers(2)) for _ in range(n)]
    s, a, r, s_next, live = zip(*rows)
    return np.stack(s), np.array(a), np.array(r), np.stack(s_next), np.array(live)


def _batch_loss(net, batch, targets):
    states, actions = batch[0], batch[1]
    q = net._hidden(states)[2]
    picked = q[np.arange(len(actions)), actions]
    return float(np.mean((targets - picked) ** 2))


def test_sgd_step_matches_central_differences():
    # recover the implemented gradient from the parameter update and compare
    # against central finite differences of the frozen-target batch loss
    rng = np.random.default_rng(42)
    net = _net(7)
    batch = _random_batch(rng)
    _, _, rewards, next_states, live = batch
    targets = np.array([bellman_target(r, s_next, not lv, net, 0.9)
                        for r, s_next, lv in zip(rewards, next_states, live)])
    eta = 1e-3
    before = [p.copy() for p in _params(net)]
    updated, _ = sgd_step(net, *batch, 0.9, eta)
    grads = [(b - a) / eta for b, a in zip(before, _params(updated))]

    probe = np.random.default_rng(3)
    for p_idx, (param, grad) in enumerate(zip(before, grads)):
        flat = param.reshape(-1)
        for k in probe.choice(flat.size, size=min(6, flat.size), replace=False):
            h = 1e-6
            trial = QNetwork(*[p.copy() for p in before])
            _params(trial)[p_idx].reshape(-1)[k] = flat[k] + h
            up = _batch_loss(trial, batch, targets)
            _params(trial)[p_idx].reshape(-1)[k] = flat[k] - h
            down = _batch_loss(trial, batch, targets)
            fd = (up - down) / (2 * h)
            g = grad.reshape(-1)[k]
            assert abs(fd - g) <= 1e-4 * max(1.0, abs(fd), abs(g))


def _sgd_two_passes(params, states, actions, rewards, next_states, live, discount, eta):
    """Reference SGD step: separate forward passes for the targets and the
    predictions, one update per parameter; returns (new params, loss)."""
    w1, b1, w2, b2, w3, b3 = [p.copy() for p in params]

    def hidden(x):
        h1 = 1.0 / (1.0 + np.exp(-(x @ w1.T + b1)))
        h2 = 1.0 / (1.0 + np.exp(-(h1 @ w2.T + b2)))
        return h1, h2, h2 @ w3.T + b3

    n = len(actions)
    rows = np.arange(n)
    targets = np.where(live, rewards + discount * hidden(next_states)[2].max(axis=1),
                       rewards)
    h1, h2, q = hidden(states)
    err = targets - q[rows, actions]
    loss = float(np.mean(err ** 2))
    g3 = np.zeros_like(q)
    g3[rows, actions] = -2.0 * err / n
    d2 = (g3 @ w3) * h2 * (1.0 - h2)
    d1 = (d2 @ w2) * h1 * (1.0 - h1)
    grads = [d1.T @ states, d1.sum(axis=0), d2.T @ h1, d2.sum(axis=0),
             g3.T @ h2, g3.sum(axis=0)]
    return [p - eta * g for p, g in zip((w1, b1, w2, b2, w3, b3), grads)], loss


def _assert_step_matches_two_passes(net, batch, discount, eta):
    want, want_loss = _sgd_two_passes(_params(net), *batch, discount, eta)
    _, loss = sgd_step(net, *batch, discount, eta)
    assert loss == want_loss
    for got, ref in zip(_params(net), want):
        assert np.array_equal(got, ref)


def test_stacked_sgd_step_matches_two_forward_passes_bit_for_bit():
    # one forward pass over [states; next_states[live]] and one update of
    # the flat parameter array must give the floats of the two-pass,
    # per-parameter step, which evaluates every next state; a one-row
    # minibatch is left out, because numpy multiplies a single row as a
    # matrix-vector product (gemv), whose sums may round differently from
    # the matrix product of a stack of two or more rows
    rng = np.random.default_rng(77)
    for trial in range(300):
        n = int(rng.choice([2, 5, 32]))
        net = _net(trial)
        batch = _random_batch(rng, n)
        discount, eta = float(rng.uniform(0.5, 1.0)), float(10.0 ** rng.uniform(-4, -1))
        for _ in range(3):
            _assert_step_matches_two_passes(net, batch, discount, eta)
    # every stack height the step can see, n to 2n rows: one minibatch for
    # each count k of live rows; the terminal rows keep a random next state,
    # which the step must not read
    for n in (2, 32):
        for k in range(n + 1):
            net = _net(1000 * n + k)
            batch = _random_batch(rng, n)[:4]
            live = np.zeros(n, dtype=bool)
            live[rng.permutation(n)[:k]] = True
            _assert_step_matches_two_passes(net, (*batch, live), 0.9, 0.01)


def test_parameters_are_views_of_the_flat_arrays():
    net = _net(3)
    assert sum(p.size for p in _params(net)) == net.theta.size == net.grad.size
    for p in _params(net):
        assert np.shares_memory(p, net.theta)
    clone = QNetwork(*_params(net))
    clone.w2[0, 0] += 1.0
    assert clone.theta[net.w1.size + net.b1.size] == net.w2[0, 0] + 1.0
    assert not np.shares_memory(clone.theta, net.theta)


def test_sgd_step_fits_fixed_batch():
    # terminal experiences pin the targets, so repeating the same batch is
    # plain least-squares regression and the loss has to fall
    rng = np.random.default_rng(1)
    net = _net(2)
    batch = _random_batch(rng, 16)[:4] + (np.zeros(16, dtype=bool),)
    first = None
    for _ in range(200):
        net, loss = sgd_step(net, *batch, 0.9, 0.05)
        first = loss if first is None else first
    assert loss < 0.5 * first


def test_sgd_step_raises_on_divergence():
    net = _net()
    net.w3[:] = np.inf
    with np.errstate(invalid="ignore"), pytest.raises(TrainingDiverged):
        sgd_step(net, *_random_batch(np.random.default_rng(0), 4), 0.9, 0.01)


def test_replay_buffer_eviction_and_sampling():
    buf = ReplayBuffer(5)
    for i in range(8):
        buf.push(np.full(8, i), i, float(i), np.full(8, -i))
    assert len(buf) == 5
    s, a, r, s_next, live = buf.sample(5, np.random.default_rng(0))
    assert set(a) == {3, 4, 5, 6, 7}  # oldest three evicted
    # the rows of one transition stay together
    assert np.array_equal(s, np.repeat(a[:, None], 8, axis=1))
    assert np.array_equal(s_next, -s)
    assert np.array_equal(r, a) and live.all()
    _, a, *_ = buf.sample(3, np.random.default_rng(1))
    assert len(set(a)) == 3  # without replacement
    with pytest.raises(ValueError):
        buf.sample(6, np.random.default_rng(2))


def test_replay_buffer_reward_patch():
    buf = ReplayBuffer(4)
    buf.push(np.zeros(8), 0, 1.0, np.zeros(8))
    buf.push(np.zeros(8), 1, 2.0, None)
    buf.adjust_last_reward(10.0)
    _, a, r, _, live = buf.sample(2, np.random.default_rng(0))
    assert sorted(zip(a.tolist(), r.tolist(), live.tolist())) == [
        (0, 1.0, True), (1, 12.0, False)]


def test_replay_buffer_terminal_row_stores_a_zero_next_state():
    # the slot held a live row first, so nothing of it may survive
    buf = ReplayBuffer(1)
    buf.push(np.ones(8), 0, 1.0, np.full(8, 3.0))
    buf.push(np.ones(8), 1, 2.0, None)
    _, a, r, s_next, live = buf.sample(1, np.random.default_rng(0))
    assert (a.tolist(), r.tolist(), live.tolist()) == ([1], [2.0], [False])
    assert np.array_equal(s_next, np.zeros((1, 8)))


@pytest.mark.parametrize("n_push", [19, 21])
def test_replay_buffer_wraps_like_an_oldest_first_deque(n_push):
    # after the ring wraps, sampling must still index transitions oldest
    # first, so the same seed draws the same rows in the same order as a
    # deque of the transitions; 19 pushes leave the newest row mid-ring,
    # 21 in the last slot
    rng = np.random.default_rng(9)
    buf = ReplayBuffer(7)
    ref = deque(maxlen=7)
    for i in range(n_push):
        row = (rng.normal(size=8), i, float(rng.normal()),
               None if i % 3 == 0 else rng.normal(size=8))
        buf.push(*row)
        ref.append(row)
    buf.adjust_last_reward(5.0)
    s, a, r, s_next = ref[-1]
    ref[-1] = (s, a, r + 5.0, s_next)
    for seed, n in ((0, 7), (1, 4), (2, 4), (3, 1)):
        got = buf.sample(n, np.random.default_rng(seed))
        idx = np.random.default_rng(seed).choice(len(ref), size=n, replace=False)
        want = [ref[int(i)] for i in idx]
        assert np.array_equal(got[0], np.stack([w[0] for w in want]))
        assert got[1].tolist() == [w[1] for w in want]
        assert got[2].tolist() == [w[2] for w in want]
        assert np.array_equal(got[3], np.stack([np.zeros(8) if w[3] is None else w[3]
                                                for w in want]))
        assert got[4].tolist() == [w[3] is not None for w in want]


def test_epsilon_decay_floor():
    pol = PolicyState(epsilon=1.0, decay=0.5, eps_min=0.2, discount=0.995)
    seen = [decay_epsilon(pol).epsilon for _ in range(5)]
    assert seen == pytest.approx([0.5, 0.25, 0.2, 0.2, 0.2])


def test_policy_from_config_bearer_floor():
    assert PolicyState.from_config(NetworkConfig(q=0)).eps_min == pytest.approx(0.15)
    assert PolicyState.from_config(
        NetworkConfig(q=1, m_list=(4,))).eps_min == pytest.approx(0.10)


def test_greedy_action_breaks_ties_low():
    net = _flat_net(np.zeros(16))
    pol = PolicyState(epsilon=0.0, decay=1.0, eps_min=0.0, discount=0.995)
    assert select_action(net, np.zeros(8), pol, np.random.default_rng(0)) == 0
    net = _flat_net(np.array([0.0] * 7 + [3.0] + [0.0] * 8))
    assert select_action(net, np.zeros(8), pol, np.random.default_rng(0)) == 7


def test_exploration_is_uniform():
    from scipy import stats

    net = _flat_net(np.zeros(16))
    pol = PolicyState(epsilon=1.0, decay=1.0, eps_min=1.0, discount=0.995)
    rng = np.random.default_rng(23)
    counts = np.zeros(16)
    for _ in range(16_000):
        counts[select_action(net, np.zeros(8), pol, rng)] += 1
    assert stats.chisquare(counts).pvalue > 1e-4


def test_qtable_indexing():
    table = QTable()
    assert table.rows == {}
    assert table.state_index(-np.ones(8)) == 0
    assert table.state_index(np.ones(8)) == 4**8 - 1
    # one dim in the second bin from the bottom
    s = -np.ones(8)
    s[7] = -0.3
    assert table.state_index(s) == 1
    s = -np.ones(8)
    s[0] = -0.3
    assert table.state_index(s) == 4**7
    # the written-out reference: numpy scalars, min/max clamp, values outside
    # [-1, 1] and on the bin edges
    rng = np.random.default_rng(5)
    draws = [rng.uniform(-1.5, 1.5, 8) for _ in range(200)]
    draws += [rng.choice([-1.0, -0.5, 0.0, 0.5, 1.0], 8) for _ in range(50)]
    for bins in (1, 3, 4):
        table = QTable(bins)
        for s in draws:
            ref = 0
            for i in range(8):
                b = min(max(int((s[i] + 1.0) / 2.0 * bins), 0), bins - 1)
                ref = ref * bins + b
            assert table.state_index(s) == ref


def test_qtable_holds_only_the_states_looked_up():
    table = QTable(8)
    assert table.values.size < 8**8     # no dense bins**n_dims table
    # an unseen state reads as an all-zero row
    unseen = table.row(8**8 - 1)
    assert np.array_equal(table.values[unseen], np.zeros(16))
    assert table.rows == {8**8 - 1: unseen}
    assert table.row(8**8 - 1) == unseen
    # rows keep their values, and their places, as the table grows
    capacity = len(table.values)
    states = [7 * k for k in range(3 * capacity)]
    for k, state in enumerate(states):
        row = table.row(state)
        table.values[row] = k
    assert len(table.values) > capacity
    assert len(table.rows) == len(states) + 1
    for k, state in enumerate(states):
        assert np.all(table.values[table.row(state)] == k)
    assert np.all(table.values[table.row(8**8 - 1)] == 0.0)
    assert np.all(table.values[table.row(8**8 - 2)] == 0.0)


def test_tabular_update_known_value():
    q = np.zeros((4, 2))
    q[1, 0] = 3.0
    q[2, :] = (1.0, 0.5)
    tabular_update(q, 1, 0, 4.0, 2, alpha=0.2, discount=0.5)
    assert q[1, 0] == pytest.approx(3.3)  # 0.8*3 + 0.2*(4 + 0.5*1)


def test_tabular_update_terminal_takes_the_reward_alone():
    # no bootstrap from any row, though every other row is non-zero
    q = np.full((4, 2), 9.0)
    q[1, 0] = 3.0
    tabular_update(q, 1, 0, 4.0, None, alpha=0.2, discount=0.5)
    assert q[1, 0] == 0.8 * 3.0 + 0.2 * 4.0


def test_tabular_learning_reaches_value_iteration_fixed_point():
    # two-state deterministic chain: action a moves to state a
    rewards = np.array([[1.0, 0.0], [0.0, 2.0]])
    gamma = 0.5

    # value-iteration oracle, written out elementwise
    oracle = np.zeros((2, 2))
    for _ in range(200):
        nxt = np.empty_like(oracle)
        for s in range(2):
            for a in range(2):
                nxt[s, a] = rewards[s, a] + gamma * oracle[a].max()
        oracle = nxt

    q = np.zeros((2, 2))
    for _ in range(2000):
        for s in range(2):
            for a in range(2):
                tabular_update(q, s, a, rewards[s, a], a, alpha=0.2, discount=gamma)
    assert np.max(np.abs(q - oracle)) < 1e-3
