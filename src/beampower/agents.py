"""Decision engines' learning machinery: a small fully-connected Q-network
trained by plain SGD on replayed experience, and a discretised Q-table.

The network is deliberately hand-rolled in numpy so its gradient path is
fully owned and can be checked against finite differences.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass

import numpy as np

from .config import NetworkConfig
from .radio import N_ACTIONS

STATE_DIM = 8                    # entries of the state TwoCellEnv.observe returns


class TrainingDiverged(RuntimeError):
    """Raised when the training loss stops being finite."""


@dataclass
class PolicyState:
    """Epsilon-greedy schedule and discount; epsilon decays once per step."""

    epsilon: float
    decay: float
    eps_min: float
    discount: float

    @classmethod
    def from_config(cls, config: NetworkConfig) -> "PolicyState":
        return cls(epsilon=config.eps_initial, decay=config.eps_decay,
                   eps_min=config.eps_min, discount=config.discount)


def decay_epsilon(policy: PolicyState) -> PolicyState:
    policy.epsilon = max(policy.epsilon * policy.decay, policy.eps_min)
    return policy


class QNetwork:
    """[n_in, H, H, n_out] perceptron, sigmoid hidden units, linear output;
    ``initialize`` builds it with n_in = STATE_DIM and n_out = N_ACTIONS.

    The six parameters are views of one flat array ``theta`` and their
    gradients are views of one flat array ``grad`` of the same layout, so an
    SGD step writes each gradient in place and updates every parameter with
    a single ``theta -= eta * grad``.
    """

    def __init__(self, w1, b1, w2, b2, w3, b3):
        params = [np.asarray(p, dtype=float) for p in (w1, b1, w2, b2, w3, b3)]
        self.theta = np.concatenate([p.ravel() for p in params])
        self.grad = np.zeros_like(self.theta)
        self.w1, self.b1, self.w2, self.b2, self.w3, self.b3 = _views(self.theta, params)
        self.dw1, self.db1, self.dw2, self.db2, self.dw3, self.db3 = _views(self.grad,
                                                                           params)

    @classmethod
    def initialize(cls, rng: np.random.Generator, width: int) -> "QNetwork":
        """Uniform +-sqrt(6/(fan_in+fan_out)) weights, zero biases."""
        def glorot(n_out, n_in):
            lim = math.sqrt(6.0 / (n_in + n_out))
            return rng.uniform(-lim, lim, size=(n_out, n_in))
        return cls(glorot(width, STATE_DIM), np.zeros(width),
                   glorot(width, width), np.zeros(width),
                   glorot(N_ACTIONS, width), np.zeros(N_ACTIONS))

    @property
    def n_out(self) -> int:
        return self.w3.shape[0]

    def forward(self, s: np.ndarray) -> np.ndarray:
        """Action values for one state of shape (n_in,); any other length
        makes the first product raise ValueError."""
        return self._hidden(s)[2]

    def _hidden(self, states: np.ndarray) -> tuple:
        """(h1, h2, q) of one state or a batch, one row per state.  A batch of
        two or more rows, as sgd_step's n to 2n, is a gemm; a lone row a gemv."""
        h1 = _sigmoid(states.dot(self.w1.T), self.b1)
        h2 = _sigmoid(h1.dot(self.w2.T), self.b2)
        return h1, h2, h2.dot(self.w3.T) + self.b3


def _views(flat: np.ndarray, like: list) -> list:
    """Consecutive views of ``flat`` shaped like the arrays in ``like``."""
    views, at = [], 0
    for p in like:
        views.append(flat[at:at + p.size].reshape(p.shape))
        at += p.size
    return views


def _sigmoid(x: np.ndarray, bias: np.ndarray) -> np.ndarray:
    """1 / (1 + exp(-(x + bias))), computed in place in the temporary ``x``."""
    x += bias
    np.negative(x, out=x)
    np.exp(x, out=x)
    x += 1.0
    return np.divide(1.0, x, out=x)


def select_action(net: QNetwork, s: np.ndarray, policy: PolicyState,
                  rng: np.random.Generator) -> int:
    """Epsilon-greedy over the network's action values; greedy ties take the
    lowest index."""
    if rng.random() < policy.epsilon:
        return int(rng.integers(net.n_out))
    return int(np.argmax(net.forward(s)))


def sgd_step(net: QNetwork, states: np.ndarray, actions: np.ndarray,
             rewards: np.ndarray, next_states: np.ndarray, live: np.ndarray,
             discount: float, eta: float) -> tuple[QNetwork, float]:
    """One SGD step on the mean squared Bellman error of the minibatch.

    The minibatch is given row-aligned: states (n, n_in), actions (n,),
    rewards (n,), next_states (n, n_in) and live (n,), False for terminal
    rows.  The target, r for a terminal row and r + discount * max_a'
    Q(s', a') for a live one, is held constant at the current parameters.
    One forward pass over [states; next_states[live]], n to 2n rows, gives
    predictions and targets and never reads a terminal row's next state;
    for n >= 2 it is a gemm, with the floats of two separate passes over
    states and over all next_states.  The network is updated in place,
    through ``net.grad``, and returned with the loss.
    """
    n = len(actions)
    at = live.nonzero()[0]
    h1, h2, qvals = net._hidden(np.concatenate((states, next_states.take(at, axis=0))))
    err = rewards.copy()
    err[at] += discount * np.maximum.reduce(qvals[n:], axis=1)
    picked = _row_starts(n, net.n_out) + actions   # flat index of (i, actions[i])
    err -= qvals.take(picked)
    loss = float(np.add.reduce(err * err) / n)
    if not math.isfinite(loss):
        raise TrainingDiverged(f"training loss is not finite: {loss}")

    # d(loss)/d(q_a) = -2 * err / n, routed to the taken action only
    h1, h2 = h1[:n], h2[:n]
    g3 = np.zeros((n, net.n_out))
    g3.put(picked, -2.0 * err / n)
    g3.T.dot(h2, out=net.dw3)
    np.add.reduce(g3, axis=0, out=net.db3)
    d2 = g3.dot(net.w3)
    d2 *= h2
    d2 *= 1.0 - h2
    d2.T.dot(h1, out=net.dw2)
    np.add.reduce(d2, axis=0, out=net.db2)
    d1 = d2.dot(net.w2)
    d1 *= h1
    d1 *= 1.0 - h1
    d1.T.dot(states, out=net.dw1)
    np.add.reduce(d1, axis=0, out=net.db1)

    net.theta -= eta * net.grad
    return net, loss


@functools.cache
def _row_starts(n: int, width: int) -> np.ndarray:
    """Flat index of the first entry of each row of an (n, width) array."""
    return np.arange(0, n * width, width)


class ReplayBuffer:
    """The last ``capacity`` transitions in preallocated ring arrays, with
    uniform minibatch sampling.

    Reproducibility rests on one invariant: logical index 0 is the oldest
    stored row and ``len(self) - 1`` the newest, whatever ring slot holds
    them, and ``sample`` draws with the single call
    ``rng.choice(len(self), size=n, replace=False)`` and returns the rows in
    drawn order.  A run's RNG stream and minibatches, and so its trace, are
    the same as those of an oldest-first list of the same transitions.
    """

    def __init__(self, capacity: int):
        self.capacity = capacity
        self.s = np.empty((capacity, STATE_DIM))
        self.a = np.empty(capacity, dtype=np.int64)
        self.r = np.empty(capacity)
        self.s_next = np.empty((capacity, STATE_DIM))
        self.live = np.empty(capacity, dtype=bool)
        self._head = 0               # ring slot the next push writes
        self._count = 0

    def __len__(self) -> int:
        return self._count

    def push(self, s: np.ndarray, a: int, r: float, s_next: np.ndarray | None) -> None:
        """Store one transition, evicting the oldest when full.  A terminal
        transition (``s_next`` None) stores a zero next state, not live."""
        i = self._head
        self.s[i] = s
        self.a[i] = a
        self.r[i] = r
        self.s_next[i] = 0.0 if s_next is None else s_next
        self.live[i] = s_next is not None
        self._head = (i + 1) % self.capacity
        self._count = min(self._count + 1, self.capacity)

    def sample(self, n: int, rng: np.random.Generator) -> tuple:
        """n distinct transitions, uniformly without replacement, as the
        arrays (states, actions, rewards, next_states, live) that
        ``sgd_step`` takes."""
        if n > self._count:
            raise ValueError(f"cannot sample {n} from buffer of {self._count}")
        idx = rng.choice(self._count, size=n, replace=False)
        if self._count == self.capacity:
            # full: the oldest row sits at the write head
            idx = (idx + self._head) % self.capacity
        return (self.s.take(idx, axis=0), self.a[idx], self.r[idx],
                self.s_next.take(idx, axis=0), self.live[idx])

    def adjust_last_reward(self, delta: float) -> None:
        """Add ``delta`` to the newest transition's reward (end-of-episode
        bonus)."""
        if self._count:
            self.r[self._head - 1] += delta


# ---------------------------------------------------------------------------
# tabular learner


def tabular_update(q_values: np.ndarray, s: int, a: int, r: float, s_next: int | None,
                   alpha: float, discount: float) -> np.ndarray:
    """Q(s,a) := (1-alpha) Q(s,a) + alpha * target, where the target is r for
    a terminal transition (``s_next`` None), else
    r + discount * max_a' Q(s',a')."""
    target = r if s_next is None else r + discount * float(q_values[s_next].max())
    q_values[s, a] = (1.0 - alpha) * q_values[s, a] + alpha * target
    return q_values


class QTable:
    """Zero-initialised table over a uniform discretisation of
    [-1, 1]^STATE_DIM, one column per action register value.

    Only the states a run has looked up hold a row: ``rows`` maps a state
    index to its row of ``values``, and a state's row is all zeros when it
    is first looked up.  ``values`` doubles when it is full.  Rows never
    move, but a lookup may replace the ``values`` array, so look the rows
    up before reading ``values``.
    """

    def __init__(self, bins: int = 4):
        self.bins = bins
        self.values = np.zeros((64, N_ACTIONS))
        self.rows: dict[int, int] = {}

    def state_index(self, s_norm: np.ndarray) -> int:
        bins, top = self.bins, self.bins - 1
        idx = 0
        for x in s_norm.tolist():
            b = int((x + 1.0) / 2.0 * bins)
            idx = idx * bins + (0 if b < 0 else top if b > top else b)
        return idx

    def row(self, state: int) -> int:
        """The row of ``values`` that holds the state with index ``state``."""
        row = self.rows.get(state)
        if row is None:
            row = self.rows[state] = len(self.rows)
            if row == len(self.values):
                self.values = np.concatenate((self.values, np.zeros_like(self.values)))
        return row
