"""Shared tabular Q-learning machinery.

Q-tables keyed by discrete state ids, epsilon-greedy action selection with a
per-episode decay schedule, the one-step Q update, the ring replay buffer
used by the deep-Q agent, and the run-log row every runner returns.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Hashable, Iterable, NamedTuple

import numpy as np


class UnknownStateError(KeyError):
    """A strict QTable was asked about a state it has no row for."""


@dataclass
class LearningParams:
    """One-step update parameters: learning rate in (0,1], discount in [0,1)."""

    alpha: float = 0.1
    gamma: float = 0.95

    def __post_init__(self) -> None:
        if not 0.0 < self.alpha <= 1.0:
            raise ValueError(f"alpha must be in (0, 1], got {self.alpha}")
        if not 0.0 <= self.gamma < 1.0:
            raise ValueError(f"gamma must be in [0, 1), got {self.gamma}")


@dataclass
class ExplorationSchedule:
    """Per-episode epsilon: max(epsilon_min, epsilon0 * decay**episode)."""

    epsilon0: float = 1.0
    decay: float = 0.995
    epsilon_min: float = 0.05

    def __post_init__(self) -> None:
        if not 0.0 <= self.epsilon_min <= self.epsilon0 <= 1.0:
            raise ValueError(
                f"need 0 <= epsilon_min <= epsilon0 <= 1, got "
                f"({self.epsilon_min}, {self.epsilon0})"
            )
        if not 0.0 < self.decay <= 1.0:
            raise ValueError(f"decay must be in (0, 1], got {self.decay}")

    def epsilon(self, episode: int) -> float:
        return max(self.epsilon_min, self.epsilon0 * self.decay**episode)


@dataclass(frozen=True)
class RunRow:
    """One episode of a run, as the run-log CSV stores it.

    ``steps`` is the episode's length: maze actions, or market ticks to
    double (-1 if the data ran out first). ``value`` is the market's final
    portfolio value; maze rows leave it None.
    """

    seed: int
    episode: int
    steps: int
    reward: float
    value: float | None = None


class Transition(NamedTuple):
    """One interaction tuple: state, action, reward, next state, terminal flag.

    A named tuple rather than a frozen dataclass: agents build one per
    symbol per tick, and a tuple is several times cheaper to construct.
    """

    s0: Hashable
    a: int
    r: float
    s: Hashable
    done: bool = False


class QTable:
    """Action-value rows keyed by discrete state id, zero-initialised. A row
    is a list of Python floats, one per action.

    With ``states`` given the table is strict: touching any other state raises
    UnknownStateError. Without it the table grows lazily, creating a zero row
    on first contact.
    """

    def __init__(self, n_actions: int, states: Iterable[Hashable] | None = None):
        if n_actions < 1:
            raise ValueError(f"n_actions must be >= 1, got {n_actions}")
        self.n_actions = n_actions
        self._lazy = states is None
        self.rows: dict[Hashable, list[float]] = {}
        if states is not None:
            for s in states:
                self.rows[s] = [0.0] * n_actions

    def __contains__(self, state: Hashable) -> bool:
        return state in self.rows

    def __len__(self) -> int:
        return len(self.rows)

    def row(self, state: Hashable) -> list[float]:
        r = self.rows.get(state)
        if r is None:
            if not self._lazy:
                raise UnknownStateError(state)
            r = self.rows[state] = [0.0] * self.n_actions
        return r


def q_update(table: QTable, params: LearningParams, t: Transition) -> float:
    """Apply the one-step update Q(s0,a) += alpha*(r + gamma*max Q(s,.) - Q(s0,a)).

    Terminal transitions drop the bootstrap term. Returns the new Q(s0,a);
    no other cell changes.
    """
    if not math.isfinite(t.r):
        raise ValueError(f"non-finite reward: {t.r}")
    row0 = table.row(t.s0)
    if not 0 <= t.a < table.n_actions:
        raise IndexError(f"action {t.a} out of range for {table.n_actions} actions")
    return update_row(row0, t.a, t.r, None if t.done else table.row(t.s), params)


def update_row(
    row0: list[float],
    a: int,
    r: float,
    next_row: list[float] | None,
    params: LearningParams,
) -> float:
    """The q_update rule on rows already looked up, without its checks.

    ``next_row`` is None for a terminal transition. Hot loops that fetch the
    rows themselves call this directly.
    """
    target = r if next_row is None else r + params.gamma * max(next_row)
    q = row0[a]
    q += params.alpha * (target - q)
    row0[a] = q
    return q


def select_action(
    table: QTable,
    state: Hashable,
    epsilon: float,
    rng: np.random.Generator | None = None,
) -> int:
    """Epsilon-greedy pick from the state's row; greedy ties break to the
    lowest action index. ``rng`` may be None when epsilon is 0."""
    return epsilon_greedy(table.row(state), epsilon, rng)


def epsilon_greedy(
    row: list[float], epsilon: float, rng: np.random.Generator | None = None
) -> int:
    """select_action on a row already looked up. The greedy pick is the
    first maximum, numpy argmax's tie rule."""
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(len(row)))
    return row.index(max(row))


class ReplayBuffer:
    """Bounded ring of transitions; once full each push evicts the oldest."""

    def __init__(self, capacity: int):
        if capacity < 1:
            raise ValueError(f"capacity must be >= 1, got {capacity}")
        self.capacity = capacity
        self._storage: list[Transition] = []
        self._cursor = 0

    def __len__(self) -> int:
        return len(self._storage)

    def push(self, t: Transition) -> None:
        if len(self._storage) < self.capacity:
            self._storage.append(t)
        else:
            self._storage[self._cursor] = t
            self._cursor = (self._cursor + 1) % self.capacity

    def sample(self, rng: np.random.Generator) -> Transition:
        """Uniform draw from the stored transitions; the buffer is unchanged."""
        if not self._storage:
            raise IndexError("sample from empty replay buffer")
        return self._storage[int(rng.integers(len(self._storage)))]

    def snapshot(self) -> list[Transition]:
        """Stored transitions, oldest first."""
        return self._storage[self._cursor :] + self._storage[: self._cursor]
