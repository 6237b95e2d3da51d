"""Trading agents over the market environment.

Five families: a hard-coded threshold trader, per-symbol tabular Q, a deep-Q
agent with a shared network and replay, a feudal trader whose six sector
managers gate per-symbol workers, and two multi-worker variants where a
manager chooses which worker acts. A uniform-random agent serves as the
comparison baseline.

Every runner hands the one episode loop, ``_episodes``, a ``play`` closure
that makes one decision: a tick for the random, hard-coded, deep-Q and
behavior agents, a span of ticks for the tabular, feudal and count agents,
whose per-symbol tables all act and learn in one span body, ``_run_span``.
An episode ends when the portfolio doubles or the data runs out, and each
runner returns one run-log row per episode: its seed, how many ticks it
took, the cumulative reward, and the final value. Tables and network
weights persist across episodes; only the portfolio and the data cursor
reset.
"""

from __future__ import annotations

import mmap
from dataclasses import dataclass
from typing import Callable, Iterator

import numpy as np

from hrl_lab.market_env import (
    SECTORS,
    MarketData,
    MarketEnv,
    StepResult,
    TradeAction,
    trend_state,
)
from hrl_lab.nn import (
    AdamState,
    MlpSpec,
    adam_update,
    backward,
    flatten,
    forward,
    init_params,
    trace,
)
from hrl_lab.rl_core import (
    ExplorationSchedule,
    LearningParams,
    QTable,
    ReplayBuffer,
    RunRow,
    Transition,
    epsilon_greedy,
    q_update,
    select_action,
    update_row,
)

N_ACTIONS = len(TradeAction)
ACTIONS = tuple(TradeAction)  # ACTIONS[i] is TradeAction(i) without the enum call
# The hard-coded trader buys when a symbol's open changed by more than
# BUY_THRESHOLD since the previous tick, and sells below SELL_THRESHOLD.
BUY_THRESHOLD, SELL_THRESHOLD = 0.05, -0.05
# A feudal sector manager's decision holds for this many ticks.
WORKER_STEPS_PER_GOAL = 5
# Episodes start at the first tick with a previous open to compare with;
# the deep-Q agent's start is the first tick with three previous opens.
START_TICK = 1
DQN_START_TICK = 3
# The random agent draws its actions this many at a time.
RANDOM_BLOCK = 1024


def hardcoded_policy(delta: float) -> TradeAction:
    if delta > BUY_THRESHOLD:
        return TradeAction.BUY
    if delta < SELL_THRESHOLD:
        return TradeAction.SELL
    return TradeAction.HOLD


def tabular_state(trend: str, has_shares: bool) -> int:
    """The four market states: (up,true)=0 (up,false)=1 (down,true)=2 (down,false)=3."""
    if trend not in ("up", "down"):
        raise ValueError(f"trend must be 'up' or 'down', got {trend!r}")
    return (0 if trend == "up" else 2) + (0 if has_shares else 1)


def majority_trend(data: MarketData, t: int, symbols: tuple[str, ...] | None = None) -> str:
    """"up" iff more of ``symbols`` (default: the whole universe) rose into
    tick t than did not."""
    symbols = data.symbols if symbols is None else symbols
    ups = sum(trend_state(data, sym, t) == "up" for sym in symbols)
    return "up" if ups > len(symbols) - ups else "down"


def market_params() -> LearningParams:
    """Tiny alpha on purpose: per-tick rewards are dominated by price noise
    (sigma is roughly the whole position's one-tick move), so a fast table
    random-walks and can lock itself into selling. Long averaging keeps the
    positive-drift actions on top."""
    return LearningParams(alpha=0.01, gamma=0.9)


def market_schedule() -> ExplorationSchedule:
    """Mostly-greedy by the third episode; the trend signal is weak, so long
    random phases just delay doubling without improving the tables."""
    return ExplorationSchedule(epsilon0=0.3, decay=0.3, epsilon_min=0.0)


DEFAULT_EPISODES = 3


def _episodes(
    env: MarketEnv,
    seed: int,
    episodes: int,
    play: Callable[[int], tuple[float, StepResult]],
    start_t: int = START_TICK,
) -> list[RunRow]:
    """The episode loop of every runner: reset to start_t, then call
    ``play(ep)`` until the step it returns is done, summing its rewards."""
    rows = []
    for ep in range(episodes):
        env.reset(start_t)
        cum = 0.0
        while True:
            reward, res = play(ep)
            cum += reward
            if res.done:
                doubled = res.total_value >= env.target
                rows.append(RunRow(seed, ep, env.ticks if doubled else -1, cum, res.total_value))
                break
    return rows


def _per_symbol_gain(env: MarketEnv, t: int, sym: str) -> float:
    """Mark-to-market gain across tick t for the post-trade position."""
    return env.portfolio.shares[sym] * (
        env.data.price(sym, t + 1) - env.data.price(sym, t)
    )


def _next_row(
    table: QTable, data: MarketData, sym: str, t: int, shares: dict[str, int], done: bool
) -> list[float] | None:
    """The worker's Q row for its state at tick t, or None once the episode
    is over (terminal updates drop the bootstrap term)."""
    if done:
        return None
    return table.row(tabular_state(trend_state(data, sym, t), shares[sym] > 0))


def fresh_tables(data: MarketData) -> dict[str, QTable]:
    """One 4-state, 3-action table per symbol."""
    return {sym: QTable(N_ACTIONS, states=range(4)) for sym in data.symbols}


def run_hardcoded(
    env: MarketEnv,
    episodes: int = DEFAULT_EPISODES,
    seed: int = 0,
) -> list[RunRow]:
    data = env.data

    def play(ep: int) -> tuple[float, StepResult]:
        t = env.t
        res = env.step(
            {
                sym: hardcoded_policy(data.price(sym, t) - data.price(sym, t - 1))
                for sym in data.symbols
            }
        )
        return res.reward, res

    return _episodes(env, seed, episodes, play)


def run_random(
    env: MarketEnv,
    episodes: int = DEFAULT_EPISODES,
    seed: int = 0,
) -> list[RunRow]:
    symbols = env.data.symbols
    actions = _uniform_actions(np.random.default_rng(seed))

    def play(ep: int) -> tuple[float, StepResult]:
        res = env.step({sym: next(actions) for sym in symbols})
        return res.reward, res

    return _episodes(env, seed, episodes, play)


def _uniform_actions(rng: np.random.Generator) -> Iterator[TradeAction]:
    """Uniform actions in the order of scalar ``rng.integers(N_ACTIONS)``
    calls, drawn RANDOM_BLOCK at a time: a block draw yields the same stream
    as that many scalar draws, at a fraction of the per-call cost."""
    while True:
        yield from [ACTIONS[a] for a in rng.integers(N_ACTIONS, size=RANDOM_BLOCK).tolist()]


def _run_span(
    env: MarketEnv,
    tables: dict[str, QTable],
    group_of: dict[str, str],
    max_ticks: int,
    epsilon: float,
    rng: np.random.Generator | None,
    params: LearningParams,
) -> tuple[float, StepResult]:
    """Let the tabular traders of the symbols in ``group_of`` act for up to
    max_ticks ticks; every other symbol holds and its table is untouched.

    ``group_of`` maps each acting symbol, in universe order, to its reward
    group: a trader's reward for a tick is the summed mark-to-market gain of
    its group's symbols. Returns the accumulated portfolio reward and the
    last step result.
    """
    data = env.data
    active = tuple(group_of)
    no_gain = dict.fromkeys(group_of.values(), 0.0)
    span_reward = 0.0
    res = None
    for _ in range(max_ticks):
        t = env.t
        shares = env.portfolio.shares
        rows = [
            tables[sym].row(tabular_state(trend_state(data, sym, t), shares[sym] > 0))
            for sym in active
        ]
        chosen = [epsilon_greedy(row, epsilon, rng) for row in rows]
        res = env.step({sym: ACTIONS[a] for sym, a in zip(active, chosen)})
        span_reward += res.reward
        gain = no_gain.copy()
        for sym in active:
            gain[group_of[sym]] += _per_symbol_gain(env, t, sym)
        for sym, row, a in zip(active, rows, chosen):
            update_row(
                row, a, gain[group_of[sym]],
                _next_row(tables[sym], data, sym, t + 1, shares, res.done), params,
            )
        if res.done:
            break
    return span_reward, res


def run_worker_span(
    env: MarketEnv,
    tables: dict[str, QTable],
    max_ticks: int,
    epsilon: float,
    rng: np.random.Generator | None,
    params: LearningParams,
) -> tuple[float, StepResult]:
    """Let the per-symbol tabular traders act for up to max_ticks ticks.

    Each symbol's table sees its own mark-to-market gain as the reward, so
    the per-symbol rewards sum exactly to the portfolio's value change.
    """
    group_of = {sym: sym for sym in env.data.symbols}
    return _run_span(env, tables, group_of, max_ticks, epsilon, rng, params)


def run_tabular_q(
    env: MarketEnv,
    params: LearningParams | None = None,
    schedule: ExplorationSchedule | None = None,
    episodes: int = DEFAULT_EPISODES,
    seed: int = 0,
    tables: dict[str, QTable] | None = None,
) -> list[RunRow]:
    """Pass pre-built tables to warm-start or to inspect the learned policy."""
    params = params or market_params()
    schedule = schedule or market_schedule()
    rng = np.random.default_rng(seed)
    if tables is None:
        tables = fresh_tables(env.data)

    def play(ep: int) -> tuple[float, StepResult]:
        # one span as long as the data: it always ends the episode
        return run_worker_span(env, tables, len(env.data), schedule.epsilon(ep), rng, params)

    return _episodes(env, seed, episodes, play)


@dataclass
class DqnConfig:
    """gamma defaults to 0 because the input carries no holdings signal:
    the bootstrapped next-state value is then the same whatever action was
    taken, so it adds variance to the target without ordering the actions."""

    hidden_sizes: tuple[int, ...] = (32, 64, 64)
    buffer_capacity: int = 5000
    train_steps: int = 1
    gamma: float = 0.0
    lr: float = 3e-3

    def __post_init__(self) -> None:
        if self.train_steps < 1:
            raise ValueError(f"train_steps must be >= 1, got {self.train_steps}")


def dqn_encode_state(data: MarketData, t: int) -> np.ndarray:
    """The previous three opens per symbol, each scaled by that symbol's
    first visible price; symbols concatenated in universe order."""
    if t < 3:
        raise ValueError(f"need three previous prices, got t={t}")
    return np.concatenate(
        [data.opens[sym][t - 3 : t] / data.price(sym, 0) for sym in data.symbols]
    )


def dqn_inputs(data: MarketData) -> np.ndarray:
    """The network inputs of every tick at once, shape (T, n, 4n).

    Row i of ``dqn_inputs(data)[t]`` is ``dqn_encode_state(data, t)``
    followed by symbol i's one-hot. Ticks before 3 have no price window and
    keep zeros there.
    """
    n, length = len(data.symbols), len(data)
    scaled = np.stack([data.opens[sym] / data.price(sym, 0) for sym in data.symbols])
    # The array (4.4 MiB at 6 symbols x 4000 ticks) gets its own anonymous
    # mapping, zero-filled and handed back to the OS when the array dies.
    # From malloc, a run's array went on the heap once an earlier run's had
    # been freed, and whether the next run reused that block depended on
    # the order of unrelated frees: the market benchmark's peak RSS read
    # 47.2 or 51.5 MB.
    size = length * n * 4 * n * np.dtype(float).itemsize
    xs = np.frombuffer(mmap.mmap(-1, size), dtype=float).reshape(length, n, 4 * n)
    for k in range(3):
        # column 3*j + k holds symbol j's open at t - 3 + k
        xs[3:, :, k : 3 * n : 3] = scaled[:, k : length - 3 + k].T[:, None, :]
    xs[:, :, 3 * n :] = np.eye(n)
    return xs


def run_dqn(
    env: MarketEnv,
    cfg: DqnConfig | None = None,
    schedule: ExplorationSchedule | None = None,
    episodes: int = DEFAULT_EPISODES,
    seed: int = 0,
) -> list[RunRow]:
    """A single network shared across symbols: input is the encoded price
    window plus the acting symbol's one-hot, output is Q over the three
    actions. Each tick pushes one transition per symbol and trains on
    train_steps uniformly sampled replay transitions."""
    inputs = dqn_inputs(env.data)
    return _episodes(
        env, seed, episodes,
        _dqn_player(env, cfg or DqnConfig(), schedule or market_schedule(), seed, inputs),
        start_t=DQN_START_TICK,
    )


def _dqn_player(
    env: MarketEnv,
    cfg: DqnConfig,
    schedule: ExplorationSchedule,
    seed: int,
    inputs: np.ndarray,
) -> Callable[[int], tuple[float, StepResult]]:
    """A fresh network and replay buffer, and the tick that acts and trains."""
    data = env.data
    rng = np.random.default_rng(seed)
    n = len(data.symbols)
    net_spec = MlpSpec((3 * n + n, *cfg.hidden_sizes, N_ACTIONS))
    flat, params = flatten(init_params(net_spec, seed))
    grad_flat, grads = flatten(params)  # same layout; backward overwrites it
    adam = AdamState(lr=cfg.lr)
    buffer = ReplayBuffer(cfg.buffer_capacity)

    def play(ep: int) -> tuple[float, StepResult]:
        eps = schedule.epsilon(ep)
        t = env.t
        greedy = forward(params, inputs[t]).argmax(axis=1).tolist()
        chosen = {}
        for i, sym in enumerate(data.symbols):
            if eps > 0.0 and rng.random() < eps:
                chosen[sym] = int(rng.integers(N_ACTIONS))
            else:
                chosen[sym] = greedy[i]
        res = env.step({s: ACTIONS[a] for s, a in chosen.items()})
        for i, sym in enumerate(data.symbols):
            buffer.push(
                Transition(
                    inputs[t, i], chosen[sym], _per_symbol_gain(env, t, sym), inputs[t + 1, i],
                    res.done,
                )
            )
        for _ in range(cfg.train_steps):
            tr = buffer.sample(rng)
            acts = trace(params, tr.s0)
            # gamma == 0 zeroes the bootstrap term, so its forward pass is skipped
            if tr.done or cfg.gamma == 0.0:
                target = tr.r
            else:
                target = tr.r + cfg.gamma * float(np.max(forward(params, tr.s)))
            # The loss is the MSE between the predicted Q row and that row
            # with the taken action's entry set to the target, so its
            # gradient is zero except at the taken action.
            grad = np.zeros(N_ACTIONS)
            grad[tr.a] = 2.0 * (acts[-1][0, tr.a] - target) / N_ACTIONS
            backward(params, tr.s0, grad, acts, out=grads)
            adam_update(adam, flat, grad_flat)
        return res.reward, res

    return play


def run_masked_span(
    env: MarketEnv,
    workers: dict[str, QTable],
    mask: dict[str, bool],
    max_ticks: int,
    epsilon: float,
    rng: np.random.Generator | None,
    params: LearningParams,
) -> tuple[float, StepResult]:
    """Run up to max_ticks ticks with workers acting only in masked sectors.

    Symbols in unmasked sectors are forced to Hold and their tables are not
    updated. A masked worker's reward is its whole sector's mark-to-market
    gain for the tick.
    """
    sector_of = env.data.sector_of
    group_of = {sym: sector_of[sym] for sym in env.data.symbols if mask[sector_of[sym]]}
    return _run_span(env, workers, group_of, max_ticks, epsilon, rng, params)


def run_feudal(
    env: MarketEnv,
    schedule: ExplorationSchedule | None = None,
    episodes: int = DEFAULT_EPISODES,
    seed: int = 0,
) -> list[RunRow]:
    """Six sector managers each decide trade-or-skip for
    WORKER_STEPS_PER_GOAL ticks; per-symbol workers act inside traded
    sectors and idle elsewhere. Managers learn from the whole portfolio's
    change over their span, workers from their own sector's change each
    tick. Both levels learn with ``market_params()``."""
    params = market_params()
    schedule = schedule or market_schedule()
    data = env.data
    rng = np.random.default_rng(seed)
    members = {
        s: syms
        for s in SECTORS
        if (syms := tuple(y for y in data.symbols if data.sector_of[y] == s))
    }
    managers = {s: QTable(2, states=("up", "down")) for s in members}
    workers = fresh_tables(data)
    TRADE = 0

    def play(ep: int) -> tuple[float, StepResult]:
        eps = schedule.epsilon(ep)
        states = {s: majority_trend(data, env.t, syms) for s, syms in members.items()}
        actions = {s: select_action(managers[s], states[s], eps, rng) for s in members}
        mask = {s: actions[s] == TRADE for s in members}
        span_reward, res = run_masked_span(
            env, workers, mask, WORKER_STEPS_PER_GOAL, eps, rng, params
        )
        for s, syms in members.items():
            q_update(
                managers[s],
                params,
                Transition(
                    states[s], actions[s], span_reward,
                    majority_trend(data, env.t, syms), res.done,
                ),
            )
        return span_reward, res

    return _episodes(env, seed, episodes, play)


def run_multiworker_counts(
    env: MarketEnv,
    counts: tuple[int, ...] = (1, 3, 5),
    params: LearningParams | None = None,
    schedule: ExplorationSchedule | None = None,
    episodes: int = DEFAULT_EPISODES,
    seed: int = 0,
) -> list[RunRow]:
    """The manager's action picks which worker acts; each worker is a full
    per-symbol tabular trader that runs for its own number of ticks before
    control returns to the manager."""
    if len(set(counts)) != len(counts) or any(c < 1 for c in counts):
        raise ValueError(f"counts must be distinct and >= 1, got {counts}")
    params = params or market_params()
    schedule = schedule or market_schedule()
    data = env.data
    rng = np.random.default_rng(seed)
    manager = QTable(len(counts), states=("up", "down"))
    crews = [fresh_tables(data) for _ in counts]

    def play(ep: int) -> tuple[float, StepResult]:
        eps = schedule.epsilon(ep)
        s0 = majority_trend(data, env.t)
        wi = select_action(manager, s0, eps, rng)
        span_reward, res = run_worker_span(env, crews[wi], counts[wi], eps, rng, params)
        q_update(
            manager, params, Transition(s0, wi, span_reward, majority_trend(data, env.t), res.done)
        )
        return span_reward, res

    return _episodes(env, seed, episodes, play)


def fixed_worker_actions(
    data: MarketData, kind: int, t: int, rng: np.random.Generator
) -> dict[str, TradeAction]:
    """The three fixed behavior workers: 0 buys risers and sells fallers
    (momentum), 1 does the opposite (contrarian), 2 acts uniformly at
    random."""
    if kind not in (0, 1, 2):
        raise ValueError(f"worker kind must be 0, 1 or 2, got {kind}")
    out = {}
    for sym in data.symbols:
        if kind == 2:
            out[sym] = ACTIONS[int(rng.integers(N_ACTIONS))]
        else:
            rising = trend_state(data, sym, t) == "up"
            if kind == 0:
                out[sym] = TradeAction.BUY if rising else TradeAction.SELL
            else:
                out[sym] = TradeAction.SELL if rising else TradeAction.BUY
    return out


def behaviors_params() -> LearningParams:
    """High alpha, no bootstrapping: with the tick-indexed state the reward
    at each (tick, worker) cell is nearly deterministic across episodes, so
    the table should track the latest realized value quickly."""
    return LearningParams(alpha=0.5, gamma=0.0)


def behaviors_schedule() -> ExplorationSchedule:
    return ExplorationSchedule(epsilon0=1.0, decay=0.5, epsilon_min=0.0)


def run_multiworker_behaviors(
    env: MarketEnv,
    params: LearningParams | None = None,
    schedule: ExplorationSchedule | None = None,
    episodes: int = 8,
    seed: int = 0,
) -> list[RunRow]:
    """Three fixed workers (momentum, contrarian, random); a Q-learning
    manager picks which one trades each tick.

    Episodes replay the same data window, which makes this a finite-horizon
    problem, so the manager's state is the tick index: it learns which
    worker pays off at each point of the path. Any state that ignores the
    clock cannot beat the better of momentum/contrarian on average, and on
    drifting data those two differ too little per tick to matter.
    """
    params = params or behaviors_params()
    schedule = schedule or behaviors_schedule()
    data = env.data
    rng = np.random.default_rng(seed)
    manager = QTable(3)

    def play(ep: int) -> tuple[float, StepResult]:
        t = env.t
        wi = select_action(manager, t, schedule.epsilon(ep), rng)
        res = env.step(fixed_worker_actions(data, wi, t, rng))
        q_update(manager, params, Transition(t, wi, res.reward, t + 1, res.done))
        return res.reward, res

    return _episodes(env, seed, episodes, play)
