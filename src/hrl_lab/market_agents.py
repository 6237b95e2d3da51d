"""Trading agents over the market environment.

Five families: a hard-coded threshold trader, per-symbol tabular Q, a deep-Q
agent with a shared network and replay, a feudal trader whose six sector
managers gate per-symbol workers, and two multi-worker variants where a
manager chooses which worker acts. A uniform-random agent serves as the
comparison baseline.

All runners share the episode bookkeeping: an episode ends when the
portfolio doubles or the data runs out, and each one logs how many ticks it
took, the final value, and the cumulative reward. Tables and network
weights persist across episodes; only the portfolio and the data cursor
reset.
"""

from __future__ import annotations

from dataclasses import dataclass, field

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
    Transition,
    epsilon_greedy,
    q_update,
    select_action,
    update_row,
)

N_ACTIONS = len(TradeAction)
ACTIONS = tuple(TradeAction)  # ACTIONS[i] is TradeAction(i) without the enum call


@dataclass
class ThresholdConfig:
    buy_threshold: float = 0.05
    sell_threshold: float = -0.05

    def __post_init__(self) -> None:
        if not self.sell_threshold < 0 < self.buy_threshold:
            raise ValueError(
                f"need sell < 0 < buy, got ({self.sell_threshold}, {self.buy_threshold})"
            )


def hardcoded_policy(cfg: ThresholdConfig, delta: float) -> TradeAction:
    if delta > cfg.buy_threshold:
        return TradeAction.BUY
    if delta < cfg.sell_threshold:
        return TradeAction.SELL
    return TradeAction.HOLD


def tabular_state(trend: str, has_shares: bool) -> int:
    """The four market states: (up,true)=0 (up,false)=1 (down,true)=2 (down,false)=3."""
    if trend not in ("up", "down"):
        raise ValueError(f"trend must be 'up' or 'down', got {trend!r}")
    return (0 if trend == "up" else 2) + (0 if has_shares else 1)


def majority_trend(data: MarketData, t: int) -> str:
    ups = sum(trend_state(data, sym, t) == "up" for sym in data.symbols)
    return "up" if ups > len(data.symbols) - ups else "down"


def sector_trend(data: MarketData, sector: str, t: int) -> str:
    syms = [s for s in data.symbols if data.sector_of[s] == sector]
    ups = sum(trend_state(data, s, t) == "up" for s in syms)
    return "up" if ups > len(syms) - ups else "down"


@dataclass(frozen=True)
class RunRecord:
    """One episode: ticks_to_double is -1 when the data ran out first."""

    episode: int
    ticks_to_double: int
    final_value: float
    cumulative_reward: float


@dataclass
class AgentRun:
    agent: str
    seed: int
    records: list[RunRecord]


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


def _record(episode: int, env: MarketEnv, result: StepResult, cum: float) -> RunRecord:
    doubled = result.total_value >= env.target
    return RunRecord(episode, env.ticks if doubled else -1, result.total_value, cum)


def _per_symbol_gain(env: MarketEnv, t: int, sym: str) -> float:
    """Mark-to-market gain across tick t for the post-trade position."""
    return env.portfolio.shares[sym] * (
        env.data.price(sym, t + 1) - env.data.price(sym, t)
    )


def _next_row(
    table: QTable, data: MarketData, sym: str, t: int, shares: dict[str, int], done: bool
) -> np.ndarray | None:
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
    thresholds: ThresholdConfig | None = None,
    episodes: int = DEFAULT_EPISODES,
    seed: int = 0,
) -> AgentRun:
    thresholds = thresholds or ThresholdConfig()
    data = env.data
    records = []
    for ep in range(episodes):
        env.reset(1)
        cum = 0.0
        while True:
            t = env.t
            actions = {
                sym: hardcoded_policy(
                    thresholds, data.price(sym, t) - data.price(sym, t - 1)
                )
                for sym in data.symbols
            }
            res = env.step(actions)
            cum += res.reward
            if res.done:
                records.append(_record(ep, env, res, cum))
                break
    return AgentRun("hardcoded", seed, records)


def run_random(
    env: MarketEnv,
    episodes: int = DEFAULT_EPISODES,
    seed: int = 0,
) -> AgentRun:
    data = env.data
    rng = np.random.default_rng(seed)
    records = []
    for ep in range(episodes):
        env.reset(1)
        cum = 0.0
        while True:
            actions = {
                sym: ACTIONS[int(rng.integers(N_ACTIONS))] for sym in data.symbols
            }
            res = env.step(actions)
            cum += res.reward
            if res.done:
                records.append(_record(ep, env, res, cum))
                break
    return AgentRun("random", seed, records)


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
    Returns the accumulated reward and the last step result.
    """
    data = env.data
    symbols = data.symbols
    span_reward = 0.0
    res = None
    for _ in range(max_ticks):
        t = env.t
        shares = env.portfolio.shares
        rows = [
            tables[sym].row(tabular_state(trend_state(data, sym, t), shares[sym] > 0))
            for sym in symbols
        ]
        chosen = [epsilon_greedy(row, epsilon, rng) for row in rows]
        res = env.step({sym: ACTIONS[a] for sym, a in zip(symbols, chosen)})
        span_reward += res.reward
        for sym, row, a in zip(symbols, rows, chosen):
            update_row(
                row, a, _per_symbol_gain(env, t, sym),
                _next_row(tables[sym], data, sym, t + 1, shares, res.done), params,
            )
        if res.done:
            break
    return span_reward, res


def run_tabular_q(
    env: MarketEnv,
    params: LearningParams | None = None,
    schedule: ExplorationSchedule | None = None,
    episodes: int = DEFAULT_EPISODES,
    seed: int = 0,
    tables: dict[str, QTable] | None = None,
) -> AgentRun:
    """Pass pre-built tables to warm-start or to inspect the learned policy."""
    params = params or market_params()
    schedule = schedule or market_schedule()
    rng = np.random.default_rng(seed)
    if tables is None:
        tables = fresh_tables(env.data)
    records = []
    for ep in range(episodes):
        env.reset(1)
        cum, res = run_worker_span(
            env, tables, len(env.data), schedule.epsilon(ep), rng, params
        )
        records.append(_record(ep, env, res, cum))
    return AgentRun("tabular-q", seed, records)


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
    xs = np.zeros((length, n, 4 * n))
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
) -> AgentRun:
    """A single network shared across symbols: input is the encoded price
    window plus the acting symbol's one-hot, output is Q over the three
    actions. Each tick pushes one transition per symbol and trains on
    train_steps uniformly sampled replay transitions."""
    cfg = cfg or DqnConfig()
    schedule = schedule or market_schedule()
    data = env.data
    rng = np.random.default_rng(seed)
    n = len(data.symbols)
    net_spec = MlpSpec((3 * n + n, *cfg.hidden_sizes, N_ACTIONS))
    flat, params = flatten(init_params(net_spec, seed))
    grad_flat, grads = flatten(params)  # same layout; backward overwrites it
    adam = AdamState(lr=cfg.lr)
    buffer = ReplayBuffer(cfg.buffer_capacity)
    inputs = dqn_inputs(data)
    records = []
    for ep in range(episodes):
        eps = schedule.epsilon(ep)
        env.reset(3)
        cum = 0.0
        xs = inputs[env.t]
        while True:
            t = env.t
            greedy = forward(params, xs).argmax(axis=1).tolist()
            chosen = {}
            for i, sym in enumerate(data.symbols):
                if eps > 0.0 and rng.random() < eps:
                    chosen[sym] = int(rng.integers(N_ACTIONS))
                else:
                    chosen[sym] = greedy[i]
            res = env.step({s: ACTIONS[a] for s, a in chosen.items()})
            cum += res.reward
            nxt = inputs[t + 1]
            for i, sym in enumerate(data.symbols):
                buffer.push(
                    Transition(
                        xs[i], chosen[sym], _per_symbol_gain(env, t, sym),
                        nxt[i], res.done,
                    )
                )
            for _ in range(cfg.train_steps):
                if not len(buffer):
                    break
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
            xs = nxt
            if res.done:
                records.append(_record(ep, env, res, cum))
                break
    return AgentRun("dqn", seed, records)


@dataclass
class FeudalStockConfig:
    worker_steps_per_goal: int = 5
    manager_params: LearningParams = field(default_factory=market_params)
    worker_params: LearningParams = field(default_factory=market_params)

    def __post_init__(self) -> None:
        if self.worker_steps_per_goal < 1:
            raise ValueError(
                f"worker_steps_per_goal must be >= 1, got {self.worker_steps_per_goal}"
            )


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
    data = env.data
    active = [sym for sym in data.symbols if mask[data.sector_of[sym]]]
    members = {
        sector: [sym for sym in data.symbols if data.sector_of[sym] == sector]
        for sector, on in mask.items()
        if on
    }
    span_reward = 0.0
    res = None
    for _ in range(max_ticks):
        t = env.t
        shares = env.portfolio.shares
        rows = [
            workers[sym].row(tabular_state(trend_state(data, sym, t), shares[sym] > 0))
            for sym in active
        ]
        chosen = [epsilon_greedy(row, epsilon, rng) for row in rows]
        actions = dict.fromkeys(data.symbols, TradeAction.HOLD)
        actions.update((sym, ACTIONS[a]) for sym, a in zip(active, chosen))
        res = env.step(actions)
        span_reward += res.reward
        sector_gain = {
            sector: sum(_per_symbol_gain(env, t, sym) for sym in syms)
            for sector, syms in members.items()
        }
        for sym, row, a in zip(active, rows, chosen):
            update_row(
                row, a, sector_gain[data.sector_of[sym]],
                _next_row(workers[sym], data, sym, t + 1, shares, res.done), params,
            )
        if res.done:
            break
    return span_reward, res


def run_feudal(
    env: MarketEnv,
    cfg: FeudalStockConfig | None = None,
    schedule: ExplorationSchedule | None = None,
    episodes: int = DEFAULT_EPISODES,
    seed: int = 0,
) -> AgentRun:
    """Six sector managers each decide trade-or-skip for k ticks; per-symbol
    workers act inside traded sectors and idle elsewhere. Managers learn from
    the whole portfolio's change over their span, workers from their own
    sector's change each tick."""
    cfg = cfg or FeudalStockConfig()
    schedule = schedule or market_schedule()
    data = env.data
    rng = np.random.default_rng(seed)
    sectors = tuple(s for s in SECTORS if any(data.sector_of[y] == s for y in data.symbols))
    managers = {s: QTable(2, states=("up", "down")) for s in sectors}
    workers = fresh_tables(data)
    TRADE = 0
    records = []
    for ep in range(episodes):
        eps = schedule.epsilon(ep)
        env.reset(1)
        cum = 0.0
        done = False
        while not done:
            span_states = {s: sector_trend(data, s, env.t) for s in sectors}
            span_actions = {
                s: select_action(managers[s], span_states[s], eps, rng) for s in sectors
            }
            mask = {s: span_actions[s] == TRADE for s in sectors}
            span_reward, res = run_masked_span(
                env, workers, mask, cfg.worker_steps_per_goal, eps, rng,
                cfg.worker_params,
            )
            cum += span_reward
            done = res.done
            for s in sectors:
                q_update(
                    managers[s],
                    cfg.manager_params,
                    Transition(
                        span_states[s], span_actions[s], span_reward,
                        sector_trend(data, s, env.t), done,
                    ),
                )
            if done:
                records.append(_record(ep, env, res, cum))
    return AgentRun("feudal", seed, records)


def run_multiworker_counts(
    env: MarketEnv,
    counts: tuple[int, ...] = (1, 3, 5),
    params: LearningParams | None = None,
    schedule: ExplorationSchedule | None = None,
    episodes: int = DEFAULT_EPISODES,
    seed: int = 0,
) -> AgentRun:
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
    records = []
    for ep in range(episodes):
        eps = schedule.epsilon(ep)
        env.reset(1)
        cum = 0.0
        done = False
        while not done:
            s0 = majority_trend(data, env.t)
            wi = select_action(manager, s0, eps, rng)
            span_reward, res = run_worker_span(
                env, crews[wi], counts[wi], eps, rng, params
            )
            cum += span_reward
            done = res.done
            q_update(
                manager,
                params,
                Transition(s0, wi, span_reward, majority_trend(data, env.t), done),
            )
            if done:
                records.append(_record(ep, env, res, cum))
    return AgentRun("multiworker-counts", seed, records)


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
) -> AgentRun:
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
    records = []
    for ep in range(episodes):
        eps = schedule.epsilon(ep)
        env.reset(1)
        cum = 0.0
        while True:
            t = env.t
            wi = select_action(manager, t, eps, rng)
            res = env.step(fixed_worker_actions(data, wi, t, rng))
            cum += res.reward
            q_update(
                manager, params, Transition(t, wi, res.reward, t + 1, res.done)
            )
            if res.done:
                records.append(_record(ep, env, res, cum))
                break
    return AgentRun("multiworker-behaviors", seed, records)
