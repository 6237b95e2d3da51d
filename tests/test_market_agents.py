import numpy as np
import pytest

from hrl_lab.market_agents import (
    AgentRun,
    DqnConfig,
    FeudalStockConfig,
    ThresholdConfig,
    behaviors_params,
    dqn_encode_state,
    dqn_inputs,
    fixed_worker_actions,
    fresh_tables,
    hardcoded_policy,
    majority_trend,
    run_dqn,
    run_feudal,
    run_hardcoded,
    run_masked_span,
    run_multiworker_behaviors,
    run_multiworker_counts,
    run_random,
    run_tabular_q,
    run_worker_span,
    tabular_state,
)
from hrl_lab.market_env import (
    EnvConfig,
    MarketData,
    MarketEnv,
    TradeAction,
    synth_gbm,
)
from hrl_lab.rl_core import ExplorationSchedule, LearningParams

GREEDY = ExplorationSchedule(epsilon0=0.0, decay=1.0, epsilon_min=0.0)


def flat_data(n_symbols=2, length=30, price=100.0):
    syms = tuple(f"SYM{i}" for i in range(n_symbols))
    sectors = ("technology", "energy", "finance", "healthcare", "utilities", "transportation")
    return MarketData(
        syms,
        {s: sectors[i % 6] for i, s in enumerate(syms)},
        {s: np.full(length, price) for s in syms},
        tuple(f"d{i}" for i in range(length)),
    )


def rising_data(n_symbols=1, length=60, start=10.0, step=0.1):
    syms = tuple(f"SYM{i}" for i in range(n_symbols))
    sectors = ("technology", "energy", "finance", "healthcare", "utilities", "transportation")
    path = start + step * np.arange(length)
    return MarketData(
        syms,
        {s: sectors[i % 6] for i, s in enumerate(syms)},
        {s: path.copy() for s in syms},
        tuple(f"d{i}" for i in range(length)),
    )


def test_hardcoded_policy_oracles():
    cfg = ThresholdConfig()
    assert hardcoded_policy(cfg, 0.10) == TradeAction.BUY
    assert hardcoded_policy(cfg, -0.10) == TradeAction.SELL
    assert hardcoded_policy(cfg, 0.01) == TradeAction.HOLD
    # thresholds themselves are not breached: strictly greater/less
    assert hardcoded_policy(cfg, 0.05) == TradeAction.HOLD
    assert hardcoded_policy(cfg, -0.05) == TradeAction.HOLD
    with pytest.raises(ValueError):
        ThresholdConfig(buy_threshold=-0.1, sell_threshold=-0.2)
    with pytest.raises(ValueError):
        ThresholdConfig(buy_threshold=0.1, sell_threshold=0.2)


def test_tabular_state_encoding():
    assert tabular_state("up", True) == 0
    assert tabular_state("up", False) == 1
    assert tabular_state("down", True) == 2
    assert tabular_state("down", False) == 3
    combos = {tabular_state(t, h) for t in ("up", "down") for h in (True, False)}
    assert combos == {0, 1, 2, 3}
    with pytest.raises(ValueError):
        tabular_state("sideways", True)


def test_trend_aggregates():
    syms = ("A", "B")
    data = MarketData(
        syms,
        {"A": "technology", "B": "technology"},
        {"A": np.array([10.0, 11.0, 12.0]), "B": np.array([10.0, 9.0, 11.0])},
        ("d0", "d1", "d2"),
    )
    assert majority_trend(data, 2) == "up"  # both rose
    assert majority_trend(data, 1) == "down"  # 1-1 tie counts as down
    assert majority_trend(data, 1, ("A",)) == "up"  # a subset: only A's rise counts
    assert majority_trend(data, 1, ("B",)) == "down"


def test_constant_prices_leave_tables_at_zero():
    env = MarketEnv(flat_data())
    run = run_tabular_q(env, schedule=GREEDY, episodes=2, seed=0)
    assert all(rec.cumulative_reward == 0.0 for rec in run.records)
    assert all(rec.ticks_to_double == -1 for rec in run.records)
    # rewards were identically zero, so no update ever moved a value
    # (and the greedy tie-break action, Buy, did execute: shares were held)
    assert env.portfolio.shares["SYM0"] > 0


def test_rising_prices_make_buy_greedy_in_up_states():
    # Price climbs 0.1 per tick forever, so every tick is an "up" tick and
    # the only reachable states are 0=(up,has) and 1=(up,not). Cash never
    # binds (1000 buys one ~11-unit share per tick for 58 ticks), so Buy is
    # never coerced, and the reward shares_after * 0.1 is strictly largest
    # for Buy. The Q fixed point therefore orders
    # Q(s,Buy) > Q(s,Hold) >= Q(s,Sell) in both reachable states.
    data = rising_data(length=60)
    env = MarketEnv(data)
    params = LearningParams(alpha=0.1, gamma=0.5)
    sched = ExplorationSchedule(epsilon0=0.3, decay=0.98, epsilon_min=0.05)
    tables = fresh_tables(data)
    run = run_tabular_q(
        env, params=params, schedule=sched, episodes=200, seed=1, tables=tables
    )
    assert isinstance(run, AgentRun)
    for state in (0, 1):
        row = tables["SYM0"].row(state)
        assert int(np.argmax(row)) == int(TradeAction.BUY)
        assert row[int(TradeAction.BUY)] > row[int(TradeAction.HOLD)]


def test_run_worker_span_tick_budget_and_telescoping():
    data = synth_gbm(3, 50, drift=0.001, volatility=0.02, seed=7)
    env = MarketEnv(data)
    env.reset(1)
    v0 = env.value()
    tables = fresh_tables(data)
    rng = np.random.default_rng(0)
    reward, res = run_worker_span(env, tables, 3, 0.5, rng, LearningParams(alpha=0.1, gamma=0.9))
    assert env.ticks == 3
    assert reward == pytest.approx(res.total_value - v0, abs=1e-9)


def test_run_masked_span_all_skip_forces_hold():
    data = synth_gbm(2, 30, drift=0.01, volatility=0.0, seed=0)
    env = MarketEnv(data)
    env.reset(1)
    # hand the portfolio one share of SYM0 so price drift is visible
    env.portfolio.cash -= data.price("SYM0", 1)
    env.portfolio.shares["SYM0"] = 1
    v0 = env.value()
    workers = fresh_tables(data)
    mask = {data.sector_of[s]: False for s in data.symbols}
    reward, res = run_masked_span(
        env, workers, mask, 4, 0.9, np.random.default_rng(3), LearningParams(alpha=0.5, gamma=0.9)
    )
    # four ticks of forced Hold: no trades, tables untouched, reward is
    # exactly the price drift on the single held share
    assert env.portfolio.shares["SYM0"] == 1
    assert env.portfolio.shares["SYM1"] == 0
    assert reward == pytest.approx(data.price("SYM0", 5) - data.price("SYM0", 1), abs=1e-9)
    assert reward == pytest.approx(res.total_value - v0, abs=1e-9)
    for table in workers.values():
        for state in range(4):
            assert np.all(table.row(state) == 0.0)


def test_run_masked_span_only_masked_sector_acts():
    data = rising_data(n_symbols=2, length=30)
    env = MarketEnv(data)
    env.reset(1)
    workers = fresh_tables(data)
    mask = {data.sector_of["SYM0"]: True, data.sector_of["SYM1"]: False}
    run_masked_span(env, workers, mask, 5, 0.0, None, LearningParams(alpha=0.5, gamma=0.0))
    assert env.portfolio.shares["SYM0"] > 0  # zero-init greedy tie-break is Buy
    assert env.portfolio.shares["SYM1"] == 0
    assert np.any(workers["SYM0"].row(1) != 0.0)
    for state in range(4):
        assert np.all(workers["SYM1"].row(state) == 0.0)


def test_counts_single_worker_matches_tabular():
    params = LearningParams(alpha=0.05, gamma=0.9)
    data = synth_gbm(4, 120, drift=0.002, volatility=0.02, seed=5)
    a = run_tabular_q(MarketEnv(data), params=params, schedule=GREEDY, episodes=3, seed=9)
    b = run_multiworker_counts(
        MarketEnv(data), counts=(1,), params=params, schedule=GREEDY, episodes=3, seed=9
    )
    for ra, rb in zip(a.records, b.records):
        assert ra == rb
    with pytest.raises(ValueError):
        run_multiworker_counts(MarketEnv(data), counts=(2, 2))
    with pytest.raises(ValueError):
        run_multiworker_counts(MarketEnv(data), counts=(0, 3))


def test_fixed_worker_definitions():
    data = MarketData(
        ("A", "B"),
        {"A": "technology", "B": "energy"},
        {"A": np.array([10.0, 11.0, 10.5]), "B": np.array([10.0, 9.0, 9.5])},
        ("d0", "d1", "d2"),
    )
    rng = np.random.default_rng(0)
    # t=1: A rose, B fell
    momentum = fixed_worker_actions(data, 0, 1, rng)
    assert momentum == {"A": TradeAction.BUY, "B": TradeAction.SELL}
    contrarian = fixed_worker_actions(data, 1, 1, rng)
    assert contrarian == {"A": TradeAction.SELL, "B": TradeAction.BUY}
    # t=2: A fell, B rose
    assert fixed_worker_actions(data, 0, 2, rng) == {"A": TradeAction.SELL, "B": TradeAction.BUY}
    with pytest.raises(ValueError):
        fixed_worker_actions(data, 3, 1, rng)


def test_random_worker_uniform_marginals():
    data = flat_data(n_symbols=1, length=3)
    rng = np.random.default_rng(12)
    n = 100_000
    counts = np.zeros(3, dtype=int)
    for _ in range(n):
        counts[int(fixed_worker_actions(data, 2, 1, rng)["SYM0"])] += 1
    sigma = np.sqrt(n * (1 / 3) * (2 / 3))
    assert np.all(np.abs(counts - n / 3) < 3 * sigma)


def test_dqn_encode_state():
    data = synth_gbm(6, 10, drift=0.001, volatility=0.02, seed=2)
    vec = dqn_encode_state(data, 3)
    assert vec.shape == (18,)
    flat = flat_data(n_symbols=2, length=8)
    assert np.allclose(dqn_encode_state(flat, 4), np.ones(6))
    with pytest.raises(ValueError):
        dqn_encode_state(data, 2)
    # concatenation order: SYM0's window first, each scaled by its first price
    data2 = MarketData(
        ("A", "B"),
        {"A": "technology", "B": "energy"},
        {"A": np.array([1.0, 2.0, 3.0, 4.0]), "B": np.array([10.0, 10.0, 20.0, 40.0])},
        ("d0", "d1", "d2", "d3"),
    )
    assert np.allclose(dqn_encode_state(data2, 3), [1.0, 2.0, 3.0, 1.0, 1.0, 2.0])


def test_dqn_inputs_stack_encoded_windows_and_onehots():
    data = synth_gbm(3, 12, drift=0.001, volatility=0.02, seed=2)
    xs = dqn_inputs(data)
    assert xs.shape == (12, 3, 12)
    for t in range(3, 12):
        want = np.hstack([np.tile(dqn_encode_state(data, t), (3, 1)), np.eye(3)])
        assert xs[t].tobytes() == want.tobytes(), t


def test_dqn_runs_and_is_reproducible():
    data = synth_gbm(3, 60, drift=0.002, volatility=0.02, seed=4)
    cfg = DqnConfig(hidden_sizes=(8, 8))
    a = run_dqn(MarketEnv(data), cfg=cfg, episodes=2, seed=3)
    b = run_dqn(MarketEnv(data), cfg=cfg, episodes=2, seed=3)
    c = run_dqn(MarketEnv(data), cfg=cfg, episodes=2, seed=4)
    assert a.records == b.records
    assert a.records != c.records
    with pytest.raises(ValueError):
        DqnConfig(train_steps=0)


@pytest.mark.parametrize(
    "runner,kwargs",
    [
        (run_hardcoded, {}),
        (run_random, {}),
        (run_tabular_q, {}),
        (run_dqn, {"cfg": DqnConfig(hidden_sizes=(8,))}),
        (run_feudal, {"cfg": FeudalStockConfig(worker_steps_per_goal=3)}),
        (run_multiworker_counts, {"counts": (1, 2)}),
        (run_multiworker_behaviors, {"params": behaviors_params()}),
    ],
)
def test_every_agent_telescopes_rewards(runner, kwargs):
    data = synth_gbm(6, 80, drift=0.002, volatility=0.02, seed=8)
    env = MarketEnv(data, EnvConfig(initial_cash=500.0))
    run = runner(env, episodes=2, seed=6, **kwargs)
    assert len(run.records) == 2
    for rec in run.records:
        assert rec.cumulative_reward == pytest.approx(rec.final_value - 500.0, abs=1e-9)


def test_seeded_runs_identical_across_agents():
    data = synth_gbm(4, 100, drift=0.002, volatility=0.02, seed=10)
    for runner in (run_tabular_q, run_feudal, run_multiworker_counts, run_multiworker_behaviors):
        a = runner(MarketEnv(data), episodes=2, seed=11)
        b = runner(MarketEnv(data), episodes=2, seed=11)
        assert a.records == b.records, runner.__name__


def test_no_doubling_yields_sentinel():
    env = MarketEnv(flat_data(length=12))
    run = run_random(env, episodes=1, seed=0)
    assert run.records[0].ticks_to_double == -1
    assert run.records[0].final_value == pytest.approx(1000.0)


def test_behaviors_manager_learns_the_window():
    # strong drift so every episode can double quickly; the tick-indexed
    # manager should be no slower than its own first, fully random episode
    data = synth_gbm(6, 400, drift=0.005, volatility=0.01, seed=13)
    env = MarketEnv(data)
    run = run_multiworker_behaviors(env, episodes=8, seed=13)
    first, last = run.records[0], run.records[-1]
    assert last.ticks_to_double > 0
    assert last.ticks_to_double <= first.ticks_to_double
