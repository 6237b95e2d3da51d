import numpy as np
import pytest

from hrl_lab.market_env import (
    SECTORS,
    EnvConfig,
    MarketData,
    MarketEnv,
    Portfolio,
    TradeAction,
    load_csv,
    moving_average,
    portfolio_value,
    synth_gbm,
    trend_state,
)


def one_symbol(prices, sector="technology"):
    arr = np.asarray(prices, dtype=float)
    ts = tuple(f"d{i}" for i in range(len(arr)))
    return MarketData(("AAA",), {"AAA": sector}, {"AAA": arr}, ts)


def test_market_data_rejects_bad_series():
    with pytest.raises(ValueError):
        one_symbol([10.0, -1.0])
    with pytest.raises(ValueError):
        one_symbol([10.0])
    with pytest.raises(ValueError):
        one_symbol([10.0, 11.0], sector="crypto")
    with pytest.raises(ValueError):
        MarketData(
            ("AAA",),
            {"AAA": "energy"},
            {"AAA": np.array([1.0, 2.0, 3.0])},
            ("d0", "d1"),
        )


def write_market_csvs(tmp_path, price_rows, sector_rows):
    prices = tmp_path / "prices.csv"
    prices.write_text("date,symbol,open\n" + "".join(f"{r}\n" for r in price_rows))
    sectors = tmp_path / "sectors.csv"
    sectors.write_text("symbol,sector\n" + "".join(f"{r}\n" for r in sector_rows))
    return prices, sectors


def test_load_csv_complete(tmp_path):
    prices, sectors = write_market_csvs(
        tmp_path,
        [
            "2020-01-01,AAA,10.0",
            "2020-01-02,AAA,11.0",
            "2020-01-03,AAA,12.0",
            "2020-01-01,BBB,5.0",
            "2020-01-02,BBB,6.0",
            "2020-01-03,BBB,7.0",
        ],
        ["AAA,technology", "BBB,energy"],
    )
    data = load_csv(prices, sectors)
    assert data.symbols == ("AAA", "BBB")
    assert len(data) == 3
    assert data.timestamps == ("2020-01-01", "2020-01-02", "2020-01-03")
    assert data.price("BBB", 2) == 7.0
    assert data.sector_of["AAA"] == "technology"


def test_load_csv_missing_cell_drops_the_date_for_everyone(tmp_path):
    prices, sectors = write_market_csvs(
        tmp_path,
        [
            "2020-01-01,AAA,10.0",
            "2020-01-02,AAA,",
            "2020-01-03,AAA,12.0",
            "2020-01-01,BBB,5.0",
            "2020-01-02,BBB,6.0",
            "2020-01-03,BBB,7.0",
        ],
        ["AAA,technology", "BBB,energy"],
    )
    data = load_csv(prices, sectors)
    assert len(data) == 2
    assert data.timestamps == ("2020-01-01", "2020-01-03")
    assert list(data.opens["BBB"]) == [5.0, 7.0]


def test_load_csv_rejections(tmp_path):
    prices, sectors = write_market_csvs(
        tmp_path,
        ["2020-01-01,ZZZ,10.0", "2020-01-02,ZZZ,11.0"],
        ["AAA,technology"],
    )
    with pytest.raises(ValueError, match="absent from sector map"):
        load_csv(prices, sectors)

    prices, sectors = write_market_csvs(
        tmp_path, ["2020-01-01,AAA,10.0"], ["AAA,basketweaving"]
    )
    with pytest.raises(ValueError, match="unknown sector"):
        load_csv(prices, sectors)

    prices, sectors = write_market_csvs(
        tmp_path, ["2020-01-01,AAA,10.0"], ["AAA,technology"]
    )
    with pytest.raises(ValueError, match="aligned timestamps"):
        load_csv(prices, sectors)

    prices, sectors = write_market_csvs(
        tmp_path,
        ["2020-01-01,AAA,ten", "2020-01-02,AAA,11.0"],
        ["AAA,technology"],
    )
    with pytest.raises(ValueError):
        load_csv(prices, sectors)


def test_portfolio_value_oracles():
    prices = {"AAA": 10.0, "BBB": 2.5}
    assert portfolio_value(Portfolio(100.0), prices) == 100.0
    assert portfolio_value(Portfolio(90.0, {"AAA": 1}), prices) == 100.0
    assert portfolio_value(Portfolio(0.0, {"BBB": 3}), prices) == 7.5
    with pytest.raises(ValueError):
        Portfolio(-1.0)
    with pytest.raises(ValueError):
        Portfolio(1.0, {"AAA": -2})


def test_step_buy_and_coercions():
    data = one_symbol([10.0, 10.0, 10.0, 10.0])
    env = MarketEnv(data, EnvConfig(initial_cash=100.0))
    res = env.step({"AAA": TradeAction.BUY})
    assert env.portfolio.cash == 90.0
    assert env.portfolio.shares["AAA"] == 1
    assert res.executed["AAA"] == TradeAction.BUY
    assert res.reward == 0.0

    env = MarketEnv(data, EnvConfig(initial_cash=5.0))
    res = env.step({"AAA": TradeAction.BUY})
    assert res.executed["AAA"] == TradeAction.HOLD
    assert env.portfolio.cash == 5.0
    assert env.portfolio.shares["AAA"] == 0

    env = MarketEnv(data, EnvConfig(initial_cash=100.0))
    res = env.step({"AAA": TradeAction.SELL})
    assert res.executed["AAA"] == TradeAction.HOLD


def test_step_reward_is_value_delta_at_new_prices():
    data = one_symbol([10.0, 10.0, 13.0, 13.0])
    env = MarketEnv(data, EnvConfig(initial_cash=1000.0))
    res = env.step({"AAA": TradeAction.BUY})
    assert res.reward == pytest.approx(3.0, abs=1e-12)
    assert res.total_value == pytest.approx(1003.0, abs=1e-12)


def test_step_trades_at_todays_open_not_tomorrows():
    data = one_symbol([10.0, 10.0, 100.0])
    env = MarketEnv(data, EnvConfig(initial_cash=10.0))
    res = env.step({"AAA": TradeAction.BUY})
    assert res.executed["AAA"] == TradeAction.BUY
    assert env.portfolio.cash == 0.0


def test_done_on_doubling_and_on_data_end():
    data = one_symbol([10.0, 10.0, 25.0, 25.0, 25.0])
    env = MarketEnv(data, EnvConfig(initial_cash=10.0))
    res = env.step({"AAA": TradeAction.BUY})
    assert res.done and res.total_value == 25.0 >= env.target

    data = one_symbol([10.0, 10.0, 10.0])
    env = MarketEnv(data)
    res = env.step({"AAA": TradeAction.HOLD})
    assert res.done  # cursor reached the last timestamp
    with pytest.raises(RuntimeError):
        env.step({"AAA": TradeAction.HOLD})
    with pytest.raises(ValueError):
        env.reset(start_t=2)


def test_hold_everything_rewards_telescope():
    data = synth_gbm(3, 40, drift=0.002, volatility=0.05, seed=11)
    env = MarketEnv(data)
    env.reset(1)
    start = env.value()
    total = 0.0
    done = False
    while not done:
        res = env.step({s: TradeAction.HOLD for s in data.symbols})
        total += res.reward
        done = res.done
    assert total == pytest.approx(res.total_value - start, abs=1e-9)


def test_random_trading_preserves_accounting():
    data = synth_gbm(4, 60, drift=0.0, volatility=0.03, seed=3)
    env = MarketEnv(data, EnvConfig(initial_cash=250.0))
    rng = np.random.default_rng(9)
    env.reset(1)
    for _ in range(50):
        t = env.t
        before = env.value()
        actions = {s: TradeAction(int(rng.integers(3))) for s in data.symbols}
        res = env.step(actions)
        assert env.portfolio.cash >= 0.0
        assert all(n >= 0 for n in env.portfolio.shares.values())
        # value change decomposes into per-symbol mark-to-market gains
        gains = sum(
            env.portfolio.shares[s] * (data.price(s, t + 1) - data.price(s, t))
            for s in data.symbols
        )
        assert res.reward == pytest.approx(gains, abs=1e-9)
        assert res.total_value == pytest.approx(before + res.reward, abs=1e-9)
        if res.done:
            break


def test_trend_state_oracles():
    data = one_symbol([10.0, 11.0, 9.0, 9.0])
    # series is 10 -> 11 -> 9 -> 9
    assert trend_state(data, "AAA", 1) == "up"
    assert trend_state(data, "AAA", 2) == "down"
    assert trend_state(data, "AAA", 3) == "down"
    with pytest.raises(ValueError):
        trend_state(data, "AAA", 0)


def test_cached_accessors_follow_opens():
    data = synth_gbm(3, 30, drift=0.0, volatility=0.05, seed=4)
    for t in range(len(data)):
        row = data.prices_at(t)
        assert list(row) == list(data.symbols)
        for sym in data.symbols:
            assert type(data.price(sym, t)) is float
            assert data.price(sym, t) == row[sym] == float(data.opens[sym][t])
            if t:
                rose = data.opens[sym][t] > data.opens[sym][t - 1]
                assert trend_state(data, sym, t) == ("up" if rose else "down")
    row = data.prices_at(5)
    row["SYM0"] = -1.0  # callers get a copy
    assert data.price("SYM0", 5) > 0.0
    ints = MarketData(("AAA",), {"AAA": "energy"}, {"AAA": np.array([3, 4, 4])}, ("a", "b", "c"))
    assert ints.prices_at(2) == {"AAA": 4.0}
    assert type(ints.price("AAA", 0)) is float
    assert [trend_state(ints, "AAA", t) for t in (1, 2)] == ["up", "down"]


def test_moving_average_oracles():
    assert list(moving_average([1, 2, 3], 2)) == [1.0, 1.5, 2.5]
    x = [3.0, 1.0, 4.0, 1.0, 5.0]
    assert list(moving_average(x, 1)) == x
    for w in (1, 2, 3, 7):
        assert list(moving_average([2.0] * 5, w)) == [2.0] * 5
    # window longer than the series degenerates to the running mean
    assert list(moving_average([1, 2, 3], 10)) == [1.0, 1.5, 2.0]
    with pytest.raises(ValueError):
        moving_average([1.0, 2.0], 0)


def test_synth_gbm_zero_volatility_is_pure_drift():
    data = synth_gbm(2, 6, drift=0.01, volatility=0.0, seed=0)
    expect = 100.0 * np.exp(0.01 * np.arange(6))
    for sym in data.symbols:
        assert np.allclose(data.opens[sym], expect)


def test_synth_gbm_determinism_and_sectors():
    a = synth_gbm(7, 20, drift=0.001, volatility=0.02, seed=42)
    b = synth_gbm(7, 20, drift=0.001, volatility=0.02, seed=42)
    c = synth_gbm(7, 20, drift=0.001, volatility=0.02, seed=43)
    for sym in a.symbols:
        assert np.array_equal(a.opens[sym], b.opens[sym])
    assert any(not np.array_equal(a.opens[s], c.opens[s]) for s in a.symbols)
    assert a.symbols == tuple(f"SYM{i}" for i in range(7))
    assert tuple(a.sector_of[f"SYM{i}"] for i in range(6)) == SECTORS
    assert a.sector_of["SYM6"] == "technology"
    with pytest.raises(ValueError):
        synth_gbm(2, 1, drift=0.0, volatility=0.0, seed=0)


def test_synth_gbm_zero_drift_mean_log_return_is_small():
    vol = 0.01
    data = synth_gbm(1, 10_000, drift=0.0, volatility=vol, seed=5)
    logret = np.diff(np.log(data.opens["SYM0"]))
    n = len(logret)
    assert abs(logret.mean()) < 3 * vol / np.sqrt(n)
