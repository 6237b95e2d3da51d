"""Six-sector stock market environment.

Open prices on a shared clock, a cash-and-shares portfolio, buy/hold/sell
dynamics with infeasible actions coerced to hold, and episode termination
when the portfolio doubles (or the data runs out). Also holds the data
utilities the agents share: trend binarization, trailing moving average,
and a seeded geometric-Brownian-motion generator that stands in for real
market feeds.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

SECTORS = (
    "technology",
    "energy",
    "finance",
    "healthcare",
    "utilities",
    "transportation",
)


@dataclass
class MarketData:
    """Aligned open-price series for a fixed symbol universe.

    ``opens`` is read-only after construction: ``price``, ``prices_at``,
    ``trend_state`` and ``MarketEnv`` read per-tick price dicts and
    per-symbol up/down trend labels that are built from it once, after
    validation.
    """

    symbols: tuple[str, ...]
    sector_of: dict[str, str]
    opens: dict[str, np.ndarray]
    timestamps: tuple[str, ...]

    def __post_init__(self) -> None:
        if not self.symbols:
            raise ValueError("no symbols")
        n = len(self.timestamps)
        if n < 2:
            raise ValueError(f"need at least 2 timestamps, got {n}")
        for sym in self.symbols:
            sector = self.sector_of.get(sym)
            if sector not in SECTORS:
                raise ValueError(f"symbol {sym} has unknown sector {sector!r}")
            series = self.opens[sym]
            if len(series) != n:
                raise ValueError(f"{sym}: series length {len(series)} != {n}")
            if not np.all(np.isfinite(series)) or np.any(series <= 0):
                raise ValueError(f"{sym}: prices must be finite and positive")
        columns = [np.asarray(self.opens[sym], dtype=float).tolist() for sym in self.symbols]
        # _rows[t] maps each symbol to its open at t, in universe order
        self._rows = [dict(zip(self.symbols, row)) for row in zip(*columns)]
        # _trends[sym][t] compares t with t-1; index 0 has no previous tick
        self._trends = {
            sym: [None] + ["up" if b > a else "down" for a, b in zip(p, p[1:])]
            for sym, p in zip(self.symbols, columns)
        }

    def __len__(self) -> int:
        return len(self.timestamps)

    def price(self, symbol: str, t: int) -> float:
        return self._rows[t][symbol]

    def prices_at(self, t: int) -> dict[str, float]:
        return dict(self._rows[t])


def load_csv(path, sector_map_path) -> MarketData:
    """Read `date,symbol,open` rows plus a `symbol,sector` map.

    Timestamps are kept only where every mapped symbol has a price, so one
    missing cell drops that date for everyone.
    """
    sector_of: dict[str, str] = {}
    order: list[str] = []
    with open(sector_map_path, newline="") as fh:
        for rec in csv.DictReader(fh):
            sym = rec["symbol"].strip()
            sector = rec["sector"].strip()
            if sector not in SECTORS:
                raise ValueError(f"unknown sector {sector!r} for symbol {sym}")
            if sym in sector_of:
                raise ValueError(f"symbol {sym} mapped twice")
            sector_of[sym] = sector
            order.append(sym)

    by_symbol: dict[str, dict[str, float]] = {sym: {} for sym in order}
    with open(path, newline="") as fh:
        for rec in csv.DictReader(fh):
            sym = rec["symbol"].strip()
            if sym not in sector_of:
                raise ValueError(f"price row for {sym} absent from sector map")
            raw = rec["open"].strip()
            if not raw:
                continue  # missing cell: this (date, symbol) is simply absent
            by_symbol[sym][rec["date"].strip()] = float(raw)

    shared = None
    for sym in order:
        dates = set(by_symbol[sym])
        shared = dates if shared is None else shared & dates
    timestamps = tuple(sorted(shared or ()))
    if len(timestamps) < 2:
        raise ValueError(f"only {len(timestamps)} aligned timestamps")
    opens = {
        sym: np.array([by_symbol[sym][d] for d in timestamps]) for sym in order
    }
    return MarketData(tuple(order), sector_of, opens, timestamps)


@dataclass
class Portfolio:
    cash: float
    shares: dict[str, int] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.cash < 0:
            raise ValueError(f"negative cash {self.cash}")
        if any(n < 0 for n in self.shares.values()):
            raise ValueError("negative share count")


def portfolio_value(p: Portfolio, prices: dict[str, float]) -> float:
    total = p.cash
    for sym, n in p.shares.items():
        if n:
            total += n * prices[sym]
    return total


class TradeAction(IntEnum):
    BUY = 0
    HOLD = 1
    SELL = 2


# plain module names: enum class attribute lookups are slow in per-tick loops
_BUY, _HOLD, _SELL = TradeAction.BUY, TradeAction.HOLD, TradeAction.SELL


@dataclass
class EnvConfig:
    initial_cash: float = 1000.0
    target_multiplier: float = 2.0

    def __post_init__(self) -> None:
        if self.initial_cash <= 0:
            raise ValueError(f"initial_cash must be > 0, got {self.initial_cash}")
        if self.target_multiplier <= 1:
            raise ValueError(f"target_multiplier must be > 1, got {self.target_multiplier}")


@dataclass(frozen=True)
class StepResult:
    executed: dict[str, TradeAction]
    reward: float
    total_value: float
    done: bool


class MarketEnv:
    """One episode at a time over a MarketData window."""

    def __init__(self, data: MarketData, config: EnvConfig | None = None):
        self.data = data
        self.config = config or EnvConfig()
        self.reset()

    def reset(self, start_t: int = 1) -> None:
        if not 0 <= start_t < len(self.data) - 1:
            raise ValueError(f"start_t {start_t} leaves no room to step")
        self.t = start_t
        self.portfolio = Portfolio(self.config.initial_cash, {s: 0 for s in self.data.symbols})
        self.ticks = 0

    @property
    def target(self) -> float:
        return self.config.target_multiplier * self.config.initial_cash

    def value(self) -> float:
        return portfolio_value(self.portfolio, self.data.prices_at(self.t))

    def step(self, actions: dict[str, TradeAction]) -> StepResult:
        """Execute one tick: trade one share at today's opens, then advance.

        Infeasible buys (not enough cash) and sells (no shares) are coerced
        to Hold and reported as such. Reward is the change in total value
        across the tick, valued at the new prices.
        """
        if self.t >= len(self.data) - 1:
            raise RuntimeError("episode is already exhausted; call reset()")
        p = self.portfolio
        prices = self.data._rows[self.t]  # shared, read-only
        value_before = portfolio_value(p, prices)
        executed: dict[str, TradeAction] = {}
        for sym, price in prices.items():
            action = actions.get(sym, _HOLD)
            if action == _BUY and p.cash >= price:
                p.cash -= price
                p.shares[sym] += 1
            elif action == _SELL and p.shares[sym] > 0:
                p.cash += price
                p.shares[sym] -= 1
            else:
                action = _HOLD
            executed[sym] = action
        self.t += 1
        self.ticks += 1
        total = portfolio_value(p, self.data._rows[self.t])
        done = total >= self.target or self.t >= len(self.data) - 1
        return StepResult(executed, total - value_before, total, done)


def trend_state(data: MarketData, symbol: str, t: int) -> str:
    """"up" iff the open rose since the previous tick; ties count as down."""
    if t < 1:
        raise ValueError(f"trend needs a previous tick, got t={t}")
    return data._trends[symbol][t]


def moving_average(series, w: int) -> np.ndarray:
    """Trailing mean over the last w points, truncated during warm-up, so the
    output has the same length as the input."""
    if w < 1:
        raise ValueError(f"window must be >= 1, got {w}")
    series = np.asarray(series, dtype=float)
    sums = np.cumsum(series)
    out = np.empty_like(sums)
    out[:w] = sums[:w] / np.arange(1, min(w, len(series)) + 1)
    if len(series) > w:
        out[w:] = (sums[w:] - sums[:-w]) / w
    return out


GBM_START = 100.0  # every synthetic path opens at this price


def synth_gbm(
    n_symbols: int,
    length: int,
    drift: float,
    volatility: float,
    seed: int,
) -> MarketData:
    """Geometric-Brownian-style paths from GBM_START: log-returns drawn from
    Normal(drift, volatility), symbols assigned to sectors round-robin."""
    if length < 2:
        raise ValueError(f"length must be >= 2, got {length}")
    if n_symbols < 1:
        raise ValueError(f"n_symbols must be >= 1, got {n_symbols}")
    rng = np.random.default_rng(seed)
    symbols = tuple(f"SYM{i}" for i in range(n_symbols))
    sector_of = {sym: SECTORS[i % len(SECTORS)] for i, sym in enumerate(symbols)}
    opens = {}
    for sym in symbols:
        log_returns = drift + volatility * rng.standard_normal(length - 1)
        path = GBM_START * np.exp(np.concatenate(([0.0], np.cumsum(log_returns))))
        opens[sym] = path
    timestamps = tuple(f"t{i:05d}" for i in range(length))
    return MarketData(symbols, sector_of, opens, timestamps)
