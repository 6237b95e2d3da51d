"""The benchmark's three workloads: inputs, CLI calls, output checks, figures.

Each workload writes its own inputs and configs under its work directory,
names the `hrl-lab` calls of one round, checks a round's artifacts and
turns the round timings plus the checked artifacts into its own figures
(throughput of each call, quality of the results). Those go to stderr: the
result line holds only the end-to-end metrics every workload shares.
Paths are relative to the checkout root, which is the working directory.
"""

from __future__ import annotations

import statistics
from dataclasses import dataclass
from pathlib import Path

import numpy as np

import checks
from checks import require


@dataclass(frozen=True)
class Call:
    """One `hrl-lab` invocation. ``timed`` calls count towards run_s;
    ``known_fault`` is the error text of a fault the program has today,
    for a call that is expected to exit 1 with it."""

    name: str
    argv: tuple[str, ...]
    timed: bool = True
    known_fault: str | None = None


def write_config(path: Path, **keys) -> Path:
    path.write_text("".join(f"{k} = {v}\n" for k, v in keys.items()))
    return path


def read_config(path: Path) -> dict[str, str]:
    """`key = value` lines, # comments, as the README documents them."""
    out = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if line:
            key, value = line.split("=", 1)
            out[key.strip()] = value.strip()
    return out


def joined(values) -> str:
    return ",".join(str(v) for v in values)


def seconds_of(seconds: dict[str, float], kind: str) -> float:
    """Summed time of the calls named ``<kind>_<n>``."""
    return sum(t for name, t in seconds.items() if name.rsplit("_", 1)[0] == kind)


class Workload:
    name = ""

    def __init__(self, seed: int, work: Path):
        self.seed = seed
        self.work = work

    def prepare(self) -> None:
        """Write the inputs and configs every round uses."""

    def calls(self, out: Path) -> list[Call]:
        raise NotImplementedError

    def check(self, out: Path, ok: set[str]) -> dict:
        """Check the artifacts of the calls named in ``ok`` (those that
        exited 0) under ``out``; return the facts the figures need."""
        raise NotImplementedError

    def figures(self, facts: dict, seconds: dict[str, float]) -> dict:
        """Workload figures as name -> (value, unit), from the checked facts
        and each timed call's fastest CPU time over the run's rounds."""
        raise NotImplementedError


# ------------------------------------------------------------------ market

# Synthetic GBM data in the criterion-4 shape.
GBM = {"n_symbols": 6, "length": 4000, "drift": 0.0005, "volatility": 0.01}
# A fixed pool: per-seed work differs up to 4x (an episode that never
# doubles runs to the end of the data), so a pool drawn from --seed would
# make run_s measure the pool rather than the code. Each agent and seed is
# a call of its own, so that a round is many short timed calls (see run.py).
MARKET_SEEDS = (0, 1, 2)
MARKET_EPISODES = 3
TABLE_AGENTS = ("random", "hardcoded", "tabular", "feudal", "counts", "behaviors")
INITIAL_CASH = 1000.0
TARGET_MULTIPLIER = 2.0
# dqn starts at tick 3 (it needs three previous opens); the others at tick 1.
START_TICK = {"dqn": 3}
FIXTURE_PRICES = Path("fixtures/prices.csv")
FIXTURE_SECTORS = Path("fixtures/sectors.csv")
FIXTURE_AGENTS = ("random", "tabular")


def fixture_length() -> int:
    """Dates of the shipped fixture on which every mapped symbol has an open."""
    symbols = {r[0] for r in checks.read_csv(FIXTURE_SECTORS, ["symbol", "sector"])}
    by_date: dict[str, set[str]] = {}
    for date, sym, price in checks.read_csv(FIXTURE_PRICES, ["date", "symbol", "open"]):
        if price.strip():
            by_date.setdefault(date, set()).add(sym)
    return sum(syms >= symbols for syms in by_date.values())


class Market(Workload):
    name = "market"

    def prepare(self) -> None:
        common = dict(
            episodes=MARKET_EPISODES,
            initial_cash=INITIAL_CASH,
            target_multiplier=TARGET_MULTIPLIER,
            **GBM,
        )
        self.gbm_cfg = write_config(self.work / "gbm.conf", **common)
        self.fixture_cfg = write_config(
            self.work / "fixture.conf",
            agents=joined(FIXTURE_AGENTS),
            seeds=0,
            episodes=MARKET_EPISODES,
            prices_csv=FIXTURE_PRICES,
            sectors_csv=FIXTURE_SECTORS,
        )

    def calls(self, out: Path) -> list[Call]:
        return [
            *(
                Call(f"{agent}_{seed}", ("market", "--config", str(self.gbm_cfg), "--out",
                                         str(out / f"{agent}_{seed}"), "--set", f"seeds={seed}",
                                         "--set", f"agents={agent}"))
                for seed in MARKET_SEEDS
                for agent in ("dqn", *TABLE_AGENTS)
            ),
            Call(
                "fixture",
                ("market", "--config", str(self.fixture_cfg), "--out", str(out / "fixture")),
                timed=False,
                known_fault="unknown sector 'information_technology'",
            ),
        ]

    def _logs(self, out: Path, agents, seeds, length) -> dict[str, list]:
        checks.check_dir_files(out, {f"market_{a}.csv" for a in agents})
        return {
            a: checks.check_market_log(
                out / f"market_{a}.csv", a, seeds, MARKET_EPISODES,
                INITIAL_CASH, TARGET_MULTIPLIER, length,
            )
            for a in agents
        }

    def check(self, out: Path, ok: set[str]) -> dict:
        length = GBM["length"]
        logs: dict[str, list] = {}
        for seed in MARKET_SEEDS:
            for agent in ("dqn", *TABLE_AGENTS):
                rows = self._logs(out / f"{agent}_{seed}", (agent,), (seed,), length)[agent]
                logs.setdefault(agent, []).extend(rows)
        ticks = {
            a: sum(checks.episode_ticks(r[2], length, START_TICK.get(a, 1)) for r in rows)
            for a, rows in logs.items()
        }
        env_ticks = sum(ticks.values())
        if "fixture" in ok:  # the shipped fixture loads once its sector names are fixed
            n = fixture_length()
            for a, rows in self._logs(out / "fixture", FIXTURE_AGENTS, (0,), n).items():
                env_ticks += sum(checks.episode_ticks(r[2], n, START_TICK.get(a, 1)) for r in rows)

        def final_ticks(agent):
            per_seed = {}
            for seed, ep, steps, _, _ in logs[agent]:
                per_seed[seed] = checks.episode_ticks(steps, length, START_TICK.get(agent, 1))
            return statistics.median(per_seed.values())

        return {
            "dqn_ticks": ticks["dqn"],
            "table_ticks": sum(ticks[a] for a in TABLE_AGENTS),
            "env_ticks": env_ticks,
            "ticks_to_double": {a: final_ticks(a) for a in ("feudal", "tabular", "dqn")},
        }

    def figures(self, facts: dict, seconds: dict[str, float]) -> dict:
        ttd = facts["ticks_to_double"]
        return {
            "dqn_ticks_per_s": (facts["dqn_ticks"] / seconds_of(seconds, "dqn"), "ticks/s"),
            "table_ticks_per_s": (
                facts["table_ticks"] / sum(seconds_of(seconds, a) for a in TABLE_AGENTS), "ticks/s"
            ),
            "feudal_ticks_to_double": (ttd["feudal"], "ticks"),
            "tabular_ticks_to_double": (ttd["tabular"], "ticks"),
            "dqn_ticks_to_double": (ttd["dqn"], "ticks"),
        }


# -------------------------------------------------------------------- maze

MAZE_FILE = Path("fixtures/maze4x4.txt")
MAZE_AGENTS = ("flat", "feudal_quadrant", "feudal_direction")
# Fixed for the same reason as MARKET_SEEDS: the convergence medians then
# repeat exactly on every run. One call per group of seeds.
MAZE_SEEDS = tuple(range(20))
MAZE_GROUPS = tuple(MAZE_SEEDS[i:i + 5] for i in range(0, len(MAZE_SEEDS), 5))
MAZE_EPISODES = 500
STEP_CAP = 1000


class Maze(Workload):
    name = "maze"

    def prepare(self) -> None:
        self.maze_cfg = write_config(
            self.work / "maze.conf",
            maze_file=MAZE_FILE,
            agents=joined(MAZE_AGENTS),
            episodes=MAZE_EPISODES,
            step_cap=STEP_CAP,
        )
        self.report_cfg = write_config(self.work / "report.conf", metric="steps", bin_width=25)

    def calls(self, out: Path) -> list[Call]:
        # The report renders the first group's three logs.
        logs = [str(out / "maze_0" / f"maze_{a}.csv") for a in MAZE_AGENTS]
        return [
            *(
                Call(f"maze_{g}", ("maze", "--config", str(self.maze_cfg), "--out",
                                   str(out / f"maze_{g}"), "--set", "seeds=" + joined(seeds)))
                for g, seeds in enumerate(MAZE_GROUPS)
            ),
            Call(
                "report",
                ("report", "--config", str(self.report_cfg), "--out", str(out / "report"),
                 "--set", "logs=" + ",".join(logs)),
            ),
        ]

    def check(self, out: Path, ok: set[str]) -> dict:
        x_dim, y_dim, shortest = checks.maze_shortest_path(MAZE_FILE)
        cost = 0.1 / (x_dim * y_dim)
        groups = []
        for g, seeds in enumerate(MAZE_GROUPS):
            checks.check_dir_files(out / f"maze_{g}", {f"maze_{a}.csv" for a in MAZE_AGENTS})
            groups.append({
                a: checks.check_maze_log(
                    out / f"maze_{g}" / f"maze_{a}.csv", a, seeds, MAZE_EPISODES,
                    STEP_CAP, cost, shortest,
                )
                for a in MAZE_AGENTS
            })
        logs = {a: [row for group in groups for row in group[a]] for a in MAZE_AGENTS}
        checks.check_dir_files(out / "report", {"curves.svg", "histogram.svg", "summary.csv"})
        checks.check_summary(out / "report" / "summary.csv", groups[0])
        checks.check_svg(out / "report" / "curves.svg")
        checks.check_svg(out / "report" / "histogram.svg")

        def convergence(agent):
            by_seed: dict[int, list[int]] = {}
            for seed, _, steps, _ in logs[agent]:
                by_seed.setdefault(seed, []).append(steps)
            return statistics.median(checks.convergence_episode(v) for v in by_seed.values())

        return {
            "steps": sum(r[2] for rows in logs.values() for r in rows),
            "convergence": {a: convergence(a) for a in ("flat", "feudal_quadrant")},
        }

    def figures(self, facts: dict, seconds: dict[str, float]) -> dict:
        conv = facts["convergence"]
        return {
            "maze_steps_per_s": (facts["steps"] / seconds_of(seconds, "maze"), "steps/s"),
            "feudal_convergence_episodes": (conv["feudal_quadrant"], "episodes"),
            "flat_convergence_episodes": (conv["flat"], "episodes"),
        }


# ------------------------------------------------------------------- embed

WINDOW = 10
N_WINDOWS = 300
# 200 iterations, not the default 1000: the fit is one timed call, and a
# shorter call lets a run repeat it more often. The work per iteration,
# O(n^2) on 300 windows, is the same.
LARGE = {
    "window": WINDOW, "perplexity": 30, "iterations": 200, "k": 3, "n_examples": 5, "eps": 0.05,
}
SMALL_CONFIG = Path("configs/embed.conf")
SMALL_CALLS = 8
SMALL_FITS = 5  # per call
# README defaults for keys the shipped config leaves out.
EMBED_DEFAULTS = {"window": "10", "perplexity": "30", "iterations": "1000", "k": "3",
                  "n_examples": "5", "eps": "0.05"}
MANOEUVRES = ("left_turn", "right_turn", "straight_braking")


def make_telemetry(seed: int, n_windows: int = N_WINDOWS, m: int = WINDOW):
    """Telemetry of three labelled manoeuvres, in segments of 1-6 whole windows.

    Each manoeuvre gets an equal share of the windows, cut into segments
    of random length that are then shuffled together. Per tick, a left turn
    steers at +0.4 and a right turn at -0.4, both with throttle 0.35 and no
    brake; straight braking steers at 0 with brake 0.6 and no throttle.
    Every channel carries Gaussian noise of sd 0.03. Returns (rows, labels)
    with one label index into MANOEUVRES per window.
    """
    rng = np.random.default_rng(seed)
    segments = []
    for kind in range(len(MANOEUVRES)):
        left = n_windows // len(MANOEUVRES) + (kind < n_windows % len(MANOEUVRES))
        while left:
            span = min(left, int(rng.integers(1, 7)))
            segments.append([kind] * span)
            left -= span
    labels = [k for i in rng.permutation(len(segments)) for k in segments[i]]
    level = np.array([(0.4, 0.0, 0.35), (-0.4, 0.0, 0.35), (0.0, 0.6, 0.0)])
    base = np.repeat(level[labels], m, axis=0)
    signals = base + 0.03 * rng.standard_normal(base.shape)
    rows = [f"{i / 10:.1f},{a:.6f},{b:.6f},{t:.6f}" for i, (a, b, t) in enumerate(signals)]
    return rows, np.array(labels)


class Embed(Workload):
    name = "embed"

    def prepare(self) -> None:
        rows, self.truth = make_telemetry(self.seed)
        self.telemetry = self.work / "telemetry.csv"
        self.telemetry.write_text("\n".join(["timestamp,angle,brake,throttle", *rows]) + "\n")
        self.large_cfg = write_config(
            self.work / "large.conf", telemetry_csv=self.telemetry, seeds=self.seed, **LARGE
        )
        first = self.seed * SMALL_CALLS * SMALL_FITS
        self.small_seeds = tuple(
            tuple(range(first + c * SMALL_FITS, first + (c + 1) * SMALL_FITS))
            for c in range(SMALL_CALLS)
        )
        self.small = {**EMBED_DEFAULTS, **read_config(SMALL_CONFIG)}

    def calls(self, out: Path) -> list[Call]:
        return [
            Call("large", ("embed", "--config", str(self.large_cfg), "--out", str(out / "large"))),
            *(
                Call(f"small_{c}", ("embed", "--config", str(SMALL_CONFIG), "--out",
                                    str(out / f"small_{c}"), "--set", "seeds=" + joined(seeds)))
                for c, seeds in enumerate(self.small_seeds)
            ),
        ]

    @staticmethod
    def _check_fits(out: Path, seeds, telemetry: Path, cfg: dict):
        """Check every seed's embedding and report; returns the window
        vectors and the last seed's (coords, assignment)."""
        m, k, n_ex = int(cfg["window"]), int(cfg["k"]), int(cfg["n_examples"])
        windows = checks.read_telemetry_windows(telemetry, m)
        labels = checks.sign_labels(windows, float(cfg["eps"]))
        checks.check_dir_files(
            out, {f"{kind}_{s}.csv" for s in seeds for kind in ("embed", "report")}
        )
        for s in seeds:
            coords, assign = checks.check_embedding(out / f"embed_{s}.csv", labels, k)
            checks.check_report(out / f"report_{s}.csv", coords, assign, labels, k, n_ex, m)
        return windows, coords, assign

    def check(self, out: Path, ok: set[str]) -> dict:
        windows, coords, assign = self._check_fits(
            out / "large", (self.seed,), self.telemetry, {k: str(v) for k, v in LARGE.items()}
        )
        purity = checks.purity(assign, self.truth)
        recall = checks.knn_recall(coords, self.truth)
        require(purity >= 0.95, f"large fit: k-means purity {purity:.3f} < 0.95")
        require(recall >= 0.9, f"large fit: 10-NN recall {recall:.3f} < 0.9")
        p = checks.input_affinities(windows, LARGE["perplexity"])
        kl = checks.layout_kl(p, coords)
        random_layout = 1e-4 * np.random.default_rng(self.seed).standard_normal(coords.shape)
        kl_random = checks.layout_kl(p, random_layout)
        require(kl < kl_random, f"large fit: KL {kl:.4f} >= a random layout's {kl_random:.4f}")
        for c, seeds in enumerate(self.small_seeds):
            self._check_fits(
                out / f"small_{c}", seeds, Path(self.small["telemetry_csv"]), self.small
            )
        return {"tsne_kl": kl}

    def figures(self, facts: dict, seconds: dict[str, float]) -> dict:
        small_iters = int(self.small["iterations"]) * SMALL_CALLS * SMALL_FITS
        return {
            "tsne_large_iters_per_s": (LARGE["iterations"] / seconds["large"], "iterations/s"),
            "tsne_small_iters_per_s": (small_iters / seconds_of(seconds, "small"), "iterations/s"),
            "tsne_kl": (facts["tsne_kl"], "nats"),
        }


WORKLOADS = {w.name: w for w in (Market, Maze, Embed)}
