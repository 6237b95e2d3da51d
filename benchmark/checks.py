"""Output checks for the benchmark's workloads.

Every check here reads the artifacts in their documented CSV/SVG formats and
either recomputes the expected value apart from the program (BFS over the
maze file, summary statistics, cluster means, KL with its own perplexity
calibration) or tests a property the method must have (reward accounting,
doubling consistency). None compares against a stored copy of an earlier
output. Each failing check raises CheckError naming the file and row.
"""

from __future__ import annotations

import csv
import math
import statistics
import xml.etree.ElementTree as ET
from collections import deque
from pathlib import Path

import numpy as np

RUNLOG_HEADER = ["agent", "seed", "episode", "steps", "reward", "value"]
SUMMARY_HEADER = ["agent", "mean", "median", "min", "max", "convergence_episode"]
EMBED_HEADER = ["tau", "x", "y", "centroid", "sign_label"]
REPORT_HEADER = ["centroid", "rank", "tau", "t_start", "t_end", "sign_label", "distance"]
TELEMETRY_HEADER = ["timestamp", "angle", "brake", "throttle"]

# Float sums over at most a few thousand ticks stay far inside this.
REWARD_TOL = 1e-9


class CheckError(Exception):
    """An artifact does not satisfy a check."""


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckError(msg)


def read_csv(path: Path, header: list[str]) -> list[list[str]]:
    """Data rows of a CSV file whose first row must equal ``header``."""
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    require(bool(rows) and rows[0] == header, f"{path}: header is not {','.join(header)}")
    for i, row in enumerate(rows[1:], start=2):
        require(len(row) == len(header), f"{path}:{i}: {len(row)} fields, want {len(header)}")
    return rows[1:]


def check_dir_files(path: Path, expected: set[str]) -> None:
    found = {p.name for p in path.iterdir()} if path.is_dir() else set()
    require(found == expected, f"{path}: files {sorted(found)}, want {sorted(expected)}")


# ---------------------------------------------------------------- run logs


def _runlog_rows(path: Path, agent: str, seeds: tuple[int, ...], episodes: int):
    """Parsed rows, checking agent, seed order and episode numbering.

    Rows must cover exactly the requested seeds, in the order given, each
    with episodes 0..episodes-1 once and in order.
    """
    rows = read_csv(path, RUNLOG_HEADER)
    out = []
    for i, (ag, seed, ep, steps, reward, value) in enumerate(rows, start=2):
        require(ag == agent, f"{path}:{i}: agent {ag!r}, want {agent!r}")
        try:
            out.append((int(seed), int(ep), int(steps), float(reward), value))
        except ValueError as exc:
            raise CheckError(f"{path}:{i}: {exc}") from exc
    want = [(s, e) for s in seeds for e in range(episodes)]
    got = [(r[0], r[1]) for r in out]
    require(
        got == want,
        f"{path}: (seed, episode) rows do not match seeds {list(seeds)} x {episodes} episodes",
    )
    return out


def check_market_log(
    path: Path,
    agent: str,
    seeds: tuple[int, ...],
    episodes: int,
    initial_cash: float,
    target_multiplier: float,
    length: int,
) -> list[tuple[int, int, int, float, float]]:
    """Check one market run log; returns (seed, episode, steps, reward, value) rows.

    The cumulative reward telescopes to final value minus initial cash
    (trades at the open are value-neutral), steps is non-negative exactly
    when the portfolio doubled, and no episode outlasts the data.
    """
    out = []
    for seed, ep, steps, reward, raw_value in _runlog_rows(path, agent, seeds, episodes):
        where = f"{path}: seed {seed} episode {ep}"
        try:
            value = float(raw_value)
        except ValueError as exc:
            raise CheckError(f"{where}: value {raw_value!r} is not a number") from exc
        require(math.isfinite(value) and value >= 0, f"{where}: bad value {value}")
        gain = value - initial_cash
        require(
            abs(reward - gain) <= REWARD_TOL * max(abs(value), initial_cash),
            f"{where}: reward {reward!r} != value - initial_cash = {gain!r}",
        )
        doubled = value >= target_multiplier * initial_cash
        require(
            (steps >= 0) == doubled,
            f"{where}: steps {steps} but value {value} (doubled={doubled})",
        )
        require(steps == -1 or 1 <= steps <= length - 1, f"{where}: steps {steps} out of range")
        out.append((seed, ep, steps, reward, value))
    return out


def episode_ticks(steps: int, length: int, start_tick: int) -> int:
    """Env ticks one market episode took: its steps if it doubled, else the
    ticks from its start to the last tick of the data."""
    return steps if steps >= 0 else length - 1 - start_tick


def maze_shortest_path(path: Path) -> tuple[int, int, int]:
    """(x_dim, y_dim, BFS moves start -> goal) read from a maze file.

    The file is a grid of hex nibbles, one per cell, bit set = wall closed
    in the order N=1, S=2, E=4, W=8, with y growing downward, followed by
    ``start=x,y`` and ``goal=x,y``.
    """
    grid, ends = [], {}
    for raw in Path(path).read_text().splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if "=" in line:
            key, val = line.split("=", 1)
            x, y = val.split(",")
            ends[key] = (int(x), int(y))
        else:
            grid.append([int(ch, 16) for ch in line])
    moves = {1: (0, -1), 2: (0, 1), 4: (1, 0), 8: (-1, 0)}
    seen = {ends["start"]: 0}
    queue = deque([ends["start"]])
    while queue:
        x, y = queue.popleft()
        if (x, y) == ends["goal"]:
            return len(grid[0]), len(grid), seen[(x, y)]
        for bit, (dx, dy) in moves.items():
            nxt = (x + dx, y + dy)
            if not grid[y][x] & bit and nxt not in seen:
                seen[nxt] = seen[(x, y)] + 1
                queue.append(nxt)
    raise CheckError(f"{path}: goal unreachable")


def check_maze_log(
    path: Path,
    agent: str,
    seeds: tuple[int, ...],
    episodes: int,
    step_cap: int,
    step_cost: float,
    shortest: int,
) -> list[tuple[int, int, int, float]]:
    """Check one maze run log; returns (seed, episode, steps, reward) rows.

    Every move costs ``step_cost`` and a correct Declare pays 1, so a solved
    episode's reward is 1 - cost * (steps - 1) and an unsolved one's is
    -cost * steps. A solved episode needs at least the shortest path plus
    the Declare.
    """
    out = []
    for seed, ep, steps, reward, value in _runlog_rows(path, agent, seeds, episodes):
        where = f"{path}: seed {seed} episode {ep}"
        require(value == "", f"{where}: maze rows leave value empty, got {value!r}")
        require(0 <= steps <= step_cap, f"{where}: steps {steps} outside 0..{step_cap}")
        solved = abs(reward - (1.0 - step_cost * (steps - 1))) <= REWARD_TOL
        unsolved = abs(reward + step_cost * steps) <= REWARD_TOL
        require(solved or unsolved, f"{where}: reward {reward!r} fits no outcome of {steps} steps")
        if solved:
            require(steps >= shortest + 1, f"{where}: solved in {steps} < {shortest + 1} steps")
        out.append((seed, ep, steps, reward))
    return out


def convergence_episode(steps: list[int]) -> int:
    """The README definition: the first episode after which no episode
    exceeds 1.05x the mean of the final ten (0 if none ever does)."""
    tail = steps[-10:]
    band = 1.05 * (sum(tail) / len(tail))
    last_above = max((i for i, s in enumerate(steps) if s > band), default=-1)
    return last_above + 1


def check_summary(path: Path, logs: dict[str, list[tuple[int, int, int, float]]]) -> None:
    """summary.csv against statistics recomputed from the run-log rows.

    The steps are integers, so their sum is exact and the mean, median and
    per-seed convergence median are exactly reproducible: any change, down
    to the last digit, fails.
    """
    rows = read_csv(path, SUMMARY_HEADER)
    require([r[0] for r in rows] == list(logs), f"{path}: agents {[r[0] for r in rows]}")
    for row, (agent, log) in zip(rows, logs.items()):
        steps = [r[2] for r in log]
        by_seed: dict[int, list[int]] = {}
        for seed, _, s, _ in log:
            by_seed.setdefault(seed, []).append(s)
        conv = statistics.median(convergence_episode(v) for v in by_seed.values())
        want = [
            sum(steps) / len(steps),
            statistics.median(steps),
            min(steps),
            max(steps),
            conv,
        ]
        for col, got, exp in zip(SUMMARY_HEADER[1:], row[1:], want):
            require(float(got) == float(exp), f"{path}: {agent} {col} {got} != {float(exp)!r}")


def check_svg(path: Path) -> None:
    try:
        root = ET.fromstring(Path(path).read_text())
    except ET.ParseError as exc:
        raise CheckError(f"{path}: not XML: {exc}") from exc
    require(root.tag.endswith("svg"), f"{path}: root element is {root.tag}, not svg")


# ---------------------------------------------------------------- embedding


def read_telemetry_windows(path: Path, m: int) -> np.ndarray:
    """(W, 3m) window vectors [angle | brake | throttle] of a telemetry CSV;
    a trailing partial window is dropped."""
    rows = read_csv(path, TELEMETRY_HEADER)
    data = np.array([[float(v) for v in r[1:]] for r in rows])
    w = len(data) // m
    blocks = data[: w * m].reshape(w, m, 3)
    return np.concatenate([blocks[:, :, c] for c in range(3)], axis=1)


def sign_labels(windows: np.ndarray, eps: float) -> list[str]:
    """Sign of each window's mean angle, with a closed near-zero band."""
    m = windows.shape[1] // 3
    out = []
    for mean in windows[:, :m].mean(axis=1):
        out.append("positive" if mean > eps else "negative" if mean < -eps else "near_zero")
    return out


def check_embedding(path: Path, labels: list[str], k: int) -> tuple[np.ndarray, np.ndarray]:
    """One row per window with tau 0..W-1, the window's sign label, and a
    centroid that is the nearest of the cluster means recomputed from the
    coordinates. Returns (coords, assignment)."""
    rows = read_csv(path, EMBED_HEADER)
    require(len(rows) == len(labels), f"{path}: {len(rows)} rows for {len(labels)} windows")
    require([int(r[0]) for r in rows] == list(range(len(rows))), f"{path}: tau is not 0..W-1")
    for r, want in zip(rows, labels):
        require(r[4] == want, f"{path}: tau {r[0]} sign label {r[4]}, want {want}")
    coords = np.array([[float(r[1]), float(r[2])] for r in rows])
    require(bool(np.all(np.isfinite(coords))), f"{path}: non-finite coordinates")
    assign = np.array([int(r[3]) for r in rows])
    require(bool(np.all((assign >= 0) & (assign < k))), f"{path}: centroid outside 0..{k - 1}")
    means = cluster_means(coords, assign, k)
    d = np.linalg.norm(coords[:, None, :] - means[None, :, :], axis=2)
    own = d[np.arange(len(assign)), assign]
    scale = 1e-9 * max(1.0, float(np.abs(coords).max()))
    bad = np.flatnonzero(own > d.min(axis=1) + scale)
    require(bad.size == 0, f"{path}: tau {bad[:5].tolist()} not at the nearest cluster mean")
    return coords, assign


def cluster_means(coords: np.ndarray, assign: np.ndarray, k: int) -> np.ndarray:
    """Mean of each cluster's members; an empty cluster gets +inf so that it
    is never the nearest."""
    means = np.full((k, coords.shape[1]), np.inf)
    for c in range(k):
        members = coords[assign == c]
        if len(members):
            means[c] = members.mean(axis=0)
    return means


def check_report(
    path: Path, coords: np.ndarray, assign: np.ndarray, labels: list[str], k: int,
    n_examples: int, m: int,
) -> None:
    """Each cluster lists its min(n_examples, size) nearest members in
    distance order (ties by lower tau), with distances to the recomputed
    cluster mean, half-open tick ranges and the window's sign label."""
    rows = read_csv(path, REPORT_HEADER)
    means = cluster_means(coords, assign, k)
    pos = 0
    for c in range(k):
        members = np.flatnonzero(assign == c)
        want = min(n_examples, len(members))
        listed = rows[pos : pos + want]
        pos += want
        require(len(listed) == want, f"{path}: cluster {c} lists {len(listed)}, want {want}")
        prev = (-1.0, -1)
        for rank, r in enumerate(listed):
            cen, rk, tau, t0, t1 = (int(v) for v in r[:5])
            label, d = r[5], float(r[6])
            where = f"{path}: cluster {c} rank {rank}"
            require((cen, rk) == (c, rank), f"{where}: row says cluster {cen} rank {rk}")
            require(0 <= tau < len(assign) and assign[tau] == c, f"{where}: tau {tau} not a member")
            require(
                (t0, t1) == (tau * m, (tau + 1) * m), f"{where}: ticks [{t0},{t1}) for tau {tau}"
            )
            require(label == labels[tau], f"{where}: sign label {label}, want {labels[tau]}")
            true_d = float(np.linalg.norm(coords[tau] - means[c]))
            require(
                abs(d - true_d) <= 1e-9 * max(1.0, true_d),
                f"{where}: distance {d!r} != recomputed {true_d!r}",
            )
            require((d, tau) > prev, f"{where}: out of distance order")
            prev = (d, tau)
        if want:
            unlisted = np.setdiff1d(members, [int(r[2]) for r in listed])
            rest = np.linalg.norm(coords[unlisted] - means[c], axis=1) if len(unlisted) else []
            require(
                all(v >= prev[0] - 1e-9 * max(1.0, prev[0]) for v in rest),
                f"{path}: cluster {c} skips a nearer member",
            )
    require(pos == len(rows), f"{path}: {len(rows) - pos} rows beyond the clusters' lists")


def purity(assign: np.ndarray, truth: np.ndarray) -> float:
    """Share of points whose cluster's majority label is their own."""
    agree = sum(np.bincount(truth[assign == c]).max() for c in np.unique(assign))
    return float(agree / len(truth))


def knn_recall(coords: np.ndarray, truth: np.ndarray, k: int = 10) -> float:
    """Mean share of each point's k nearest neighbours that share its label."""
    d = ((coords[:, None, :] - coords[None, :, :]) ** 2).sum(axis=2)
    np.fill_diagonal(d, np.inf)
    nn = np.argsort(d, axis=1, kind="stable")[:, :k]
    return float((truth[nn] == truth[:, None]).mean())


def conditional_affinities(x: np.ndarray, perplexity: float) -> np.ndarray:
    """Row-conditional Gaussian affinities P_cond (zero diagonal).

    Each row's precision beta is found by bisection on log(beta) until the
    row's entropy in nats equals log(perplexity), all rows at once.
    """
    n = x.shape[0]
    d = ((x[:, None, :] - x[None, :, :]) ** 2).sum(axis=2)
    off = ~np.eye(n, dtype=bool)
    # Shifting a row by its smallest distance leaves the normalised row unchanged.
    d = np.where(off, d - np.where(off, d, np.inf).min(axis=1, keepdims=True), 0.0)
    target = math.log(perplexity)
    lo, hi = np.full(n, -40.0), np.full(n, 40.0)
    for _ in range(100):
        mid = (lo + hi) / 2
        beta = np.exp(mid)[:, None]
        w = np.where(off, np.exp(-beta * d), 0.0)
        total = w.sum(axis=1, keepdims=True)
        entropy = np.log(total[:, 0]) + (beta * (w * d).sum(axis=1, keepdims=True) / total)[:, 0]
        too_flat = entropy > target  # raise beta to sharpen the row
        lo = np.where(too_flat, mid, lo)
        hi = np.where(too_flat, hi, mid)
    return w / total


def input_affinities(x: np.ndarray, perplexity: float) -> np.ndarray:
    """Symmetric t-SNE input affinities P = (P_cond + P_cond^T) / 2n."""
    cond = conditional_affinities(x, perplexity)
    return (cond + cond.T) / (2.0 * x.shape[0])


def layout_kl(p: np.ndarray, y: np.ndarray) -> float:
    """KL(P || Q) in nats of a layout y under Student-t affinities Q, over
    the off-diagonal pairs where P is positive."""
    n = y.shape[0]
    num = 1.0 / (1.0 + ((y[:, None, :] - y[None, :, :]) ** 2).sum(axis=2))
    np.fill_diagonal(num, 0.0)
    q = num / num.sum()
    mask = (p > 0) & ~np.eye(n, dtype=bool)
    return float((p[mask] * np.log(p[mask] / q[mask])).sum())
