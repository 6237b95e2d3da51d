"""End-to-end acceptance checks, one test per shipped claim.

Each test prints a single summary line; the terminal hook in conftest.py
repeats PASS/FAIL per criterion after the run.
"""

import time
from pathlib import Path

import numpy as np
import pytest
import scipy.stats

from hrl_lab.drive import TsneConfig, causal_subroutine_id, kmeans_fit, tsne_fit
from hrl_lab.drive import load_telemetry, window_telemetry
from hrl_lab.harness.cli import main
from hrl_lab.harness.svg import HistogramSpec, render_histogram
from hrl_lab.market_agents import (
    run_dqn,
    run_hardcoded,
    run_multiworker_behaviors,
    run_multiworker_counts,
    run_random,
    run_tabular_q,
)
from hrl_lab.market_agents import run_feudal as run_market_feudal
from hrl_lab.market_env import MarketEnv, moving_average, synth_gbm
from hrl_lab.maze.agents import greedy_path_len, run_flat_q, run_feudal
from hrl_lab.maze.env import load_maze, shortest_path_len
from hrl_lab.nn import MlpSpec, gradient_check
from hrl_lab.rl_core import ReplayBuffer, Transition
from hrl_lab.harness.summary import convergence_episode

ROOT = Path(__file__).resolve().parent.parent
MAZE = ROOT / "fixtures" / "maze4x4.txt"
OUT = ROOT / "out" / "acceptance"


def test_criterion_1_flat_q_matches_bfs():
    spec = load_maze(MAZE)
    oracle = shortest_path_len(spec)
    t0 = time.monotonic()
    hits = 0
    for seed in range(20):
        _, table = run_flat_q(spec, episodes=500, seed=seed)
        if greedy_path_len(spec, table) == oracle:
            hits += 1
    elapsed = time.monotonic() - t0
    print(f"criterion 1: greedy path == BFS {oracle} on {hits}/20 seeds in {elapsed:.1f}s")
    assert hits >= 18
    assert elapsed < 10.0


def test_criterion_2_feudal_training_speedup():
    spec = load_maze(MAZE)

    def convergences(agent):
        out = []
        for seed in range(20):
            if agent == "flat":
                rows, _ = run_flat_q(spec, episodes=500, seed=seed)
            else:
                rows, _ = run_feudal(spec, episodes=500, seed=seed, goal_mode=agent)
            out.append(convergence_episode([r.steps for r in rows]))
        return float(np.median(out))

    flat = convergences("flat")
    quad = convergences("quadrant")
    direction = convergences("direction")
    print(
        f"criterion 2: median convergence flat={flat} quadrant={quad} "
        f"direction={direction} (need quad <= {0.8 * flat:.1f})"
    )
    assert quad <= 0.8 * flat
    assert (quad <= direction <= flat) or abs(direction - flat) <= 0.1 * flat


def test_criterion_3_worker_reward_accounting():
    spec = load_maze(MAZE)
    assert spec.base_reward == -0.00625
    checked = 0
    for seed in (0, 1):
        for row in run_flat_q(spec, episodes=40, seed=seed)[0]:
            if row.steps < 1000:  # solved before the step cap
                # L counts the moves charged the base cost; the closing
                # declaration pays the +1 instead, so L = steps - 1.
                moves = row.steps - 1
                assert abs(row.reward - (1.0 - moves * 0.00625)) <= 1e-12
                checked += 1
    print(f"criterion 3: reward == 1 - L*0.00625 exactly on {checked} solved episodes")
    assert checked > 0


MARKET_RUNNERS = {
    "random": lambda env, seed: run_random(env, episodes=1, seed=seed),
    "hardcoded": lambda env, seed: run_hardcoded(env, episodes=1, seed=seed),
    "tabular": lambda env, seed: run_tabular_q(env, episodes=3, seed=seed),
    "dqn": lambda env, seed: run_dqn(env, episodes=3, seed=seed),
    "feudal": lambda env, seed: run_market_feudal(env, episodes=3, seed=seed),
    "counts": lambda env, seed: run_multiworker_counts(env, episodes=3, seed=seed),
    "behaviors": lambda env, seed: run_multiworker_behaviors(env, episodes=8, seed=seed),
}
LEARNING_AGENTS = ("tabular", "dqn", "feudal", "counts", "behaviors")


def test_criterion_4_learning_agents_double_faster():
    t0 = time.monotonic()
    finals = {agent: [] for agent in MARKET_RUNNERS}
    for seed in range(20):
        data = synth_gbm(6, 4000, 0.0005, 0.01, seed=seed)
        for agent, runner in MARKET_RUNNERS.items():
            ticks = runner(MarketEnv(data), seed)[-1].steps
            finals[agent].append(ticks)
    elapsed = time.monotonic() - t0

    def median(agent):
        vals = [float("inf") if t < 0 else float(t) for t in finals[agent]]
        return float(np.median(vals))

    rand = median("random")
    lines = [f"criterion 4: random median={rand:.0f} ticks ({elapsed:.1f}s)"]
    for agent in LEARNING_AGENTS:
        lines.append(f"  {agent}: median={median(agent):.0f} ratio={median(agent) / rand:.3f}")
    print("\n".join(lines))

    OUT.mkdir(parents=True, exist_ok=True)
    svg = render_histogram(
        {agent: np.asarray(vals, dtype=float) for agent, vals in finals.items()},
        HistogramSpec(bin_width=250.0),
    )
    (OUT / "market_histogram.svg").write_text(svg)

    for agent in LEARNING_AGENTS:
        assert median(agent) <= 0.9 * rand, f"{agent} median {median(agent)} vs random {rand}"
    assert elapsed < 60.0


def test_criterion_5_dqn_training_sanity():
    err = gradient_check(MlpSpec((3 * 6 + 6, 32, 64, 64, 3)), seed=0, h=1e-5)
    print(f"criterion 5: gradient check max relative error {err:.2e}")
    assert err < 1e-4

    buf = ReplayBuffer(capacity=50)
    for i in range(50):
        buf.push(Transition(i, 0, 0.0, i, False))
    rng = np.random.default_rng(0)
    draws = 100_000
    counts = np.zeros(50)
    for _ in range(draws):
        counts[buf.sample(rng).s0] += 1
    expected = draws / 50
    chi2 = float(((counts - expected) ** 2 / expected).sum())
    cutoff = float(scipy.stats.chi2.ppf(0.999, df=49))
    print(f"criterion 5: replay chi2 {chi2:.1f} < {cutoff:.1f}")
    assert chi2 < cutoff


def three_gaussian_telemetry(seed):
    rng = np.random.default_rng(seed)
    centers = np.array([[0.0, 0.0], [8.0, 0.0], [0.0, 8.0]])
    points = np.concatenate([c + 0.5 * rng.normal(size=(100, 2)) for c in centers])
    return points, np.repeat(np.arange(3), 100)


def test_criterion_6_tsne_objective_and_structure():
    t0 = time.monotonic()
    recalls, purities = [], []
    for seed in (0, 1, 2):
        points, labels = three_gaussian_telemetry(seed)
        emb = tsne_fit(points, seed=seed)
        assert emb.kl_trace[-1] < emb.kl_trace[0]

        d = ((emb.coords[:, None, :] - emb.coords[None, :, :]) ** 2).sum(axis=2)
        np.fill_diagonal(d, np.inf)
        nn = np.argsort(d, axis=1)[:, :10]
        recalls.append(float((labels[nn] == labels[:, None]).mean()))

        cs = kmeans_fit(emb.coords, k=3, seed=seed)
        agree = sum(
            np.bincount(labels[cs.assignment == c]).max()
            for c in range(3)
            if np.any(cs.assignment == c)
        )
        purities.append(agree / labels.size)
    elapsed = time.monotonic() - t0
    print(
        f"criterion 6: min recall {min(recalls):.3f}, min purity {min(purities):.3f}, "
        f"{elapsed:.1f}s"
    )
    assert min(recalls) >= 0.9
    assert min(purities) >= 0.95
    assert elapsed < 30.0


def test_criterion_7_subroutine_id_has_no_lookahead():
    series = load_telemetry(ROOT / "fixtures" / "telemetry.csv")
    vectors = np.stack([w.vector for w in window_telemetry(series, 10)])[:16]
    cfg = TsneConfig(perplexity=2.0, iterations=60)
    rng = np.random.default_rng(99)
    # Prefixes below 2*perplexity+1 windows cannot be embedded at all, so
    # the checkable range starts at tau=5.
    taus = range(5, vectors.shape[0])
    for tau in taus:
        baseline = causal_subroutine_id(vectors, tau, k=3, config=cfg, seed=0)
        poked = vectors.copy()
        poked[tau:] = rng.normal(scale=40.0, size=poked[tau:].shape)
        assert causal_subroutine_id(poked, tau, k=3, config=cfg, seed=0) == baseline
    print(f"criterion 7: subroutine ID stable under future-window edits for tau in {taus}")


def test_criterion_8_smoothing_lowers_persistence_error():
    rng = np.random.default_rng(0)
    t = np.arange(2000)
    raw = np.sin(t / 30.0) + rng.normal(scale=0.5, size=t.size)
    smoothed = moving_average(raw, 5)

    def persistence_mse(series):
        return float(np.mean((series[1:] - series[:-1]) ** 2))

    raw_mse = persistence_mse(raw)
    smooth_mse = persistence_mse(smoothed)
    print(f"criterion 8: persistence MSE raw={raw_mse:.4f} smoothed={smooth_mse:.4f}")
    assert smooth_mse < raw_mse


def _run_twice(argv_base, out_a, out_b):
    assert main([*argv_base, "--out", str(out_a)]) == 0
    assert main([*argv_base, "--out", str(out_b)]) == 0
    names_a = sorted(p.name for p in Path(out_a).iterdir())
    names_b = sorted(p.name for p in Path(out_b).iterdir())
    assert names_a == names_b and names_a
    for name in names_a:
        assert (Path(out_a) / name).read_bytes() == (Path(out_b) / name).read_bytes(), name
    return names_a


def test_criterion_9_cli_reruns_are_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    artifacts = 0
    for kind in ("maze", "market", "embed"):
        names = _run_twice(
            [kind, "--config", f"configs/{kind}.conf"],
            tmp_path / f"{kind}_a",
            tmp_path / f"{kind}_b",
        )
        artifacts += len(names)

    logs = ",".join(
        str(tmp_path / "maze_a" / f"maze_{agent}.csv")
        for agent in ("flat", "feudal_quadrant")
    )
    names = _run_twice(
        ["report", "--config", "configs/report.conf", "--set", f"logs={logs}"],
        tmp_path / "report_a",
        tmp_path / "report_b",
    )
    artifacts += len(names)
    print(f"criterion 9: {artifacts} artifacts byte-identical across reruns")
