"""Config-driven experiment drivers for the maze, market, and embed kinds."""

from __future__ import annotations

from pathlib import Path

import numpy as np

from hrl_lab.drive import (
    TsneConfig,
    embedding_csv,
    kmeans_fit,
    load_telemetry,
    nearest_windows_report,
    tsne_fit,
    window_telemetry,
)
from hrl_lab.harness.config import ConfigError, ExperimentConfig
from hrl_lab.harness.runlog import RunLog, write_runlog
from hrl_lab.market_agents import (
    DQN_START_TICK,
    START_TICK,
    run_dqn,
    run_hardcoded,
    run_multiworker_behaviors,
    run_multiworker_counts,
    run_random,
    run_tabular_q,
)
from hrl_lab.market_agents import run_feudal as run_market_feudal
from hrl_lab.market_env import EnvConfig, MarketEnv, load_csv, synth_gbm
from hrl_lab.maze.agents import run_feudal as run_maze_feudal
from hrl_lab.maze.agents import run_flat_q
from hrl_lab.maze.env import load_maze

MARKET_AGENTS = {
    "random": run_random,
    "hardcoded": run_hardcoded,
    "tabular": run_tabular_q,
    "dqn": run_dqn,
    "feudal": run_market_feudal,
    "counts": run_multiworker_counts,
    "behaviors": run_multiworker_behaviors,
}


def run_experiment(cfg: ExperimentConfig) -> list[Path]:
    """Execute the configured runs and write one artifact file per output.

    Seeds always run (and merge) in the order given, so the same config
    yields the same bytes.
    """
    drivers = {"maze": _maze_experiment, "market": _market_experiment, "embed": _embed_experiment}
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    return drivers[cfg.kind](cfg)


def _write_logs(cfg: ExperimentConfig, logs: list[RunLog]) -> list[Path]:
    paths = []
    for log in logs:
        path = cfg.out_dir / f"{cfg.kind}_{log.agent}.csv"
        write_runlog(log, path)
        paths.append(path)
    return paths


def _maze_experiment(cfg: ExperimentConfig) -> list[Path]:
    spec = load_maze(cfg.params["maze_file"])
    episodes, step_cap = cfg.params["episodes"], cfg.params["step_cap"]

    logs = []
    for agent in cfg.agents:
        log = RunLog(agent=agent)
        for seed in cfg.seeds:
            if agent == "flat":
                rows, _ = run_flat_q(spec, episodes=episodes, seed=seed, step_cap=step_cap)
            else:
                goal_mode = agent.removeprefix("feudal_")
                rows, _ = run_maze_feudal(
                    spec, episodes=episodes, seed=seed, goal_mode=goal_mode, step_cap=step_cap
                )
            for row in rows:
                log.append(row)
        logs.append(log)
    return _write_logs(cfg, logs)


def _market_experiment(cfg: ExperimentConfig) -> list[Path]:
    p = cfg.params
    # Zero means "each runner's own default episode budget".
    kwargs = {"episodes": p["episodes"]} if p["episodes"] > 0 else {}
    try:
        env_cfg = EnvConfig(p["initial_cash"], p["target_multiplier"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    # An episode starts at its start tick and needs one tick to step into,
    # so the data needs start + 2 ticks. Every seed's data has one length,
    # so the first seed is checked before any run.
    needed = (DQN_START_TICK if "dqn" in cfg.agents else START_TICK) + 2
    # CSV prices do not depend on the seed, so every seed shares one load.
    csv_data = None if p["prices_csv"] is None else load_csv(p["prices_csv"], p["sectors_csv"])

    logs = {agent: RunLog(agent=agent) for agent in cfg.agents}
    for seed in cfg.seeds:
        if csv_data is None:
            data = synth_gbm(p["n_symbols"], p["length"], p["drift"], p["volatility"], seed=seed)
        else:
            data = csv_data
        if len(data) < needed:
            key = "length" if csv_data is None else "prices_csv"
            raise ConfigError(
                f"{key} gives {len(data)} ticks; {', '.join(cfg.agents)} need at least {needed}"
            )
        for agent in cfg.agents:
            env = MarketEnv(data, env_cfg)
            for row in MARKET_AGENTS[agent](env, seed=seed, **kwargs):
                logs[agent].append(row)
    return _write_logs(cfg, [logs[a] for a in cfg.agents])


def _embed_experiment(cfg: ExperimentConfig) -> list[Path]:
    p = cfg.params
    try:
        tsne_cfg = TsneConfig(perplexity=p["perplexity"], iterations=p["iterations"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc
    series = load_telemetry(p["telemetry_csv"])
    windows = window_telemetry(series, m=p["window"])
    if not windows:
        raise ConfigError("telemetry too short for the configured window length")
    if len(windows) < tsne_cfg.min_points:
        raise ConfigError(
            f"perplexity {tsne_cfg.perplexity} needs at least {tsne_cfg.min_points} windows,"
            f" the telemetry gives {len(windows)}"
        )
    if p["k"] > len(windows):
        raise ConfigError(f"k = {p['k']} exceeds the {len(windows)} telemetry windows")
    vectors = np.stack([w.vector for w in windows])

    paths = []
    embeddings = tsne_fit(vectors, config=tsne_cfg, seeds=cfg.seeds)
    for seed, emb in zip(cfg.seeds, embeddings):
        cs = kmeans_fit(emb.coords, k=p["k"], seed=seed)
        embed_path = cfg.out_dir / f"embed_{seed}.csv"
        embed_path.write_text(embedding_csv(emb.coords, cs, windows, eps=p["eps"]))
        report_path = cfg.out_dir / f"report_{seed}.csv"
        report_path.write_text(
            nearest_windows_report(emb.coords, cs, windows, p["n_examples"], eps=p["eps"])
        )
        paths.extend([embed_path, report_path])
    return paths
