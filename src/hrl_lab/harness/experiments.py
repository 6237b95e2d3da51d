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
from hrl_lab.harness.runlog import RunLog, RunRow, write_runlog
from hrl_lab.market_agents import (
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
                run = run_flat_q(spec, episodes=episodes, seed=seed, step_cap=step_cap)
            else:
                goal_mode = agent.removeprefix("feudal_")
                run = run_maze_feudal(
                    spec, episodes=episodes, seed=seed, goal_mode=goal_mode, step_cap=step_cap
                )
            for rec in run.episodes:
                if rec.role == "worker":
                    log.append(RunRow(seed, rec.episode, rec.steps, rec.reward))
        logs.append(log)
    return _write_logs(cfg, logs)


def _market_data(cfg: ExperimentConfig, seed: int):
    p = cfg.params
    if p["prices_csv"] is not None:
        return load_csv(p["prices_csv"], p["sectors_csv"])
    return synth_gbm(p["n_symbols"], p["length"], p["drift"], p["volatility"], seed=seed)


def _market_experiment(cfg: ExperimentConfig) -> list[Path]:
    # Zero means "each runner's own default episode budget".
    kwargs = {"episodes": cfg.params["episodes"]} if cfg.params["episodes"] > 0 else {}
    try:
        env_cfg = EnvConfig(cfg.params["initial_cash"], cfg.params["target_multiplier"])
    except ValueError as exc:
        raise ConfigError(str(exc)) from exc

    logs = {agent: RunLog(agent=agent) for agent in cfg.agents}
    for seed in cfg.seeds:
        data = _market_data(cfg, seed)
        for agent in cfg.agents:
            env = MarketEnv(data, env_cfg)
            run = MARKET_AGENTS[agent](env, seed=seed, **kwargs)
            for rec in run.records:
                row = (rec.episode, rec.ticks_to_double, rec.cumulative_reward, rec.final_value)
                logs[agent].append(RunRow(seed, *row))
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
    needed = int(2 * tsne_cfg.perplexity + 1)  # tsne_fit's own floor
    if len(windows) < needed:
        raise ConfigError(
            f"perplexity {tsne_cfg.perplexity} needs at least {needed} windows,"
            f" the telemetry gives {len(windows)}"
        )
    vectors = np.stack([w.vector for w in windows])

    paths = []
    for seed in cfg.seeds:
        emb = tsne_fit(vectors, config=tsne_cfg, seed=seed)
        cs = kmeans_fit(emb.coords, k=p["k"], seed=seed)
        embed_path = cfg.out_dir / f"embed_{seed}.csv"
        embed_path.write_text(embedding_csv(emb.coords, cs, windows, eps=p["eps"]))
        report_path = cfg.out_dir / f"report_{seed}.csv"
        report_path.write_text(
            nearest_windows_report(emb.coords, cs, windows, p["n_examples"], eps=p["eps"])
        )
        paths.extend([embed_path, report_path])
    return paths
