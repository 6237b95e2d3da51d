"""Command-line entry point.

Exit codes: 0 success, 1 runtime failure, 2 config error (including
missing fixtures and bad usage).
"""

from __future__ import annotations

import argparse
import sys

from hrl_lab.harness.config import ConfigError, ExperimentConfig, load_config
from hrl_lab.harness.experiments import run_experiment
from hrl_lab.harness.runlog import read_runlog
from hrl_lab.harness.summary import summarize
from hrl_lab.harness.svg import render_curves, render_histogram


def _assignment(item: str) -> tuple[str, str]:
    key, sep, value = item.partition("=")
    if not sep:
        raise argparse.ArgumentTypeError(f"expected KEY=VALUE, got {item!r}")
    return key.strip(), value.strip()


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="hrl-lab",
        description="Seeded maze/market/embed experiments and report rendering.",
    )
    subparsers = parser.add_subparsers(dest="kind", required=True)
    for kind, blurb in (
        ("maze", "train maze agents and log steps/reward per episode"),
        ("market", "run trading agents and log ticks-to-doubling per episode"),
        ("embed", "window telemetry, embed, cluster, and write CSV reports"),
        ("report", "render curves/histogram/summary from run log CSVs"),
    ):
        sub = subparsers.add_parser(kind, help=blurb)
        sub.add_argument("--config", required=True, help="key = value config file")
        sub.add_argument("--seed", type=int, default=None, help="replace the seed list")
        sub.add_argument("--out", default=None, help="replace the output directory")
        sub.add_argument(
            "--set",
            dest="assignments",
            type=_assignment,
            action="append",
            default=[],
            metavar="KEY=VALUE",
            help="override any config key (repeatable)",
        )
    return parser


def _overrides(args: argparse.Namespace) -> dict[str, str]:
    out = dict(args.assignments)
    if args.seed is not None:
        out["seeds"] = str(args.seed)
    if args.out is not None:
        out["out"] = args.out
    return out


def _report(cfg: ExperimentConfig) -> None:
    logs = [read_runlog(p) for p in cfg.params["logs"]]
    durations = {log.agent: [r.steps for r in log.rows] for log in logs}
    cfg.out_dir.mkdir(parents=True, exist_ok=True)
    (cfg.out_dir / "curves.svg").write_text(render_curves(logs, metric=cfg.params["metric"]))
    (cfg.out_dir / "histogram.svg").write_text(render_histogram(durations, cfg.params["histogram"]))
    (cfg.out_dir / "summary.csv").write_text(summarize(logs))


def main(argv: "list[str] | None" = None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        cfg = load_config(args.kind, args.config, _overrides(args))
        if cfg.kind == "report":
            _report(cfg)
        else:
            run_experiment(cfg)
    except ConfigError as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # noqa: BLE001 - CLI boundary maps failures to exit 1
        print(f"error: {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
