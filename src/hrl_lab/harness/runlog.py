"""Per-agent run logs: one CSV row per (seed, episode)."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field
from pathlib import Path

from hrl_lab.rl_core import RunRow

RUNLOG_HEADER = ("agent", "seed", "episode", "steps", "reward", "value")


@dataclass
class RunLog:
    """Append-only log for one agent across seeds.

    Episode indices must be non-decreasing within a seed; rows for a seed
    are contiguous because seeds are merged in seed order.
    """

    agent: str
    rows: list[RunRow] = field(default_factory=list)

    def append(self, row: RunRow) -> None:
        last = self._last_for_seed(row.seed)
        if last is not None and row.episode < last:
            raise ValueError(
                f"episode {row.episode} for seed {row.seed} is behind {last}; "
                "run logs are append-only"
            )
        self.rows.append(row)

    def _last_for_seed(self, seed: int) -> int | None:
        for row in reversed(self.rows):
            if row.seed == seed:
                return row.episode
        return None

    def seeds(self) -> list[int]:
        out: list[int] = []
        for row in self.rows:
            if row.seed not in out:
                out.append(row.seed)
        return out

    def steps_series(self, seed: int) -> list[int]:
        return [r.steps for r in self.rows if r.seed == seed]


def write_runlog(log: RunLog, path: str | Path) -> None:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with path.open("w", newline="") as fh:
        w = csv.writer(fh, lineterminator="\n")
        w.writerow(RUNLOG_HEADER)
        for r in log.rows:
            value = "" if r.value is None else repr(float(r.value))
            w.writerow([log.agent, r.seed, r.episode, r.steps, repr(float(r.reward)), value])


def read_runlog(path: str | Path) -> RunLog:
    path = Path(path)
    with path.open(newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader, None)
        if header is None or tuple(header) != RUNLOG_HEADER:
            raise ValueError(f"{path}: expected header {','.join(RUNLOG_HEADER)}")
        log: RunLog | None = None
        for rec in reader:
            try:
                if len(rec) != len(RUNLOG_HEADER):
                    raise ValueError(f"expected {len(RUNLOG_HEADER)} fields, got {len(rec)}")
                agent, seed, episode, steps, reward, value = rec
                if log is None:
                    log = RunLog(agent=agent)
                elif agent != log.agent:
                    raise ValueError(f"mixed agents {log.agent!r} and {agent!r}")
                value = None if value == "" else float(value)
                log.append(RunRow(int(seed), int(episode), int(steps), float(reward), value))
            except ValueError as exc:
                raise ValueError(f"{path}:{reader.line_num}: {exc}") from exc
    if log is None:
        raise ValueError(f"{path}: no data rows")
    return log
