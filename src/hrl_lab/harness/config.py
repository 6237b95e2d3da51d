"""Plain key/value experiment configs with CLI-style overrides.

``KEYS`` is the one table of what each kind accepts: per key a parser, a
default (``REQUIRED`` when there is none) and, where the key has a floor,
the lowest value allowed. Float keys take finite numbers only.
``build_config`` rejects an unknown key, a bad value, a value below its
bound and a missing required key with a ``ConfigError`` naming the key,
and hands the drivers typed values.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Callable

from hrl_lab.harness.svg import HistogramSpec

_KEY_RE = re.compile(r"^[A-Za-z_][A-Za-z0-9_]*$")
REQUIRED = object()


class ConfigError(Exception):
    """Bad config file, bad override, or missing fixture. CLI exit code 2."""


@dataclass(frozen=True)
class Key:
    parse: Callable[[str], Any]
    default: Any = None
    low: int | None = None


def _float(raw: str) -> float:
    value = float(raw)
    if not math.isfinite(value):
        raise ValueError("must be a finite number")
    return value


def _file(raw: str) -> str:
    if not Path(raw).is_file():
        raise ValueError("file does not exist")
    return raw


def _one_of(*names: str) -> Callable[[str], str]:
    def parse(raw: str) -> str:
        if raw not in names:
            raise ValueError(f"choose from {', '.join(names)}")
        return raw

    return parse


def _list(parse: Callable[[str], Any]) -> Callable[[str], tuple]:
    """A non-empty comma list, each item through ``parse``."""

    def parse_list(raw: str) -> tuple:
        items = tuple(parse(tok.strip()) for tok in raw.split(",") if tok.strip())
        if not items:
            raise ValueError("empty list")
        return items

    return parse_list


def _agents(*names: str) -> Key:
    """Agent names; all of them, in this order, when the key is absent."""
    return Key(_list(_one_of(*names)), names)


def _bounds(raw: str) -> tuple[float, float]:
    lo, hi = (_float(tok) for tok in raw.split(","))
    return lo, hi


_COMMON = {"out": Key(Path, Path("out"))}
_SEEDS = {"seeds": Key(_list(int), (0,))}  # only the kinds that run seeded work

KEYS: dict[str, dict[str, Key]] = {
    "maze": {
        **_SEEDS,
        "agents": _agents("flat", "feudal_quadrant", "feudal_direction"),
        "maze_file": Key(_file, REQUIRED),
        "episodes": Key(int, 500, low=1),
        "step_cap": Key(int, 1000, low=1),
    },
    "market": {
        **_SEEDS,
        "agents": _agents("random", "hardcoded", "tabular", "dqn", "feudal", "counts", "behaviors"),
        "prices_csv": Key(_file),
        "sectors_csv": Key(_file),
        "n_symbols": Key(int, 6, low=1),
        "length": Key(int, 4000, low=2),
        "drift": Key(_float, 0.0005),
        "volatility": Key(_float, 0.01),
        "initial_cash": Key(_float, 1000.0),
        "target_multiplier": Key(_float, 2.0),
        "episodes": Key(int, 0, low=0),  # 0 means each agent's own default
    },
    "embed": {
        **_SEEDS,
        "telemetry_csv": Key(_file, REQUIRED),
        "window": Key(int, 10, low=1),
        "perplexity": Key(_float, 30.0),
        "iterations": Key(int, 1000, low=1),
        "k": Key(int, 3, low=1),
        "n_examples": Key(int, 5, low=1),
        "eps": Key(_float, 0.05, low=0),
    },
    "report": {
        "logs": Key(_list(_file), REQUIRED),
        "metric": Key(_one_of("steps", "reward"), "steps"),
        "bin_width": Key(_float),
        "bin_count": Key(int, low=1),
        "bounds": Key(_bounds),
        "shared_bounds": Key(lambda raw: _one_of("true", "false")(raw.lower()) == "true", True),
    },
}
KINDS = tuple(KEYS)


def parse_config_text(text: str) -> dict[str, str]:
    """Parse `key = value` lines; # starts a comment, blanks are skipped."""
    out: dict[str, str] = {}
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key = value, got {raw.strip()!r}")
        key, value = line.split("=", 1)
        key, value = key.strip(), value.strip()
        if not _KEY_RE.match(key):
            raise ConfigError(f"line {lineno}: bad key {key!r}")
        if key in out:
            raise ConfigError(f"line {lineno}: duplicate key {key!r}")
        out[key] = value
    return out


@dataclass
class ExperimentConfig:
    kind: str
    agents: tuple[str, ...]
    seeds: tuple[int, ...]
    out_dir: Path
    params: dict[str, Any] = field(default_factory=dict)


def build_config(kind: str, raw: dict[str, str]) -> ExperimentConfig:
    """Type and check every key of ``kind`` in ``raw``, filling in defaults.

    A report's four binning keys become one ``params["histogram"]``."""
    if kind not in KEYS:
        raise ConfigError(f"kind must be one of {KINDS}, got {kind!r}")
    schema = {**_COMMON, **KEYS[kind]}
    for key in raw:
        if key not in schema:
            raise ConfigError(f"unknown {kind} key {key!r}; known keys: {', '.join(schema)}")
    params: dict[str, Any] = {}
    for key, spec in schema.items():
        if key not in raw:
            if spec.default is REQUIRED:
                raise ConfigError(f"{kind} configs need {key}")
            params[key] = spec.default
            continue
        try:
            params[key] = value = spec.parse(raw[key])
        except ValueError as exc:
            raise ConfigError(f"{key} = {raw[key]!r}: {exc}") from exc
        if spec.low is not None and value < spec.low:
            raise ConfigError(f"{key} must be >= {spec.low}, got {value}")
    if (params.get("prices_csv") is None) != (params.get("sectors_csv") is None):
        raise ConfigError("prices_csv and sectors_csv must be given together")
    if kind == "report":
        try:
            params["histogram"] = HistogramSpec(
                *(params.pop(k) for k in ("bin_width", "bin_count", "bounds", "shared_bounds"))
            )
        except ValueError as exc:
            raise ConfigError(str(exc)) from exc
    agents, seeds, out_dir = params.pop("agents", ()), params.pop("seeds", ()), params.pop("out")
    return ExperimentConfig(kind, agents, seeds, out_dir, params)


def load_config(kind: str, path: str | Path, overrides: dict | None = None) -> ExperimentConfig:
    """Read a config file, apply overrides (seeds/out/any key) and build it."""
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read config {path}: {exc}") from exc
    return build_config(kind, {**parse_config_text(text), **(overrides or {})})
