"""Traced mode: per-layer call counts and self time, measured from outside.

Each layer's public function is replaced, for the traced round only, in the
namespace of every module that calls it: `market_agents` and `maze.agents`
import `forward`, `step`, `q_update` and the rest by name, so patching the
defining module alone would miss those calls. Every call adds to its
layer's totals (calls, inclusive and self time, plus the layer's own
counts). Coarse layers also keep each span (name, start, end, parent) in
memory; the hot per-tick functions keep totals only, which bounds memory.
A site that a later refactor removed is skipped, and a layer with no site
left is reported as absent rather than failing the run.
"""

from __future__ import annotations

import contextlib
import importlib
import json
import re
import time
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

MARKET_AGENT_NAMES = ("random", "hardcoded", "tabular", "dqn", "feudal", "counts", "behaviors")
STEP = "market_env.MarketEnv.step"
EXP = "hrl_lab.harness.experiments"


@dataclass(frozen=True)
class Layer:
    """A traced function: metric name prefix, the `module:attr` sites that
    get the wrapper (attr may be `Class.method` or `DICT[key]`), its extra
    counts as name -> unit, and whether every span is kept."""

    name: str
    sites: tuple[str, ...]
    extras: tuple[tuple[str, str], ...] = ()
    keep_spans: bool = False


def _layers() -> tuple[Layer, ...]:
    hot = [
        Layer("nn.forward", ("hrl_lab.market_agents:forward",)),
        Layer("nn.trace", ("hrl_lab.market_agents:trace",)),
        Layer("nn.backward", ("hrl_lab.market_agents:backward",)),
        Layer("nn.adam_update", ("hrl_lab.market_agents:adam_update",)),
        Layer("rl_core.ReplayBuffer.push", ("hrl_lab.rl_core:ReplayBuffer.push",)),
        Layer("rl_core.ReplayBuffer.sample", ("hrl_lab.rl_core:ReplayBuffer.sample",)),
        Layer(STEP, ("hrl_lab.market_env:MarketEnv.step",), (("us_per_call", "us"),)),
        Layer("market_agents.run_worker_span", ("hrl_lab.market_agents:run_worker_span",)),
        Layer("market_agents.run_masked_span", ("hrl_lab.market_agents:run_masked_span",)),
        Layer(
            "rl_core.update_row",
            ("hrl_lab.market_agents:update_row", "hrl_lab.rl_core:update_row"),
        ),
        Layer(
            "rl_core.epsilon_greedy",
            ("hrl_lab.market_agents:epsilon_greedy", "hrl_lab.rl_core:epsilon_greedy"),
        ),
        Layer(
            "rl_core.q_update", ("hrl_lab.maze.agents:q_update", "hrl_lab.market_agents:q_update")
        ),
        Layer(
            "rl_core.select_action",
            ("hrl_lab.maze.agents:select_action", "hrl_lab.market_agents:select_action"),
        ),
        Layer("maze.step", ("hrl_lab.maze.agents:step",)),
        Layer("maze.run_instruction", ("hrl_lab.maze.agents:run_instruction",)),
        Layer("drive.kl_divergence", ("hrl_lab.drive.tsne:kl_divergence",),
              (("calls_per_iteration", "calls/iter"),)),
        Layer("drive.perplexity_calibration", ("hrl_lab.drive.tsne:perplexity_calibration",)),
    ]
    coarse = [
        *(
            Layer(f"market_agents.run_{a}", (f"{EXP}:MARKET_AGENTS[{a}]",),
                  (("total_s", "s"), ("ticks", "ticks")))
            for a in MARKET_AGENT_NAMES
        ),
        Layer("market_env.synth_gbm", (f"{EXP}:synth_gbm",)),
        Layer("market_env.MarketData", ("hrl_lab.market_env:MarketData.__init__",)),
        Layer(
            "market_agents.dqn_inputs", ("hrl_lab.market_agents:dqn_inputs",), (("bytes", "bytes"),)
        ),
        Layer("maze.run_flat_q", (f"{EXP}:run_flat_q",)),
        Layer("maze.run_feudal", (f"{EXP}:run_maze_feudal",)),
        Layer("harness.load_config", ("hrl_lab.harness.cli:load_config",)),
        Layer("harness.write_runlog", (f"{EXP}:write_runlog",), (("bytes", "bytes"),)),
        Layer("harness.render_curves", ("hrl_lab.harness.cli:render_curves",)),
        Layer("harness.render_histogram", ("hrl_lab.harness.cli:render_histogram",)),
        Layer("harness.summarize", ("hrl_lab.harness.cli:summarize",)),
        Layer("drive.joint_probabilities", ("hrl_lab.drive.tsne:joint_probabilities",)),
        Layer("drive.tsne_fit", (f"{EXP}:tsne_fit",), (("iterations", "count"),)),
        Layer("drive.kmeans_fit", (f"{EXP}:kmeans_fit",), (("iterations", "count"),)),
        Layer("drive.load_telemetry", (f"{EXP}:load_telemetry",)),
        Layer("drive.window_telemetry", (f"{EXP}:window_telemetry",)),
        Layer("drive.embedding_csv", (f"{EXP}:embedding_csv",)),
        Layer("drive.nearest_windows_report", (f"{EXP}:nearest_windows_report",)),
    ]
    return (*hot, *(Layer(x.name, x.sites, x.extras, True) for x in coarse))


LAYERS = _layers()
OVERHEAD = (("trace.overhead_s", "s"), ("trace.overhead_share", "ratio"))


def metric_units() -> dict[str, str]:
    """Every per-layer metric the traced mode prints, name -> unit."""
    out = {}
    for layer in LAYERS:
        out[f"{layer.name}.calls"] = "count"
        out[f"{layer.name}.self_s"] = "s"
        for extra, unit in layer.extras:
            out[f"{layer.name}.{extra}"] = unit
    out.update(OVERHEAD)
    return out


@dataclass
class Stat:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0
    extra: dict[str, float] = field(default_factory=dict)


_ITEM = re.compile(r"^(\w+)\[(\w+)\]$")


def _site(spec: str):
    """(container, key, is_item) for a `module:attr` site, or None if the
    module or attribute no longer exists."""
    mod_name, path = spec.split(":")
    try:
        obj = importlib.import_module(mod_name)
    except ImportError:
        return None
    item = _ITEM.match(path)
    if item:
        table = getattr(obj, item.group(1), None)
        found = isinstance(table, dict) and item.group(2) in table
        return (table, item.group(2), True) if found else None
    *owners, attr = path.split(".")
    for name in owners:
        obj = getattr(obj, name, None)
    return (obj, attr, False) if obj is not None and callable(getattr(obj, attr, None)) else None


class Tracer:
    """Context manager that installs the wrappers and removes them on exit."""

    def __init__(self) -> None:
        self.stats = {layer.name: Stat(extra={e: 0 for e, _ in layer.extras}) for layer in LAYERS}
        self.absent: list[str] = []
        self.spans: list[list] = []  # [name, start, end, parent index or None]
        self._stack: list[list] = [[0.0, None]]  # frames: [child seconds, span index]
        self._undo: list[Callable[[], None]] = []

    def __enter__(self) -> "Tracer":
        for layer in LAYERS:
            sites = [s for s in map(_site, layer.sites) if s is not None]
            if not sites:
                self.absent.append(layer.name)
            for container, key, is_item in sites:
                self._patch(layer, container, key, is_item)
        return self

    def __exit__(self, *exc) -> None:
        while self._undo:
            self._undo.pop()()

    def _patch(self, layer: Layer, container, key: str, is_item: bool) -> None:
        get, put = (container.__getitem__, container.__setitem__) if is_item else (
            lambda k: getattr(container, k), lambda k, v: setattr(container, k, v))
        original = get(key)
        put(key, self._wrap(layer, original))
        self._undo.append(lambda: put(key, original))

    def _wrap(self, layer: Layer, fn):
        stat = self.stats[layer.name]
        stack, spans = self._stack, self.spans if layer.keep_spans else None
        steps = self.stats[STEP] if "ticks" in stat.extra else None
        hook = HOOKS.get(layer.name)
        perf = time.perf_counter

        def traced(*args, **kwargs):
            parent = stack[-1]
            span = parent[1]
            if spans is not None:
                span = len(spans)
                spans.append([layer.name, 0.0, 0.0, parent[1]])
            frame = [0.0, span]
            stack.append(frame)
            steps0 = steps.calls if steps is not None else 0
            t0 = perf()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf()
                stack.pop()
                dur = t1 - t0
                parent[0] += dur
                stat.calls += 1
                stat.total_s += dur
                stat.self_s += dur - frame[0]
                if spans is not None:
                    spans[span][1:3] = [t0, t1]
            if steps is not None:
                stat.extra["ticks"] += steps.calls - steps0
            if hook is not None:
                hook(stat, args, kwargs, result)
            return result

        return traced

    @contextlib.contextmanager
    def root(self, name: str):
        """Span for one CLI call, the parent of every span inside it."""
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), 0.0, None])
        self._stack.append([0.0, index])
        try:
            yield
        finally:
            self._stack.pop()
            self.spans[index][2] = time.perf_counter()

    def metrics(self) -> dict[str, tuple[float, str]]:
        """Every per-layer metric except the overhead, name -> (value, unit)."""
        units = metric_units()
        iters = self.stats["drive.tsne_fit"].extra["iterations"]
        kl = self.stats["drive.kl_divergence"]
        kl.extra["calls_per_iteration"] = kl.calls / iters if iters else 0.0
        out = {}
        for layer in LAYERS:
            st = self.stats[layer.name]
            values = {"calls": st.calls, "self_s": st.self_s, **st.extra}
            if "total_s" in values:
                values["total_s"] = st.total_s
            if "us_per_call" in values:
                values["us_per_call"] = 1e6 * st.self_s / st.calls if st.calls else 0.0
            for key, value in values.items():
                out[f"{layer.name}.{key}"] = (value, units[f"{layer.name}.{key}"])
        return out

    def write(self, path: Path) -> None:
        """Write the kept spans and the per-layer totals as JSON."""
        path.write_text(json.dumps({
            "spans": [{"name": n, "start": a, "end": b, "parent": p} for n, a, b, p in self.spans],
            "layers": {k: vars(v) for k, v in self.stats.items()},
            "absent": self.absent,
        }, indent=1))


def _file_bytes(stat, args, kwargs, result):
    stat.extra["bytes"] += Path(kwargs.get("path") or args[1]).stat().st_size


def _nbytes(stat, args, kwargs, result):
    stat.extra["bytes"] += getattr(result, "nbytes", 0)


def _tsne_iterations(stat, args, kwargs, result):
    trace = getattr(result, "kl_trace", None)
    if trace is not None:
        stat.extra["iterations"] += len(trace) - 1


def _lloyd_iterations(stat, args, kwargs, result):
    trace = getattr(result, "inertia_trace", None)
    if trace is not None:
        stat.extra["iterations"] += len(trace) - 1


HOOKS = {
    "harness.write_runlog": _file_bytes,
    "market_agents.dqn_inputs": _nbytes,
    "drive.tsne_fit": _tsne_iterations,
    "drive.kmeans_fit": _lloyd_iterations,
}
