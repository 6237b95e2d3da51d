"""Tests for the benchmark's own checks: each artifact is made small and real
by the CLI, then corrupted in one way, and the matching check must reject
it while the intact artifact passes."""

from __future__ import annotations

import contextlib
import io
import json
import math
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path[:0] = [str(BENCH), str(ROOT / "src")]

import checks  # noqa: E402
import run as bench_run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from checks import CheckError  # noqa: E402
from hrl_lab.harness.cli import main as cli_main  # noqa: E402

MAZE = ROOT / "fixtures" / "maze4x4.txt"


def hrl_lab(*argv: str) -> None:
    with contextlib.redirect_stderr(io.StringIO()) as err:
        code = cli_main(list(argv))
    assert code == 0, err.getvalue()


def drop_seed(rows: list[list[str]], seed: str) -> list[list[str]]:
    return [r for r in rows if r[1] != seed]


def rewrite(path: Path, edit) -> None:
    """Apply ``edit`` to the CSV rows (header included) of ``path``."""
    rows = [line.split(",") for line in path.read_text().splitlines()]
    edit(rows)
    path.write_text("\n".join(",".join(r) for r in rows) + "\n")


@pytest.fixture(scope="module")
def market_dir(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("market")
    cfg = out / "market.conf"
    # A low target so that some episodes double and some do not.
    workloads.write_config(
        cfg, agents="tabular", seeds="0,1", n_symbols=3, length=300, episodes=2,
        target_multiplier=1.02,
    )
    hrl_lab("market", "--config", str(cfg), "--out", str(out / "logs"))
    return out / "logs"


def check_market(path: Path) -> list:
    return checks.check_market_log(path, "tabular", (0, 1), 2, 1000.0, 1.02, 300)


@pytest.fixture
def market_log(market_dir, tmp_path) -> Path:
    path = tmp_path / "market_tabular.csv"
    shutil.copy(market_dir / "market_tabular.csv", path)
    return path


def test_market_log_passes_and_mixes_outcomes(market_log):
    rows = check_market(market_log)
    assert {r[2] >= 0 for r in rows} == {True, False}


def test_market_reward_off_by_one_tick_gain(market_log):
    def edit(rows):
        rows[1][4] = repr(float(rows[1][4]) + 1.37)  # about one share's one-tick move

    rewrite(market_log, edit)
    with pytest.raises(CheckError, match="reward"):
        check_market(market_log)


def test_market_dropped_seed(market_log):
    rewrite(market_log, lambda rows: rows.__setitem__(slice(None), drop_seed(rows, "1")))
    with pytest.raises(CheckError, match="seeds"):
        check_market(market_log)


def test_market_steps_without_doubling(market_log):
    def edit(rows):
        row = next(r for r in rows[1:] if r[3] == "-1")
        row[3] = "150"

    rewrite(market_log, edit)
    with pytest.raises(CheckError, match="doubled"):
        check_market(market_log)


def test_market_steps_beyond_data(market_log):
    def edit(rows):
        row = next(r for r in rows[1:] if r[3] != "-1")
        row[3] = "300"

    rewrite(market_log, edit)
    with pytest.raises(CheckError, match="out of range"):
        check_market(market_log)


def test_market_episodes_not_from_zero(market_log):
    def edit(rows):
        for r in rows[1:]:
            r[2] = str(int(r[2]) + 1)

    rewrite(market_log, edit)
    with pytest.raises(CheckError, match="episodes"):
        check_market(market_log)


def test_market_wrong_agent(market_log):
    rewrite(market_log, lambda rows: rows[1].__setitem__(0, "random"))
    with pytest.raises(CheckError, match="agent"):
        check_market(market_log)


def test_episode_ticks_counts_the_whole_data_when_not_doubled():
    assert checks.episode_ticks(412, 4000, 1) == 412
    assert checks.episode_ticks(-1, 4000, 1) == 3998
    assert checks.episode_ticks(-1, 4000, 3) == 3996


# ---------------------------------------------------------------- maze

MAZE_AGENTS = ("flat", "feudal_quadrant")


@pytest.fixture(scope="module")
def maze_dir(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("maze")
    cfg = workloads.write_config(
        out / "maze.conf", maze_file=MAZE, agents=",".join(MAZE_AGENTS), seeds="0,1",
        episodes=40, step_cap=200,
    )
    hrl_lab("maze", "--config", str(cfg), "--out", str(out / "maze"))
    logs = ",".join(str(out / "maze" / f"maze_{a}.csv") for a in MAZE_AGENTS)
    report = workloads.write_config(out / "report.conf", logs=logs, metric="steps", bin_width=25)
    hrl_lab("report", "--config", str(report), "--out", str(out / "report"))
    return out


@pytest.fixture
def maze_copy(maze_dir, tmp_path) -> Path:
    shutil.copytree(maze_dir, tmp_path / "m")
    return tmp_path / "m"


def maze_logs(root: Path) -> dict:
    _, _, shortest = checks.maze_shortest_path(MAZE)
    return {
        a: checks.check_maze_log(
            root / "maze" / f"maze_{a}.csv", a, (0, 1), 40, 200, 0.1 / 16, shortest
        )
        for a in MAZE_AGENTS
    }


def test_bfs_matches_the_maze_file_comment():
    assert checks.maze_shortest_path(MAZE) == (4, 4, 6)


def test_maze_artifacts_pass(maze_copy):
    logs = maze_logs(maze_copy)
    assert any(r[3] > 0 for r in logs["flat"])  # some episodes solved
    checks.check_summary(maze_copy / "report" / "summary.csv", logs)
    checks.check_svg(maze_copy / "report" / "curves.svg")
    checks.check_svg(maze_copy / "report" / "histogram.svg")


def test_maze_reward_off_by_one_step(maze_copy):
    path = maze_copy / "maze" / "maze_flat.csv"
    rewrite(path, lambda rows: rows[-1].__setitem__(4, repr(float(rows[-1][4]) - 0.1 / 16)))
    with pytest.raises(CheckError, match="fits no outcome"):
        maze_logs(maze_copy)


def test_maze_solved_faster_than_shortest_path(maze_copy):
    path = maze_copy / "maze" / "maze_flat.csv"
    # 6 steps with the reward of a 6-step solve: consistent, but one short of BFS + Declare.
    rewrite(path, lambda rows: rows[-1].__setitem__(slice(3, 5), ["6", repr(1 - 0.1 / 16 * 5)]))
    with pytest.raises(CheckError, match="solved in 6"):
        maze_logs(maze_copy)


def test_maze_dropped_seed(maze_copy):
    path = maze_copy / "maze" / "maze_feudal_quadrant.csv"
    rewrite(path, lambda rows: rows.__setitem__(slice(None), drop_seed(rows, "0")))
    with pytest.raises(CheckError, match="seeds"):
        maze_logs(maze_copy)


@pytest.mark.parametrize("column", [1, 2, 5])
def test_summary_last_digit(maze_copy, column):
    logs = maze_logs(maze_copy)
    path = maze_copy / "report" / "summary.csv"
    rewrite(path, lambda rows: rows[1].__setitem__(
        column, repr(math.nextafter(float(rows[1][column]), math.inf))))
    with pytest.raises(CheckError, match=checks.SUMMARY_HEADER[column]):
        checks.check_summary(path, logs)


def test_svg_truncated(maze_copy):
    path = maze_copy / "report" / "curves.svg"
    path.write_text(path.read_text()[:-10])
    with pytest.raises(CheckError, match="not XML"):
        checks.check_svg(path)


def test_convergence_episode_definition():
    assert checks.convergence_episode([50, 40, 9, 10, 10]) == 2
    assert checks.convergence_episode([10] * 12) == 0
    assert checks.convergence_episode([10] * 12 + [30]) == 13


# ---------------------------------------------------------------- embed

TELEMETRY = ROOT / "fixtures" / "telemetry.csv"


@pytest.fixture(scope="module")
def embed_dir(tmp_path_factory) -> Path:
    out = tmp_path_factory.mktemp("embed")
    hrl_lab("embed", "--config", str(ROOT / "configs" / "embed.conf"), "--seed", "3",
            "--out", str(out), "--set", f"telemetry_csv={TELEMETRY}")
    return out


@pytest.fixture
def embed_copy(embed_dir, tmp_path) -> Path:
    shutil.copytree(embed_dir, tmp_path / "e")
    return tmp_path / "e"


def check_embed(root: Path):
    windows = checks.read_telemetry_windows(TELEMETRY, 10)
    labels = checks.sign_labels(windows, 0.05)
    coords, assign = checks.check_embedding(root / "embed_3.csv", labels, 3)
    checks.check_report(root / "report_3.csv", coords, assign, labels, 3, 3, 10)
    return coords, assign


def test_embed_artifacts_pass(embed_copy):
    coords, assign = check_embed(embed_copy)
    assert coords.shape == (30, 2) and len(set(assign.tolist())) == 3


def test_window_moved_to_wrong_centroid(embed_copy):
    path = embed_copy / "embed_3.csv"
    rewrite(path, lambda rows: rows[1].__setitem__(3, str((int(rows[1][3]) + 1) % 3)))
    with pytest.raises(CheckError, match="nearest cluster mean"):
        check_embed(embed_copy)


def test_embed_missing_window(embed_copy):
    rewrite(embed_copy / "embed_3.csv", lambda rows: rows.pop())
    with pytest.raises(CheckError, match="rows for 30 windows"):
        check_embed(embed_copy)


def test_embed_wrong_sign_label(embed_copy):
    def edit(rows):
        rows[5][4] = "near_zero" if rows[5][4] != "near_zero" else "positive"

    rewrite(embed_copy / "embed_3.csv", edit)
    with pytest.raises(CheckError, match="sign label"):
        check_embed(embed_copy)


def test_report_out_of_order(embed_copy):
    def edit(rows):
        rows[1][2:], rows[2][2:] = rows[2][2:], rows[1][2:]

    rewrite(embed_copy / "report_3.csv", edit)
    with pytest.raises(CheckError, match="out of distance order"):
        check_embed(embed_copy)


def test_report_distance_changed(embed_copy):
    rewrite(embed_copy / "report_3.csv",
            lambda rows: rows[1].__setitem__(6, repr(float(rows[1][6]) * 1.001)))
    with pytest.raises(CheckError, match="distance"):
        check_embed(embed_copy)


def test_report_skips_nearest_member(embed_copy):
    rewrite(embed_copy / "report_3.csv", lambda rows: rows.pop(1))
    with pytest.raises(CheckError):
        check_embed(embed_copy)


def test_purity_and_recall_reject_mixed_clusters():
    truth = np.repeat(np.arange(3), 10)
    coords = np.concatenate([np.full((10, 2), 10.0 * c) for c in range(3)])
    coords += 0.01 * np.random.default_rng(0).standard_normal(coords.shape)
    assert checks.purity(truth, truth) == 1.0
    assert checks.knn_recall(coords, truth, k=5) == 1.0
    assert checks.purity(np.arange(30) % 3, truth) < 0.95
    assert checks.knn_recall(coords, np.arange(30) % 3, k=5) < 0.9


def test_input_affinities_hit_the_perplexity():
    x = np.random.default_rng(1).standard_normal((40, 5))
    cond = checks.conditional_affinities(x, 8.0)
    nz = np.where(cond > 0, cond, 1.0)
    assert np.allclose(np.exp(-(cond * np.log(nz)).sum(axis=1)), 8.0)
    assert np.allclose(cond.sum(axis=1), 1.0) and np.all(np.diag(cond) == 0)
    p = checks.input_affinities(x, 8.0)
    assert np.allclose(p, p.T) and np.isclose(p.sum(), 1.0)


def test_layout_kl_prefers_structure_over_noise():
    rng = np.random.default_rng(2)
    truth = np.repeat(np.arange(2), 20)
    x = 5.0 * truth[:, None] + rng.standard_normal((40, 4))
    p = checks.input_affinities(x, 5.0)
    good = np.c_[10.0 * truth, np.zeros(40)] + rng.standard_normal((40, 2))
    noise = 1e-4 * rng.standard_normal((40, 2))
    assert checks.layout_kl(p, good) < checks.layout_kl(p, noise)


def test_telemetry_is_whole_window_segments_from_the_seed():
    rows_a, labels_a = workloads.make_telemetry(7, n_windows=40)
    rows_b, labels_b = workloads.make_telemetry(7, n_windows=40)
    assert rows_a == rows_b and np.array_equal(labels_a, labels_b)
    assert len(rows_a) == 400 and np.bincount(labels_a).tolist() == [14, 13, 13]


# ---------------------------------------------------------------- runner


class FakeWorkload:
    name = "fake"

    def __init__(self, calls):
        self._calls = calls

    def calls(self, out):
        return self._calls


def fake_cli(code: int, message: str):
    def main(argv):
        print(message, file=sys.stderr)
        return code

    return main


def test_known_fault_counts_as_failed(tmp_path):
    wl = FakeWorkload([workloads.Call("fx", ("market",), timed=False, known_fault="bad sector")])
    times, ok, failed = bench_run.run_round(wl, tmp_path, fake_cli(1, "error: bad sector 'x'"))
    assert (times, ok, failed) == ({}, set(), 1)


@pytest.mark.parametrize("code,message", [(1, "error: other"), (2, "config error: bad sector")])
def test_other_failures_stop_the_benchmark(tmp_path, code, message):
    wl = FakeWorkload([workloads.Call("fx", ("market",), known_fault="bad sector")])
    with pytest.raises(bench_run.BenchError):
        bench_run.run_round(wl, tmp_path, fake_cli(code, message))


def test_same_tree_finds_changed_and_missing_files(tmp_path):
    a, b = tmp_path / "a", tmp_path / "b"
    for root in (a, b):
        (root / "sub").mkdir(parents=True)
        (root / "sub" / "x.csv").write_text("1\n")
        (root / "y.csv").write_text("2\n")
    assert bench_run.same_tree(a, b) == []
    (b / "sub" / "x.csv").write_text("3\n")
    (b / "y.csv").unlink()
    assert sorted(bench_run.same_tree(a, b)) == ["sub/x.csv", "y.csv"]


# ---------------------------------------------------------------- tracing


def test_tracer_counts_and_restores():
    from hrl_lab import rl_core

    original = rl_core.update_row
    row = np.zeros(3)
    with tracing.Tracer() as tracer:
        assert rl_core.update_row is not original
        rl_core.q_update(rl_core.QTable(3, states=[0, 1]), rl_core.LearningParams(),
                         rl_core.Transition(0, 1, 1.0, 1))
        rl_core.update_row(row, 0, 1.0, None, rl_core.LearningParams())
    assert rl_core.update_row is original
    assert tracer.absent == []
    assert tracer.stats["rl_core.update_row"].calls == 2
    st = tracer.stats["rl_core.update_row"]
    assert 0 <= st.self_s <= st.total_s


def test_missing_site_is_absent_not_an_error():
    assert tracing._site("hrl_lab.rl_core:no_such_function") is None
    assert tracing._site("hrl_lab.no_such_module:f") is None
    assert tracing._site("hrl_lab.harness.experiments:MARKET_AGENTS[no_such_agent]") is None


def test_benchmark_json_lists_the_metrics_the_runs_print():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracing.metric_units()
    facts = {
        "market": {"dqn_ticks": 1, "table_ticks": 1,
                   "ticks_to_double": {"feudal": 1, "tabular": 1, "dqn": 1}},
        "maze": {"steps": 1, "convergence": {"flat": 1, "feudal_quadrant": 1}},
        "embed": {"tsne_kl": 1.0},
    }
    rounds = {
        "market": {"dqn_0": 1, **{f"{a}_0": 1 for a in workloads.TABLE_AGENTS}}, "maze": {"maze_0": 1, "report": 1},
        "embed": {"large": 1, "small_0": 1},
    }
    for name, cls in workloads.WORKLOADS.items():
        wl = cls(0, Path("."))
        wl.small = {"iterations": "500"}
        figures = wl.figures(facts[name], rounds[name])
        assert figures and all(v > 0 for v, _ in figures.values())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == bench_run.END_TO_END
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
