import statistics
from pathlib import Path

import numpy as np
import pytest

from hrl_lab.harness import (
    ConfigError,
    HistogramSpec,
    RunLog,
    RunRow,
    convergence_episode,
    load_config,
    parse_config_text,
    read_runlog,
    render_curves,
    render_histogram,
    summarize,
    write_runlog,
)
from hrl_lab.harness.cli import main

ROOT = Path(__file__).resolve().parent.parent
MAZE_FIXTURE = ROOT / "fixtures" / "maze4x4.txt"
TELEMETRY_FIXTURE = ROOT / "fixtures" / "telemetry.csv"


def test_parse_config_basics():
    raw = parse_config_text("a = 1\n# comment\n\nb=x=y  # trailing\n")
    assert raw == {"a": "1", "b": "x=y"}


def test_parse_config_rejects_duplicates_and_garbage():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("a = 1\na = 2\n")
    with pytest.raises(ConfigError, match="key = value"):
        parse_config_text("just some words\n")
    with pytest.raises(ConfigError, match="bad key"):
        parse_config_text("2bad = 1\n")


def write_config(tmp_path, text, name="exp.conf"):
    p = tmp_path / name
    p.write_text(text)
    return p


def test_load_config_with_overrides(tmp_path):
    p = write_config(tmp_path, f"maze_file = {MAZE_FIXTURE}\nseeds = 3,5\nagents = flat\n")
    cfg = load_config("maze", p, {"seeds": "7", "episodes": "12"})
    assert cfg.seeds == (7,)
    assert cfg.agents == ("flat",)
    assert cfg.params["episodes"] == 12
    assert cfg.params["step_cap"] == 1000


def test_config_requires_a_seed(tmp_path):
    p = write_config(tmp_path, f"maze_file = {MAZE_FIXTURE}\nseeds =\n")
    with pytest.raises(ConfigError, match="seed"):
        load_config("maze", p)


def test_config_missing_fixture(tmp_path):
    p = write_config(tmp_path, "maze_file = /no/such/maze.txt\n")
    with pytest.raises(ConfigError, match="does not exist"):
        load_config("maze", p)


def test_config_bad_numeric_value(tmp_path):
    p = write_config(tmp_path, f"maze_file = {MAZE_FIXTURE}\nepisodes = many\n")
    with pytest.raises(ConfigError, match="episodes"):
        load_config("maze", p)


def test_runlog_append_guards_episode_order():
    log = RunLog(agent="a")
    log.append(RunRow(0, 0, 5, 1.0))
    log.append(RunRow(0, 1, 4, 1.0))
    log.append(RunRow(1, 0, 9, 0.0))
    with pytest.raises(ValueError, match="append-only"):
        log.append(RunRow(0, 0, 3, 1.0))


def test_runlog_roundtrip(tmp_path):
    log = RunLog(agent="tabular")
    log.append(RunRow(0, 0, 120, 3.5, 2000.0))
    log.append(RunRow(0, 1, -1, -2.25, 900.125))
    log.append(RunRow(4, 0, 7, 0.1))
    path = tmp_path / "log.csv"
    write_runlog(log, path)
    back = read_runlog(path)
    assert back == log
    write_runlog(back, tmp_path / "again.csv")
    assert (tmp_path / "again.csv").read_bytes() == path.read_bytes()


def test_runlog_read_rejects_mixed_agents(tmp_path):
    path = tmp_path / "bad.csv"
    path.write_text(
        "agent,seed,episode,steps,reward,value\na,0,0,1,0.0,\nb,0,1,1,0.0,\n"
    )
    with pytest.raises(ValueError, match="mixed agents"):
        read_runlog(path)


def test_convergence_episode_hand_fixture():
    # Final-10 mean of the full series is 55, band is 57.75; episodes
    # 0..4 sit above it and episode 5 onward never does.
    steps = [100, 90, 80, 70, 60, 50, 40, 30, 20, 10]
    assert convergence_episode(steps) == 5


def test_convergence_episode_flat_series():
    assert convergence_episode([5] * 12) == 0


def test_convergence_episode_end_spike_never_converges():
    steps = [10] * 11 + [100]
    assert convergence_episode(steps) == 12


def test_summarize_matches_independent_recompute():
    log_a = RunLog(agent="a")
    for i, s in enumerate([10, 8, 6, 7, 5]):
        log_a.append(RunRow(0, i, s, 0.0))
    for i, s in enumerate([9, 9, 4, 4, 4]):
        log_a.append(RunRow(1, i, s, 0.0))
    log_b = RunLog(agent="b")
    log_b.append(RunRow(0, 0, 10, 1.0))

    lines = summarize([log_a, log_b]).splitlines()
    assert lines[0] == "agent,mean,median,min,max,convergence_episode"
    a = lines[1].split(",")
    pooled = [10, 8, 6, 7, 5, 9, 9, 4, 4, 4]
    assert a[0] == "a"
    assert float(a[1]) == pytest.approx(statistics.mean(pooled), abs=1e-9)
    assert float(a[2]) == pytest.approx(statistics.median(pooled), abs=1e-9)
    assert float(a[3]) == 4.0
    assert float(a[4]) == 10.0
    b = lines[2].split(",")
    assert b[0] == "b"
    assert float(b[1]) == 10.0
    assert float(b[2]) == 10.0


def test_summarize_rejects_empty():
    with pytest.raises(ValueError):
        summarize([])


def curve_log(agent, seed_series):
    log = RunLog(agent=agent)
    for seed, series in seed_series.items():
        for ep, s in enumerate(series):
            log.append(RunRow(seed, ep, s, float(-s)))
    return log


def test_render_curves_single_point():
    svg = render_curves([curve_log("solo", {0: [42]})])
    assert svg.count("<polyline") == 1
    points = svg.split('points="')[1].split('"')[0]
    assert " " not in points
    assert "solo" in svg


def test_render_curves_two_agents():
    svg = render_curves(
        [curve_log("a", {0: [5, 4, 3]}), curve_log("b", {0: [9, 9, 9]})], metric="steps"
    )
    assert svg.count("<polyline") == 2
    assert 'data-agent="a"' in svg and 'data-agent="b"' in svg


def test_render_curves_deterministic():
    logs = [curve_log("a", {0: [5, 4], 1: [7, 2]})]
    assert render_curves(logs) == render_curves(logs)


def test_render_curves_validation():
    with pytest.raises(ValueError):
        render_curves([])
    with pytest.raises(ValueError):
        render_curves([curve_log("a", {0: [1]})], metric="speed")


def histogram_counts(svg, agent=None):
    counts = []
    for chunk in svg.split("<rect ")[1:]:
        if agent is not None and f'data-agent="{agent}"' not in chunk:
            continue
        counts.append(int(chunk.split('data-count="')[1].split('"')[0]))
    return counts


def test_render_histogram_unit_width_oracle():
    svg = render_histogram({"a": [1, 1, 2]}, HistogramSpec(bin_width=1))
    assert histogram_counts(svg) == [2, 1]
    assert "(mean 1.33" in svg


def test_render_histogram_all_equal_single_bin():
    svg = render_histogram({"a": [7, 7, 7]}, HistogramSpec(bin_width=1))
    counts = histogram_counts(svg)
    assert sum(1 for c in counts if c > 0) == 1
    assert sum(counts) == 3


def test_render_histogram_per_agent_bounds():
    svg = render_histogram(
        {"near": [0.0, 1.0], "far": [100.0, 101.0]},
        HistogramSpec(bin_width=1, shared_bounds=False),
    )
    far_bins = [
        chunk.split('data-bin="')[1].split('"')[0]
        for chunk in svg.split("<rect ")[1:]
        if 'data-agent="far"' in chunk
    ]
    assert far_bins[0] == "100.00"


def test_render_histogram_shared_bounds_align_bins():
    svg = render_histogram(
        {"a": [0.0], "b": [10.0]}, HistogramSpec(bin_width=5, shared_bounds=True)
    )
    assert histogram_counts(svg, "a") == [1, 0, 0]
    assert histogram_counts(svg, "b") == [0, 0, 1]


def test_render_histogram_deterministic():
    data = {"a": [1.0, 2.0, 2.5], "b": [4.0]}
    assert render_histogram(data) == render_histogram(data)


def test_histogram_spec_validation():
    with pytest.raises(ValueError):
        HistogramSpec(bin_width=1.0, bin_count=4)
    with pytest.raises(ValueError):
        HistogramSpec(bin_count=0)
    with pytest.raises(ValueError):
        HistogramSpec(bin_width=-2.0)
    with pytest.raises(ValueError):
        HistogramSpec(bounds=(3.0, 1.0))


def test_render_histogram_rejects_empty():
    with pytest.raises(ValueError):
        render_histogram({})
    with pytest.raises(ValueError):
        render_histogram({"a": []})


def maze_config(tmp_path, out, episodes=25, seeds="0,1", agents="flat", name="exp.conf"):
    return write_config(
        tmp_path,
        f"maze_file = {MAZE_FIXTURE}\nagents = {agents}\nseeds = {seeds}\n"
        f"episodes = {episodes}\nout = {out}\n",
        name=name,
    )


def test_cli_maze_writes_runlogs(tmp_path):
    cfg = maze_config(tmp_path, tmp_path / "a")
    assert main(["maze", "--config", str(cfg)]) == 0
    log = read_runlog(tmp_path / "a" / "maze_flat.csv")
    assert log.agent == "flat"
    assert log.seeds() == [0, 1]
    assert len(log.rows) == 50


def test_cli_rerun_is_byte_identical(tmp_path):
    cfg = maze_config(tmp_path, tmp_path / "a")
    assert main(["maze", "--config", str(cfg)]) == 0
    assert main(["maze", "--config", str(cfg), "--out", str(tmp_path / "b")]) == 0
    first = (tmp_path / "a" / "maze_flat.csv").read_bytes()
    second = (tmp_path / "b" / "maze_flat.csv").read_bytes()
    assert first == second


def test_cli_seed_isolation(tmp_path):
    cfg = maze_config(tmp_path, tmp_path / "both", seeds="0,1")
    solo = maze_config(tmp_path, tmp_path / "solo", seeds="1", name="solo.conf")
    assert main(["maze", "--config", str(cfg)]) == 0
    assert main(["maze", "--config", str(solo)]) == 0
    both = read_runlog(tmp_path / "both" / "maze_flat.csv")
    alone = read_runlog(tmp_path / "solo" / "maze_flat.csv")
    assert [r for r in both.rows if r.seed == 1] == alone.rows


def test_cli_market_smoke(tmp_path):
    cfg = write_config(
        tmp_path,
        "agents = random\nseeds = 0\nn_symbols = 2\nlength = 200\n"
        f"episodes = 1\nout = {tmp_path / 'm'}\n",
    )
    assert main(["market", "--config", str(cfg)]) == 0
    log = read_runlog(tmp_path / "m" / "market_random.csv")
    assert len(log.rows) == 1
    assert log.rows[0].steps == -1
    assert log.rows[0].value is not None


def test_cli_embed_smoke_and_determinism(tmp_path):
    cfg = write_config(
        tmp_path,
        f"telemetry_csv = {TELEMETRY_FIXTURE}\nwindow = 10\nperplexity = 2\n"
        f"iterations = 40\nk = 2\nn_examples = 2\nseeds = 0\nout = {tmp_path / 'e1'}\n",
    )
    assert main(["embed", "--config", str(cfg)]) == 0
    assert main(["embed", "--config", str(cfg), "--out", str(tmp_path / "e2")]) == 0
    for name in ("embed_0.csv", "report_0.csv"):
        assert (tmp_path / "e1" / name).read_bytes() == (tmp_path / "e2" / name).read_bytes()


def test_cli_embed_runtime_failure_is_exit_1(tmp_path):
    # the config is sound; the telemetry it names goes back in time
    rows = TELEMETRY_FIXTURE.read_text().splitlines()
    telemetry = tmp_path / "t.csv"
    telemetry.write_text("\n".join([*rows, rows[1]]) + "\n")
    cfg = write_config(
        tmp_path,
        f"telemetry_csv = {telemetry}\nwindow = 10\nperplexity = 2\n"
        f"iterations = 10\nseeds = 0\nout = {tmp_path / 'e'}\n",
    )
    assert main(["embed", "--config", str(cfg)]) == 1


def test_cli_report_pipeline(tmp_path):
    maze_cfg = maze_config(tmp_path, tmp_path / "runs", agents="flat,feudal_quadrant")
    assert main(["maze", "--config", str(maze_cfg)]) == 0
    logs = f"{tmp_path}/runs/maze_flat.csv,{tmp_path}/runs/maze_feudal_quadrant.csv"
    rep_cfg = write_config(
        tmp_path,
        f"logs = {logs}\nmetric = steps\nbin_width = 25\nout = {tmp_path / 'r1'}\n",
        name="report.conf",
    )
    assert main(["report", "--config", str(rep_cfg)]) == 0
    for name in ("curves.svg", "histogram.svg", "summary.csv"):
        assert (tmp_path / "r1" / name).is_file()
    assert main(["report", "--config", str(rep_cfg), "--out", str(tmp_path / "r2")]) == 0
    for name in ("curves.svg", "histogram.svg", "summary.csv"):
        assert (tmp_path / "r1" / name).read_bytes() == (tmp_path / "r2" / name).read_bytes()


def test_cli_exit_codes_for_config_errors(tmp_path):
    assert main(["maze", "--config", str(tmp_path / "missing.conf")]) == 2
    bad_fixture = write_config(tmp_path, "maze_file = /no/such/file\n")
    assert main(["maze", "--config", str(bad_fixture)]) == 2
    unknown_agent = maze_config(tmp_path, tmp_path / "x", agents="bogus")
    assert main(["maze", "--config", str(unknown_agent)]) == 2
    cfg = maze_config(tmp_path, tmp_path / "y")
    assert main(["maze", "--config", str(cfg), "--set", "oops"]) == 2
    no_logs = write_config(tmp_path, "metric = steps\n", name="r.conf")
    assert main(["report", "--config", str(no_logs)]) == 2
    missing_logs = write_config(
        tmp_path, f"logs = {tmp_path}/ghost.csv\n", name="r2.conf"
    )
    assert main(["report", "--config", str(missing_logs)]) == 2


def test_cli_bad_usage_is_exit_2():
    assert main(["unknown-kind"]) == 2
    assert main(["maze"]) == 2


@pytest.mark.parametrize(
    "kind,assignment",
    [
        ("market", "episodez=5"),
        ("market", "episodes=-1"),
        ("report", "bin_widht=3"),
        ("report", "seeds=x"),
        ("embed", "agents=flat"),
        ("maze", "episodes=0"),
        ("maze", "step_cap=0"),
        ("embed", "k=0"),
        ("embed", "perplexity=0"),
        ("embed", "perplexity=30"),  # the fixture gives 30 windows, this needs 61
        ("embed", "eps=-1"),
        ("market", "initial_cash=0"),
        ("market", "target_multiplier=1"),
    ],
)
def test_cli_rejects_bad_keys_and_values(kind, assignment, tmp_path, monkeypatch, capsys):
    """Each probe is a config error (exit 2) whose message names the key,
    caught before any run starts."""
    monkeypatch.chdir(ROOT)  # the shipped configs name fixtures relative to the root
    argv = [kind, "--config", f"configs/{kind}.conf", "--out", str(tmp_path), "--set", assignment]
    if kind == "report":
        argv += ["--set", "logs=out/maze/maze_flat.csv"]
    assert main(argv) == 2
    assert assignment.split("=")[0] in capsys.readouterr().err


def test_cli_report_takes_no_seed(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(ROOT)
    argv = ["report", "--config", "configs/report.conf", "--out", str(tmp_path), "--seed", "7"]
    assert main(argv) == 2
    assert "seeds" in capsys.readouterr().err
