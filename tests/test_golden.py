"""Golden gate: the shipped configs reproduce the tracked `out/` files.

Each config reruns into a temporary directory, and `report.conf` reads the
logs of that maze run, so every tracked artifact must come back byte for
byte. The shipped market fixture pair has no tracked output; it must run
cleanly and give the same bytes on a rerun.
"""

from pathlib import Path

from hrl_lab.harness import load_config
from hrl_lab.harness.cli import main

ROOT = Path(__file__).resolve().parent.parent
GOLDEN = {
    "maze": ("maze_feudal_direction.csv", "maze_feudal_quadrant.csv", "maze_flat.csv"),
    "market": ("market_random.csv", "market_tabular.csv"),
    "embed": ("embed_0.csv", "report_0.csv"),
    "report": ("curves.svg", "histogram.svg", "summary.csv"),
}


def run(kind, config, out, *extra):
    assert main([kind, "--config", f"configs/{config}.conf", "--out", str(out), *extra]) == 0
    return sorted(p.name for p in out.iterdir())


def test_shipped_configs_reproduce_tracked_outputs(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)  # the configs name fixtures relative to the root
    made = {kind: run(kind, kind, tmp_path / kind) for kind in ("maze", "market", "embed")}
    tracked_logs = load_config("report", "configs/report.conf").params["logs"]
    logs = ",".join(str(tmp_path / "maze" / Path(p).name) for p in tracked_logs)
    made["report"] = run("report", "report", tmp_path / "report", "--set", f"logs={logs}")

    assert made == {kind: sorted(names) for kind, names in GOLDEN.items()}
    for kind, names in GOLDEN.items():
        for name in names:
            got = (tmp_path / kind / name).read_bytes()
            assert got == (ROOT / "out" / kind / name).read_bytes(), f"{kind}/{name}"


def test_market_fixture_config_reruns_byte_identical(tmp_path, monkeypatch):
    monkeypatch.chdir(ROOT)
    names = ["market_random.csv", "market_tabular.csv"]
    assert run("market", "market_fixture", tmp_path / "a") == names
    assert run("market", "market_fixture", tmp_path / "b") == names
    for name in names:
        assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()
