from pathlib import Path

import numpy as np
import pytest

from hrl_lab.maze import agents
from hrl_lab.maze.agents import (
    default_params,
    greedy_path_len,
    run_feudal,
    run_flat_q,
    run_instruction,
)
from hrl_lab.maze.env import MazeAction, build_levels, load_maze, make_maze, shortest_path_len
from hrl_lab.rl_core import ExplorationSchedule, QTable, RunRow

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "maze4x4.txt"

BASE = 0.00625  # per-action cost on a 4x4 level


def fixture_maze():
    return load_maze(FIXTURE)


def assert_exact_accounting(rows):
    """Every logged worker episode is either solved (1 - (steps-1)*base) or
    capped out (-steps*base), bit-exactly."""
    for r in rows:
        solved = 1.0 - (r.steps - 1) * BASE
        capped = -r.steps * BASE
        assert abs(r.reward - solved) < 1e-12 or abs(r.reward - capped) < 1e-12, (
            f"episode {r.episode}: reward {r.reward} matches neither "
            f"{solved} nor {capped}"
        )


def test_flat_reaches_bfs_optimum_on_fixture():
    spec = fixture_maze()
    _, table = run_flat_q(spec, episodes=500, seed=7)
    assert greedy_path_len(spec, table) == shortest_path_len(spec) == 6


def test_flat_single_episode_log():
    rows, _ = run_flat_q(make_maze(4, 4), episodes=1, seed=0)
    assert len(rows) == 1
    assert rows[0].episode == 0
    assert rows[0].steps >= 1


def test_flat_zero_epsilon_is_deterministic():
    spec = fixture_maze()
    sched = ExplorationSchedule(epsilon0=0.0, decay=0.5, epsilon_min=0.0)
    a, _ = run_flat_q(spec, schedule=sched, episodes=40, seed=1)
    b, _ = run_flat_q(spec, schedule=sched, episodes=40, seed=2)
    # rows carry their seed, so compare what the runs did, not whose they are
    assert [(r.episode, r.steps, r.reward, r.value) for r in a] == [
        (r.episode, r.steps, r.reward, r.value) for r in b
    ]


def test_flat_reward_accounting_exact():
    rows, _ = run_flat_q(fixture_maze(), episodes=200, seed=3)
    assert_exact_accounting(rows)
    assert all(r.reward <= 1.0 for r in rows)
    assert all(r.steps >= 1 for r in rows)


def test_flat_rejects_zero_episodes():
    with pytest.raises(ValueError):
        run_flat_q(make_maze(4, 4), episodes=0)


@pytest.mark.parametrize("mode", ["quadrant", "direction"])
def test_feudal_learns_and_logs_both_roles(mode):
    spec = fixture_maze()
    workers, managers = run_feudal(spec, episodes=300, seed=5, goal_mode=mode)
    assert len(workers) == len(managers) == 300
    assert_exact_accounting(workers)
    assert all(r.reward <= 1.0 for r in workers + managers)
    # solved near-optimally by the end
    final = np.mean([r.steps for r in workers[-10:]])
    assert final <= 2 * (shortest_path_len(spec) + 1)
    assert workers[-1].reward > 0.5


def test_feudal_temporal_abstraction_of_reward():
    # the worker sees strictly more reward events than the manager
    for seed in range(6):
        workers, managers = run_feudal(fixture_maze(), episodes=60, seed=seed)
        for w, m in zip(workers, managers, strict=True):
            assert w.episode == m.episode
            assert w.steps > m.steps, f"seed {seed} episode {w.episode}"


def test_feudal_rejects_bad_args():
    with pytest.raises(ValueError):
        run_feudal(fixture_maze(), goal_mode="teleport")
    with pytest.raises(ValueError):
        run_feudal(make_maze(2, 2))  # no coarse level to manage from


def test_greedy_path_none_for_blank_table():
    spec = fixture_maze()
    table = QTable(len(MazeAction), states=spec.cells())
    # all-zero table greedily walks north into the wall forever
    assert greedy_path_len(spec, table) is None


def instruction_env():
    """A 4x4 maze, its quadrant level, and a blank worker table for one goal."""
    spec = make_maze(4, 4)
    coarse = build_levels(spec, 2)[1]
    worker = QTable(5, states=spec.cells())
    return spec, coarse, worker


def test_instruction_goto_already_satisfied_is_free():
    spec, coarse, worker = instruction_env()
    out = run_instruction(
        spec, coarse, worker, default_params(), (1, 1), ("goto", (0, 0)), (0, 0),
        epsilon=0.0, rng=None, budget=5,
    )
    assert out.fine_steps == 0
    assert out.cell == (1, 1)
    assert not out.done
    assert all(row == [0.0] * 5 for row in worker.rows.values())


def test_instruction_direction_stops_on_first_transition():
    spec, coarse, worker = instruction_env()
    # walking south from (0,1) crosses into quadrant (0,1) in one step
    worker.rows[(0, 1)][MazeAction.SOUTH] = 1.0
    out = run_instruction(
        spec, coarse, worker, default_params(), (0, 1),
        ("dir", int(MazeAction.SOUTH)), (0, 1),
        epsilon=0.0, rng=None, budget=16,
    )
    assert out.fine_steps == 1
    assert coarse.map_cell(out.cell) == (0, 1)


def test_instruction_search_ends_when_leaving_quadrant():
    spec, coarse, worker = instruction_env()
    # from (1,0), greedy-zero ties walk north (blocked), so force east twice
    for cell in [(1, 0), (1, 1)]:
        worker.rows[cell][MazeAction.EAST] = 1.0
    worker.rows[(1, 0)][MazeAction.EAST] = 1.0
    out = run_instruction(
        spec, coarse, worker, default_params(), (1, 0), ("search", (0, 0)), (0, 0),
        epsilon=0.0, rng=None, budget=16,
    )
    assert out.fine_steps == 1
    assert coarse.map_cell(out.cell) == (1, 0)


def test_instruction_budget_bounds_burst():
    spec, coarse, worker = instruction_env()
    # impossible instruction: worker pinned in place by closed north wall
    out = run_instruction(
        spec, coarse, worker, default_params(), (0, 0),
        ("dir", int(MazeAction.NORTH)), (0, 0),
        epsilon=0.0, rng=None, budget=3,
    )
    assert out.fine_steps <= 3
    assert not out.done


def test_instruction_budget_guard():
    spec, coarse, worker = instruction_env()
    with pytest.raises(ValueError):
        run_instruction(
            spec, coarse, worker, default_params(), (0, 0),
            ("dir", int(MazeAction.SOUTH)), (0, 1),
            epsilon=0.0, rng=None, budget=0,
        )


@pytest.mark.parametrize("runner", ["flat", "quadrant", "direction"])
def test_one_env_step_per_logged_step(monkeypatch, runner):
    """Each logged step is one call of the module's ``step``, and every
    worker burst goes through ``run_instruction``: the benchmark's traced
    run counts both names against the run logs."""
    counts = {"step": 0, "burst_steps": 0}
    real_step, real_burst = agents.step, agents.run_instruction

    def counted_step(*args, **kwargs):
        counts["step"] += 1
        return real_step(*args, **kwargs)

    def counted_burst(*args, **kwargs):
        out = real_burst(*args, **kwargs)
        counts["burst_steps"] += out.fine_steps
        return out

    monkeypatch.setattr(agents, "step", counted_step)
    monkeypatch.setattr(agents, "run_instruction", counted_burst)
    spec = fixture_maze()
    if runner == "flat":
        rows, _ = run_flat_q(spec, episodes=30, seed=2)
        assert counts["burst_steps"] == 0
    else:
        rows, _ = run_feudal(spec, episodes=30, seed=2, goal_mode=runner)
        assert counts["burst_steps"] == sum(r.steps for r in rows)
    assert counts["step"] == sum(r.steps for r in rows) > 0


def test_episode_records_are_plain_and_comparable():
    a = RunRow(0, 0, 7, 1 - 6 * BASE)
    b = RunRow(0, 0, 7, 1 - 6 * BASE)
    assert a == b
    assert a.value is None
    assert a != RunRow(1, 0, 7, 1 - 6 * BASE)  # the seed is part of the row


def test_every_runner_returns_seed_stamped_rows():
    spec = fixture_maze()
    flat, table = run_flat_q(spec, episodes=4, seed=9)
    assert isinstance(table, QTable)
    workers, managers = run_feudal(spec, episodes=4, seed=9)
    for rows in (flat, workers, managers):
        assert [type(r) for r in rows] == [RunRow] * 4
        assert [r.seed for r in rows] == [9] * 4
        assert [r.episode for r in rows] == [0, 1, 2, 3]
        assert all(r.value is None for r in rows)
