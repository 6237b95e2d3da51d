"""The maze runners against a test-side copy of the plain loops they replace.

The runners look every step up in the spec's table of outcomes, keep Q rows
as lists of Python floats, and fetch each row once per step. The reference
below keeps the straightforward form: numpy Q rows, a step computed from
``open_flags`` on every call, and a one-step update per transition through
a (cell, goal)-keyed worker table. Both must log the same rows, bit for bit.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import pytest

from hrl_lab.maze.agents import (
    DISOBEDIENCE_PENALTY,
    OBEDIENCE_BONUS,
    WORKER_BUDGET_PER_SIDE,
    default_params,
    feudal_schedule,
    flat_schedule,
    run_feudal,
    run_flat_q,
)
from hrl_lab.maze.env import MazeAction, StepOutcome, build_levels, load_maze, make_maze, step
from hrl_lab.rl_core import RunRow

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "maze4x4.txt"

_DELTA = {0: (0, -1), 1: (0, 1), 2: (1, 0), 3: (-1, 0)}


def walled_8x8():
    """An 8x8 maze with a north-south wall gapped at the bottom row and a
    wall across the lower-right quadrant's top, gapped at x = 7."""
    edges = [((3, y), (4, y)) for y in range(7)]
    edges += [((x, 3), (x, 4)) for x in range(4, 7)]
    return make_maze(8, 8, closed_edges=tuple(edges))


MAZES = {"fixture4x4": lambda: load_maze(FIXTURE), "walled8x8": walled_8x8}


# ----------------------------------------------------------------- reference


class RefTable:
    """Zero-initialised numpy rows keyed by state."""

    def __init__(self, n_actions, states):
        self.rows = {s: np.zeros(n_actions) for s in states}


def ref_step(spec, cell, action):
    x, y = cell
    if not (0 <= x < spec.x_dim and 0 <= y < spec.y_dim):
        raise ValueError(f"cell {cell} out of bounds")
    base = -0.1 / (spec.x_dim * spec.y_dim)
    if action == 4:
        if cell == spec.goal:
            return StepOutcome(cell, 1.0, True)
        return StepOutcome(cell, base, False)
    if spec.open_flags[x, y, action]:
        dx, dy = _DELTA[action]
        cell = (x + dx, y + dy)
    return StepOutcome(cell, base, False)


def ref_select(table, state, epsilon, rng):
    row = table.rows[state]
    if epsilon > 0.0 and rng.random() < epsilon:
        return int(rng.integers(len(row)))
    return int(row.argmax())


def ref_q_update(table, params, s0, a, r, s, done):
    row0 = table.rows[s0]
    target = r if done else r + params.gamma * max(table.rows[s].tolist())
    q = float(row0[a])
    q += params.alpha * (target - q)
    row0[a] = q


def ref_run_flat_q(spec, episodes, seed, step_cap):
    params, schedule = default_params(), flat_schedule()
    rng = np.random.default_rng(seed)
    table = RefTable(5, spec.cells())
    rows = []
    for ep in range(episodes):
        eps = schedule.epsilon(ep)
        cell = spec.start
        total = 0.0
        steps = 0
        for _ in range(step_cap):
            a = ref_select(table, cell, eps, rng)
            out = ref_step(spec, cell, a)
            steps += 1
            total += out.reward
            ref_q_update(table, params, cell, a, out.reward, out.cell, out.done)
            cell = out.cell
            if out.done:
                break
        rows.append(RunRow(seed, ep, steps, total))
    return rows, table


def ref_quadrant(cell):
    return (cell[0] // 2, cell[1] // 2)


def ref_run_instruction(spec, worker, params, cell, goal, commanded, epsilon, rng, budget):
    if goal[0] == "goto" and ref_quadrant(cell) == goal[1]:
        return cell, 0, 0.0, False
    q0 = ref_quadrant(cell)
    fine_steps = 0
    env_reward = 0.0
    while True:
        wstate = (cell, goal)
        wa = ref_select(worker, wstate, epsilon, rng)
        out = ref_step(spec, cell, wa)
        fine_steps += 1
        env_reward += out.reward
        budget -= 1
        new_q = ref_quadrant(out.cell)
        if goal[0] == "dir":
            instruction_met = new_q != q0
            achieved = instruction_met and new_q == commanded
        elif goal[0] == "goto":
            instruction_met = new_q == goal[1]
            achieved = instruction_met
        else:
            instruction_met = new_q != goal[1]
            achieved = False
        burst_over = out.done or instruction_met or budget <= 0
        bonus = OBEDIENCE_BONUS if achieved else 0.0
        ref_q_update(worker, params, wstate, wa, out.reward + bonus, (out.cell, goal), burst_over)
        cell = out.cell
        if burst_over:
            return cell, fine_steps, env_reward, out.done


def ref_run_feudal(spec, episodes, seed, goal_mode, step_cap):
    params, schedule = default_params(), feudal_schedule()
    coarse = build_levels(spec, 2)[1].spec
    budget0 = WORKER_BUDGET_PER_SIDE * (spec.x_dim + spec.y_dim)
    rng = np.random.default_rng(seed)
    quadrants = coarse.cells()
    goals = [("dir", d) for d in range(4)]
    goals += [("goto", q) for q in quadrants]
    goals += [("search", q) for q in quadrants]
    worker = RefTable(5, [(c, g) for c in spec.cells() for g in goals])
    manager = RefTable(5, quadrants)

    def clipped(q, ma):
        dx, dy = _DELTA[ma]
        return (min(max(q[0] + dx, 0), coarse.x_dim - 1), min(max(q[1] + dy, 0), coarse.y_dim - 1))

    worker_rows, manager_rows = [], []
    for ep in range(episodes):
        eps = schedule.epsilon(ep)
        cell = spec.start
        done = False
        fine_steps = 0
        env_reward = 0.0
        mgr_reward = 0.0
        decisions = 0
        while not done and fine_steps < step_cap and decisions < step_cap:
            q0 = ref_quadrant(cell)
            ma = ref_select(manager, q0, eps, rng)
            decisions += 1
            if ma == 4:
                goal, commanded = ("search", q0), q0
            elif goal_mode == "direction":
                goal, commanded = ("dir", ma), clipped(q0, ma)
            else:
                commanded = clipped(q0, ma)
                goal = ("goto", commanded)
            cell, n, r, done = ref_run_instruction(
                spec, worker, params, cell, goal, commanded, eps, rng,
                min(budget0, step_cap - fine_steps),
            )
            fine_steps += n
            env_reward += r
            q1 = ref_quadrant(cell)
            mr = coarse.base_reward
            if done:
                mr += 1.0 if q1 == commanded else -DISOBEDIENCE_PENALTY
            mgr_reward += mr
            ref_q_update(manager, params, q0, ma, mr, q1, done)
        worker_rows.append(RunRow(seed, ep, fine_steps, env_reward))
        manager_rows.append(RunRow(seed, ep, decisions, mgr_reward))
    return worker_rows, manager_rows


# --------------------------------------------------------------------- tests


def bits(rows):
    return [(r.seed, r.episode, r.steps, r.reward.hex(), r.value) for r in rows]


# (maze, episodes, step_cap): the fixture at the CLI's cap, and the 8x8 at a
# cap that many of its episodes hit.
CASES = [("fixture4x4", 120, 1000), ("walled8x8", 40, 150)]


@pytest.mark.parametrize("maze, episodes, step_cap", CASES)
@pytest.mark.parametrize("seed", [0, 3, 11])
def test_flat_rows_and_table_match_reference(maze, episodes, step_cap, seed):
    spec = MAZES[maze]()
    rows, table = run_flat_q(spec, episodes=episodes, seed=seed, step_cap=step_cap)
    ref_rows, ref_table = ref_run_flat_q(spec, episodes, seed, step_cap)
    assert bits(rows) == bits(ref_rows)
    for cell in spec.cells():
        got = [q.hex() for q in table.row(cell)]
        assert got == [q.hex() for q in ref_table.rows[cell].tolist()]
    if maze == "walled8x8":
        assert any(r.steps == step_cap for r in rows)  # the cap binds


@pytest.mark.parametrize("maze, episodes, step_cap", CASES)
@pytest.mark.parametrize("goal_mode", ["quadrant", "direction"])
@pytest.mark.parametrize("seed", [0, 3, 11])
def test_feudal_rows_match_reference(maze, episodes, step_cap, goal_mode, seed):
    spec = MAZES[maze]()
    workers, managers = run_feudal(
        spec, episodes=episodes, seed=seed, goal_mode=goal_mode, step_cap=step_cap
    )
    ref_workers, ref_managers = ref_run_feudal(spec, episodes, seed, goal_mode, step_cap)
    assert bits(workers) == bits(ref_workers)
    assert bits(managers) == bits(ref_managers)
    if maze == "walled8x8":
        assert any(r.steps == step_cap for r in workers)  # the cap binds


@pytest.mark.parametrize("maze", sorted(MAZES))
def test_step_table_follows_the_rule(maze):
    spec = MAZES[maze]()
    for level in build_levels(spec, 2):
        for cell in level.spec.cells():
            for a in MazeAction:
                got = step(level.spec, cell, a)
                want = ref_step(level.spec, cell, int(a))
                assert got == want
                assert got.reward.hex() == want.reward.hex()
