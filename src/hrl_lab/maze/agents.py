"""Maze agents: a flat Q-learner on the fine grid, and a manager/worker pair
where the manager issues quadrant-level instructions.

The worker always has all five primitive actions, so it can stumble onto the
goal and declare mid-instruction; when that happens outside the commanded
quadrant the manager is penalised for the disobedience.

Logged rewards are environment rewards only. The worker's learning signal
adds an internal bonus for completing the instruction it was given, but that
bonus never reaches the logs, so a solved episode's logged reward is exactly
1 minus the base cost times the number of non-terminal actions.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from hrl_lab.maze.env import Cell, MazeAction, MazeLevel, MazeSpec, _DELTA, build_levels, step
from hrl_lab.rl_core import (
    ExplorationSchedule,
    LearningParams,
    QTable,
    RunRow,
    epsilon_greedy,
    select_action,
    update_row,
)


OBEDIENCE_BONUS = 0.5  # the worker's, for completing its instruction; never logged
DISOBEDIENCE_PENALTY = 0.1  # the manager's, when the worker declares off-command
WORKER_BUDGET_PER_SIDE = 2  # fine steps per burst, per unit of maze width + height
GREEDY_MOVES_PER_CELL = 4  # greedy_path_len's move cap, per maze cell


def default_params() -> LearningParams:
    return LearningParams(alpha=0.5, gamma=0.95)


def flat_schedule() -> ExplorationSchedule:
    """Epsilon is the flat learner's only exploration mechanism, so it decays
    slowly enough to cover mazes configured at run time, not just the 4x4."""
    return ExplorationSchedule(epsilon0=0.5, decay=0.95, epsilon_min=0.0)


def feudal_schedule() -> ExplorationSchedule:
    """The manager's goal-directed search replaces most random exploration,
    so the two-level agents ship with a faster-decaying epsilon."""
    return ExplorationSchedule(epsilon0=0.2, decay=0.8, epsilon_min=0.0)


def run_flat_q(
    spec: MazeSpec,
    params: LearningParams | None = None,
    schedule: ExplorationSchedule | None = None,
    episodes: int = 500,
    seed: int = 0,
    step_cap: int = 1000,
) -> tuple[list[RunRow], QTable]:
    """Train a single Q-table over (cell, action) episode by episode.

    Returns one row per episode (actions taken, environment reward) and the
    trained table."""
    if episodes < 1:
        raise ValueError(f"episodes must be >= 1, got {episodes}")
    params = params or default_params()
    schedule = schedule or flat_schedule()
    rng = np.random.default_rng(seed)
    table = QTable(len(MazeAction), states=spec.cells())
    q_rows = table.rows
    rows = []
    for ep in range(episodes):
        eps = schedule.epsilon(ep)
        cell = spec.start
        row = q_rows[cell]
        total = 0.0
        steps = 0
        for _ in range(step_cap):
            a = epsilon_greedy(row, eps, rng)
            out = step(spec, cell, a)
            steps += 1
            total += out.reward
            cell = out.cell
            next_row = None if out.done else q_rows[cell]
            update_row(row, a, out.reward, next_row, params)
            if out.done:
                break
            row = next_row
        rows.append(RunRow(seed, ep, steps, total))
    return rows, table


def greedy_path_len(spec: MazeSpec, table: QTable) -> int | None:
    """Moves the greedy policy takes before a correct Declare, or None if it
    declares off-goal or fails to finish within the move cap."""
    cell = spec.start
    moves = 0
    for _ in range(GREEDY_MOVES_PER_CELL * spec.x_dim * spec.y_dim):
        a = select_action(table, cell, 0.0)
        if a == MazeAction.DECLARE:
            return moves if cell == spec.goal else None
        moves += 1
        cell = step(spec, cell, a).cell
    return None


def _clipped_neighbor(q: Cell, action: MazeAction, spec: MazeSpec) -> Cell:
    dx, dy = _DELTA[action]
    return (
        min(max(q[0] + dx, 0), spec.x_dim - 1),
        min(max(q[1] + dy, 0), spec.y_dim - 1),
    )


class InstructionOutcome(NamedTuple):
    """Where a worker burst ended, its fine steps and environment reward,
    and whether the episode is over. A named tuple: every manager decision
    builds one, and a tuple is cheaper to construct than a frozen dataclass."""

    cell: Cell
    fine_steps: int
    env_reward: float
    done: bool


def run_instruction(
    spec: MazeSpec,
    coarse: MazeLevel,
    worker: QTable,
    params: LearningParams,
    cell: Cell,
    goal: tuple,
    commanded: Cell,
    epsilon: float,
    rng: np.random.Generator | None,
    budget: int,
) -> InstructionOutcome:
    """Let the worker act until the instruction resolves.

    ``worker`` is the worker's table for this goal, keyed by fine cell.
    A "goto" that is already satisfied consumes nothing and hands control
    straight back. A "dir" ends on the first quadrant transition, a "goto"
    on entering its target, a "search" on leaving its quadrant; all three
    also end on the budget or on a correct Declare. The worker's table is
    updated in place, with the instruction-completion bonus added to the
    learning signal and the final transition of the burst treated as
    terminal so value does not leak across instructions.
    """
    cell_of = coarse.cell_of
    kind, target = goal
    q0 = cell_of[cell]
    if kind == "goto" and q0 == target:
        return InstructionOutcome(cell, 0, 0.0, False)
    if budget < 1:
        raise ValueError(f"instruction budget must be >= 1, got {budget}")
    q_rows = worker.rows
    row = q_rows[cell]
    fine_steps = 0
    env_reward = 0.0
    while True:
        a = epsilon_greedy(row, epsilon, rng)
        out = step(spec, cell, a)
        fine_steps += 1
        env_reward += out.reward
        budget -= 1
        cell = out.cell
        new_q = cell_of[cell]
        if kind == "dir":
            instruction_met = new_q != q0
            achieved = instruction_met and new_q == commanded
        elif kind == "goto":
            instruction_met = achieved = new_q == target
        else:
            instruction_met = new_q != target
            achieved = False
        burst_over = out.done or instruction_met or budget <= 0
        bonus = OBEDIENCE_BONUS if achieved else 0.0
        next_row = None if burst_over else q_rows[cell]
        update_row(row, a, out.reward + bonus, next_row, params)
        if burst_over:
            return InstructionOutcome(cell, fine_steps, env_reward, out.done)
        row = next_row


def _instructions(coarse: MazeSpec, goal_mode: str) -> dict[Cell, list[tuple[tuple, Cell]]]:
    """For each quadrant, the (goal, commanded quadrant) of each manager
    action. A move becomes "go to that quadrant" in quadrant mode and "make
    one quadrant transition that way" in direction mode; Declare becomes
    "search the current quadrant"."""
    plans = {}
    for q in coarse.cells():
        plans[q] = []
        for ma in MazeAction:
            if ma == MazeAction.DECLARE:
                plans[q].append((("search", q), q))
                continue
            commanded = _clipped_neighbor(q, ma, coarse)
            goal = ("dir", int(ma)) if goal_mode == "direction" else ("goto", commanded)
            plans[q].append((goal, commanded))
    return plans


def run_feudal(
    spec: MazeSpec,
    params: LearningParams | None = None,
    schedule: ExplorationSchedule | None = None,
    episodes: int = 500,
    seed: int = 0,
    goal_mode: str = "quadrant",
    step_cap: int = 1000,
) -> tuple[list[RunRow], list[RunRow]]:
    """Two-level training run.

    The manager picks among the five actions on the coarse level, and each
    pick becomes an instruction (see ``_instructions``) that hands control
    to the worker for a bounded burst of fine steps. The worker keeps one
    table per goal, keyed by fine cell.

    Returns the worker's rows (fine steps, environment reward) and the
    manager's rows (decisions, manager reward), one per episode each.
    """
    if goal_mode not in ("quadrant", "direction"):
        raise ValueError(f"goal_mode must be 'quadrant' or 'direction', got {goal_mode!r}")
    if episodes < 1:
        raise ValueError(f"episodes must be >= 1, got {episodes}")
    params = params or default_params()
    schedule = schedule or feudal_schedule()
    levels = build_levels(spec, 2)
    if len(levels) < 2:
        raise ValueError("maze too small to support a manager level")
    coarse = levels[1]
    cell_of = coarse.cell_of
    base = coarse.spec.base_reward
    budget0 = WORKER_BUDGET_PER_SIDE * (spec.x_dim + spec.y_dim)
    rng = np.random.default_rng(seed)

    plans = _instructions(coarse.spec, goal_mode)
    workers = {
        goal: QTable(len(MazeAction), states=spec.cells())
        for plan in plans.values()
        for goal, _ in plan
    }
    m_rows = QTable(len(MazeAction), states=coarse.spec.cells()).rows

    worker_rows, manager_rows = [], []
    for ep in range(episodes):
        eps = schedule.epsilon(ep)
        cell = spec.start
        q0 = cell_of[cell]
        m_row = m_rows[q0]
        done = False
        fine_steps = 0
        env_reward = 0.0
        mgr_reward = 0.0
        decisions = 0
        while not done and fine_steps < step_cap and decisions < step_cap:
            ma = epsilon_greedy(m_row, eps, rng)
            decisions += 1
            goal, commanded = plans[q0][ma]
            outcome = run_instruction(
                spec,
                coarse,
                workers[goal],
                params,
                cell,
                goal,
                commanded,
                eps,
                rng,
                min(budget0, step_cap - fine_steps),
            )
            cell = outcome.cell
            fine_steps += outcome.fine_steps
            env_reward += outcome.env_reward
            done = outcome.done

            q1 = cell_of[cell]
            mr = base
            if done:
                mr += 1.0 if q1 == commanded else -DISOBEDIENCE_PENALTY
            mgr_reward += mr
            next_row = None if done else m_rows[q1]
            update_row(m_row, ma, mr, next_row, params)
            q0, m_row = q1, next_row
        worker_rows.append(RunRow(seed, ep, fine_steps, env_reward))
        manager_rows.append(RunRow(seed, ep, decisions, mgr_reward))
    return worker_rows, manager_rows
