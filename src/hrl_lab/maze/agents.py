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

from dataclasses import dataclass

import numpy as np

from hrl_lab.maze.env import MazeAction, MazeLevel, MazeSpec, _DELTA, build_levels, step
from hrl_lab.rl_core import (
    ExplorationSchedule,
    LearningParams,
    QTable,
    RunRow,
    Transition,
    q_update,
    select_action,
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
    rows = []
    for ep in range(episodes):
        eps = schedule.epsilon(ep)
        cell = spec.start
        total = 0.0
        steps = 0
        for _ in range(step_cap):
            a = select_action(table, cell, eps, rng)
            out = step(spec, cell, MazeAction(a))
            steps += 1
            total += out.reward
            q_update(table, params, Transition(cell, a, out.reward, out.cell, out.done))
            cell = out.cell
            if out.done:
                break
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
        cell = step(spec, cell, MazeAction(a)).cell
    return None


def _clipped_neighbor(q: tuple[int, int], action: MazeAction, spec: MazeSpec):
    dx, dy = _DELTA[action]
    return (
        min(max(q[0] + dx, 0), spec.x_dim - 1),
        min(max(q[1] + dy, 0), spec.y_dim - 1),
    )


@dataclass(frozen=True)
class InstructionOutcome:
    cell: tuple[int, int]
    fine_steps: int
    env_reward: float
    done: bool


def run_instruction(
    spec: MazeSpec,
    coarse: MazeLevel,
    worker: QTable,
    params: LearningParams,
    cell: tuple[int, int],
    goal: tuple,
    commanded: tuple[int, int],
    epsilon: float,
    rng: np.random.Generator | None,
    budget: int,
) -> InstructionOutcome:
    """Let the worker act until the instruction resolves.

    A "goto" that is already satisfied consumes nothing and hands control
    straight back. A "dir" ends on the first quadrant transition, a "goto"
    on entering its target, a "search" on leaving its quadrant; all three
    also end on the budget or on a correct Declare. The worker's table is
    updated in place, with the instruction-completion bonus added to the
    learning signal and the final transition of the burst treated as
    terminal so value does not leak across instructions.
    """
    if goal[0] == "goto" and coarse.map_cell(cell) == goal[1]:
        return InstructionOutcome(cell, 0, 0.0, False)
    if budget < 1:
        raise ValueError(f"instruction budget must be >= 1, got {budget}")
    q0 = coarse.map_cell(cell)
    fine_steps = 0
    env_reward = 0.0
    while True:
        wstate = (cell, goal)
        wa = select_action(worker, wstate, epsilon, rng)
        out = step(spec, cell, MazeAction(wa))
        fine_steps += 1
        env_reward += out.reward
        budget -= 1
        new_q = coarse.map_cell(out.cell)
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
        q_update(
            worker,
            params,
            Transition(wstate, wa, out.reward + bonus, (out.cell, goal), burst_over),
        )
        cell = out.cell
        if burst_over:
            return InstructionOutcome(cell, fine_steps, env_reward, out.done)


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

    The manager picks among the five actions on the coarse level. A move
    becomes an instruction: in quadrant mode "go to that quadrant", in
    direction mode "make one quadrant transition that way". Declare becomes
    "search the current quadrant". Each instruction hands control to the
    worker for a bounded burst of fine steps.

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
    budget0 = WORKER_BUDGET_PER_SIDE * (spec.x_dim + spec.y_dim)
    rng = np.random.default_rng(seed)

    quadrants = coarse.spec.cells()
    goals = [("dir", int(d)) for d in range(4)]
    goals += [("goto", q) for q in quadrants]
    goals += [("search", q) for q in quadrants]
    worker = QTable(len(MazeAction), states=[(c, g) for c in spec.cells() for g in goals])
    manager = QTable(len(MazeAction), states=quadrants)

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
            q0 = coarse.map_cell(cell)
            ma = select_action(manager, q0, eps, rng)
            decisions += 1
            if ma == MazeAction.DECLARE:
                goal = ("search", q0)
                commanded = q0
            elif goal_mode == "direction":
                goal = ("dir", int(ma))
                commanded = _clipped_neighbor(q0, MazeAction(ma), coarse.spec)
            else:
                commanded = _clipped_neighbor(q0, MazeAction(ma), coarse.spec)
                goal = ("goto", commanded)

            outcome = run_instruction(
                spec,
                coarse,
                worker,
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

            q1 = coarse.map_cell(cell)
            mr = coarse.spec.base_reward
            if done:
                mr += 1.0 if q1 == commanded else -DISOBEDIENCE_PENALTY
            mgr_reward += mr
            q_update(manager, params, Transition(q0, ma, mr, q1, done))
        worker_rows.append(RunRow(seed, ep, fine_steps, env_reward))
        manager_rows.append(RunRow(seed, ep, decisions, mgr_reward))
    return worker_rows, manager_rows
