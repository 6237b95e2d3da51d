"""Multi-resolution grid maze and the Q-learning agents that solve it."""

from hrl_lab.maze.env import (
    MazeAction,
    MazeLevel,
    MazeSpec,
    StepOutcome,
    build_levels,
    dump_maze,
    load_maze,
    make_maze,
    shortest_path_len,
    step,
)
from hrl_lab.maze.agents import greedy_path_len, run_feudal, run_flat_q

__all__ = [
    "MazeAction",
    "MazeLevel",
    "MazeSpec",
    "StepOutcome",
    "build_levels",
    "dump_maze",
    "load_maze",
    "make_maze",
    "shortest_path_len",
    "step",
    "greedy_path_len",
    "run_feudal",
    "run_flat_q",
]
