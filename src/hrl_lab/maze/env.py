"""Grid maze with per-cell wall flags and coarser derived levels.

Cells are (x, y) with y growing downward, so North is y-1. A maze file is a
grid of hex nibbles (one per cell, bit set = wall closed, bit order N,S,E,W
from bit 0) followed by ``start=x,y`` and ``goal=x,y`` lines.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from enum import IntEnum

import numpy as np

Cell = tuple[int, int]


class MazeAction(IntEnum):
    NORTH = 0
    SOUTH = 1
    EAST = 2
    WEST = 3
    DECLARE = 4


_DELTA = {
    MazeAction.NORTH: (0, -1),
    MazeAction.SOUTH: (0, 1),
    MazeAction.EAST: (1, 0),
    MazeAction.WEST: (-1, 0),
}

_OPPOSITE = {
    MazeAction.NORTH: MazeAction.SOUTH,
    MazeAction.SOUTH: MazeAction.NORTH,
    MazeAction.EAST: MazeAction.WEST,
    MazeAction.WEST: MazeAction.EAST,
}


@dataclass(frozen=True)
class StepOutcome:
    cell: Cell
    reward: float
    done: bool


@dataclass(frozen=True)
class MazeSpec:
    """A rectangular maze: open_flags[x, y, d] says direction d is passable.

    The spec is immutable: its flags are a read-only copy, and the
    ``StepOutcome`` of every (cell, action) is built once, at construction,
    for ``step`` to look up.
    """

    x_dim: int
    y_dim: int
    open_flags: np.ndarray
    start: Cell
    goal: Cell
    outcomes: dict[Cell, tuple[StepOutcome, ...]] = field(
        init=False, repr=False, compare=False
    )

    def __post_init__(self) -> None:
        flags = self.open_flags.copy()
        flags.setflags(write=False)
        object.__setattr__(self, "open_flags", flags)
        if self.x_dim < 1 or self.y_dim < 1:
            raise ValueError(f"bad dimensions {self.x_dim}x{self.y_dim}")
        if self.open_flags.shape != (self.x_dim, self.y_dim, 4):
            raise ValueError(f"open_flags shape {self.open_flags.shape} mismatch")
        for name, cell in (("start", self.start), ("goal", self.goal)):
            if not self.in_bounds(cell):
                raise ValueError(f"{name} {cell} out of bounds")
        if np.any(self.open_flags[:, 0, MazeAction.NORTH]):
            raise ValueError("north boundary must be closed")
        if np.any(self.open_flags[:, -1, MazeAction.SOUTH]):
            raise ValueError("south boundary must be closed")
        if np.any(self.open_flags[-1, :, MazeAction.EAST]):
            raise ValueError("east boundary must be closed")
        if np.any(self.open_flags[0, :, MazeAction.WEST]):
            raise ValueError("west boundary must be closed")
        for x in range(self.x_dim):
            for y in range(self.y_dim):
                for d, (dx, dy) in _DELTA.items():
                    nx, ny = x + dx, y + dy
                    if not self.in_bounds((nx, ny)):
                        continue
                    if self.open_flags[x, y, d] != self.open_flags[nx, ny, _OPPOSITE[d]]:
                        raise ValueError(f"asymmetric wall at {(x, y)} direction {d.name}")
        if shortest_path_len(self) is None:
            raise ValueError(f"goal {self.goal} unreachable from start {self.start}")
        outcomes = {
            cell: tuple(_outcome(self, cell, a) for a in MazeAction)
            for cell in self.cells()
        }
        object.__setattr__(self, "outcomes", outcomes)

    @property
    def base_reward(self) -> float:
        return -0.1 / (self.x_dim * self.y_dim)

    def in_bounds(self, cell: Cell) -> bool:
        return 0 <= cell[0] < self.x_dim and 0 <= cell[1] < self.y_dim

    def is_open(self, cell: Cell, direction: MazeAction) -> bool:
        return bool(self.open_flags[cell[0], cell[1], direction])

    def cells(self) -> list[Cell]:
        return [(x, y) for x in range(self.x_dim) for y in range(self.y_dim)]

    def neighbors(self, cell: Cell) -> list[Cell]:
        out = []
        for d, (dx, dy) in _DELTA.items():
            if self.is_open(cell, d):
                out.append((cell[0] + dx, cell[1] + dy))
        return out


def step(spec: MazeSpec, cell: Cell, action: int) -> StepOutcome:
    """One action, looked up in the spec's table of outcomes. An action
    outside 0-4 raises IndexError."""
    outcomes = spec.outcomes.get(cell)
    if outcomes is None:
        raise ValueError(f"cell {cell} out of bounds")
    if action < 0:
        raise IndexError(f"action {action} out of range")
    return outcomes[action]


def _outcome(spec: MazeSpec, cell: Cell, action: MazeAction) -> StepOutcome:
    """The step rule. Moves into closed walls stay put but still pay the base
    cost; Declare pays 1 and ends the episode on the goal cell, and pays the
    base cost anywhere else."""
    if action == MazeAction.DECLARE:
        if cell == spec.goal:
            return StepOutcome(cell, 1.0, True)
        return StepOutcome(cell, spec.base_reward, False)
    if spec.is_open(cell, action):
        dx, dy = _DELTA[action]
        cell = (cell[0] + dx, cell[1] + dy)
    return StepOutcome(cell, spec.base_reward, False)


def make_maze(
    x_dim: int,
    y_dim: int,
    closed_edges: tuple[tuple[Cell, Cell], ...] = (),
    start: Cell = (0, 0),
    goal: Cell | None = None,
) -> MazeSpec:
    """Maze with all interior passages open except the listed cell pairs."""
    flags = np.zeros((x_dim, y_dim, 4), dtype=bool)
    flags[:, 1:, MazeAction.NORTH] = True
    flags[:, :-1, MazeAction.SOUTH] = True
    flags[:-1, :, MazeAction.EAST] = True
    flags[1:, :, MazeAction.WEST] = True
    for a, b in closed_edges:
        dx, dy = b[0] - a[0], b[1] - a[1]
        for d, delta in _DELTA.items():
            if delta == (dx, dy):
                flags[a[0], a[1], d] = False
                flags[b[0], b[1], _OPPOSITE[d]] = False
                break
        else:
            raise ValueError(f"cells {a} and {b} are not adjacent")
    if goal is None:
        goal = (x_dim - 1, y_dim - 1)
    return MazeSpec(x_dim, y_dim, flags, start, goal)


def shortest_path_len(spec: MazeSpec, start: Cell | None = None) -> int | None:
    """Minimal number of moves start -> goal by BFS, None if unreachable."""
    start = spec.start if start is None else start
    seen = {start: 0}
    queue = deque([start])
    while queue:
        cell = queue.popleft()
        if cell == spec.goal:
            return seen[cell]
        for nxt in spec.neighbors(cell):
            if nxt not in seen:
                seen[nxt] = seen[cell] + 1
                queue.append(nxt)
    return None


@dataclass(frozen=True)
class MazeLevel:
    """One resolution of the hierarchy; factor maps fine cells to this level.

    ``cell_of`` holds that map for every cell of the finest maze, whose
    sides are this level's times the factor.
    """

    spec: MazeSpec
    factor: int
    cell_of: dict[Cell, Cell] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        f = self.factor
        cell_of = {
            (x, y): (x // f, y // f)
            for x in range(self.spec.x_dim * f)
            for y in range(self.spec.y_dim * f)
        }
        object.__setattr__(self, "cell_of", cell_of)

    def map_cell(self, fine_cell: Cell) -> Cell:
        return self.cell_of[fine_cell]


def _coarsen(spec: MazeSpec) -> MazeSpec:
    """Halve both dimensions; a coarse passage is open iff any fine passage
    crosses the corresponding block boundary."""
    cx, cy = spec.x_dim // 2, spec.y_dim // 2
    flags = np.zeros((cx, cy, 4), dtype=bool)
    for x in range(cx):
        for y in range(cy):
            if x + 1 < cx:
                crossing = spec.open_flags[2 * x + 1, 2 * y : 2 * y + 2, MazeAction.EAST]
                flags[x, y, MazeAction.EAST] = flags[x + 1, y, MazeAction.WEST] = bool(
                    crossing.any()
                )
            if y + 1 < cy:
                crossing = spec.open_flags[2 * x : 2 * x + 2, 2 * y + 1, MazeAction.SOUTH]
                flags[x, y, MazeAction.SOUTH] = flags[x, y + 1, MazeAction.NORTH] = bool(
                    crossing.any()
                )
    start = (spec.start[0] // 2, spec.start[1] // 2)
    goal = (spec.goal[0] // 2, spec.goal[1] // 2)
    return MazeSpec(cx, cy, flags, start, goal)


def build_levels(spec: MazeSpec, n_levels: int) -> list[MazeLevel]:
    """Level 0 is the maze itself; each further level halves both dimensions.
    A would-be 1x1 level is skipped."""
    if n_levels < 1:
        raise ValueError(f"n_levels must be >= 1, got {n_levels}")
    scale = 2 ** (n_levels - 1)
    if spec.x_dim % scale or spec.y_dim % scale:
        raise ValueError(
            f"{spec.x_dim}x{spec.y_dim} maze does not divide into {n_levels} levels"
        )
    levels = [MazeLevel(spec, 1)]
    current = spec
    for i in range(1, n_levels):
        if current.x_dim // 2 == 1 and current.y_dim // 2 == 1:
            break
        current = _coarsen(current)
        levels.append(MazeLevel(current, 2**i))
    return levels


def dump_maze(spec: MazeSpec) -> str:
    """Text form: hex nibble per cell (bit set = wall closed), row per y."""
    lines = []
    for y in range(spec.y_dim):
        nibbles = []
        for x in range(spec.x_dim):
            bits = 0
            for d in _DELTA:
                if not spec.open_flags[x, y, d]:
                    bits |= 1 << d
            nibbles.append(f"{bits:x}")
        lines.append("".join(nibbles))
    lines.append(f"start={spec.start[0]},{spec.start[1]}")
    lines.append(f"goal={spec.goal[0]},{spec.goal[1]}")
    return "\n".join(lines) + "\n"


def parse_maze(text: str) -> MazeSpec:
    rows: list[str] = []
    start = goal = None
    for raw in text.splitlines():
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("start="):
            x, y = line.removeprefix("start=").split(",")
            start = (int(x), int(y))
        elif line.startswith("goal="):
            x, y = line.removeprefix("goal=").split(",")
            goal = (int(x), int(y))
        else:
            rows.append(line)
    if not rows or start is None or goal is None:
        raise ValueError("maze file needs a grid plus start= and goal= lines")
    y_dim = len(rows)
    x_dim = len(rows[0])
    if any(len(r) != x_dim for r in rows):
        raise ValueError("ragged maze grid")
    flags = np.zeros((x_dim, y_dim, 4), dtype=bool)
    for y, row in enumerate(rows):
        for x, ch in enumerate(row):
            bits = int(ch, 16)
            for d in _DELTA:
                flags[x, y, d] = not bits & (1 << d)
    return MazeSpec(x_dim, y_dim, flags, start, goal)


def load_maze(path) -> MazeSpec:
    with open(path) as fh:
        return parse_maze(fh.read())
