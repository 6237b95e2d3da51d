from dataclasses import FrozenInstanceError
from pathlib import Path

import numpy as np
import pytest

from hrl_lab.maze.env import (
    MazeAction,
    MazeSpec,
    build_levels,
    dump_maze,
    load_maze,
    make_maze,
    parse_maze,
    shortest_path_len,
    step,
)

FIXTURE = Path(__file__).resolve().parent.parent / "fixtures" / "maze4x4.txt"


def open_4x4():
    return make_maze(4, 4)


def fixture_maze():
    return load_maze(FIXTURE)


def test_make_maze_boundary_and_symmetry():
    spec = open_4x4()
    assert not spec.is_open((0, 0), MazeAction.NORTH)
    assert not spec.is_open((3, 3), MazeAction.EAST)
    assert spec.is_open((1, 1), MazeAction.EAST)
    assert spec.is_open((2, 1), MazeAction.WEST)


def test_make_maze_rejects_non_adjacent_edge():
    with pytest.raises(ValueError):
        make_maze(4, 4, closed_edges=(((0, 0), (2, 0)),))


def test_unreachable_goal_rejected():
    # wall off the goal cell entirely
    walls = (((2, 3), (3, 3)), ((3, 2), (3, 3)))
    with pytest.raises(ValueError):
        make_maze(4, 4, closed_edges=walls)


def test_step_costs_and_terminal():
    spec = open_4x4()
    out = step(spec, (1, 1), MazeAction.EAST)
    assert out.cell == (2, 1)
    assert out.reward == -0.00625
    assert not out.done
    # blocked move stays put but still costs
    out = step(spec, (0, 0), MazeAction.NORTH)
    assert out.cell == (0, 0)
    assert out.reward == -0.00625
    # declare off goal: base cost, episode continues
    out = step(spec, (0, 0), MazeAction.DECLARE)
    assert out.cell == (0, 0)
    assert out.reward == -0.00625
    assert not out.done
    out = step(spec, (3, 3), MazeAction.DECLARE)
    assert out.reward == 1.0
    assert out.done


def test_coarse_level_base_cost():
    coarse = build_levels(open_4x4(), 2)[1].spec
    assert coarse.base_reward == -0.025
    assert step(coarse, (0, 0), MazeAction.SOUTH).reward == -0.025


def test_step_rejects_out_of_bounds():
    with pytest.raises(ValueError):
        step(open_4x4(), (4, 0), MazeAction.NORTH)
    for action in (-1, len(MazeAction)):
        with pytest.raises(IndexError):
            step(open_4x4(), (1, 1), action)


def test_open_maze_coarse_level_fully_open():
    levels = build_levels(open_4x4(), 2)
    assert len(levels) == 2
    coarse = levels[1].spec
    assert coarse.x_dim == coarse.y_dim == 2
    assert coarse.is_open((0, 0), MazeAction.EAST)
    assert coarse.is_open((0, 0), MazeAction.SOUTH)
    assert coarse.is_open((1, 1), MazeAction.NORTH)
    assert coarse.is_open((1, 1), MazeAction.WEST)


def test_full_wall_closes_coarse_passage():
    walls = tuple(((1, y), (2, y)) for y in range(4))
    spec = make_maze(4, 4, closed_edges=walls, start=(0, 0), goal=(1, 3))
    coarse = build_levels(spec, 2)[1].spec
    assert not coarse.is_open((0, 0), MazeAction.EAST)
    assert not coarse.is_open((0, 1), MazeAction.EAST)
    assert coarse.is_open((0, 0), MazeAction.SOUTH)


def test_fixture_coarse_passages_match_hand_derivation():
    coarse = build_levels(fixture_maze(), 2)[1].spec
    assert not coarse.is_open((0, 0), MazeAction.EAST)  # both crossings walled
    assert coarse.is_open((0, 0), MazeAction.SOUTH)
    assert coarse.is_open((1, 0), MazeAction.SOUTH)  # one of two crossings open
    assert coarse.is_open((0, 1), MazeAction.EAST)
    assert coarse.start == (0, 0)
    assert coarse.goal == (1, 1)


def test_level_cell_mapping():
    level = build_levels(open_4x4(), 2)[1]
    assert level.map_cell((0, 0)) == (0, 0)
    assert level.map_cell((3, 2)) == (1, 1)


def test_spec_and_levels_are_read_only():
    flags = make_maze(4, 4).open_flags.copy()
    spec = MazeSpec(4, 4, flags, (0, 0), (3, 3))
    with pytest.raises(ValueError):
        spec.open_flags[1, 1, MazeAction.EAST] = False
    with pytest.raises(FrozenInstanceError):
        spec.goal = (0, 0)
    # the spec holds its own copy: the caller's array stays writable, and
    # writing it leaves the spec and its step table as they were
    flags[1, 1, MazeAction.EAST] = False
    assert spec.is_open((1, 1), MazeAction.EAST)
    assert step(spec, (1, 1), MazeAction.EAST).cell == (2, 1)
    level = build_levels(spec, 2)[1]
    with pytest.raises(FrozenInstanceError):
        level.factor = 4
    assert sorted(level.cell_of) == sorted(spec.cells())


def test_specs_compare_and_hash_by_value():
    a, b = make_maze(4, 4), make_maze(4, 4)
    assert a == b and not (a != b)
    assert hash(a) == hash(b)
    assert len({a, b, fixture_maze()}) == 2
    walled = make_maze(4, 4, closed_edges=(((1, 1), (2, 1)),))
    assert walled != a
    assert walled == make_maze(4, 4, closed_edges=(((1, 1), (2, 1)),))
    assert make_maze(4, 4, goal=(3, 2)) != a
    assert make_maze(4, 4, start=(1, 0)) != a
    assert make_maze(4, 5) != a
    assert a != "maze"


def test_build_levels_guards():
    with pytest.raises(ValueError):
        build_levels(make_maze(6, 6), 3)  # 6 not divisible by 4
    # 2x2 base: the next level would be 1x1, which is skipped
    levels = build_levels(make_maze(2, 2), 2)
    assert len(levels) == 1


def test_bfs_on_open_maze_and_degenerate_start():
    assert shortest_path_len(open_4x4()) == 6
    spec = make_maze(4, 4, start=(3, 3))
    assert shortest_path_len(spec) == 0


def test_fixture_shortest_path_is_six():
    assert shortest_path_len(fixture_maze()) == 6


def test_maze_file_round_trip():
    spec = fixture_maze()
    again = parse_maze(dump_maze(spec))
    assert np.array_equal(spec.open_flags, again.open_flags)
    assert again.start == spec.start and again.goal == spec.goal


def test_parse_rejects_broken_input():
    with pytest.raises(ValueError):
        parse_maze("00\n000\nstart=0,0\ngoal=1,1\n")
    with pytest.raises(ValueError):
        parse_maze("99\n99\n")
