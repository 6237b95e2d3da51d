import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import hrl_lab
from hrl_lab.rl_core import (
    ExplorationSchedule,
    LearningParams,
    QTable,
    ReplayBuffer,
    Transition,
    UnknownStateError,
    q_update,
    select_action,
)


def test_params_validation():
    with pytest.raises(ValueError):
        LearningParams(alpha=0.0)
    with pytest.raises(ValueError):
        LearningParams(alpha=1.5)
    with pytest.raises(ValueError):
        LearningParams(gamma=1.0)
    with pytest.raises(ValueError):
        ExplorationSchedule(epsilon0=0.2, epsilon_min=0.3)
    with pytest.raises(ValueError):
        ExplorationSchedule(decay=0.0)


def test_schedule_decays_to_floor():
    sched = ExplorationSchedule(epsilon0=1.0, decay=0.5, epsilon_min=0.1)
    assert sched.epsilon(0) == 1.0
    assert sched.epsilon(1) == 0.5
    assert sched.epsilon(2) == 0.25
    assert sched.epsilon(50) == 0.1


def test_strict_table_rejects_unknown_state():
    table = QTable(4, states=["a", "b"])
    assert table.row("a") == [0.0, 0.0, 0.0, 0.0]
    with pytest.raises(UnknownStateError):
        table.row("c")


def test_lazy_table_vivifies_zero_rows():
    table = QTable(3)
    assert "x" not in table
    row = table.row("x")
    assert row == [0.0, 0.0, 0.0]
    assert "x" in table and len(table) == 1


def test_terminal_update_ignores_next_state():
    # alpha=0.1 from zero toward r=1: first step 0.1, second 0.19
    table = QTable(2)
    params = LearningParams(alpha=0.1, gamma=0.95)
    t = Transition(s0="s", a=0, r=1.0, s="t", done=True)
    table.row("t")[:] = [100.0, 100.0]  # must not leak into the target
    assert q_update(table, params, t) == pytest.approx(0.1, abs=1e-15)
    assert q_update(table, params, t) == pytest.approx(0.19, abs=1e-15)


def test_bootstrap_update_uses_next_max():
    table = QTable(2)
    table.row("next")[:] = [0.5, 0.2]
    params = LearningParams(alpha=0.1, gamma=0.9)
    got = q_update(table, params, Transition("cur", 1, 0.0, "next"))
    # target = 0 + 0.9 * 0.5 = 0.45; new Q = 0.1 * 0.45
    assert got == pytest.approx(0.045, abs=1e-15)
    assert table.row("cur")[1] == pytest.approx(0.045, abs=1e-15)
    assert table.row("cur")[0] == 0.0


def test_update_rejects_bad_inputs():
    table = QTable(2)
    params = LearningParams()
    with pytest.raises(ValueError):
        q_update(table, params, Transition("s", 0, float("nan"), "t"))
    with pytest.raises(IndexError):
        q_update(table, params, Transition("s", 2, 0.0, "t"))


def test_greedy_pick_and_tie_break():
    table = QTable(3)
    table.row("s")[:] = [0.1, 0.9, 0.2]
    assert select_action(table, "s", 0.0) == 1
    table.row("tie")[:] = [0.5, 0.5, 0.1]
    assert select_action(table, "tie", 0.0) == 0


def test_zero_epsilon_never_touches_rng():
    table = QTable(2)
    table.row("s")[:] = [0.0, 1.0]
    # rng=None would crash on any random draw
    assert select_action(table, "s", 0.0, rng=None) == 1


def test_full_exploration_is_roughly_uniform():
    table = QTable(3)
    table.row("s")[:] = [5.0, 0.0, 0.0]  # greedy would always pick 0
    rng = np.random.default_rng(7)
    n = 3000
    counts = np.bincount(
        [select_action(table, "s", 1.0, rng) for _ in range(n)], minlength=3
    )
    sigma = np.sqrt(n * (1 / 3) * (2 / 3))
    assert np.all(np.abs(counts - n / 3) < 3 * sigma)


@given(
    q0=st.floats(-10, 10),
    qnext=st.lists(st.floats(-10, 10), min_size=2, max_size=2),
    r=st.floats(-5, 5),
    done=st.booleans(),
    alpha=st.floats(0.01, 1.0),
    gamma=st.floats(0.0, 0.99),
)
@settings(max_examples=60)
def test_update_touches_only_one_cell(q0, qnext, r, done, alpha, gamma):
    table = QTable(2)
    table.row("s0")[:] = [q0, -q0]
    table.row("s1")[:] = qnext
    params = LearningParams(alpha=alpha, gamma=gamma)
    before_other = table.row("s0")[1]
    got = q_update(table, params, Transition("s0", 0, r, "s1", done))
    target = r if done else r + gamma * max(qnext)
    assert got == pytest.approx(q0 + alpha * (target - q0), rel=1e-12, abs=1e-12)
    assert table.row("s0")[1] == before_other
    assert np.array_equal(table.row("s1"), qnext)


def test_replay_ring_evicts_oldest():
    buf = ReplayBuffer(3)
    ts = [Transition(i, 0, 0.0, i + 1) for i in range(5)]
    for t in ts:
        buf.push(t)
    assert len(buf) == 3
    assert [t.s0 for t in buf.snapshot()] == [2, 3, 4]


def test_replay_sample_is_uniform_and_nondestructive():
    buf = ReplayBuffer(5)
    for i in range(5):
        buf.push(Transition(i, 0, 0.0, i))
    rng = np.random.default_rng(11)
    n = 5000
    counts = np.bincount([buf.sample(rng).s0 for _ in range(n)], minlength=5)
    assert len(buf) == 5
    sigma = np.sqrt(n * 0.2 * 0.8)
    assert np.all(np.abs(counts - n * 0.2) < 3 * sigma)


def test_replay_guards():
    with pytest.raises(ValueError):
        ReplayBuffer(0)
    with pytest.raises(IndexError):
        ReplayBuffer(1).sample(np.random.default_rng(0))


@pytest.mark.parametrize("module", ["hrl_lab.market_agents", "hrl_lab.maze.agents"])
def test_agent_modules_import_first_in_a_fresh_interpreter(module):
    """The agents take RunRow from rl_core: importing it from the harness,
    whose package imports the agents, would be a cycle."""
    env = {**os.environ, "PYTHONPATH": str(Path(hrl_lab.__file__).resolve().parent.parent)}
    code = (
        f"import {module}, hrl_lab.harness\n"
        f"assert hrl_lab.harness.RunRow is hrl_lab.harness.runlog.RunRow is {module}.RunRow"
    )
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
