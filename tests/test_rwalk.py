import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from failsim.dist import Exponential
from failsim.procgen import generate_renewal
from failsim.restart import run_restart
from failsim.rwalk import (
    WalkTrace,
    estimate_walk_constants,
    find_regenerations,
    simulate_walk,
    simulate_walk_restart,
    walk_constants,
    walk_efficiency,
)


def window(n=5000, seed=13):
    return generate_renewal(Exponential(2.0), n, seed=seed, mark_law=Exponential(1.0))


def test_walk_steps_are_unit():
    steps = simulate_walk(0.3, 1000, seed=4)
    assert set(np.unique(steps)) <= {-1, 1}


def test_walk_p_zero_is_deterministic_ascent():
    steps = simulate_walk(0.0, 50, seed=4)
    assert np.array_equal(steps, np.ones(50, dtype=np.int64))


def test_walk_down_step_frequency():
    steps = simulate_walk(0.25, 200_000, seed=8)
    freq_down = np.mean(steps == -1)
    assert abs(freq_down - 0.25) < 4 * math.sqrt(0.25 * 0.75 / len(steps))


def test_find_regenerations_confirmed_epochs():
    # confirmed epochs: the walk never dips below the level reached there
    run = simulate_walk_restart(window(200, seed=3), 0.25, 200)
    epochs, censored = find_regenerations(run.trace)
    positions = np.asarray(run.trace.positions)
    for e in epochs:
        level = positions[e - 1] if e > 0 else 0
        assert np.all(positions[e - 1:] >= level) if e > 0 else np.all(positions >= 0)
    assert censored >= 0


def regenerations_level_by_level(trace):
    """The per-level loop that find_regenerations replaced, as its reference."""
    pos = trace.positions
    suffix_min = np.minimum.accumulate(pos[::-1])[::-1]
    epochs = []
    censored = 0
    for level, k in enumerate(trace.ladder_epochs, start=1):
        if suffix_min[k] >= level:
            epochs.append(int(k))
        elif k == trace.ladder_epochs[-1]:
            censored += 1
    if suffix_min[0] >= 0:
        epochs.insert(0, 0)
    return np.asarray(epochs, dtype=np.int64), censored


@settings(max_examples=80, deadline=None)
@given(st.floats(min_value=0.0, max_value=0.49, exclude_max=True),
       st.integers(min_value=1, max_value=400), st.integers(min_value=0, max_value=2**31))
def test_find_regenerations_matches_the_level_loop(p, n_steps, seed):
    # a walk cut after n_steps: its last ladder epochs may be censored, and
    # a walk that never rises has none
    steps = simulate_walk(p, n_steps, seed)
    positions = np.concatenate(([0], np.cumsum(steps)))
    ladder = np.searchsorted(np.maximum.accumulate(positions),
                             np.arange(1, positions.max() + 1), side="left")
    trace = WalkTrace(p=p, steps=steps, positions=positions, ladder_epochs=ladder)
    epochs, censored = find_regenerations(trace)
    ref_epochs, ref_censored = regenerations_level_by_level(trace)
    assert epochs.dtype == ref_epochs.dtype
    assert epochs.tolist() == ref_epochs.tolist()
    assert censored == ref_censored


def test_p_zero_reproduces_plain_restart_exactly():
    w = window(400)
    run = simulate_walk_restart(w, 0.0, 400)
    plain = run_restart(w, 400)
    # level records in ascent order correspond one-to-one to the tasks
    assert len(run.records) == len(plain)
    assert run.records.actual.tolist() == plain.actual.tolist()
    assert run.records.ideal.tolist() == plain.ideal.tolist()
    assert run.records.n_visits.tolist() == [1] * len(plain)


def test_revisits_reuse_independent_marks():
    # a task revisited after a down-step must draw fresh marks, so the two
    # visit actuals are almost surely different
    w = window(2000, seed=21)
    run = simulate_walk_restart(w, 0.4, 300)
    idx = np.asarray(run.task_index)
    times = np.asarray(run.visit_times)
    for task in np.unique(idx):
        visits = times[idx == task]
        if len(visits) >= 2:
            assert len(np.unique(visits)) > 1
            break
    else:
        pytest.skip("no revisited task in this realization")


def test_walk_efficiency_report():
    run = simulate_walk_restart(window(30_000), 0.25, 30_000)
    epochs, _ = find_regenerations(run.trace)
    rep = walk_efficiency(run, epochs, min_blocks=10)
    assert 0.0 <= rep.direct.ratio <= 1.0
    assert rep.n_blocks >= 10
    assert rep.mean_block_time > 0
    # direct and block-formula estimates agree loosely at this scale
    assert rep.formula_ratio == pytest.approx(rep.direct.ratio, rel=0.2)


def test_walk_constants_match_theory():
    out = estimate_walk_constants(0.25, seed=5, n_walks=1500, horizon=4000)
    gamma, gamma_se = out["gamma"]
    rho, rho_se = out["rho"]
    # never-below-zero probability (1-2p)/(1-p) and mean visits 1/(1-2p)
    assert abs(gamma - (0.5 / 0.75)) < 4 * gamma_se + 0.01
    assert abs(rho - 2.0) < 4 * rho_se + 0.02


@pytest.mark.parametrize("p", (0.1, 0.4))
def test_walk_constants_are_the_monte_carlo_limit(p):
    exact = walk_constants(p)
    mc = estimate_walk_constants(p, seed=5, n_walks=1500, horizon=4000)
    for name, margin in (("gamma", 0.01), ("rho", 0.02)):
        value, se = mc[name]
        assert exact[name][1] == 0.0
        assert abs(value - exact[name][0]) < 4 * se + margin


def test_walk_constants_closed_form():
    assert walk_constants(0.25) == {"gamma": (0.5 / 0.75, 0.0), "rho": (2.0, 0.0)}
    assert walk_constants(0.0) == {"gamma": (1.0, 0.0), "rho": (1.0, 0.0)}
    with pytest.raises(ValueError):
        walk_constants(0.5)


def test_invalid_p_rejected():
    with pytest.raises(ValueError):
        simulate_walk(0.5, 100, seed=1)
    with pytest.raises(ValueError):
        simulate_walk(-0.1, 100, seed=1)
