"""Path simulation: exact marginals, schedules, reproducibility, batches."""

import dataclasses
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from impactlab import (
    Brownian,
    GammaProcess,
    OneSidedStable,
    ParameterError,
    PathBatch,
    PathGrid,
    PathSample,
    ScheduleError,
    ShockSchedule,
    simulate_batch,
    simulate_path,
)
from impactlab.paths import _stream_words, path_generator


def test_grid_basics():
    grid = PathGrid(4)
    assert grid.dt == 0.25
    assert np.allclose(grid.times, [0.0, 0.25, 0.5, 0.75, 1.0])
    with pytest.raises(ParameterError):
        PathGrid(0)


def test_schedule_levels_and_series():
    sched = ShockSchedule(initial_value=0.5, shocks=((0.25, -1.0), (0.75, 2.0)), h=0.1)
    assert np.allclose(sched.levels(), [0.5, -0.5, 1.5])
    series = sched.series(PathGrid(8))
    # right-continuous: the jump is included at the snapped index
    assert np.allclose(series, [0.5, 0.5, -0.5, -0.5, -0.5, -0.5, 1.5, 1.5, 1.5])


def test_schedule_validation():
    with pytest.raises(ScheduleError):
        ShockSchedule(shocks=((0.0, 1.0),))
    with pytest.raises(ScheduleError):
        ShockSchedule(shocks=((0.5, 1.0), (0.5, 2.0)))
    with pytest.raises(ScheduleError):
        ShockSchedule(shocks=((0.5, 1.0), (0.4, 2.0)))
    with pytest.raises(ScheduleError):
        ShockSchedule(shocks=((0.5, math.inf),))
    # snapping collisions are grid-dependent errors
    sched = ShockSchedule(shocks=((0.49, 1.0), (0.51, 1.0)))
    with pytest.raises(ScheduleError):
        sched.series(PathGrid(2))
    sched.series(PathGrid(100))  # fine on a fine grid


def test_degenerate_brownian_is_flat():
    path = simulate_path(Brownian(b=0.0, sigma=0.0), PathGrid(16), ShockSchedule(), seed=1)
    assert np.all(path.x == 0.0)
    assert np.all(path.increments == 0.0)


def test_path_shape_invariants():
    grid = PathGrid(32)
    sched = ShockSchedule(initial_value=1.0, shocks=((0.5, -2.0),))
    path = simulate_path(GammaProcess(2.0, 3.0), grid, sched, seed=3)
    assert path.x[0] == 0.0
    assert path.x.shape == (33,)
    assert path.increments.shape == (32,)
    assert np.allclose(np.diff(path.x), path.increments)
    assert np.all(path.increments >= 0.0)  # subordinator paths are monotone
    assert np.allclose(path.h_prime, sched.series(grid))

    stable = simulate_path(OneSidedStable(1.0, 0.5), grid, sched, seed=3)
    assert np.all(stable.increments > 0.0)


def test_brownian_terminal_moments():
    grid = PathGrid(1000)
    model = Brownian(b=0.0, sigma=1.0)
    terminals = simulate_batch(model, grid, ShockSchedule(), seed=42, n_paths=2000).x[:, -1]
    assert abs(terminals.mean()) < 3.0 / math.sqrt(2000)
    assert terminals.var(ddof=1) == pytest.approx(1.0, rel=0.1)


def test_gamma_terminal_mean():
    grid = PathGrid(100)
    model = GammaProcess(alpha=2.0, beta=3.0)
    terminals = simulate_batch(model, grid, ShockSchedule(), seed=7, n_paths=2000).x[:, -1]
    se = terminals.std(ddof=1) / math.sqrt(2000)
    assert abs(terminals.mean() - 1.5) < 3 * se


def test_martingale_empirical():
    # mean of X~ at interior times stays near its time-0 value
    grid = PathGrid(100)
    model = Brownian(b=1.0, sigma=1.0)
    batch = simulate_batch(model, grid, ShockSchedule(), seed=11, n_paths=3000)
    tilde = batch.x + (1.0 - grid.times) * model.mean()  # X~ = x_t + (1-t) E[X_1], a row a path
    for t_idx in (25, 50, 75, 100):
        se = tilde[:, t_idx].std(ddof=1) / math.sqrt(3000)
        assert abs(tilde[:, t_idx].mean() - 1.0) < 3 * se


def test_reproducibility_and_path_splitting():
    grid = PathGrid(64)
    sched = ShockSchedule(initial_value=0.3)
    model = GammaProcess(1.5, 2.0)
    a = simulate_path(model, grid, sched, seed=9, path_index=5)
    b = simulate_path(model, grid, sched, seed=9, path_index=5)
    assert np.array_equal(a.x, b.x)
    c = simulate_path(model, grid, sched, seed=9, path_index=6)
    assert not np.array_equal(a.x, c.x)
    d = simulate_path(model, grid, sched, seed=10, path_index=5)
    assert not np.array_equal(a.x, d.x)


def test_batch_matches_serial():
    grid = PathGrid(32)
    sched = ShockSchedule()
    model = Brownian(b=0.1, sigma=1.0)
    batch = simulate_batch(model, grid, sched, seed=13, n_paths=8)
    assert len(batch) == 8
    # batch paths agree with individually simulated ones
    for k, s in enumerate(batch):
        solo = simulate_path(model, grid, sched, seed=13, path_index=k)
        assert np.array_equal(s.x, solo.x)


@st.composite
def snapped_schedules(draw):
    """A grid, distinct interior indices, and shock times within 0.45 steps of them."""
    n = draw(st.integers(2, 200))
    indices = sorted(draw(st.sets(st.integers(1, n - 1), min_size=1, max_size=min(n - 1, 8))))
    offsets = draw(st.lists(st.floats(-0.45, 0.45), min_size=len(indices), max_size=len(indices)))
    jumps = draw(st.lists(st.floats(-2.0, 2.0), min_size=len(indices), max_size=len(indices)))
    shocks = [((k + d) / n, j) for k, d, j in zip(indices, offsets, jumps)]
    return n, indices, shocks, draw(st.floats(-1.0, 1.0))


@settings(deadline=None, max_examples=200)
@given(snapped_schedules())
def test_schedule_snaps_to_nearest_index_right_continuously(case):
    n, indices, shocks, initial = case
    series = ShockSchedule(initial_value=initial, shocks=tuple(shocks)).series(PathGrid(n))
    expected = []
    for i in range(n + 1):
        level = initial
        for k, (_, jump) in zip(indices, shocks):
            if k <= i:  # a jump already counts at its own grid index
                level += jump
        expected.append(level)
    assert series.tolist() == expected


@settings(deadline=None, max_examples=200)
@given(
    st.integers(2, 200),
    st.data(),
    st.tuples(st.floats(-0.45, 0.45), st.floats(-0.45, 0.45)).filter(lambda d: abs(d[0] - d[1]) >= 0.01),
)
def test_schedule_refuses_shared_and_boundary_indices(n, data, offsets):
    k = data.draw(st.integers(1, n - 1))
    d1, d2 = sorted(offsets)
    shared = ShockSchedule(shocks=(((k + d1) / n, 1.0), ((k + d2) / n, -1.0)))
    with pytest.raises(ScheduleError, match="same grid index"):
        shared.series(PathGrid(n))
    edge = data.draw(st.floats(0.01, 0.45))
    for s in (edge / n, 1.0 - edge / n):  # snaps to index 0 or n
        with pytest.raises(ScheduleError, match="outside the open interval"):
            ShockSchedule(shocks=((s, 1.0),)).series(PathGrid(n))
    for s in (0.0, 1.0, -edge, 1.0 + edge):
        with pytest.raises(ScheduleError):
            ShockSchedule(shocks=((s, 1.0),))


@settings(deadline=None, max_examples=200)
@given(
    seed=st.integers(0, 2**130 - 1),
    first=st.one_of(st.integers(0, 100), st.integers(2**32 - 8, 2**32 + 8), st.integers(0, 2**70)),
    n_paths=st.integers(1, 12),
)
@example(seed=0, first=0, n_paths=1)
@example(seed=2**32 - 1, first=2**32 - 3, n_paths=6)
@example(seed=2**32, first=2**32 - 1, n_paths=2)
@example(seed=2**64, first=2**64 - 2, n_paths=4)
@example(seed=2**96 + 5, first=2**96 - 1, n_paths=3)
def test_stream_words_equal_seed_sequence(seed, first, n_paths):
    words = _stream_words(seed, first, n_paths)
    assert words.shape == (n_paths, 4)
    for k, row in enumerate(words, start=first):
        want = np.random.SeedSequence([seed, k]).generate_state(4, np.uint64)
        assert row.tolist() == want.tolist()


@pytest.mark.parametrize("model", [Brownian(0.1, 1.3), GammaProcess(2.0, 3.0), OneSidedStable(1.0, 0.6)])
@pytest.mark.parametrize("seed", [0, 3, 2**40 + 7, 2**64 + 1])
@pytest.mark.parametrize("first, n_paths", [(0, 1), (5, 1), (5, 7), (2**32 - 2, 4)])
def test_batch_rows_draw_the_path_generator_streams(model, seed, first, n_paths):
    grid = PathGrid(16)
    batch = simulate_batch(model, grid, ShockSchedule(), seed, n_paths, first=first)
    for k, row in enumerate(batch.increments, start=first):
        want = model.sample_increments(path_generator(seed, k), grid.dt, grid.n_steps)
        assert (row == want).all()
    if n_paths == 1:
        solo = simulate_path(model, grid, ShockSchedule(), seed, first)
        assert (solo.increments == batch.increments[0]).all()


@pytest.mark.parametrize("seed, index", [(-1, 0), (0, -1), (1.5, 0), (2.0, 0), (0, 0.5), ("3", 0), (None, 0)])
def test_invalid_seeds_and_path_indices_are_refused(seed, index):
    grid, sched, model = PathGrid(4), ShockSchedule(), Brownian(0.0, 1.0)
    with pytest.raises(ParameterError):
        path_generator(seed, index)
    with pytest.raises(ParameterError):
        simulate_path(model, grid, sched, seed, index)
    with pytest.raises(ParameterError):
        simulate_batch(model, grid, sched, seed, 3, first=index)


@pytest.mark.parametrize("n_paths", [0, -2, 2.5, None])
def test_invalid_path_counts_are_refused(n_paths):
    with pytest.raises(ParameterError):
        simulate_batch(Brownian(0.0, 1.0), PathGrid(4), ShockSchedule(), 0, n_paths)


def test_numpy_integer_seeds_and_indices_are_accepted():
    grid, sched, model = PathGrid(4), ShockSchedule(), GammaProcess(2.0, 1.0)
    batch = simulate_batch(model, grid, sched, np.int64(9), 2, first=np.uint32(4))
    assert batch.first == 4 and type(batch.first) is int
    assert (batch.x == simulate_batch(model, grid, sched, 9, 2, first=4).x).all()


def _batch():
    sched = ShockSchedule(0.3, ((0.5, 0.2),))
    return simulate_batch(GammaProcess(2.0, 1.0), PathGrid(8), sched, 5, 6, first=3)


def _same_bits(a, b):
    return a.shape == b.shape and a.dtype == b.dtype and a.tobytes() == b.tobytes()


def test_a_batch_is_checked_at_construction():
    """Any row's start counts; tests/test_refusals.py holds the shape refusals."""
    batch = _batch()
    x = batch.x.copy()
    assert PathBatch(x, batch.increments, batch.h_prime, first=3).first == 3
    x[4, 0] = 1e-300
    with pytest.raises(ParameterError, match="start at x = 0") as refused:
        PathBatch(x, batch.increments, batch.h_prime)
    assert refused.value.argument == "x"


def test_a_row_written_away_from_zero_after_construction_is_refused_at_access():
    batch = _batch()
    batch.x[2, 0] = math.nan
    assert batch[1].x[0] == 0.0 and len(batch[3:]) == 3  # the other rows still read
    for access in (lambda: batch[2], lambda: batch[-4], lambda: batch[1:3], lambda: list(batch)):
        with pytest.raises(ParameterError, match="start at x = 0") as refused:
            access()
        assert refused.value.argument == "x"


def test_rows_are_path_samples_with_the_public_constructors_bits():
    batch = _batch()
    public = [PathSample(x=batch.x[k], increments=batch.increments[k], h_prime=batch.h_prime)
              for k in range(len(batch))]
    for rows in (list(batch), [batch[k] for k in range(len(batch))], batch[:], batch[::-1][::-1]):
        assert [type(row) for row in rows] == [PathSample] * len(batch)
        for row, want in zip(rows, public):
            assert list(vars(row)) == list(vars(want)) == ["x", "increments", "h_prime"]
            assert row.x.base is batch.x and row.increments.base is batch.increments
            assert row.h_prime is batch.h_prime
            assert all(_same_bits(vars(row)[name], vars(want)[name]) for name in vars(want))
    with pytest.raises(dataclasses.FrozenInstanceError):
        batch[0].x = batch.x[1]
