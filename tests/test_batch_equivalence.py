"""Batched Monte Carlo against the per-path code it replaced, bit for bit.

The oracle functions below are the per-path implementations of
``simulate_batch``, ``efficient_path_record``, ``realized_pnl`` and
``shockwave_path`` as they stood before paths became rows of one matrix.
Every column of the batched results, and of the one-row wrappers, must
have the same bytes as theirs.
"""

import dataclasses
import hashlib
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from impactlab import (
    AgentPair,
    Brownian,
    DomainError,
    GammaProcess,
    LevyScenario,
    NonDifferentiableError,
    OneSidedStable,
    ParameterError,
    PathBatch,
    PathGrid,
    PathSample,
    ShockSchedule,
    ShockWaveModel,
    efficient_batch_record,
    efficient_path_record,
    realized_pnl,
    shockwave_batch,
    shockwave_path,
    simulate_batch,
    simulate_path,
)
from impactlab.markov import shockwave_price, shockwave_strategy, wave_position
from impactlab.paths import path_generator

# ---------------------------------------------------------------------------
# oracle: the per-path code


def old_simulate_path(model, grid, schedule, seed, path_index=0):
    rng = path_generator(seed, path_index)
    inc = model.sample_increments(rng, grid.dt, grid.n_steps)
    x = np.concatenate(([0.0], np.cumsum(inc)))
    return PathSample(x=x, increments=inc, h_prime=schedule.series(grid))


def old_simulate_batch(model, grid, schedule, seed, n_paths):
    return [old_simulate_path(model, grid, schedule, seed, i) for i in range(n_paths)]


def old_realized_pnl(scenario, path, strategy):
    y = np.asarray(strategy, dtype=float)
    n = scenario.grid.n_steps
    if y.shape != (n,):
        raise ParameterError(f"strategy must have one position per interval ({n})")
    g = scenario.agents.gamma
    dt = scenario.grid.dt
    trade_leg = float(y @ path.increments)
    if g == 0.0:
        return trade_leg - scenario.model.kappa_prime(0.0) * float(y.sum()) * dt
    u = g * (scenario.a - y)
    if not scenario.model.domain_contains(u):
        raise DomainError("strategy leaves the supplier inventory domain")
    fee_leg = float(np.sum(scenario.model.kappa(u) - scenario.model.kappa(g * scenario.a)))
    return trade_leg + fee_leg * dt / g


def old_efficient_path_record(scenario, path):
    times = scenario.grid.times
    h = path.h_prime
    w = scenario.agents.demander_weight
    y_star = (1.0 - w) * scenario.a - w * h
    u = scenario.abar * (scenario.a + h)
    slope = np.atleast_1d(scenario.model.kappa_prime(u))
    s_star = path.x + (1.0 - times) * slope
    curv = np.atleast_1d(scenario.model.kappa_double_prime(u))
    with np.errstate(invalid="ignore"):  # an infinite kappa'' gives 0 * inf at t = 1
        convexity = np.where(times == 1.0, 0.0, -scenario.agents.gamma * (1.0 - times) * curv)
    if isinstance(scenario.model, OneSidedStable):
        premium = np.full_like(s_star, math.nan)
    else:
        premium = (1.0 - times) * (scenario.model.kappa_prime(0.0) - slope)
    endowment = scenario.schedule.h + float(h[:-1] @ path.increments)
    pnl = old_realized_pnl(scenario, path, y_star[:-1])
    return dict(
        times=times, x=path.x, h_prime=h, y_star=y_star, s_star=s_star,
        risk_premium=premium, convexity=convexity, endowment_payoff=endowment,
        trading_pnl=pnl, terminal_wealth=endowment + pnl,
    )


def old_shockwave_path(model, path, grid):
    times = grid.times
    w = path.x
    return dict(
        times=times, w=w,
        s_star=shockwave_price(model, times, w),
        y_star=shockwave_strategy(model, times, w),
        wave_position=wave_position(model, times),
    )


# ---------------------------------------------------------------------------


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


RECORD_ARRAYS = ("times", "x", "h_prime", "y_star", "s_star", "risk_premium", "convexity")
RECORD_SCALARS = ("endowment_payoff", "trading_pnl", "terminal_wealth")
SHARED = ("times", "h_prime", "y_star", "risk_premium", "convexity")


@st.composite
def scenarios(draw):
    family = draw(st.sampled_from(["brownian", "gamma", "stable"]))
    if family == "brownian":
        model = Brownian(draw(st.floats(-1.0, 1.0)), draw(st.sampled_from([0.0, 0.3, 1.0, 1.7])))
    elif family == "gamma":
        model = GammaProcess(draw(st.floats(0.5, 10.0)), draw(st.floats(0.1, 3.0)))
    else:
        model = OneSidedStable(draw(st.floats(0.2, 2.0)), draw(st.floats(0.1, 0.9)))
    gamma = draw(st.sampled_from([0.0, 0.4, 1.0, 2.5]))
    c = draw(st.sampled_from([math.inf, 0.5, 1.0, 3.0]))
    n = draw(st.integers(1, 40))
    n_shocks = draw(st.integers(0, min(3, n - 1)))
    indices = sorted(draw(st.sets(st.integers(1, n - 1), min_size=n_shocks, max_size=n_shocks))) if n > 1 else []
    shocks = tuple((k / n, draw(st.floats(-0.5, 0.5))) for k in indices)
    schedule = ShockSchedule(draw(st.floats(-0.5, 0.5)), shocks, draw(st.floats(-1.0, 1.0)))
    try:
        scn = LevyScenario(model, AgentPair(gamma, c), draw(st.floats(-1.0, 1.5)), schedule, PathGrid(n))
    except DomainError:
        assume(False)
    return scn


def outcome(fn, *args):
    """fn's result, or the type of the error it raises."""
    try:
        return fn(*args)
    except (DomainError, NonDifferentiableError, ParameterError) as exc:
        return type(exc)


@settings(deadline=None, max_examples=150)
@given(scn=scenarios(), seed=st.integers(0, 2**31), n_paths=st.integers(1, 5),
       first=st.integers(0, 40), data=st.data())
def test_batched_records_equal_per_path_oracle(scn, seed, n_paths, first, data):
    model, grid, sched = scn.model, scn.grid, scn.schedule
    batch = simulate_batch(model, grid, sched, seed, n_paths, first=first)
    assert len(batch) == n_paths and batch.first == first
    old_paths = [old_simulate_path(model, grid, sched, seed, first + i) for i in range(n_paths)]
    for i, old in enumerate(old_paths):
        for name in ("x", "increments", "h_prime"):
            assert same_bits(getattr(batch[i], name), getattr(old, name))
        assert same_bits(simulate_path(model, grid, sched, seed, first + i).x, old.x)

    old_records = [outcome(old_efficient_path_record, scn, p) for p in old_paths]
    new_batch = outcome(efficient_batch_record, scn, batch)
    if isinstance(old_records[0], type):
        assert new_batch is old_records[0]
        assert outcome(efficient_path_record, scn, batch[0]) is old_records[0]
        return
    for i, old in enumerate(old_records):
        row = efficient_path_record(scn, batch[i])
        for name in RECORD_ARRAYS:
            column = getattr(new_batch, name)
            assert same_bits(column if name in SHARED else column[i], old[name]), name
            assert same_bits(getattr(row, name), old[name]), name
        for name in RECORD_SCALARS:
            assert same_bits(getattr(new_batch, name)[i], old[name]), name
            assert type(getattr(row, name)) is float
            assert same_bits(getattr(row, name), old[name]), name

    strategy = data.draw(st.lists(st.floats(-1.5, 1.5), min_size=grid.n_steps, max_size=grid.n_steps))
    old_pnl = [outcome(old_realized_pnl, scn, p, strategy) for p in old_paths]
    if isinstance(old_pnl[0], type):
        assert outcome(realized_pnl, scn, batch, strategy) is old_pnl[0]
        assert outcome(realized_pnl, scn, batch[0], strategy) is old_pnl[0]
    else:
        assert same_bits(realized_pnl(scn, batch, strategy), old_pnl)
        for i, want in enumerate(old_pnl):
            got = realized_pnl(scn, batch[i], strategy)
            assert type(got) is float and same_bits(got, want)


@settings(deadline=None, max_examples=60)
@given(gamma=st.floats(0.2, 5.0), c=st.sampled_from([math.inf, 0.5, 2.0, 4.0]),
       w_c=st.floats(-1.5, 0.5), mu=st.floats(-0.5, 0.5), sigma=st.floats(0.2, 2.0),
       n=st.integers(1, 300), seed=st.integers(0, 2**31), n_paths=st.integers(1, 4),
       first=st.integers(0, 30))
def test_shockwave_batch_equals_per_path_oracle(gamma, c, w_c, mu, sigma, n, seed, n_paths, first):
    model = ShockWaveModel(mu=mu, sigma=sigma, w_c=w_c, agents=AgentPair(gamma, c))
    grid = PathGrid(n)
    driver = Brownian(0.0, 1.0)
    batch = simulate_batch(driver, grid, ShockSchedule(), seed, n_paths, first=first)
    record = shockwave_batch(model, batch, grid)
    for i in range(n_paths):
        old = old_shockwave_path(model, old_simulate_path(driver, grid, ShockSchedule(), seed, first + i), grid)
        row = shockwave_path(model, batch[i], grid)
        for name in ("times", "w", "s_star", "y_star", "wave_position"):
            column = getattr(record, name)
            assert same_bits(column if name in ("times", "wave_position") else column[i], old[name])
            assert same_bits(getattr(row, name), old[name])


def test_old_batch_list_equals_path_batch():
    model, grid, sched = GammaProcess(3.0, 0.8), PathGrid(16), ShockSchedule(0.4, ((0.5, -0.9),), 0.2)
    batch = simulate_batch(model, grid, sched, seed=23, n_paths=50)
    old = old_simulate_batch(model, grid, sched, seed=23, n_paths=50)
    assert same_bits(batch.x, [p.x for p in old])
    assert same_bits(batch.increments, [p.increments for p in old])


def test_path_batch_is_a_sequence_of_row_views():
    grid = PathGrid(8)
    batch = simulate_batch(GammaProcess(2.0, 1.0), grid, ShockSchedule(0.3, ((0.5, 0.2),)), 5, 6)
    assert isinstance(batch, PathBatch)
    assert len(batch) == 6 and len(list(batch)) == 6
    assert batch.x.shape == (6, 9) and batch.increments.shape == (6, 8)
    assert np.all(batch.x[:, 0] == 0.0)
    assert same_bits(batch[-1].x, batch.x[5])
    head = batch[:3]
    assert [p.x.base is batch.x for p in head] == [True] * 3
    assert all(same_bits(p.x, q.x) for p, q in zip(head, list(batch)[:3]))
    assert len(batch[::2]) == 3
    with pytest.raises(IndexError):
        batch[6]


def test_shared_columns_are_read_only():
    scn = LevyScenario(
        GammaProcess(3.0, 1.0), AgentPair(1.2, 2.5), 0.5,
        ShockSchedule(initial_value=0.2, shocks=((0.5, 0.6),)), PathGrid(8),
    )
    batch = simulate_batch(scn.model, scn.grid, scn.schedule, seed=3, n_paths=3)
    with pytest.raises(ValueError):
        batch[0].h_prime[2] = 1.0
    assert np.all(batch[1].h_prime == scn.schedule.series(scn.grid))
    first, second = efficient_path_record(scn, batch[0]), efficient_path_record(scn, batch[1])
    whole = efficient_batch_record(scn, batch)
    for name in SHARED:
        assert getattr(first, name) is getattr(second, name)
        for record in (first, whole):
            with pytest.raises(ValueError):
                getattr(record, name)[0] = 7.0
    wave = shockwave_batch(ShockWaveModel(0.0, 1.0, -0.6, AgentPair(4.0, 4.0)), batch, scn.grid)
    for name in ("times", "wave_position"):
        with pytest.raises(ValueError):
            getattr(wave, name)[0] = 7.0


def test_records_follow_the_path_h_prime_not_the_last_one_seen():
    """Shared columns are cached per H' series; another series, or the same
    array written in place, gives its own columns."""
    scn = LevyScenario(
        Brownian(0.1, 1.0), AgentPair(1.0, 2.0), 0.5,
        ShockSchedule(initial_value=0.2, shocks=((0.5, 0.6),)), PathGrid(8),
    )
    path = simulate_path(scn.model, scn.grid, scn.schedule, seed=4)
    h = np.linspace(-0.5, 0.5, 9)
    custom = PathSample(x=path.x.copy(), increments=path.increments.copy(), h_prime=h)
    for p in (path, custom, path):
        got, want = efficient_path_record(scn, p), old_efficient_path_record(scn, p)
        assert all(same_bits(getattr(got, name), want[name]) for name in RECORD_ARRAYS)
        assert same_bits(got.terminal_wealth, want["terminal_wealth"])
    h[3] = 0.9
    got, want = efficient_path_record(scn, custom), old_efficient_path_record(scn, custom)
    assert same_bits(got.y_star, want["y_star"])
    assert same_bits(got.trading_pnl, want["trading_pnl"])


# ---------------------------------------------------------------------------
# pinned bits of the path pass

BIT_SCENARIOS = [
    LevyScenario(GammaProcess(3.0, 0.8), AgentPair(1.2, 2.5), 0.5,
                 ShockSchedule(0.4, ((0.5, -0.9),), 0.2), PathGrid(16)),
    LevyScenario(Brownian(0.1, 0.7), AgentPair(1.0, math.inf), -0.3,
                 ShockSchedule(0.2, ((0.25, 0.3), (0.75, -0.6)), 1.0), PathGrid(12)),
    LevyScenario(OneSidedStable(1.2, 0.6), AgentPair(0.7, 2.0), 0.4,
                 ShockSchedule(0.1, ((0.4, 0.5),), -0.5), PathGrid(10)),
]


def value_bytes(value) -> bytes:
    """A field as its type, dtype, shape and bytes."""
    out = np.asarray(value)
    return f"{type(value).__name__} {out.dtype.str} {out.shape}".encode() + out.tobytes()


# recorded before the record's two sums became one and the stream loop reused one state
RECORDED_PATH_PASS_SHA256 = "8e4d17618d381e0d180da0edf8f83806b0753c97a1bee12c468835a819538b64"


def test_path_pass_keeps_its_recorded_bits():
    """simulate_batch's levels and increments, and every field of every path's and
    batch's record, for three families with shocks; the batch at 2**32 - 2 crosses
    the carry of a path index into a second uint32 word."""
    digest = hashlib.sha256()
    for scn in BIT_SCENARIOS:
        for first, n_paths in ((0, 5), (2**32 - 2, 4)):
            batch = simulate_batch(scn.model, scn.grid, scn.schedule, 23, n_paths, first=first)
            digest.update(value_bytes(batch.x) + value_bytes(batch.increments))
            records = [efficient_path_record(scn, path) for path in batch]
            records.append(efficient_batch_record(scn, batch))
            for record in records:
                for field in dataclasses.fields(record):
                    digest.update(value_bytes(getattr(record, field.name)))
    assert digest.hexdigest() == RECORDED_PATH_PASS_SHA256
