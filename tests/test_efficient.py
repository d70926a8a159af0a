"""Closed-form efficient market: strategy, prices, P&L, allocation value."""

import dataclasses
import math
import warnings

import numpy as np
import pytest

from impactlab import (
    AgentPair,
    Brownian,
    DomainError,
    EfficientRecord,
    GammaProcess,
    LevyScenario,
    NonDifferentiableError,
    OneSidedStable,
    ParameterError,
    PathGrid,
    PathSample,
    ShockSchedule,
    allocation_value,
    efficient_batch_record,
    efficient_convexity,
    efficient_path_record,
    efficient_price,
    eipu,
    optimal_position,
    realized_pnl,
    risk_premium,
    simulate_batch,
    simulate_path,
)
from impactlab import verification


def brownian_scenario(gamma=1.0, c=1.0, a=1.0, n=16, initial=0.0, shocks=(), h=0.0):
    return LevyScenario(
        Brownian(b=0.0, sigma=1.0),
        AgentPair(gamma=gamma, c=c),
        a,
        ShockSchedule(initial_value=initial, shocks=shocks, h=h),
        PathGrid(n),
    )


def test_optimal_position_anchors():
    assert optimal_position(AgentPair(1.0, 1.0), 1.0, 0.0) == pytest.approx(0.5)
    assert optimal_position(AgentPair(1.0, 1.0), 0.0, 0.0) == 0.0
    assert optimal_position(AgentPair(1.0, 3.0), 2.0, 1.0) == pytest.approx(-0.25)
    # c = inf: full offset of the endowment exposure
    assert optimal_position(AgentPair(2.0, math.inf), 5.0, 0.7) == pytest.approx(-0.7)


def test_optimal_position_brute_force():
    # y* maximizes the per-interval allocation objective
    # f(y) = (kappa(g(a-y)) - kappa(g a))/g + kappa(c(h'+y))/c
    model = GammaProcess(alpha=4.0, beta=1.0)
    rng = np.random.default_rng(41)
    for _ in range(20):
        gamma, c = rng.uniform(0.3, 2.0, 2)
        a = float(rng.uniform(0.0, 1.0))
        h_prime = float(rng.uniform(-0.5, 0.5))
        ys = np.linspace(-2.0, 2.0, 400001)
        ok = (model.alpha + gamma * (a - ys) > 0) & (model.alpha + c * (h_prime + ys) > 0)
        ys = ys[ok]
        f = (model.kappa(gamma * (a - ys)) - model.kappa(gamma * a)) / gamma + model.kappa(
            c * (h_prime + ys)
        ) / c
        best = ys[np.argmax(f)]
        got = optimal_position(AgentPair(gamma, c), a, h_prime)
        assert got == pytest.approx(best, abs=2e-5)


def test_scenario_domain_validation():
    gamma_model = GammaProcess(alpha=1.0, beta=1.0)
    agents = AgentPair(1.0, 1.0)
    with pytest.raises(DomainError):
        LevyScenario(gamma_model, agents, -1.5, ShockSchedule(), PathGrid(4))
    with pytest.raises(DomainError):
        # abar*(a + level) = 0.5*(0 - 2.5) < -alpha
        LevyScenario(gamma_model, agents, 0.0, ShockSchedule(initial_value=-2.5), PathGrid(4))
    with pytest.raises(ParameterError):
        LevyScenario(gamma_model, agents, math.inf, ShockSchedule(), PathGrid(4))


def test_eipu_anchors():
    assert eipu(brownian_scenario(), 0.0, 0.0, 0.0) == pytest.approx(-0.5)
    assert eipu(brownian_scenario(), 0.7, 0.0, 1.0) == pytest.approx(0.7)
    gamma_scn = LevyScenario(
        GammaProcess(2.0, 1.0), AgentPair(1.0, 1.0), 1.0, ShockSchedule(), PathGrid(4)
    )
    assert eipu(gamma_scn, 0.3, 0.0, 0.5) == pytest.approx(0.5, abs=1e-14)


def test_risk_premium_anchors():
    scn = brownian_scenario()
    assert risk_premium(scn, -1.0, 0.3) == pytest.approx(0.0)  # a + h' = 0
    assert risk_premium(scn, 0.0, 0.0) == pytest.approx(0.5)
    assert risk_premium(scn, 0.0, 0.5) == pytest.approx(0.25)
    # s_star = x~ - premium
    assert eipu(scn, 0.2, 0.0, 0.25) == pytest.approx(
        0.2 + 0.75 * 0.0 - risk_premium(scn, 0.0, 0.25)
    )


def test_convexity_anchors():
    assert efficient_convexity(brownian_scenario(), 0.7, 0.0) == pytest.approx(1.0)
    assert efficient_convexity(brownian_scenario(), 0.7, 1.0) == 0.0
    gamma_scn = LevyScenario(
        GammaProcess(2.0, 1.0), AgentPair(1.0, 1.0), 1.0, ShockSchedule(), PathGrid(4)
    )
    assert efficient_convexity(gamma_scn, 0.0, 0.0) == pytest.approx(0.16)


def test_efficient_price_anchors():
    scn = brownian_scenario()
    assert efficient_price(scn, 0.0, 0.0, 0.0, 0.0) == 0.0
    assert efficient_price(scn, 0.0, 0.0, 0.0, 1.0) == pytest.approx(0.0, abs=1e-15)
    assert efficient_price(scn, 0.0, 0.0, 0.0, -1.0) == pytest.approx(1.0)
    # bid-ask around the efficient point
    assert -efficient_price(scn, 0.0, 0.0, 0.0, -1.0) <= efficient_price(
        scn, 0.0, 0.0, 0.0, 1.0
    )


def test_price_slope_and_curvature_match_fields():
    scn = LevyScenario(
        GammaProcess(3.0, 1.2), AgentPair(0.8, 1.7), 0.6,
        ShockSchedule(initial_value=0.3), PathGrid(4),
    )
    rng = np.random.default_rng(42)
    for _ in range(50):
        x_t = float(rng.normal())
        h_p = float(rng.uniform(-0.3, 0.8))
        t = float(rng.uniform(0.0, 1.0))
        eps = 1e-5
        slope = (
            efficient_price(scn, x_t, h_p, t, eps) - efficient_price(scn, x_t, h_p, t, -eps)
        ) / (2 * eps)
        assert slope == pytest.approx(eipu(scn, x_t, h_p, t), rel=1e-6, abs=1e-8)
        eps = 1e-4
        curv = (
            efficient_price(scn, x_t, h_p, t, eps)
            - 2 * efficient_price(scn, x_t, h_p, t, 0.0)
            + efficient_price(scn, x_t, h_p, t, -eps)
        ) / eps**2
        assert curv == pytest.approx(efficient_convexity(scn, h_p, t), rel=1e-4, abs=1e-6)


def test_shock_response_signs():
    # positive endowment shock: EIPU falls, risk premium rises (a + H' >= 0)
    scn = LevyScenario(
        GammaProcess(4.0, 1.0), AgentPair(1.0, 1.0), 0.5,
        ShockSchedule(initial_value=0.0), PathGrid(4),
    )
    for h_before in (0.0, 0.5, 1.0):
        for jump in (0.25, 1.0):
            h_after = h_before + jump
            assert eipu(scn, 0.0, h_after, 0.3) <= eipu(scn, 0.0, h_before, 0.3) + 1e-12
            assert risk_premium(scn, h_after, 0.3) >= risk_premium(scn, h_before, 0.3) - 1e-12


def test_realized_pnl_basics():
    scn = brownian_scenario(n=8)
    path = simulate_path(scn.model, scn.grid, scn.schedule, seed=3)
    assert realized_pnl(scn, path, np.zeros(8)) == 0.0
    with pytest.raises(ParameterError):
        realized_pnl(scn, path, np.zeros(7))

    # degenerate path: P&L is the fee leg, which offsets the quoted price
    # (h' = 1 puts the aggregate argument at gamma*a so the curves line up)
    flat = PathSample(x=np.zeros(9), increments=np.zeros(8), h_prime=np.zeros(9))
    for y in (-0.5, 0.25, 1.0):
        got = realized_pnl(scn, flat, np.full(8, y))
        want = scn.model.kappa(1.0 - y) - scn.model.kappa(1.0)
        assert got == pytest.approx(want, abs=1e-14)
        assert got == pytest.approx(-efficient_price(scn, 0.0, 1.0, 0.0, y), abs=1e-12)


def test_realized_pnl_expectation():
    # gamma=1, a=0, Y=1: mean pnl -> kappa(-1) - kappa(0) = -1/2
    scn = brownian_scenario(a=0.0, n=1)
    batch = simulate_batch(scn.model, scn.grid, scn.schedule, seed=17, n_paths=100_000)
    pnls = realized_pnl(scn, batch, np.ones(1))
    se = pnls.std(ddof=1) / math.sqrt(pnls.size)
    assert abs(pnls.mean() - (-0.5)) < 3 * se


def test_realized_pnl_gamma_zero():
    scn = LevyScenario(
        Brownian(b=0.4, sigma=1.0), AgentPair(0.0, 2.0), 0.0, ShockSchedule(), PathGrid(4)
    )
    path = simulate_path(scn.model, scn.grid, scn.schedule, seed=5)
    y = np.array([1.0, -1.0, 2.0, 0.5])
    want = float(y @ path.increments) - 0.4 * float(y.sum()) * 0.25
    assert realized_pnl(scn, path, y) == pytest.approx(want, abs=1e-14)


def test_allocation_value_anchors():
    assert allocation_value(brownian_scenario(a=0.0)) == 0.0
    # 2*kappa(1/2) - kappa(1) = 2*(-1/8) + 1/2 = 1/4
    assert allocation_value(brownian_scenario()) == pytest.approx(0.25, abs=1e-14)
    # cash leg rides along unchanged
    assert allocation_value(brownian_scenario(h=1.5)) == pytest.approx(1.75, abs=1e-14)


def test_allocation_value_is_ce_of_optimal_wealth():
    # population CE of the wealth at Y* factorizes over independent increments
    # and must reproduce the closed form exactly
    model = GammaProcess(alpha=3.0, beta=0.8)
    agents = AgentPair(gamma=0.9, c=1.6)
    grid = PathGrid(16)
    sched = ShockSchedule(initial_value=0.4, shocks=((0.5, -0.9),), h=0.2)
    scn = LevyScenario(model, agents, 0.7, sched, grid)
    h_series = sched.series(grid)[:-1]
    y_star = optimal_position(agents, scn.a, h_series)
    dt = grid.dt
    fee = float(
        np.sum(model.kappa(agents.gamma * (scn.a - y_star)) - model.kappa(agents.gamma * scn.a))
    ) * dt / agents.gamma
    # E[exp(-c*(h' + y*) dX)] per interval gives the holding leg in closed form
    hold = float(np.sum(model.kappa(agents.c * (h_series + y_star)))) * dt / agents.c
    assert allocation_value(scn) == pytest.approx(sched.h + fee + hold, abs=1e-13)


def test_allocation_value_monte_carlo():
    scn = LevyScenario(
        GammaProcess(3.0, 0.8), AgentPair(0.9, 1.6), 0.7,
        ShockSchedule(initial_value=0.4, shocks=((0.5, -0.9),), h=0.2), PathGrid(16),
    )
    batch = simulate_batch(scn.model, scn.grid, scn.schedule, seed=23, n_paths=20_000)
    wealth = efficient_batch_record(scn, batch).terminal_wealth
    c = scn.agents.c
    exps = np.exp(-c * wealth)
    ce = -math.log(exps.mean()) / c
    se = exps.std(ddof=1) / math.sqrt(exps.size) / (c * exps.mean())
    assert abs(ce - allocation_value(scn)) < 3 * se


def test_allocation_value_gamma_zero():
    scn = LevyScenario(
        Brownian(b=0.5, sigma=1.0), AgentPair(0.0, 2.0), 0.3,
        ShockSchedule(initial_value=1.0, h=0.1), PathGrid(8),
    )
    assert allocation_value(scn) == pytest.approx(0.1 + 0.5 * 1.0, abs=1e-14)


def test_allocation_value_c_inf():
    # worst-case demander: abar = gamma, weight 1/gamma
    scn = brownian_scenario(c=math.inf)
    # kappa(1*(1+0))/1 - kappa(1)/1 = 0
    assert allocation_value(scn) == pytest.approx(0.0, abs=1e-14)


def test_path_record_consistency():
    scn = LevyScenario(
        GammaProcess(3.0, 1.0), AgentPair(1.2, 2.5), 0.5,
        ShockSchedule(initial_value=0.2, shocks=((0.5, 0.6),)), PathGrid(32),
    )
    path = simulate_path(scn.model, scn.grid, scn.schedule, seed=8)
    rec = efficient_path_record(scn, path)
    assert rec.terminal_wealth == pytest.approx(rec.endowment_payoff + rec.trading_pnl)
    assert np.all(rec.convexity >= 0.0)
    assert rec.convexity[-1] == 0.0  # t=1
    # every column is its array function on the grid times, exactly
    assert np.array_equal(rec.times, scn.grid.times)
    assert np.array_equal(rec.y_star, optimal_position(scn.agents, scn.a, rec.h_prime))
    assert np.array_equal(rec.s_star, eipu(scn, rec.x, rec.h_prime, rec.times))
    assert np.array_equal(rec.risk_premium, risk_premium(scn, rec.h_prime, rec.times))
    assert np.array_equal(rec.convexity, efficient_convexity(scn, rec.h_prime, rec.times))


def _family_scenarios():
    schedule = ShockSchedule(initial_value=0.2, shocks=((0.25, 0.6), (0.75, -0.3)), h=0.1)
    for model, agents in [
        (Brownian(0.3, 1.1), AgentPair(0.8, 1.7)),
        (GammaProcess(3.0, 1.0), AgentPair(1.2, 2.5)),
        (OneSidedStable(1.2, 0.6), AgentPair(0.7, math.inf)),
    ]:
        yield LevyScenario(model, agents, 0.5, schedule, PathGrid(16))


def same_bits(a, b):
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and a.tobytes() == b.tobytes()


@pytest.mark.parametrize("scn", list(_family_scenarios()), ids=["brownian", "gamma", "stable"])
def test_array_calls_equal_per_element_scalar_calls(scn):
    rng = np.random.default_rng(77)
    size = 2000
    h = rng.uniform(-0.3, 0.8, size)
    t = np.concatenate(([0.0, 1.0], rng.uniform(0.0, 1.0, size - 2)))
    x = rng.normal(size=size)
    each = [(float(xi), float(hi), float(ti)) for xi, hi, ti in zip(x, h, t)]
    assert same_bits(optimal_position(scn.agents, scn.a, h),
                     [optimal_position(scn.agents, scn.a, hi) for _, hi, _ in each])
    assert same_bits(eipu(scn, x, h, t), [eipu(scn, *e) for e in each])
    assert same_bits(efficient_convexity(scn, h, t),
                     [efficient_convexity(scn, hi, ti) for _, hi, ti in each])
    if isinstance(scn.model, OneSidedStable):
        with pytest.raises(NonDifferentiableError):
            risk_premium(scn, h, t)
    else:
        assert same_bits(risk_premium(scn, h, t), [risk_premium(scn, hi, ti) for _, hi, ti in each])
    # broadcasting: a (paths, n+1) x against (n+1) h' and t rows, and a scalar h'
    rows = x[:150].reshape(10, 15)
    assert same_bits(eipu(scn, rows, h[:15], t[:15]),
                     [[eipu(scn, xi, hi, ti) for xi, hi, ti in zip(r, h[:15], t[:15])] for r in rows])
    assert same_bits(efficient_convexity(scn, 0.3, t), [efficient_convexity(scn, 0.3, ti) for ti in t])
    with pytest.raises(ParameterError):
        eipu(scn, x, h, np.where(t > 0.5, 1.5, t))
    with pytest.raises(ParameterError):
        efficient_convexity(scn, h, np.full(size, math.nan))


@pytest.mark.parametrize("scn", list(_family_scenarios()), ids=["brownian", "gamma", "stable"])
def test_record_columns_are_the_array_functions_on_the_grid(scn):
    batch = simulate_batch(scn.model, scn.grid, scn.schedule, seed=19, n_paths=4)
    h, times = scn.schedule.series(scn.grid), scn.grid.times
    for rec in (efficient_batch_record(scn, batch), efficient_path_record(scn, batch[2])):
        assert np.array_equal(rec.times, times)
        assert np.array_equal(rec.h_prime, h)
        assert np.array_equal(rec.y_star, optimal_position(scn.agents, scn.a, h))
        assert np.array_equal(rec.s_star, eipu(scn, rec.x, h, times))
        assert np.array_equal(rec.convexity, efficient_convexity(scn, h, times))
        if isinstance(scn.model, OneSidedStable):
            assert np.all(np.isnan(rec.risk_premium))
        else:
            assert np.array_equal(rec.risk_premium, risk_premium(scn, h, times))


def test_record_s_star_keeps_the_sign_of_zero():
    """A -0.0 level plus a -0.0 slope leg stays -0.0, as x + (1-t)*kappa' gives."""
    scn = LevyScenario(Brownian(-0.0, 0.0), AgentPair(1.0, 2.0), 0.5, ShockSchedule(), PathGrid(4))
    batch = simulate_batch(scn.model, scn.grid, scn.schedule, seed=3, n_paths=6)
    assert np.any(np.signbit(batch.x))  # draws of -0.0 exist at this seed
    slope = scn.model.kappa_prime(scn._argument(batch.h_prime))
    want = batch.x + (1.0 - scn.grid.times) * slope
    assert same_bits(efficient_batch_record(scn, batch).s_star, want)
    assert same_bits(eipu(scn, batch.x, batch.h_prime, scn.grid.times), want)


def test_allocation_identity_check_takes_y_star_in_one_array_call(monkeypatch):
    calls = []

    def counted(agents, a, h_prime):
        calls.append(np.shape(h_prime))
        return optimal_position(agents, a, h_prime)

    monkeypatch.setattr(verification, "optimal_position", counted)
    verification.check_allocation_identity()
    assert calls == [(32,)]


def test_path_record_stable_premium_is_nan():
    scn = LevyScenario(
        OneSidedStable(1.0, 0.5), AgentPair(0.5, math.inf), 1.0,
        ShockSchedule(initial_value=0.5), PathGrid(8),
    )
    path = simulate_path(scn.model, scn.grid, scn.schedule, seed=2)
    rec = efficient_path_record(scn, path)
    assert np.all(np.isnan(rec.risk_premium))
    # the function itself refuses: kappa'(0) is infinite for the stable family
    with pytest.raises(NonDifferentiableError):
        risk_premium(scn, rec.h_prime, rec.times)
    with pytest.raises(NonDifferentiableError):
        risk_premium(scn, 0.5, 0.3)
    assert np.all(np.isfinite(rec.s_star))
    assert np.all(np.isfinite(rec.convexity))


def test_stable_convexity_is_zero_at_maturity_for_a_tiny_argument():
    """kappa'' overflows to -inf as abar*(a + h') -> 0: the convexity is 0 at t = 1, not NaN."""
    scn = LevyScenario(
        OneSidedStable(1.0, 0.5), AgentPair(0.5, math.inf), 1e-300, ShockSchedule(), PathGrid(4),
    )
    with np.errstate(over="ignore"):
        assert scn.model.kappa_double_prime(scn._argument(0.0)) == -math.inf
        assert efficient_convexity(scn, 0.0, 1.0) == 0.0
        column = efficient_convexity(scn, np.zeros(5), scn.grid.times)
        record = efficient_batch_record(scn, simulate_batch(scn.model, scn.grid, scn.schedule, 5, 3))
    assert np.all(np.isinf(column[:-1])) and column[-1] == 0.0
    assert np.array_equal(record.convexity, column)


def test_stable_eipu_is_x_at_maturity_for_a_subnormal_argument():
    """kappa' overflows to inf at a subnormal abar*(a + h'): the EIPU is x at t = 1, not NaN."""
    scn = LevyScenario(
        OneSidedStable(1.0, 0.01), AgentPair(0.5, math.inf), 1e-320, ShockSchedule(), PathGrid(4),
    )
    x = 1.4789985365923419e36
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert scn.model.kappa_prime(scn._argument(0.0)) == math.inf
        assert eipu(scn, x, 0.0, 1.0) == x
        assert eipu(scn, x, 0.0, 0.5) == math.inf
        record = efficient_batch_record(scn, simulate_batch(scn.model, scn.grid, scn.schedule, 5, 3))
    assert np.all(np.isinf(record.s_star[:, :-1]))
    assert np.array_equal(record.s_star[:, -1], record.x[:, -1])


RECORD_FIELDS = ["times", "x", "h_prime", "y_star", "s_star", "risk_premium", "convexity",
                 "endowment_payoff", "trading_pnl", "terminal_wealth"]


@pytest.mark.parametrize("scn", list(_family_scenarios()), ids=["brownian", "gamma", "stable"])
def test_a_path_record_is_a_frozen_record_of_ten_fields(scn):
    batch = simulate_batch(scn.model, scn.grid, scn.schedule, seed=11, n_paths=3)
    for rec in (efficient_path_record(scn, batch[1]), efficient_batch_record(scn, batch)):
        assert type(rec) is EfficientRecord
        assert [f.name for f in dataclasses.fields(rec)] == RECORD_FIELDS == list(vars(rec))
        with pytest.raises(dataclasses.FrozenInstanceError):
            rec.terminal_wealth = 0.0
        with pytest.raises(dataclasses.FrozenInstanceError):
            del rec.x
        copy = dataclasses.replace(rec)
        assert type(copy) is EfficientRecord and copy is not rec
        for name in RECORD_FIELDS:
            got, want = getattr(copy, name), getattr(rec, name)
            assert type(got) is type(want) and same_bits(got, want), name
    path = efficient_path_record(scn, batch[1])
    assert all(type(getattr(path, name)) is float for name in RECORD_FIELDS[-3:])
