"""Quadrature fields vs closed forms, gradients, completeness, and the shock wave."""

import collections
import math
from dataclasses import replace
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from impactlab import markov
from impactlab.errors import (
    NoRootError,
    ParameterError,
    PreconditionError,
    QuadratureError,
)
from impactlab.markov import (
    _MAX_EXPANSIONS,
    _RESIDUAL_TOL,
    MarkovPayoffs,
    _grad_rows,
    _node_values,
    _rules,
    _state_fields,
    QuadraticModel,
    ShockWaveModel,
    completeness_invert,
    crash_events,
    field_p,
    field_q,
    field_u,
    field_v,
    optimal_strategy_markov,
    quadratic_closed_forms,
    quadratic_p,
    quadratic_v,
    replication_price,
    shockwave_path,
    shockwave_price,
    shockwave_strategy,
    tanh_field,
    wave_position,
)
from impactlab.paths import PathGrid, PathSample, ShockSchedule, simulate_batch, simulate_path
from impactlab.cumulants import Brownian
from impactlab.utility import _NEWTON_CAP, AgentPair, tilted_moments


def quad_model(gamma=1.0, c=2.0, g_load=0.4, mu=0.1, sigma=1.3, a_lin=0.7, b_quad=0.5, h_const=0.2):
    return QuadraticModel(
        g_load=g_load,
        mu=mu,
        sigma=sigma,
        a_lin=a_lin,
        b_quad=b_quad,
        agents=AgentPair(gamma=gamma, c=c),
        h_const=h_const,
    )


def gaussian_quadratic_ce(const, alpha, beta, aversion, w, tau):
    """CE at ``aversion`` of const + alpha*X + beta*X^2/2 for X ~ N(w, tau).

    Independent closed form: complete the square under the Gaussian integral.
    Requires 1 + aversion*beta*tau > 0.
    """
    if aversion == 0.0:
        return const + alpha * w + 0.5 * beta * (w**2 + tau)
    d = 1.0 + aversion * beta * tau
    return (
        const
        + alpha * w
        + 0.5 * beta * w**2
        - 0.5 * aversion * tau * (alpha + beta * w) ** 2 / d
        + 0.5 * math.log(d) / aversion
    )


# ---------------------------------------------------------------------------
# quadrature vs closed forms


def test_field_v_matches_quadratic_closed_form():
    rng = np.random.default_rng(11)
    for _ in range(40):
        model = quad_model(
            gamma=rng.uniform(0.2, 2.0),
            c=rng.uniform(0.2, 3.0),
            g_load=rng.uniform(-1.0, 1.0),
            mu=rng.uniform(-0.5, 0.5),
            sigma=rng.uniform(0.5, 2.0),
            a_lin=rng.uniform(-1.0, 1.0),
            b_quad=rng.uniform(-0.3, 0.8),
            h_const=rng.uniform(-0.5, 0.5),
        )
        t = rng.uniform(0.0, 0.999)
        w = rng.uniform(-1.5, 1.5)
        exact = quadratic_v(model, t, w)
        quad = field_v(model.payoffs(), t, w)
        assert quad == pytest.approx(exact, abs=1e-9, rel=1e-9)


def test_quadratic_v_against_independent_gaussian_formula():
    # same value through a separately derived complete-the-square route
    model = quad_model()
    abar = model.agents.aggregate_aversion
    for t, w in [(0.0, 0.0), (0.3, -1.2), (0.85, 0.7)]:
        expected = gaussian_quadratic_ce(
            model.h_const + model.g_load * model.mu,
            model.g_load * model.sigma + model.a_lin,
            model.b_quad,
            abar,
            w,
            1.0 - t,
        )
        assert quadratic_v(model, t, w) == pytest.approx(expected, rel=1e-13)


def test_field_p_matches_quadratic_closed_form():
    rng = np.random.default_rng(12)
    model = quad_model()
    pay = model.payoffs()
    for _ in range(40):
        t = rng.uniform(0.0, 0.999)
        w = rng.uniform(-1.5, 1.5)
        y = rng.uniform(-2.0, 2.0)
        exact = quadratic_p(model, t, w, y)
        assert field_p(pay, t, w, y) == pytest.approx(exact, abs=1e-10, rel=1e-10)


def test_fields_at_terminal_time_return_payoff():
    model = quad_model()
    pay = model.payoffs()
    w = 0.8
    s = model.mu + model.sigma * w
    g = model.g_load * s
    h = model.h_const + model.a_lin * w + 0.5 * model.b_quad * w**2
    assert field_v(pay, 1.0, w) == pytest.approx(g + h, rel=1e-14)
    assert field_p(pay, 1.0, w, 0.7) == pytest.approx(g - 0.7 * s, rel=1e-14)
    assert replication_price(pay, 1.0, w) == pytest.approx(-h, rel=1e-13)


def test_replication_price_quadratic_closed_form():
    model = quad_model(gamma=0.8)
    pay = model.payoffs()
    gamma = model.agents.gamma
    for t, w in [(0.0, 0.0), (0.4, 1.1)]:
        ce_g = gaussian_quadratic_ce(
            model.g_load * model.mu, model.g_load * model.sigma, 0.0, gamma, w, 1.0 - t
        )
        ce_gh = gaussian_quadratic_ce(
            model.g_load * model.mu + model.h_const,
            model.g_load * model.sigma + model.a_lin,
            model.b_quad,
            gamma,
            w,
            1.0 - t,
        )
        assert replication_price(pay, t, w) == pytest.approx(ce_g - ce_gh, abs=1e-10)


# ---------------------------------------------------------------------------
# gradients


def test_field_u_matches_finite_difference_of_v():
    model = quad_model()
    pay = model.payoffs()
    eps = 1e-5
    rng = np.random.default_rng(13)
    for _ in range(15):
        t = rng.uniform(0.0, 0.98)
        w = rng.uniform(-1.5, 1.5)
        fd = (field_v(pay, t, w + eps) - field_v(pay, t, w - eps)) / (2 * eps)
        assert field_u(pay, t, w) == pytest.approx(fd, abs=5e-9, rel=1e-8)


def test_field_q_matches_finite_difference_of_p():
    model = quad_model()
    pay = model.payoffs()
    eps = 1e-5
    rng = np.random.default_rng(14)
    for _ in range(15):
        t = rng.uniform(0.0, 0.98)
        w = rng.uniform(-1.5, 1.5)
        y = rng.uniform(-2.0, 2.0)
        fd = (field_p(pay, t, w + eps, y) - field_p(pay, t, w - eps, y)) / (2 * eps)
        assert field_q(pay, t, w, y) == pytest.approx(fd, abs=5e-9, rel=1e-8)
        # linear security book: exact slope is (g_load - y) * sigma
        assert field_q(pay, t, w, y) == pytest.approx(
            (model.g_load - y) * model.sigma, rel=1e-10
        )


def test_gradients_reject_terminal_time():
    pay = quad_model().payoffs()
    with pytest.raises(ParameterError):
        field_u(pay, 1.0, 0.0)
    with pytest.raises(ParameterError):
        field_q(pay, 1.0, 0.0, 0.0)
    for t in (-0.1, 1.5):
        with pytest.raises(ParameterError):
            field_v(pay, t, 0.0)


def test_quadrature_order_limits():
    pay = quad_model().payoffs()
    with pytest.raises(ParameterError):
        field_v(pay, 0.5, 0.0, order=1)
    with pytest.raises(QuadratureError):
        field_v(pay, 0.5, 0.0, order=384)


def test_nonfinite_payoff_raises_quadrature_error():
    def exploding(w):
        w = np.asarray(w, dtype=float)
        with np.errstate(over="ignore"):
            return np.exp(w**4)

    pay = MarkovPayoffs(
        s_fn=lambda w: np.asarray(w, dtype=float),
        g_fn=exploding,
        h_fn=lambda w: np.zeros_like(np.asarray(w, dtype=float)),
        agents=AgentPair(gamma=1.0, c=1.0),
    )
    with pytest.raises(QuadratureError):
        field_v(pay, 0.0, 0.0)

    # one check covers every payoff of a call: a bad value in the first or the
    # last one is refused, and a constant payoff broadcasts over the nodes
    base = quad_model().payoffs()
    bad_s = MarkovPayoffs(lambda w: np.where(w > 2.0, np.nan, w), base.g_fn, base.h_fn, base.agents)
    bad_h = MarkovPayoffs(base.s_fn, base.g_fn, lambda w: np.where(w < -2.0, np.inf, 0.0), base.agents)
    with pytest.raises(QuadratureError):
        optimal_strategy_markov(bad_s, 0.2, 0.0)
    with pytest.raises(QuadratureError):
        _state_fields(bad_h, 0.2, np.array([0.0, 0.5]), 0.1)
    flat_h = MarkovPayoffs(base.s_fn, base.g_fn, lambda w: 0.25, base.agents)
    zero_h = MarkovPayoffs(base.s_fn, base.g_fn, lambda w: np.full(np.shape(w), 0.25), base.agents)
    w = np.array([-0.3, 0.4])
    assert (_state_fields(flat_h, 0.2, w, 0.1) == _state_fields(zero_h, 0.2, w, 0.1)).all()


# ---------------------------------------------------------------------------
# completeness inversion and the optimal strategy


def test_completeness_invert_linear_closed_form():
    # -dp/dw = (y - g_load) * sigma, so the root is y = g_load + z / sigma
    model = quad_model()
    pay = model.payoffs()
    rng = np.random.default_rng(15)
    for _ in range(10):
        t = rng.uniform(0.0, 0.95)
        w = rng.uniform(-1.0, 1.0)
        z = rng.uniform(-3.0, 3.0)
        y = completeness_invert(pay, t, w, z)
        assert y == pytest.approx(model.g_load + z / model.sigma, abs=1e-9)
        assert -field_q(pay, t, w, y) == pytest.approx(z, abs=1e-10)


def test_completeness_invert_validates_bracket():
    pay = quad_model().payoffs()
    with pytest.raises(ParameterError):
        completeness_invert(pay, 0.5, 0.0, 1.0, bracket=(2.0, -2.0))


def test_completeness_invert_no_root_for_constant_security():
    # constant security: inventory drops out of dp/dw, so no sign change ever
    pay = MarkovPayoffs(
        s_fn=lambda w: np.ones_like(np.asarray(w, dtype=float)),
        g_fn=lambda w: np.asarray(w, dtype=float),
        h_fn=lambda w: np.zeros_like(np.asarray(w, dtype=float)),
        agents=AgentPair(gamma=1.0, c=1.0),
    )
    with pytest.raises(NoRootError):
        completeness_invert(pay, 0.5, 0.0, 2.0)


def test_optimal_strategy_matches_quadratic_closed_form():
    rng = np.random.default_rng(16)
    for _ in range(8):
        model = quad_model(
            gamma=rng.uniform(0.3, 1.5),
            c=rng.uniform(0.3, 2.5),
            b_quad=rng.uniform(-0.2, 0.6),
        )
        pay = model.payoffs()
        t = rng.uniform(0.0, 0.95)
        w = rng.uniform(-1.2, 1.2)
        forms = quadratic_closed_forms(model, t, w)
        assert optimal_strategy_markov(pay, t, w) == pytest.approx(forms.y_star, abs=1e-8)


def test_optimal_strategy_matches_shockwave_closed_form():
    model = ShockWaveModel(mu=0.0, sigma=1.0, w_c=-0.6, agents=AgentPair(gamma=4.0, c=4.0))
    pay = model.payoffs()
    for t, w in [(0.0, -0.5), (0.5, 0.3), (0.9, -1.0)]:
        expected = float(shockwave_strategy(model, t, w))
        assert optimal_strategy_markov(pay, t, w) == pytest.approx(expected, abs=1e-7)


# ---------------------------------------------------------------------------
# quadratic closed-form bundle


def test_quadratic_forms_price_curve_and_convexity():
    model = quad_model()
    forms = quadratic_closed_forms(model, 0.25, 0.6)
    # curvature of the purchase charge y -> p(0) - p(y)
    eps = 1e-3
    curve = lambda y: forms.p_at(0.0) - forms.p_at(y)
    second = (curve(eps) - 2 * curve(0.0) + curve(-eps)) / eps**2
    assert second == pytest.approx(forms.convexity, rel=1e-7)
    assert forms.convexity == pytest.approx(
        model.agents.gamma * model.sigma**2 * 0.75, rel=1e-12
    )
    assert forms.v == pytest.approx(quadratic_v(model, 0.25, 0.6), rel=1e-13)
    assert forms.p_at(0.4) == pytest.approx(quadratic_p(model, 0.25, 0.6, 0.4), rel=1e-13)


def test_quadratic_forms_volatility_is_squared_price_slope():
    model = quad_model(b_quad=0.6)
    eps = 1e-6
    for t, w in [(0.0, 0.0), (0.5, -0.9)]:
        forms = quadratic_closed_forms(model, t, w)
        up = quadratic_closed_forms(model, t, w + eps).s_star
        dn = quadratic_closed_forms(model, t, w - eps).s_star
        slope = (up - dn) / (2 * eps)
        assert slope**2 == pytest.approx(forms.volatility, rel=1e-7)
    # flat endowment curvature leaves the driver volatility untouched
    flat = quadratic_closed_forms(quad_model(b_quad=0.0), 0.3, 0.2)
    assert flat.volatility == pytest.approx(quad_model().sigma**2, rel=1e-14)


def test_quadratic_s_star_matches_tilted_expectation():
    # independent oracle: E[s(W_1) exp(-abar*(g+h))] / E[exp(-abar*(g+h))]
    from numpy.polynomial.hermite_e import hermegauss

    model = quad_model(gamma=0.9, c=1.7, b_quad=0.45)
    abar = model.agents.aggregate_aversion
    nodes, weights = hermegauss(96)
    for t, w in [(0.0, 0.0), (0.35, 0.8), (0.8, -1.1)]:
        x = w + math.sqrt(1.0 - t) * nodes
        s = model.mu + model.sigma * x
        gh = model.g_load * s + model.h_const + model.a_lin * x + 0.5 * model.b_quad * x**2
        tilt = weights * np.exp(-abar * (gh - gh.min()))
        expected = float((s * tilt).sum() / tilt.sum())
        forms = quadratic_closed_forms(model, t, w)
        assert forms.s_star == pytest.approx(expected, rel=1e-10)


def test_quadratic_model_validation():
    with pytest.raises(ParameterError):
        quad_model(sigma=0.0)
    # gamma = c = 4 gives abar = 2; b_quad = -0.5 hits the boundary
    with pytest.raises(ParameterError):
        quad_model(gamma=4.0, c=4.0, b_quad=-0.5)


def test_quadratic_risk_neutral_limit():
    model = quad_model(gamma=0.0, c=2.0)
    forms = quadratic_closed_forms(model, 0.2, 0.5)
    assert forms.s_star == pytest.approx(model.mu + model.sigma * 0.5, rel=1e-14)
    assert forms.convexity == 0.0
    assert quadratic_v(model, 0.2, 0.5) == pytest.approx(
        gaussian_quadratic_ce(
            model.h_const + model.g_load * model.mu,
            model.g_load * model.sigma + model.a_lin,
            model.b_quad,
            0.0,
            0.5,
            0.8,
        ),
        rel=1e-13,
    )


# ---------------------------------------------------------------------------
# shock-wave family


def wave_model(mu=0.0, sigma=1.0, w_c=-0.6, gamma=4.0, c=4.0, offset=0.0):
    return ShockWaveModel(mu=mu, sigma=sigma, w_c=w_c, agents=AgentPair(gamma=gamma, c=c), offset=offset)


def test_shockwave_validation():
    with pytest.raises(ParameterError):
        wave_model(sigma=0.0)
    with pytest.raises(ParameterError):
        wave_model(gamma=0.0)  # aggregate aversion 0


def test_tanh_field_matches_quadrature_gradient():
    model = wave_model()
    pay = model.payoffs()
    for t in (0.0, 0.3, 0.7, 0.96):
        for w in np.linspace(-2.0, 2.0, 9):
            exact = float(tanh_field(model, t, w))
            assert field_u(pay, t, w, order=160) == pytest.approx(exact, abs=1e-7)


def test_tanh_field_offset_invariance():
    # constant endowment shifts v but never its gradient
    base, shifted = wave_model(), wave_model(offset=3.0)
    t, w = 0.4, 0.1
    assert float(tanh_field(shifted, t, w)) == float(tanh_field(base, t, w))
    dv = field_v(shifted.payoffs(), t, w) - field_v(base.payoffs(), t, w)
    assert dv == pytest.approx(3.0, rel=1e-12)


def test_tanh_field_solves_burgers_equation():
    model = wave_model()
    a = model.wave_aversion
    eps = 1e-4
    ts = np.linspace(0.02, 0.98, 21)
    ws = np.linspace(-2.0, 2.0, 21)
    tt, ww = np.meshgrid(ts, ws, indexing="ij")
    u = tanh_field(model, tt, ww)
    u_t = (tanh_field(model, tt + eps, ww) - tanh_field(model, tt - eps, ww)) / (2 * eps)
    u_w = (tanh_field(model, tt, ww + eps) - tanh_field(model, tt, ww - eps)) / (2 * eps)
    u_ww = (
        tanh_field(model, tt, ww + eps) - 2 * u + tanh_field(model, tt, ww - eps)
    ) / eps**2
    residual = u_t + 0.5 * u_ww - a * u * u_w
    assert np.max(np.abs(residual)) < 1e-6


def test_wave_position_and_price_relations():
    model = wave_model()
    a = model.wave_aversion
    assert wave_position(model, 1.0) == pytest.approx(0.6)
    assert wave_position(model, 0.0) == pytest.approx(0.6 - a)
    t, w = 0.3, -0.2
    u = float(tanh_field(model, t, w))
    assert float(shockwave_price(model, t, w)) == pytest.approx(
        model.mu - model.sigma * w + model.sigma * (1.0 - t) * a * u, rel=1e-14
    )
    assert float(shockwave_strategy(model, t, w)) == pytest.approx(
        model.agents.demander_weight * u / model.sigma, rel=1e-14
    )


def test_shockwave_price_matches_tilted_expectation():
    # independent EMM-style oracle for the efficient price field
    from numpy.polynomial.hermite_e import hermegauss

    model = wave_model()
    a = model.wave_aversion
    nodes, weights = hermegauss(160)
    for t, w in [(0.2, -0.4), (0.6, 0.1), (0.9, -1.3)]:
        x = w + math.sqrt(1.0 - t) * nodes
        h = x - (np.abs(a * (x - model.w_c)) + np.log1p(np.exp(-2 * np.abs(a * (x - model.w_c)))) - math.log(2)) / a
        s = model.mu - model.sigma * x
        log_tilt = np.log(weights) - a * h
        log_tilt -= log_tilt.max()
        tilt = np.exp(log_tilt)
        expected = float((s * tilt).sum() / tilt.sum())
        assert float(shockwave_price(model, t, w)) == pytest.approx(expected, abs=1e-7)


def test_shockwave_path_record_and_crash_events():
    model = wave_model()  # a = 2, w_c = -0.6 so the wave sits at -w_c - a*(1-t)
    grid = PathGrid(n_steps=1500)
    driver = Brownian(0.0, 1.0)
    schedule = ShockSchedule()
    found = 0
    for path in simulate_batch(driver, grid, schedule, seed=42, n_paths=6):
        record = shockwave_path(model, path, grid)
        assert record.times.shape == record.w.shape == record.s_star.shape
        assert np.allclose(record.s_star, shockwave_price(model, grid.times, path.x))
        assert np.allclose(record.y_star, shockwave_strategy(model, grid.times, path.x))
        events = crash_events(model, record)
        a = model.wave_aversion
        psi = record.w - a * (1.0 - record.times) - model.w_c
        for ev in events:
            found += 1
            i = ev.index
            assert psi[i] < 0.0 <= psi[i + 1]
            assert ev.time == pytest.approx(record.times[i])
            assert ev.bound == pytest.approx(
                model.sigma * a * (1.0 - record.times[i]) * math.tanh(1.0)
            )
            # steep-slope crash: realized drawdown clears the stated bound
            assert ev.satisfied
            in_window = np.abs(record.times - record.times[i]) <= 1.0 / a
            s_win = record.s_star[in_window]
            assert ev.drawdown == pytest.approx(
                float(np.max(np.maximum.accumulate(s_win) - s_win))
            )
    assert found >= 3


def test_crash_events_empty_when_wave_unreachable():
    model = wave_model(w_c=10.0)  # front sits far above any path start
    grid = PathGrid(n_steps=200)
    x = np.zeros(grid.n_steps + 1)
    path = PathSample(x=x, increments=np.zeros(grid.n_steps), h_prime=np.zeros(grid.n_steps + 1))
    record = shockwave_path(model, path, grid)
    assert crash_events(model, record) == []


def test_replication_price_convex_in_endowment():
    # mixing two demander books never costs more than mixing the prices
    agents = AgentPair(gamma=1.3, c=0.7)

    def payoffs_with(h_fn):
        return MarkovPayoffs(
            s_fn=lambda w: 1.0 + 0.4 * np.asarray(w, dtype=float),
            g_fn=lambda w: 0.3 * np.asarray(w, dtype=float) ** 2,
            h_fn=h_fn,
            agents=agents,
        )

    def h1(w):
        w = np.asarray(w, dtype=float)
        return 0.8 * w - 0.3 * w**2

    def h2(w):
        w = np.asarray(w, dtype=float)
        return 0.5 * np.abs(w) + 0.2 * w

    for t, w in [(0.0, 0.0), (0.4, -0.7), (0.75, 1.1)]:
        r1 = replication_price(payoffs_with(h1), t, w)
        r2 = replication_price(payoffs_with(h2), t, w)
        for lam in (0.25, 0.5, 0.75):
            mix = payoffs_with(
                lambda v, lam=lam: lam * h1(v) + (1.0 - lam) * h2(v)
            )
            assert replication_price(mix, t, w) <= lam * r1 + (1.0 - lam) * r2 + 1e-10


def test_infinite_demander_hedges_perfectly():
    """With an infinitely averse demander the rebalanced book locks in a constant.

    Each rebalance is charged the marginal-price difference at the current
    state; terminal holdings deliver physically.  The terminal wealth then
    converges to the static certainty-equivalent gap at rate ~ 1/sqrt(n):
    refining the grid 25x shrinks the pinned-seed mean error about 5x.
    """
    model = QuadraticModel(
        g_load=0.3, mu=0.1, sigma=1.1, a_lin=0.6, b_quad=0.4,
        agents=AgentPair(gamma=1.0, c=math.inf), h_const=0.25,
    )
    pay = model.payoffs()
    const = -replication_price(pay, 0.0, 0.0)

    def terminal_wealth(w, times):
        y_prev, paid = 0.0, 0.0
        for t, x in zip(times[:-1], w[:-1]):
            y_new = quadratic_closed_forms(model, float(t), float(x)).y_star
            paid += quadratic_p(model, float(t), float(x), y_new) - quadratic_p(
                model, float(t), float(x), y_prev
            )
            y_prev = y_new
        w1 = float(w[-1])
        return (
            float(pay.h_fn(np.array([w1]))[0])
            + y_prev * float(pay.s_fn(np.array([w1]))[0])
            + paid
        )

    fine = PathGrid(10_000)
    coarse = PathGrid(400)
    errs_fine, errs_coarse = [], []
    for seed in range(20, 26):
        w = simulate_path(Brownian(0.0, 1.0), fine, ShockSchedule(), seed, 0).x
        errs_fine.append(abs(terminal_wealth(w, fine.times) - const))
        errs_coarse.append(abs(terminal_wealth(w[::25], coarse.times) - const))
    mean_fine = float(np.mean(errs_fine))
    mean_coarse = float(np.mean(errs_coarse))
    assert mean_fine < 5e-3  # the hedge identifies the constant itself
    assert mean_fine < mean_coarse < 5.0 * mean_fine


# ---------------------------------------------------------------------------
# the array path against the scalar fields and the per-call root finder


@st.composite
def field_models(draw):
    """A quadratic model (gamma may be 0) or a shock-wave model."""
    c = draw(st.floats(0.2, 3.0) | st.just(math.inf))
    if draw(st.booleans()):
        return quad_model(
            gamma=draw(st.just(0.0) | st.floats(0.1, 2.0)),
            c=c,
            g_load=draw(st.floats(-1.0, 1.0)),
            mu=draw(st.floats(-0.5, 0.5)),
            sigma=draw(st.floats(0.3, 2.0) | st.floats(-2.0, -0.3)),
            a_lin=draw(st.floats(-1.0, 1.0)),
            b_quad=draw(st.floats(-0.3, 1.0)),
            h_const=draw(st.floats(-0.5, 0.5)),
        )
    return ShockWaveModel(
        mu=draw(st.floats(-0.5, 0.5)),
        sigma=draw(st.floats(0.3, 2.0)),
        w_c=draw(st.floats(-1.5, 0.5)),
        agents=AgentPair(gamma=draw(st.floats(0.2, 4.0)), c=c),
        offset=draw(st.floats(-0.5, 0.5)),
    )


@settings(deadline=None, max_examples=150)
@given(
    field_models(),
    st.floats(0.0, 1.0, exclude_max=True),
    st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=13),
    st.floats(-2.0, 2.0),
    st.integers(1, 5),
)
def test_state_fields_equal_scalar_fields(model, t, w, y, block):
    """Blocks of states through the nodes give the scalar fields bit for bit."""
    pay = model.payoffs()
    w = np.array(w)
    with mock.patch.object(markov, "_STATE_BLOCK", block):
        rows = _state_fields(pay, t, w, y)
    scalar = [
        (field_v(pay, t, x), field_u(pay, t, x), field_p(pay, t, x, y), field_q(pay, t, x, y))
        for x in w.tolist()
    ]
    assert rows.shape == (4, w.size)
    assert (rows == np.array(scalar).T).all()


def _reference_invert(payoffs, t, w, z, order=128, bracket=(-50.0, 50.0)):
    """completeness_invert before the payoffs were hoisted: every residual calls
    s and g again and tilts one 1-d support; the bracket ends and the 9 probes
    are separate scalar residuals."""
    from scipy.optimize import brentq

    nodes, logw = _rules(order)
    spread = math.sqrt(1.0 - t)
    gamma = payoffs.agents.gamma

    def residual(y):
        x = w + spread * nodes
        vals = np.asarray(payoffs.g_fn(x), dtype=float) - y * np.asarray(payoffs.s_fn(x), dtype=float)
        if gamma == 0.0:
            q = float(np.exp(logw) @ (nodes * vals)) / spread
        else:
            exponent = logw - gamma * vals
            exponent -= exponent.max()
            tilt = np.exp(exponent)
            q = -(float(nodes @ tilt) / float(tilt.sum())) / (gamma * spread)
        return -q - z

    lo, hi = bracket
    r_lo, r_hi = residual(lo), residual(hi)
    while r_lo * r_hi > 0.0:
        lo, hi = 2.0 * lo, 2.0 * hi
        r_lo, r_hi = residual(lo), residual(hi)
    probe_vals = np.array([residual(p) for p in np.linspace(lo, hi, 9)])
    diffs = np.diff(probe_vals)
    tol = 1e-12 * max(1.0, float(np.max(np.abs(probe_vals))))
    assert not ((diffs > tol).any() and (diffs < -tol).any())
    root = brentq(residual, lo, hi, xtol=1e-14, rtol=8.9e-16, maxiter=200)
    assert abs(residual(root)) <= 1e-10
    return float(root)


def test_completeness_invert_equals_per_call_reference():
    rng = np.random.default_rng(51)
    for k in range(50):
        if k % 2 == 0:
            model = quad_model(
                gamma=0.0 if k % 10 == 2 else rng.uniform(0.2, 2.0),
                c=rng.uniform(0.2, 3.0),
                g_load=rng.uniform(-1.0, 1.0),
                sigma=rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0),
                b_quad=rng.uniform(0.0, 1.0),
            )
            # a quarter of the roots, y = g_load + z/sigma, lie beyond the default
            # bracket, so it expands; a mild gamma keeps the tilt inside the nodes
            if k % 4 == 0:
                model = quad_model(gamma=rng.uniform(0.005, 0.02), sigma=model.sigma)
                root = rng.choice([-1.0, 1.0]) * rng.uniform(60.0, 300.0)
        else:
            model = ShockWaveModel(
                mu=rng.uniform(-0.3, 0.3),
                sigma=rng.uniform(0.5, 2.0),
                w_c=rng.uniform(-1.0, 0.0),
                agents=AgentPair(gamma=rng.uniform(0.5, 3.0), c=rng.uniform(0.5, 3.0)),
            )
        pay = model.payoffs()
        t, w = rng.uniform(0.0, 0.95), rng.uniform(-1.5, 1.5)
        z = (root - model.g_load) * model.sigma if k % 4 == 0 else rng.uniform(-3.0, 3.0)
        got, want = completeness_invert(pay, t, w, z), _reference_invert(pay, t, w, z)
        # Newton and Brent stop at different points within a few ulps of the root
        assert abs(got - want) <= 1e-12 * max(1.0, abs(want))
        assert abs(-field_q(pay, t, w, got) - z) <= 1e-10


def _counting_payoffs(calls):
    base = quad_model(gamma=0.02).payoffs()

    def counted(name, fn):
        def wrapped(x):
            assert x.ndim == 1
            calls[name] += 1
            return fn(x)

        return wrapped

    return MarkovPayoffs(
        s_fn=counted("s", base.s_fn),
        g_fn=counted("g", base.g_fn),
        h_fn=counted("h", base.h_fn),
        agents=base.agents,
    )


def test_payoffs_run_once_per_inversion_and_per_block():
    calls = collections.Counter()
    pay = _counting_payoffs(calls)
    completeness_invert(pay, 0.3, 0.2, 1.5)
    assert calls == {"s": 1, "g": 1}
    completeness_invert(pay, 0.3, 0.2, 150.0)  # root near 116: two expansions
    assert calls == {"s": 2, "g": 2}
    calls.clear()
    with mock.patch.object(markov, "_STATE_BLOCK", 3):
        _state_fields(pay, 0.5, np.linspace(-1.0, 1.0, 7), 0.2)
    assert calls == {"s": 3, "g": 3, "h": 3}


def test_max_order_is_the_largest_hermite_rule_whose_weights_sum_to_one():
    from numpy.polynomial.hermite_e import hermegauss

    root_2pi = math.sqrt(2.0 * math.pi)
    with np.errstate(all="ignore"):
        nodes, weights = hermegauss(markov.MAX_ORDER)
        assert np.isfinite(nodes).all() and abs(weights.sum() / root_2pi - 1.0) <= 1e-15
        # the next rule's nodes are finite, but its weights all underflow to 0
        nodes, weights = hermegauss(markov.MAX_ORDER + 1)
        assert np.isfinite(nodes).all() and weights.sum() == 0.0
    assert _rules(markov.MAX_ORDER)[0].size == markov.MAX_ORDER
    with mock.patch("numpy.polynomial.hermite_e.hermegauss", side_effect=AssertionError("called")):
        with pytest.raises(QuadratureError):
            _rules(markov.MAX_ORDER + 1)


@pytest.mark.parametrize("scale", [0.0, 1.0 + 1e-11, math.nan, math.inf])
def test_a_rule_whose_weights_do_not_sum_to_one_is_refused(scale):
    from numpy.polynomial.hermite_e import hermegauss

    nodes, weights = hermegauss(5)
    with mock.patch("numpy.polynomial.hermite_e.hermegauss", return_value=(nodes, scale * weights)):
        with pytest.raises(QuadratureError) as refused:
            _rules.__wrapped__(5)  # past the cache, which holds the true rule
    assert refused.value.argument == "order"


# s = w, g = w/2 and h = w keep the sign of a zero w through g + h
_SIGNED = MarkovPayoffs(s_fn=lambda w: w, g_fn=lambda w: 0.5 * w, h_fn=lambda w: w,
                        agents=AgentPair(1.0, 2.0))


@settings(deadline=None, max_examples=150)
@given(
    field_models().map(lambda model: model.payoffs()) | st.just(_SIGNED),
    st.sampled_from([0.0, -0.0]) | st.floats(-3.0, 3.0),
    st.floats(-2.0, 2.0),
    st.sampled_from([2, 3, 128, 370]),
)
@example(_SIGNED, -0.0, 0.5, 2)  # v is -0.0 only if node 0 is w itself
@example(_SIGNED, 0.0, 0.5, 128)
def test_terminal_fields_are_the_payoffs_at_w(pay, w, y, order):
    # at t = 1 the fields read node 0, w + (-0.0), which must be w itself
    s, g, h = (float(fn(np.array([w]))[0]) for fn in (pay.s_fn, pay.g_fn, pay.h_fn))
    assert field_v(pay, 1.0, w, order).hex() == (g + h).hex()
    assert field_p(pay, 1.0, w, y, order).hex() == (g - y * s).hex()
    assert replication_price(pay, 1.0, w, order).hex() == (g - (g + h)).hex()


def test_completeness_invert_expands_a_bracket_with_an_end_at_zero():
    # doubling both ends kept 0 fixed, so (0, 1) grew to [0, 2**30] and missed the root
    model = QuadraticModel(
        g_load=0.2, mu=0.0, sigma=1.0, a_lin=0.5, b_quad=0.2, agents=AgentPair(1.0, 1.0)
    )
    pay = model.payoffs()
    expected = quadratic_closed_forms(model, 0.5, 0.3).y_star
    for bracket in ((0.0, 1.0), (-1.0, 0.0), (0.5, 3.0)):
        got = optimal_strategy_markov(pay, 0.5, 0.3, bracket=bracket)
        assert got == pytest.approx(expected, abs=1e-12)
    assert expected == pytest.approx(-0.1619, abs=1e-4)


# ---------------------------------------------------------------------------
# the inversion against its form before the float bookkeeping, bit for bit


def _invert_with_numpy_bookkeeping(s, g, gamma, t, z, order, bracket) -> float:
    """``markov._invert`` verbatim from before the probe grid was cached and the
    bracket bookkeeping moved to Python floats, calling the ``newton_root`` of
    that time: the reference whose roots and exceptions the current inversion
    must reproduce exactly."""
    nodes, logw = _rules(order)
    spread = math.sqrt(1.0 - t)

    def residual(y):
        return -_grad_rows(g - np.multiply.outer(y, s), t, gamma, order) - z

    def with_slope(y):
        # one tilt gives the residual (its tilted mean of the nodes, for gamma > 0)
        # and its y-derivative, the gamma-tilted covariance of the nodes and s
        mean, cov = tilted_moments(nodes, g - np.multiply.outer(y, s), logw, gamma, other=s)
        value = residual(y) if gamma == 0.0 else mean / (gamma * spread) - z
        return value, cov / spread

    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ParameterError("bracket must satisfy lo < hi")
    probes = np.linspace(lo, hi, 9)
    probe_vals = residual(probes)
    expansions = 0
    while probe_vals[0] * probe_vals[-1] > 0.0:
        if expansions >= _MAX_EXPANSIONS:
            raise NoRootError(
                f"no sign change in [{lo}, {hi}] after {expansions} expansions"
            )
        mid, width = 0.5 * (lo + hi), hi - lo
        lo, hi = mid - width, mid + width
        probes = np.linspace(lo, hi, 9)
        probe_vals = residual(probes)
        expansions += 1
    diffs = np.diff(probe_vals)
    # deep exponential tilts flatten numerically at the bracket ends, so only a
    # genuine direction reversal (not a flat stretch) disqualifies the map
    tol = 1e-12 * max(1.0, float(np.max(np.abs(probe_vals))))
    if (diffs > tol).any() and (diffs < -tol).any():
        raise PreconditionError(
            "y -> -dp/dw is not monotone on the searched bracket"
        )
    k = int(np.flatnonzero(probe_vals[:-1] * probe_vals[1:] <= 0.0)[0])
    (a, b), (ra, rb) = probes[k:k + 2].tolist(), probe_vals[k:k + 2].tolist()
    # Newton starts where the chord through the probe interval's ends crosses zero
    start = a if ra == rb else a - ra * (b - a) / (rb - ra)
    root, left = _newton_root_on_arrays(with_slope, start, *((a, b) if ra <= rb else (b, a)))
    if abs(left) > _RESIDUAL_TOL:
        raise NoRootError(f"Newton polish left residual {float(left):.3e}")
    return float(root)


def _newton_root_on_arrays(fn, x, neg, pos):
    """``utility.newton_root`` verbatim from before a single entry ran on numpy
    scalars: every entry on numpy arrays."""
    x = np.asarray(x, dtype=float)
    tol = np.finfo(float).eps * np.maximum(np.abs(neg), np.abs(pos))
    step = prev = np.abs(np.subtract(pos, neg))
    f, slope = fn(x)
    active = f != 0.0
    for _ in range(_NEWTON_CAP):
        neg = np.where(f < 0.0, x, neg)
        pos = np.where(f > 0.0, x, pos)
        # a tiny slope overflows the step, and the step the bracket test: an
        # infinite product reads as outside the bracket, which it is
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            dx = f / slope
            new = x - dx
            take = ((new - neg) * (new - pos) < 0.0) & (np.abs(dx) <= 0.5 * prev)
        new = np.where(take, new, 0.5 * (neg + pos))
        prev, step = step, np.abs(new - x)
        active &= step > tol
        if not active.any():
            break
        x = np.where(active, new, x)
        f, slope = fn(x)
        active &= f != 0.0
    return x, f


_COEFFS = st.tuples(*[st.floats(-1.0, 1.0)] * 3)


@st.composite
def invert_payoffs(draw):
    """Payoffs of ``field_models`` (gamma may be 0, c may be inf), or quadratic
    polynomials s, g, h, whose residual maps may fail to be monotone or to
    change sign."""
    if draw(st.booleans()):
        return draw(field_models()).payoffs()
    s, g, h = (draw(_COEFFS) for _ in range(3))
    return MarkovPayoffs(
        s_fn=lambda w: s[0] + s[1] * w + s[2] * w**2,
        g_fn=lambda w: g[0] + g[1] * w + g[2] * w**2,
        h_fn=lambda w: h[0] + h[1] * w + h[2] * w**2,
        agents=AgentPair(gamma=draw(st.just(0.0) | st.floats(0.1, 3.0)),
                         c=draw(st.floats(0.2, 3.0) | st.just(math.inf))),
    )


# the default; signed zeros; lo >= hi; narrow ones that must expand
_BRACKETS = st.sampled_from(
    [(-50.0, 50.0), (0.0, 1.0), (-1.0, -0.0), (-0.0, 0.5), (1.0, 1.0), (0.5, -0.5)]
) | st.tuples(st.floats(-3.0, 3.0), st.floats(1e-3, 1.0)).map(lambda p: (p[0], p[0] + p[1]))


def _outcome(call):
    """The root's exact bits, or the exception's type and message."""
    try:
        return call().hex()
    except Exception as exc:  # noqa: BLE001 - the type is what is compared
        return type(exc), str(exc)


def _both_inversions(pay, t, w, z, bracket, order=128):
    """(current, reference) outcome pairs for completeness_invert at z and for
    optimal_strategy_markov."""
    s, g, h = _node_values(t, w, order, pay.s_fn, pay.g_fn, pay.h_fn)
    agents = pay.agents
    target = -agents.demander_weight * float(
        _grad_rows(g + h, t, agents.aggregate_aversion, order)
    )
    return [
        (_outcome(lambda: completeness_invert(pay, t, w, z, order, bracket)),
         _outcome(lambda: _invert_with_numpy_bookkeeping(s, g, agents.gamma, t, z, order, bracket))),
        (_outcome(lambda: optimal_strategy_markov(pay, t, w, order, bracket)),
         _outcome(lambda: _invert_with_numpy_bookkeeping(
             s, g, agents.gamma, t, target, order, bracket))),
    ]


# the default order, and row lengths that leave every SIMD tail: the target and
# probe rows share one tilt, whose rows must give the bits of separate tilts.
# The largest is MAX_ORDER, 370: hermegauss(371) has finite nodes but every weight 0
_ORDERS = st.sampled_from([2, 3, 7, 33, 127, 128, 129, 370])


@settings(deadline=None, max_examples=300)
@given(
    invert_payoffs(),
    st.floats(0.0, 0.95),
    st.floats(-1.5, 1.5),
    st.floats(-3.0, 3.0) | st.floats(-1e3, 1e3),
    _BRACKETS,
    _ORDERS,
)
def test_inversion_equals_its_numpy_bookkeeping_form(pay, t, w, z, bracket, order):
    for got, want in _both_inversions(pay, t, w, z, bracket, order):
        assert got == want


@settings(deadline=None, max_examples=100)
@given(invert_payoffs(), st.floats(0.0, 0.95), st.floats(-1.5, 1.5), _BRACKETS, _ORDERS)
def test_stacked_probe_tilt_equals_separate_tilts(pay, t, w, bracket, order):
    lo, hi = sorted(bracket)
    probes = np.linspace(lo, hi + (lo == hi), 9)
    s, g, h = _node_values(t, w, order, pay.s_fn, pay.g_fn, pay.h_fn)
    gamma, abar = pay.agents.gamma, pay.agents.aggregate_aversion
    separate = _grad_rows(g - np.multiply.outer(probes, s), t, gamma, order).tolist()
    head = float(_grad_rows(g + h, t, abar, order))
    assert markov._probe_gradients(s, g, probes, gamma, t, order) == separate
    assert markov._probe_gradients(s, g, probes, gamma, t, order, h, abar) == [head, *separate]


def test_inversion_refusals_equal_the_numpy_bookkeeping_form():
    quad = quad_model(gamma=1.0).payoffs()
    flat = replace(quad, s_fn=lambda w: np.zeros_like(w))
    bent = MarkovPayoffs(
        s_fn=lambda w: 0.55 + 0.64 * w - 0.2 * w**2,
        g_fn=lambda w: -0.41 - 0.45 * w - 0.28 * w**2,
        h_fn=lambda w: 0.0 * w,
        agents=AgentPair(gamma=1.77, c=1.0),
    )
    cases = [
        (quad, 0.3, 0.2, 0.5, (1.0, 1.0), ParameterError, "bracket must satisfy lo < hi"),
        (flat, 0.3, 0.2, 0.5, (-50.0, 50.0), NoRootError,
         f"after {_MAX_EXPANSIONS} expansions"),
        (bent, 0.34, 0.41, 1.05, (0.35, 0.74), PreconditionError, "is not monotone"),
    ]
    for pay, t, w, z, bracket, error, message in cases:
        (got, want), _ = _both_inversions(pay, t, w, z, bracket)
        assert got == want
        assert got[0] is error and message in got[1]
    # a NaN residual has no sign change to find; the numpy form indexed an empty array
    got, want = _both_inversions(quad, 0.3, 0.2, math.nan, (-50.0, 50.0))[0]
    assert got == (NoRootError, "no sign change among the probes of [-50.0, 50.0]")
    assert want[0] is IndexError


def test_an_underflowed_aggregate_aversion_takes_the_untilted_target():
    # c*gamma underflows to abar = 0 while gamma > 0: dv/dw takes _grad_rows'
    # untilted form, as the reference does, not a tilt divided by abar = 0
    pay = replace(quad_model().payoffs(), agents=AgentPair(gamma=1e-5, c=1e-320))
    assert pay.agents.aggregate_aversion == 0.0
    for got, want in _both_inversions(pay, 0.3, 0.2, 0.5, (-50.0, 50.0)):
        assert got == want
        assert isinstance(got, str)  # a root


def test_nan_probe_residuals_leave_the_monotonicity_scale_at_one():
    # s = +-1e308 at two nodes: y*s overflows at the six outer probes of [-4, 4],
    # whose residuals are NaN, while the three inner ones are finite, near -z and
    # not monotone.  The numpy form's NaN max left the tolerance at 1e-12; a scale
    # taken from the finite residuals alone (1e13) would pass them as flat
    order, z, bracket = 128, 1e13, (-4.0, 4.0)
    s, g = np.zeros(order), np.zeros(order)
    s[66], s[68] = 1e308, -1e308  # at the nodes 0.69 and 1.25
    with np.errstate(over="ignore", invalid="ignore"):
        vals = -_grad_rows(g - np.multiply.outer(np.linspace(*bracket, 9), s), 0.0, 1.0, order) - z
        got = _outcome(lambda: markov._invert(s, g, 1.0, 0.0, z, order, bracket))
        want = _outcome(lambda: _invert_with_numpy_bookkeeping(s, g, 1.0, 0.0, z, order, bracket))
    assert np.isnan(vals).tolist() == [True] * 3 + [False] * 3 + [True] * 3
    assert got == want == (PreconditionError, "y -> -dp/dw is not monotone on the searched bracket")


# the library pass of the benchmark's fields workload: optimal_strategy_markov at
# 16 times and 41 levels on a quadratic and a shock-wave model, with the
# parameters that workload draws for a seed
_FIELDS_TIMES = [k / 16 for k in range(16)]
_FIELDS_W = np.linspace(-1.5, 1.5, 41).tolist()


def _fields_workload_payoffs(seed):
    import random

    rng = random.Random(f"fields:{seed}")
    quad = {k: rng.uniform(lo, hi) for k, lo, hi in (
        ("gamma", 0.8, 1.2), ("c", 0.8, 1.2), ("g_load", 0.1, 0.3), ("mu", -0.1, 0.1),
        ("sigma", 0.8, 1.2), ("a_lin", 0.3, 0.6), ("b_quad", 0.1, 0.4), ("h_const", -0.2, 0.2),
    )}
    rng.uniform(-0.5, 0.5)  # the table's inventory
    wave = {k: rng.uniform(lo, hi) for k, lo, hi in (
        ("gamma", 1.5, 3.0), ("c", 1.5, 3.0), ("mu", -0.2, 0.2), ("sigma", 0.8, 1.2),
        ("w_c", -1.0, -0.3),
    )}
    return [
        QuadraticModel(agents=AgentPair(quad.pop("gamma"), quad.pop("c")), **quad).payoffs(),
        ShockWaveModel(agents=AgentPair(wave.pop("gamma"), wave.pop("c")), **wave).payoffs(),
    ]


@pytest.mark.parametrize("seed", [1, 2, 3])
def test_fields_workload_roots_equal_the_numpy_bookkeeping_form(seed):
    states = [(pay, t, w) for pay in _fields_workload_payoffs(seed)
              for t in _FIELDS_TIMES for w in _FIELDS_W]
    assert len(states) == 1312
    for pay, t, w in states:
        got, want = _both_inversions(pay, t, w, 0.0, (-50.0, 50.0))[1]  # the optimal strategy
        assert got == want


@pytest.mark.parametrize("seed, evaluations", [(1, 1804), (2, 1983), (3, 1799)])
def test_fields_workload_roots_take_a_pinned_number_of_newton_evaluations(seed, evaluations):
    # counted before the probe grid was cached and the bookkeeping moved to floats;
    # each Newton evaluation takes one tilt of the nodes through tilted_moments
    calls = collections.Counter()

    def counted(*args, **kwargs):
        calls["tilts"] += 1
        return tilted_moments(*args, **kwargs)

    models = _fields_workload_payoffs(seed)
    with mock.patch.object(markov, "tilted_moments", counted):
        roots = [optimal_strategy_markov(pay, t, w)
                 for pay in models for t in _FIELDS_TIMES for w in _FIELDS_W]
    assert len(roots) == 1312
    assert calls["tilts"] == evaluations


# sha256 of the 1,312 roots' float64 bytes, quadratic model first, as
# tools/time_fields.py prints it: the roots pinned with no reference built from
# the helpers they run through
_FIELDS_ROOTS_SHA256 = {
    1: "c478195970ecf6636fd920296b75b650a210148fcc351c75b8228dd1875f2628",
    2: "cc026b942951355a76adaaa51a55aae63aed5443f6111da928edb13f55ed7dcb",
    3: "a86bfa21781130bcb6ee774094ff585fab03b7bfca59a93ce996ade81f7ce9d3",
}


@pytest.mark.parametrize("seed", sorted(_FIELDS_ROOTS_SHA256))
def test_fields_workload_roots_keep_their_recorded_bits(seed):
    import hashlib

    roots = np.array([[optimal_strategy_markov(pay, t, w) for t in _FIELDS_TIMES for w in _FIELDS_W]
                      for pay in _fields_workload_payoffs(seed)])
    assert roots.shape == (2, 656)
    assert hashlib.sha256(roots.tobytes()).hexdigest() == _FIELDS_ROOTS_SHA256[seed]
