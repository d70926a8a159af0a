"""Fast self-contained invariant suite backing the ``verify`` CLI mode.

Each check is deterministic (fixed seeds), takes well under a second, and
raises AssertionError with a diagnostic message on failure.  The pytest
suite covers the same ground at full tolerance budgets; this module is the
runnable smoke screen for installed copies.
"""

from __future__ import annotations

import math
from typing import Callable, List, Tuple

import numpy as np

from .cumulants import Brownian, GammaProcess, OneSidedStable
from .dp import DpScenario, Lattice, conditional_pi, no_rebalance_check, value_recursion
from .efficient import LevyScenario, allocation_value, optimal_position, realized_pnl
from .markov import MarkovPayoffs, QuadraticModel, ShockWaveModel
from .paths import PathGrid, PathSample, ShockSchedule, path_generator, simulate_batch, simulate_path
from .utility import AgentPair, SampleSet, certainty_equivalent, levy_price_curve


def _models():
    return [
        Brownian(b=0.2, sigma=0.8),
        GammaProcess(alpha=2.0, beta=1.5),
        OneSidedStable(r=1.2, alpha=0.6),
    ]


def _interior_points(model, rng, count):
    if isinstance(model, Brownian):
        return rng.uniform(-3.0, 3.0, count)
    if isinstance(model, GammaProcess):
        return rng.uniform(-model.alpha + 0.2, 4.0, count)
    return rng.uniform(0.1, 4.0, count)


def check_cumulant_derivatives():
    rng = np.random.default_rng(101)
    for model in _models():
        for u in _interior_points(model, rng, 30):
            step = 1e-5 * max(1.0, abs(u))
            fd1 = (model.kappa(u + step) - model.kappa(u - step)) / (2 * step)
            an1 = model.kappa_prime(u)
            assert abs(fd1 - an1) <= 1e-6 * max(1.0, abs(an1)), (model, u, fd1, an1)
            fd2 = (model.kappa_prime(u + step) - model.kappa_prime(u - step)) / (2 * step)
            an2 = model.kappa_double_prime(u)
            assert abs(fd2 - an2) <= 1e-5 * max(1.0, abs(an2)), (model, u, fd2, an2)
            assert an2 <= 0.0


def check_cumulant_shape():
    rng = np.random.default_rng(102)
    for model in _models():
        assert model.kappa(0.0) == 0.0
        pts = np.sort(_interior_points(model, rng, 40))
        mid = 0.5 * (pts[:-1] + pts[1:])
        chord = 0.5 * (model.kappa(pts[:-1]) + model.kappa(pts[1:]))
        assert np.all(model.kappa(mid) >= chord - 1e-12), f"{model} not concave"


def check_cash_invariance():
    rng = np.random.default_rng(103)
    for _ in range(20):
        samples = SampleSet.uniform(rng.normal(0.0, 2.0, 12))
        for aversion in (0.0, 0.7, 3.0, math.inf):
            shift = float(rng.normal(0.0, 5.0))
            lhs = certainty_equivalent(samples.shifted(shift), aversion)
            rhs = certainty_equivalent(samples, aversion) + shift
            assert abs(lhs - rhs) <= 1e-9, (aversion, shift, lhs - rhs)


def check_aversion_monotone():
    rng = np.random.default_rng(104)
    for _ in range(10):
        samples = SampleSet.uniform(rng.normal(0.0, 1.5, 10))
        grid = [0.0, 0.2, 1.0, 4.0, 20.0, math.inf]
        ces = [certainty_equivalent(samples, a) for a in grid]
        assert all(x >= y - 1e-12 for x, y in zip(ces, ces[1:])), ces


def check_price_curve():
    # convexity in the traded quantity, zero at zero, bid below ask
    rng = np.random.default_rng(105)
    model = GammaProcess(alpha=3.0, beta=1.0)
    gamma, a = 0.8, 0.5
    for _ in range(50):
        z = float(rng.uniform(-0.5, 1.5))
        y1, y2 = sorted(rng.uniform(-1.0, 1.0, 2))
        x_t, t = float(rng.normal()), float(rng.uniform(0, 1))
        mid = levy_price_curve(model, gamma, a, z, 0.5 * (y1 + y2), x_t, t)
        avg = 0.5 * (
            levy_price_curve(model, gamma, a, z, y1, x_t, t)
            + levy_price_curve(model, gamma, a, z, y2, x_t, t)
        )
        assert mid <= avg + 1e-10, "price curve not convex"
        assert levy_price_curve(model, gamma, a, z, 0.0, x_t, t) == 0.0
        y = float(rng.uniform(0.0, 0.8))
        bid = -levy_price_curve(model, gamma, a, z, -y, x_t, t)
        ask = levy_price_curve(model, gamma, a, z, y, x_t, t)
        assert bid <= ask + 1e-12, "bid above ask"


def check_pnl_degenerate():
    # on a flat path the realized P&L is pure fee income and must offset
    # the time-0 quoted price of the same constant position
    model = GammaProcess(alpha=2.0, beta=1.0)
    agents = AgentPair(gamma=1.0, c=2.0)
    grid = PathGrid(16)
    scenario = LevyScenario(model, agents, 1.0, ShockSchedule(), grid)
    flat = PathSample(x=np.zeros(17), increments=np.zeros(16), h_prime=np.zeros(17))
    for y in (-0.4, 0.3, 0.9):
        got = realized_pnl(scenario, flat, np.full(16, y))
        want = model.kappa(1.0 - y) - model.kappa(1.0)
        assert abs(got - want) <= 1e-12
        curve = levy_price_curve(model, 1.0, 1.0, 0.0, y, 0.0, 0.0)
        assert abs(got + curve) <= 1e-12, "pnl does not offset the quoted price"


def check_allocation_identity():
    # second route: split the closed-form value into the supplier fee leg and
    # the demander holding leg via gamma*(a - y*) = abar*(a + h') and
    # c*(h' + y*) = abar*(a + h')
    model = GammaProcess(alpha=2.5, beta=0.7)
    agents = AgentPair(gamma=0.9, c=1.7)
    grid = PathGrid(32)
    sched = ShockSchedule(initial_value=0.4, shocks=((0.3, -0.6), (0.7, 0.5)), h=0.15)
    scenario = LevyScenario(model, agents, 0.8, sched, grid)
    direct = allocation_value(scenario)
    h_series = sched.series(grid)[:-1]
    y_star = optimal_position(agents, 0.8, h_series)
    dt = grid.dt
    fee = np.sum(
        model.kappa(agents.gamma * (0.8 - y_star)) - model.kappa(agents.gamma * 0.8)
    ) * dt / agents.gamma
    hold = np.sum(model.kappa(agents.c * (h_series + y_star))) * dt / agents.c
    assert abs(direct - (sched.h + fee + hold)) <= 1e-12, (direct, sched.h + fee + hold)


def check_quadrature_closed_forms():
    from .markov import field_p, field_v, quadratic_p, quadratic_v

    agents = AgentPair(gamma=1.2, c=0.8)
    model = QuadraticModel(0.4, -0.3, 1.1, 0.6, 0.9, agents)
    payoffs = model.payoffs()
    rng = np.random.default_rng(106)
    for _ in range(25):
        t, w, y = rng.uniform(0, 0.99), rng.uniform(-2, 2), rng.uniform(-1.5, 1.5)
        assert abs(field_v(payoffs, t, w) - quadratic_v(model, t, w)) <= 1e-9
        assert abs(field_p(payoffs, t, w, y) - quadratic_p(model, t, w, y)) <= 1e-9


def check_gradient_fd():
    from .markov import field_u, field_v

    agents = AgentPair(gamma=0.9, c=2.0)
    model = QuadraticModel(0.2, 0.1, 1.0, 0.5, 0.4, agents)
    payoffs = model.payoffs()
    for t in (0.0, 0.4, 0.9):
        for w in (-1.0, 0.0, 1.5):
            fd = (field_v(payoffs, t, w + 1e-4) - field_v(payoffs, t, w - 1e-4)) / 2e-4
            assert abs(field_u(payoffs, t, w) - fd) <= 1e-6


def check_completeness():
    from .markov import completeness_invert, field_q

    agents = AgentPair(gamma=1.0, c=1.5)
    model = QuadraticModel(0.3, 0.0, 1.2, 0.4, 0.5, agents)
    payoffs = model.payoffs()
    rng = np.random.default_rng(107)
    for _ in range(10):
        t, w, z = rng.uniform(0, 0.95), rng.uniform(-1.5, 1.5), rng.uniform(-2, 2)
        y = completeness_invert(payoffs, t, w, z)
        assert abs(-field_q(payoffs, t, w, y) - z) <= 1e-10
        # linear security: -dp/dw = (y - g_load)*sigma, so y = g_load + z/sigma
        assert abs(y - (model.g_load + z / model.sigma)) <= 1e-9


def check_tanh_wave():
    from .markov import field_u, tanh_field

    agents = AgentPair(gamma=4.0, c=4.0)
    model = ShockWaveModel(0.0, 1.0, -0.6, agents)
    payoffs = model.payoffs()
    for t in (0.0, 0.5, 0.9):
        for w in (-2.0, -0.6, 0.0, 1.4):
            assert abs(field_u(payoffs, t, w) - float(tanh_field(model, t, w))) <= 1e-7


def check_burgers_residual():
    from .markov import tanh_field

    agents = AgentPair(gamma=4.0, c=4.0)
    model = ShockWaveModel(0.0, 1.0, -0.6, agents)
    a = model.wave_aversion
    h = 1e-4
    T, W = np.meshgrid(
        np.linspace(0.0, 0.99, 20), np.linspace(-3.0, 3.0, 20), indexing="ij"
    )
    u = tanh_field(model, T, W)
    ut = (tanh_field(model, T + h, W) - tanh_field(model, T - h, W)) / (2 * h)
    uw = (tanh_field(model, T, W + h) - tanh_field(model, T, W - h)) / (2 * h)
    uww = (tanh_field(model, T, W + h) - 2 * u + tanh_field(model, T, W - h)) / h**2
    residual = ut + 0.5 * uww - a * u * uw
    assert float(np.abs(residual).max()) <= 1e-6


def check_crash_bound():
    from .markov import crash_events, shockwave_path

    agents = AgentPair(gamma=4.0, c=4.0)
    model = ShockWaveModel(0.0, 1.0, -0.6, agents)
    driver = Brownian(0.0, 1.0)
    grid = PathGrid(1000)
    found = 0
    for idx, path in enumerate(simulate_batch(driver, grid, ShockSchedule(), 42, 100)):
        events = crash_events(model, shockwave_path(model, path, grid))
        if events:
            found += 1
            for event in events:
                assert event.satisfied, (idx, event)
            if found == 5:
                break
    assert found == 5, "crossing paths not found"


def _linear_market(agents: AgentPair) -> MarkovPayoffs:
    return MarkovPayoffs(
        s_fn=lambda w: np.asarray(w, dtype=float),
        g_fn=lambda w: np.zeros_like(np.asarray(w, dtype=float)),
        h_fn=lambda w: np.asarray(w, dtype=float),
        agents=agents,
    )


def check_dp_two_leaf():
    scenario = DpScenario(
        Lattice(1), _linear_market(AgentPair(1.0, 1.0)), (-1.0, 1.0), 1e-3
    )
    result = value_recursion(scenario)
    assert abs(result.value - (-2.0 * math.log(math.cosh(0.5)))) <= 1e-8
    assert abs(result.policies[0][0] + 0.5) <= 1e-3


def check_price_consistency():
    # two routes to the conditional security-book value: direct leaf
    # enumeration vs the one-step tower recursion over children; plus the
    # exact split of one sale into two consecutive sales
    agents = AgentPair(gamma=1.3, c=2.0)
    payoffs = MarkovPayoffs(
        s_fn=lambda w: 0.5 + np.asarray(w, dtype=float),
        g_fn=lambda w: 0.3 * np.asarray(w, dtype=float),
        h_fn=lambda w: 0.2 * np.asarray(w, dtype=float) ** 2,
        agents=agents,
    )
    scenario = DpScenario(Lattice(6), payoffs, (-1.0, 1.0), 1e-3)
    gamma = agents.gamma

    def pi(level, m, z):
        return conditional_pi(
            scenario,
            level,
            m,
            lambda w: np.asarray(payoffs.g_fn(w), dtype=float)
            + z * np.asarray(payoffs.s_fn(w), dtype=float),
        )

    rng = np.random.default_rng(108)
    for _ in range(20):
        level = int(rng.integers(0, 6))
        m = int(rng.integers(0, level + 1))
        z, eta, y = rng.uniform(-1, 1, 3)
        up, dn = pi(level + 1, m + 1, z), pi(level + 1, m, z)
        tower = -(np.logaddexp(-gamma * up, -gamma * dn) - math.log(2.0)) / gamma
        assert abs(pi(level, m, z) - tower) <= 1e-10
        whole = pi(level, m, z) - pi(level, m, z - eta - y)
        split = (pi(level, m, z) - pi(level, m, z - eta)) + (
            pi(level, m, z - eta) - pi(level, m, z - eta - y)
        )
        assert abs(whole - split) <= 1e-10


def check_buy_and_hold():
    # s = w, g = 0, h = s: the lattice policy is the constant y* = -1/2
    report = no_rebalance_check(
        DpScenario(Lattice(6), _linear_market(AgentPair(1.0, 1.0)), (-1.0, 1.0), 1e-3)
    )
    assert abs(report.y_star + 0.5) <= 1e-12
    assert report.is_buy_and_hold
    assert abs(report.value_gap) <= 1e-8


def check_path_determinism():
    model = GammaProcess(alpha=2.0, beta=1.0)
    grid = PathGrid(64)
    sched = ShockSchedule(initial_value=0.2, shocks=((0.5, 0.3),))
    a = simulate_path(model, grid, sched, seed=9, path_index=3)
    b = simulate_path(model, grid, sched, seed=9, path_index=3)
    assert np.array_equal(a.x, b.x) and np.array_equal(a.h_prime, b.h_prime)
    c = simulate_path(model, grid, sched, seed=9, path_index=4)
    assert not np.array_equal(a.x, c.x)


def check_batch_seeding():
    # the batch's copy of SeedSequence against the installed numpy's: the seed
    # spans three words, and the path index carries into its second word
    model, grid, seed, first = GammaProcess(alpha=2.0, beta=1.0), PathGrid(16), 2**64 + 7, 2**32 - 2
    batch = simulate_batch(model, grid, ShockSchedule(), seed, 4, first=first)
    for k, row in enumerate(batch.increments, start=first):
        want = model.sample_increments(path_generator(seed, k), grid.dt, grid.n_steps)
        assert (row == want).all(), f"path {k} of seed {seed} left numpy's stream"


ALL_CHECKS: List[Tuple[str, Callable[[], None]]] = [
    ("cumulant-derivatives-vs-fd", check_cumulant_derivatives),
    ("cumulant-concavity", check_cumulant_shape),
    ("ce-cash-invariance", check_cash_invariance),
    ("ce-aversion-monotone", check_aversion_monotone),
    ("price-curve-convexity-bid-ask", check_price_curve),
    ("pnl-degenerate-offset", check_pnl_degenerate),
    ("allocation-identity", check_allocation_identity),
    ("quadrature-vs-closed-forms", check_quadrature_closed_forms),
    ("gradient-field-vs-fd", check_gradient_fd),
    ("completeness-residual", check_completeness),
    ("tanh-wave-match", check_tanh_wave),
    ("burgers-residual", check_burgers_residual),
    ("crash-drawdown-bound", check_crash_bound),
    ("dp-two-leaf-value", check_dp_two_leaf),
    ("price-tower-and-split", check_price_consistency),
    ("dp-buy-and-hold", check_buy_and_hold),
    ("path-determinism", check_path_determinism),
    ("batch-seeding-vs-numpy", check_batch_seeding),
]


def run_all(quiet: bool = False) -> Tuple[int, int]:
    """Run every check; returns (passed, failed) counts."""
    passed = failed = 0
    for name, check in ALL_CHECKS:
        try:
            check()
        except Exception as exc:  # noqa: BLE001 - report and count any failure
            failed += 1
            print(f"FAIL {name}: {exc!r}")
        else:
            passed += 1
            if not quiet:
                print(f"PASS {name}")
    print(f"{passed} passed, {failed} failed")
    return passed, failed
