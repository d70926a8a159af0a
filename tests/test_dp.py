"""Lattice DP: conditional values, sup-convolution, recursion oracles, EMM limits."""

import itertools
import math

import numpy as np
import pytest

from impactlab.dp import (
    DpScenario,
    Lattice,
    conditional_ce,
    conditional_pi,
    convergence_study,
    emm_eipu,
    no_rebalance_check,
    sup_convolution,
    value_recursion,
)
from impactlab.errors import ParameterError, PreconditionError
from impactlab.markov import MarkovPayoffs, field_p, field_v
from impactlab.utility import AgentPair


def wrap(f):
    return lambda w: np.asarray(f(np.asarray(w, dtype=float)), dtype=float)


def make_payoffs(s, g, h, gamma=1.0, c=1.0):
    return MarkovPayoffs(
        s_fn=wrap(s), g_fn=wrap(g), h_fn=wrap(h), agents=AgentPair(gamma=gamma, c=c)
    )


def make_scenario(n, s, g, h, gamma=1.0, c=1.0, admissible=(-2.0, 2.0), res=1e-3):
    return DpScenario(
        lattice=Lattice(n),
        payoffs=make_payoffs(s, g, h, gamma=gamma, c=c),
        admissible=admissible,
        y_resolution=res,
    )


def ce_flip(up, dn, aversion):
    if aversion == 0.0:
        return 0.5 * (up + dn)
    if math.isinf(aversion):
        return min(up, dn)
    return -(np.logaddexp(-aversion * up, -aversion * dn) - math.log(2.0)) / aversion


ZERO = lambda w: np.zeros_like(w)
IDENT = lambda w: w


# ---------------------------------------------------------------------------
# lattice geometry


def test_lattice_geometry_and_weights():
    lat = Lattice(4)
    assert lat.node_value(0, 0) == 0.0
    assert lat.node_value(4, 4) == pytest.approx(4 / 2.0)  # (2*4-4)/sqrt(4)
    assert np.allclose(lat.level_values(2), [-1.0, 0.0, 1.0])
    assert np.allclose(lat.leaf_values_from(2, 1), [-1.0, 0.0, 1.0])
    # binomial leaf weights, exactly normalized
    logw = lat.leaf_log_weights_from(1)
    weights = np.exp(logw)
    assert weights.sum() == pytest.approx(1.0, rel=1e-14)
    expected = np.array([math.comb(3, k) for k in range(4)]) / 8.0
    assert np.allclose(weights, expected, rtol=1e-13)


@pytest.mark.parametrize("n", [1, 7, 20, 512])
def test_leaf_log_weights_are_exact_log_binomials(n):
    lat = Lattice(n)
    for level in range(n + 1):
        r = n - level
        ref = np.array([math.log(math.comb(r, k)) - r * math.log(2.0) for k in range(r + 1)])
        logw = lat.leaf_log_weights_from(level)
        assert np.all(np.abs(logw - ref) <= 2 * np.spacing(np.abs(ref)))
        assert abs(math.fsum(np.exp(logw)) - 1.0) <= 1e-13


def test_lattice_validation():
    with pytest.raises(ParameterError):
        Lattice(0)
    with pytest.raises(ParameterError):
        Lattice(2.5)
    lat = Lattice(3)
    with pytest.raises(ParameterError):
        lat.node_value(4, 0)
    with pytest.raises(ParameterError):
        lat.node_value(2, 3)
    with pytest.raises(ParameterError):
        lat.level_values(-1)


def test_scenario_validation():
    pay = make_payoffs(IDENT, ZERO, IDENT)
    with pytest.raises(ParameterError):
        DpScenario(Lattice(2), pay, admissible=(1.0, -1.0))
    with pytest.raises(ParameterError):
        DpScenario(Lattice(2), pay, admissible=(0.5, 2.0))  # excludes 0
    with pytest.raises(ParameterError):
        DpScenario(Lattice(2), pay, admissible=(-np.inf, 1.0))
    with pytest.raises(ParameterError):
        DpScenario(Lattice(2), pay, admissible=(-1.0, 1.0), y_resolution=0.0)
    with pytest.raises(ParameterError):
        DpScenario(Lattice(2), pay, admissible=(-1.0, 1.0), y_resolution=3.0)
    grid = DpScenario(Lattice(2), pay, admissible=(-1.0, 1.0), y_resolution=0.25).y_grid()
    assert grid[0] == -1.0 and grid[-1] == 1.0 and grid.size == 9
    assert 0.0 in grid


# ---------------------------------------------------------------------------
# conditional certainty equivalents


def test_conditional_ce_anchors():
    scn1 = make_scenario(1, IDENT, ZERO, IDENT)
    assert conditional_pi(scn1, 0, 0, lambda w: np.full_like(w, 3.25)) == pytest.approx(3.25)
    assert conditional_pi(scn1, 0, 0, IDENT) == pytest.approx(-math.log(math.cosh(1.0)), rel=1e-14)

    scn2 = make_scenario(2, IDENT, ZERO, IDENT)
    # one period of the two-step walk contributes -log cosh(1/sqrt(2)) each
    assert conditional_pi(scn2, 0, 0, IDENT) == pytest.approx(
        -2.0 * math.log(math.cosh(1.0 / math.sqrt(2.0))), rel=1e-14
    )
    # interior node: leaves 0 and sqrt(2) with equal weight
    expected = -math.log(0.5 * (1.0 + math.exp(-math.sqrt(2.0))))
    assert conditional_pi(scn2, 1, 1, IDENT) == pytest.approx(expected, rel=1e-14)


def test_conditional_ce_aversion_limits():
    scn = make_scenario(3, IDENT, ZERO, IDENT)
    assert conditional_ce(scn, 0, 0, IDENT, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert conditional_ce(scn, 0, 0, IDENT, math.inf) == pytest.approx(-3.0 / math.sqrt(3.0))
    # monotone decreasing in aversion
    levels = [conditional_ce(scn, 0, 0, IDENT, a) for a in (0.0, 0.5, 1.0, 4.0, math.inf)]
    assert all(x >= y for x, y in zip(levels, levels[1:]))


def test_conditional_ce_overflow():
    scn = make_scenario(2, IDENT, ZERO, IDENT, gamma=10.0)
    with pytest.raises(OverflowError):
        conditional_pi(scn, 0, 0, lambda w: np.full_like(w, -1e308))


def test_conditional_pi_tower_property():
    # Pi at a node equals the one-step gamma-CE of Pi at its children
    scn = make_scenario(4, lambda w: 1.0 + 0.4 * w, lambda w: 0.3 * w**2, IDENT, gamma=1.3, c=0.7)
    fn = lambda w: np.asarray(scn.payoffs.g_fn(w)) - 0.6 * np.asarray(scn.payoffs.s_fn(w))
    for level, m in [(0, 0), (1, 1), (2, 0), (2, 2)]:
        direct = conditional_pi(scn, level, m, fn)
        up = conditional_pi(scn, level + 1, m + 1, fn)
        dn = conditional_pi(scn, level + 1, m, fn)
        assert direct == pytest.approx(ce_flip(up, dn, 1.3), rel=1e-13)


# ---------------------------------------------------------------------------
# sup-convolution


def test_sup_convolution_two_leaf_brute_force():
    # one period, H = S = W_1, G = 0, gamma = c = 1
    scn = make_scenario(1, IDENT, ZERO, IDENT, admissible=(-2.0, 2.0), res=1e-5)
    terminal = np.array([-1.0, 1.0])
    values, policies = sup_convolution(scn, 0, terminal, refine=False)

    def objective(y):
        pi_up, pi_dn = -y * 1.0, -y * (-1.0)
        return ce_flip(1.0 - pi_up, -1.0 - pi_dn, 1.0) + ce_flip(pi_up, pi_dn, 1.0)

    ys = np.arange(-2.0, 2.0 + 1e-9, 1e-5)
    brute = max(objective(y) for y in ys)
    assert values[0] == pytest.approx(brute, abs=1e-12)
    assert values[0] == pytest.approx(-2.0 * math.log(math.cosh(0.5)), abs=1e-9)
    assert policies[0] == pytest.approx(-0.5, abs=1e-5)

    refined, pol_ref = sup_convolution(scn, 0, terminal, refine=True)
    assert refined[0] == pytest.approx(-2.0 * math.log(math.cosh(0.5)), abs=1e-12)
    assert pol_ref[0] == pytest.approx(-0.5, abs=1e-7)


def test_sup_convolution_flat_endowment_is_free():
    scn = make_scenario(1, IDENT, ZERO, ZERO, res=1e-3)
    values, policies = sup_convolution(scn, 0, np.zeros(2), refine=True)
    assert abs(values[0]) < 1e-9
    assert abs(policies[0]) < 1e-6


def test_sup_convolution_tie_breaks_toward_negative():
    # grid {-1.5, -0.5, 0.5, 1.5} has no zero and exact fp symmetry, so the
    # even objective ties at +-0.5 and the tie-break must take -0.5
    scn = make_scenario(1, IDENT, ZERO, ZERO, admissible=(-1.5, 1.5), res=1.0)
    assert np.allclose(scn.y_grid(), [-1.5, -0.5, 0.5, 1.5])
    _, policies = sup_convolution(scn, 0, np.zeros(2), refine=False)
    assert policies[0] == -0.5


def test_sup_convolution_validation():
    scn = make_scenario(2, IDENT, ZERO, IDENT)
    with pytest.raises(ParameterError):
        sup_convolution(scn, 2, np.zeros(3))
    with pytest.raises(ParameterError):
        sup_convolution(scn, 0, np.zeros(5))


# ---------------------------------------------------------------------------
# value recursion against independent oracles


def test_value_recursion_trivial_and_anchor():
    for n in (1, 2, 5):
        result = value_recursion(make_scenario(n, IDENT, ZERO, ZERO))
        assert abs(result.value) < 1e-12
        assert abs(result.pi0_g) < 1e-12
        for pol in result.policies:
            assert np.max(np.abs(pol)) <= 1e-3 + 1e-12

    res = value_recursion(make_scenario(1, IDENT, ZERO, IDENT, res=1e-4))
    assert res.value == pytest.approx(-2.0 * math.log(math.cosh(0.5)), abs=1e-12)
    assert res.policies[0][0] == pytest.approx(-0.5, abs=1e-6)
    assert res.fields[1].shape == (2,) and res.fields[0].shape == (1,)


def test_value_recursion_cash_separation():
    base = make_scenario(3, lambda w: 1.0 + 0.4 * w, lambda w: 0.3 * w**2, IDENT)
    v0 = value_recursion(base).value
    shift_g = make_scenario(3, lambda w: 1.0 + 0.4 * w, lambda w: 0.3 * w**2 + 2.7, IDENT)
    assert value_recursion(shift_g).value == pytest.approx(v0, abs=1e-10)
    shift_h = make_scenario(3, lambda w: 1.0 + 0.4 * w, lambda w: 0.3 * w**2, lambda w: w + 2.7)
    assert value_recursion(shift_h).value == pytest.approx(v0 + 2.7, abs=1e-10)


def _pi_node_factory(scenario):
    lat = scenario.lattice
    gamma = scenario.agents.gamma
    cache = {}

    def pi_node(level, m, y):
        key = (level, m, float(y))
        if key not in cache:
            leaves = lat.leaf_values_from(level, m)
            logw = lat.leaf_log_weights_from(level)
            vals = np.asarray(scenario.payoffs.g_fn(leaves)) - y * np.asarray(
                scenario.payoffs.s_fn(leaves)
            )
            from scipy.special import logsumexp

            cache[key] = float(-logsumexp(logw - gamma * vals) / gamma)
        return cache[key]

    return pi_node


def direct_root_value(scenario):
    """Inventory-state backward recursion, written from scratch.

    State is (level, node, post-trade position); each trade is charged the
    supplier's conditional indifference price difference at the current node.
    """
    lat = scenario.lattice
    grid = scenario.y_grid()
    c = scenario.agents.c
    pi_node = _pi_node_factory(scenario)
    memo = {}

    def terminal(m, y):
        w = lat.node_value(lat.n, m)
        arr = np.asarray([w])
        return float(scenario.payoffs.h_fn(arr)[0] + y * scenario.payoffs.s_fn(arr)[0])

    def best(level, m, yi):
        key = (level, m, yi)
        if key in memo:
            return memo[key]
        hold = pi_node(level, m, grid[yi])
        out = -math.inf
        for yj, y_new in enumerate(grid):
            price = hold - pi_node(level, m, y_new)
            if level + 1 == lat.n:
                up, dn = terminal(m + 1, y_new), terminal(m, y_new)
            else:
                up, dn = best(level + 1, m + 1, yj), best(level + 1, m, yj)
            out = max(out, -price + ce_flip(up, dn, c))
        memo[key] = out
        return out

    zero_idx = int(np.argmin(np.abs(grid)))
    assert grid[zero_idx] == 0.0
    return best(0, 0, zero_idx)


def test_value_recursion_matches_direct_inventory_recursion():
    scn = make_scenario(
        4,
        lambda w: 1.0 + 0.4 * w,
        lambda w: 0.2 * w,
        lambda w: 0.8 * w - 0.3 * w**2,
        gamma=1.1,
        c=0.7,
        admissible=(-1.5, 1.5),
        res=0.25,
    )
    composed = value_recursion(scn, refine=False).value
    assert composed == pytest.approx(direct_root_value(scn), abs=1e-10)


def forward_policy_ce(scenario, position_at):
    """Realized demander CE of an adapted policy by full path enumeration."""
    lat = scenario.lattice
    n = lat.n
    c = scenario.agents.c
    pi_node = _pi_node_factory(scenario)
    wealths = []
    for steps in itertools.product((0, 1), repeat=n):
        held = 0.0
        cost = 0.0
        m = 0
        for level, step in enumerate(steps):
            y_new = position_at(level, m)
            cost += pi_node(level, m, held) - pi_node(level, m, y_new)
            held = y_new
            m += step
        w1 = np.asarray([lat.node_value(n, m)])
        wealths.append(
            float(scenario.payoffs.h_fn(w1)[0] + held * scenario.payoffs.s_fn(w1)[0]) - cost
        )
    vals = np.asarray(wealths)
    from scipy.special import logsumexp

    return float(-(logsumexp(-c * vals) - n * math.log(2.0)) / c)


def test_recursion_policy_is_forward_optimal():
    scn = make_scenario(
        4,
        lambda w: 1.0 + 0.4 * w,
        lambda w: 0.2 * w,
        lambda w: 0.8 * w - 0.3 * w**2,
        gamma=1.1,
        c=0.7,
        admissible=(-1.5, 1.5),
        res=0.01,
    )
    result = value_recursion(scn)
    own = forward_policy_ce(scn, lambda level, m: float(result.policies[level][m]))
    assert own == pytest.approx(result.value, abs=1e-9)

    rng = np.random.default_rng(77)
    lo, hi = scn.admissible
    for _ in range(20):
        table = [rng.uniform(lo, hi, size=level + 1) for level in range(scn.lattice.n)]
        other = forward_policy_ce(scn, lambda level, m: float(table[level][m]))
        assert other <= result.value + 1e-8


# ---------------------------------------------------------------------------
# buy-and-hold shortcut


def test_no_rebalance_simple_split():
    # H = S, G = 0, gamma = c: hold -1/2 and never touch it again
    scn = make_scenario(3, IDENT, ZERO, IDENT, admissible=(-1.0, 1.0))
    report = no_rebalance_check(scn)
    assert report.y_star == pytest.approx(-0.5)
    assert report.is_buy_and_hold
    assert report.max_policy_deviation <= scn.y_resolution
    assert abs(report.value_gap) < 1e-9


def test_no_rebalance_loaded_book():
    # G = S and H = S with c = 1, gamma = 3: weight 1/4, y* = 1 - 2/4 = 1/2
    scn = make_scenario(2, IDENT, IDENT, IDENT, gamma=3.0, c=1.0, admissible=(-1.0, 1.0))
    report = no_rebalance_check(scn)
    assert report.y_star == pytest.approx(0.5)
    assert report.is_buy_and_hold
    assert abs(report.value_gap) < 1e-9


def test_no_rebalance_trivial_market():
    scn = make_scenario(2, IDENT, ZERO, ZERO, admissible=(-1.0, 1.0))
    report = no_rebalance_check(scn)
    assert report.y_star == 0.0
    assert report.is_buy_and_hold
    assert abs(report.value_gap) < 1e-12


def test_no_rebalance_preconditions():
    quad = make_scenario(2, IDENT, ZERO, lambda w: w**2, admissible=(-1.0, 1.0))
    with pytest.raises(PreconditionError):
        no_rebalance_check(quad)
    dead = make_scenario(2, ZERO, ZERO, IDENT, admissible=(-1.0, 1.0))
    with pytest.raises(PreconditionError):
        no_rebalance_check(dead)
    narrow = make_scenario(2, IDENT, ZERO, IDENT, admissible=(-0.2, 0.2), res=0.01)
    with pytest.raises(PreconditionError):
        no_rebalance_check(narrow)


# ---------------------------------------------------------------------------
# EMM pricing at nodes


def test_emm_eipu_plain_expectation():
    scn = make_scenario(4, lambda w: 2.0 + 0.5 * w, ZERO, ZERO)
    lat = scn.lattice
    for level, m in [(0, 0), (2, 1), (3, 3)]:
        leaves = lat.leaf_values_from(level, m)
        r = lat.n - level
        weights = np.array([math.comb(r, k) for k in range(r + 1)]) / 2.0**r
        expected = float(weights @ (2.0 + 0.5 * leaves))
        assert emm_eipu(scn, level, m) == pytest.approx(expected, rel=1e-13)


def bachelier_scenario(n, gamma=1.0, c=1.0, alpha=1.0, sigma=1.0):
    # linear security, endowment alpha*S, empty book
    return make_scenario(
        n,
        lambda w: sigma * w,
        ZERO,
        lambda w: alpha * sigma * w,
        gamma=gamma,
        c=c,
        admissible=(-2.0, 2.0),
    )


def test_emm_eipu_bachelier_binomial_exact_and_bias():
    # independent explicit binomial sum at n = 6
    n = 6
    scn = bachelier_scenario(n)
    abar = 0.5
    leaves = (2 * np.arange(n + 1) - n) / math.sqrt(n)
    weights = np.array([math.comb(n, k) for k in range(n + 1)]) / 2.0**n
    tilt = weights * np.exp(-abar * leaves)
    expected = float((leaves * tilt).sum() / tilt.sum())
    root = emm_eipu(scn, 0, 0)
    assert root == pytest.approx(expected, rel=1e-13)

    # Gaussian limit is -abar*sigma^2 = -1/2; the lattice bias decays like 1/n
    errors = {m: abs(emm_eipu(bachelier_scenario(m), 0, 0) + 0.5) for m in (6, 64, 1024)}
    assert errors[1024] < errors[64] < errors[6]
    assert errors[64] / errors[1024] == pytest.approx(16.0, rel=0.2)
    assert errors[6] == pytest.approx(1.0 / (24.0 * 6), rel=0.05)


def exponential_scenario(n, zeta=1.0, sigma=0.5, alpha=1.0, gamma=1.0, c=1.0):
    frac = gamma / (c + gamma)
    h = lambda w: frac * alpha * sigma * w
    g = lambda w: alpha * sigma * w - frac * alpha * sigma * w
    return make_scenario(
        n, lambda w: zeta * np.exp(sigma * w), g, h, gamma=gamma, c=c, admissible=(-2.0, 2.0)
    )


def test_emm_eipu_exponential_closed_form():
    # lattice value has a product closed form; its n -> inf limit is
    # zeta * exp(sigma^2 * (1/2 - abar*alpha))
    zeta, sigma, c = 1.0, 0.5, 1.0
    for alpha, n in [(1.0, 64), (0.6, 512)]:
        scn = exponential_scenario(n, zeta=zeta, sigma=sigma, alpha=alpha)
        abar = 0.5
        step = 1.0 / math.sqrt(n)
        exact = zeta * (
            math.cosh(sigma * (1.0 - abar * alpha) * step) / math.cosh(abar * alpha * sigma * step)
        ) ** n
        got = emm_eipu(scn, 0, 0)
        assert got == pytest.approx(exact, rel=1e-12)
        limit = zeta * math.exp(sigma**2 * (0.5 - abar * alpha))
        assert got == pytest.approx(limit, rel=2e-3)
    # alpha = 1 with gamma = c makes the tilts symmetric: exactly zeta at any n
    assert emm_eipu(exponential_scenario(16), 0, 0) == pytest.approx(1.0, abs=1e-13)

    # interior nodes scale by the security at the node level
    scn = exponential_scenario(8, alpha=0.6)
    lat = scn.lattice
    step = 1.0 / math.sqrt(8)
    for level, m in [(2, 0), (5, 4)]:
        w0 = lat.node_value(level, m)
        r = lat.n - level
        exact = (
            math.exp(sigma * w0)
            * (math.cosh(sigma * 0.7 * step) / math.cosh(0.3 * sigma * step)) ** r
        )
        assert emm_eipu(scn, level, m) == pytest.approx(exact, rel=1e-12)


# ---------------------------------------------------------------------------
# convergence to the continuous market


def test_convergence_study_with_explicit_limit():
    scn = make_scenario(2, IDENT, ZERO, IDENT, admissible=(-1.0, 1.0))
    rows = convergence_study(scn, [2, 4, 8], limit=-0.25)
    assert [r.n for r in rows] == [2, 4, 8]
    for row in rows:
        assert row.error == pytest.approx(abs(row.value + 0.25), rel=1e-14)
    assert rows[0].error > rows[1].error > rows[2].error
    # first-order bias: halving the step roughly halves the error
    assert rows[0].error / rows[2].error == pytest.approx(3.9, rel=0.3)


def test_convergence_study_default_limit_from_quadrature():
    scn = make_scenario(2, IDENT, ZERO, IDENT, admissible=(-1.0, 1.0))
    rows = convergence_study(scn, [4])
    # v(0,0) - p(0,0,0) for these payoffs is -abar/2 = -0.25
    implied = field_v(scn.payoffs, 0.0, 0.0) - field_p(scn.payoffs, 0.0, 0.0, 0.0)
    assert implied == pytest.approx(-0.25, abs=1e-12)
    assert rows[0].error == pytest.approx(abs(rows[0].value - implied), rel=1e-12)


def test_convergence_study_rejects_nonfinite_limit():
    scn = make_scenario(2, IDENT, ZERO, IDENT, admissible=(-1.0, 1.0))
    with pytest.raises(PreconditionError):
        convergence_study(scn, [2], limit=math.nan)


def test_trade_splitting_is_cost_neutral():
    # buying eta+y in one order costs the same as eta then y at the same node
    scn = make_scenario(
        5, lambda w: 1.0 + 0.4 * w, lambda w: 0.3 * w**2, lambda w: w,
        gamma=1.3, c=0.7,
    )
    rng = np.random.default_rng(1234)

    def book_value(level, m, z):
        return conditional_pi(
            scn, level, m,
            lambda w: scn.payoffs.g_fn(w) + z * scn.payoffs.s_fn(w),
        )

    for _ in range(20):
        level = int(rng.integers(0, scn.lattice.n))
        m = int(rng.integers(0, level + 1))
        z, eta, y = rng.uniform(-1.0, 1.0, size=3)
        joint = book_value(level, m, z) - book_value(level, m, z - eta - y)
        first = book_value(level, m, z) - book_value(level, m, z - eta)
        second = book_value(level, m, z - eta) - book_value(level, m, z - eta - y)
        assert abs(joint - (first + second)) < 1e-10
