"""Lattice DP: conditional values, sup-convolution, recursion oracles, EMM limits."""

import dataclasses
import hashlib
import importlib.util
import itertools
import math
import time
from collections import Counter
from dataclasses import replace
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

import impactlab.dp
from impactlab.dp import (
    DpScenario,
    Lattice,
    _level_menus,
    buy_and_hold_position,
    conditional_ce,
    conditional_pi,
    convergence_study,
    emm_eipu,
    no_rebalance_check,
    sup_convolution,
    value_recursion,
)
from impactlab.errors import ParameterError, PreconditionError, QuadratureError
from impactlab.markov import (
    MarkovPayoffs,
    QuadraticModel,
    field_p,
    field_v,
    quadratic_p,
    quadratic_v,
)
from impactlab.utility import AgentPair, ce


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
    for level in (-1, 4):  # refused before the weights' cache: -1 gave 5 weights, 4 none
        with pytest.raises(ParameterError, match="level outside the lattice"):
            lat.leaf_log_weights_from(level)


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


@pytest.mark.parametrize("refine", [True, False])
def test_a_constant_payoff_gives_the_bits_of_the_full_array(refine):
    # the Markov fields broadcast a payoff that returns one number; the lattice does too
    agents = AgentPair(gamma=1.0, c=1.5)
    const, full = (
        DpScenario(Lattice(4), MarkovPayoffs(IDENT, g, IDENT, agents), (-2.0, 2.0), 1e-2)
        for g in (lambda w: 0.0, lambda w: np.full_like(w, 0.0))
    )
    a, b = value_recursion(const, refine), value_recursion(full, refine)
    assert (a.value, a.pi0_g, a.bound_hits) == (b.value, b.pi0_g, b.bound_hits)
    assert all((x == y).all() for x, y in zip(a.fields + a.policies, b.fields + b.policies))
    for scn in (const, full):
        assert buy_and_hold_position(scn) == -0.6  # -y*S = (c / (c + gamma)) * H
    assert no_rebalance_check(const, refine) == no_rebalance_check(full, refine)
    continuation = full.payoffs.h_fn(full.lattice.level_values(1))
    for x, y in zip(sup_convolution(const, 0, continuation, refine),
                    sup_convolution(full, 0, continuation, refine)):
        assert (x == y).all()
    assert emm_eipu(const, 1, 0) == emm_eipu(full, 1, 0)
    assert conditional_pi(const, 1, 1, lambda w: 0.7) == conditional_pi(full, 1, 1, lambda w: np.full_like(w, 0.7))


@pytest.mark.parametrize("bad", ["g_fn", "s_fn", "h_fn"])
def test_a_non_finite_leaf_payoff_is_refused_before_any_ce(bad):
    # NaN at the leaf w = 1 of Lattice(4) in one payoff; the recursion used to
    # report an OverflowError and emm_eipu returned nan
    nan_at_one = lambda w: np.where(w == 1.0, np.nan, 0.5 * w)
    base = make_payoffs(IDENT, lambda w: 0.2 * w, IDENT)
    scn = DpScenario(Lattice(4), replace(base, **{bad: nan_at_one}), (-2.0, 2.0), 1e-2)
    assert 1.0 in scn.lattice.level_values(4)
    calls = [
        lambda: value_recursion(scn, refine=True),
        lambda: value_recursion(scn, refine=False),
        lambda: sup_convolution(scn, 3, np.zeros(5)),
        lambda: conditional_pi(scn, 0, 0, nan_at_one),
        lambda: conditional_ce(scn, 2, 2, nan_at_one, 0.0),
        lambda: emm_eipu(scn, 0, 0),
        lambda: buy_and_hold_position(scn),
        lambda: no_rebalance_check(scn),
    ]
    for call in calls:
        with pytest.raises(PreconditionError, match="^terminal payoff is non-finite at a lattice leaf$"):
            call()
    # the leaves below node (3, 0) are -2 and 0: the bad leaf is not among them
    assert math.isfinite(conditional_pi(scn, 3, 0, nan_at_one))
    # the Markov layer refuses the same payoff as a quadrature failure
    with pytest.raises(QuadratureError, match="^terminal payoff is non-finite at a quadrature node$"):
        field_v(MarkovPayoffs(IDENT, nan_at_one, IDENT, base.agents), 1.0, 1.0)


@pytest.mark.parametrize("refine", [True, False])
def test_value_recursion_calls_each_payoff_once(refine):
    # the two-peak scenario below: refine on scans two nodes again on the whole grid
    calls = Counter()

    def counted(scn):
        def wrap(name, fn):
            def wrapped(w):
                calls[name] += 1
                return fn(w)

            return wrapped

        pay = scn.payoffs
        return replace(scn, payoffs=replace(
            pay, s_fn=wrap("s", pay.s_fn), g_fn=wrap("g", pay.g_fn), h_fn=wrap("h", pay.h_fn)))

    scn = make_scenario(3, lambda w: 0.2 - 0.9 * w + w**2, lambda w: -0.8 - 0.5 * w,
                        lambda w: 0.3 * w, gamma=4.0, c=1.0, admissible=(-3.0, 3.0), res=1e-3)
    once = counted(scn)
    result = value_recursion(once, refine)
    assert calls == {"s": 1, "g": 1, "h": 1}
    assert result.fallback_nodes == (2 if refine else 0)
    # the public step, given no menus, builds the children's menus from the leaves
    fields, policies, tally = [result.fields[-1]], [], Counter()
    for level in range(2, -1, -1):
        values, pol = sup_convolution(scn, level, fields[-1], refine, tally=tally)
        fields.append(values)
        policies.append(pol)
    assert all((a == b).all() for a, b in zip(result.fields + result.policies,
                                              fields[::-1] + policies[::-1]))
    assert (result.refine_evaluations, result.fallback_nodes) == (
        tally["evaluations"], tally["fallback_nodes"])
    assert value_recursion(scn, refine).value == result.value
    # the scenario holds its leaf rows: a second recursion evaluates no payoff, a copy again
    assert result_bytes(value_recursion(once, refine)) == result_bytes(result)
    assert calls == {"s": 1, "g": 1, "h": 1}
    assert result_bytes(value_recursion(replace(once), refine)) == result_bytes(result)
    assert calls == {"s": 2, "g": 2, "h": 2}
    # buy_and_hold_position and the recursion of no_rebalance_check read the same rows
    calls.clear()
    report = no_rebalance_check(counted(make_scenario(3, IDENT, ZERO, IDENT,
                                                      admissible=(-1.0, 1.0))), refine)
    assert report.is_buy_and_hold and calls == {"s": 1, "g": 1, "h": 1}


@pytest.mark.parametrize("refine", [True, False])
def test_the_tracer_sees_each_step_of_the_recursion(refine):
    """``bench/tracer.py`` wraps the public ``dp`` functions in their module, so
    the recursion's n steps are ``dp.sup_convolution`` spans under its own span,
    and a traced run keeps the untraced bits."""
    spec = importlib.util.spec_from_file_location(
        "tracer", Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    scn = BIT_SCENARIOS[0]
    want = value_recursion(scn, refine)
    trace = tracer.Tracer()
    with trace.active():
        got = impactlab.dp.value_recursion(replace(scn), refine)
    dp_spans = [(i, span) for i, span in enumerate(trace.spans) if span[0].startswith("dp.")]
    (root, _), *steps = dp_spans
    assert [span[0] for _, span in dp_spans] == (
        ["dp.value_recursion"] + ["dp.sup_convolution"] * scn.lattice.n)
    assert all(span[3] == root for _, span in steps)
    assert result_bytes(got) == result_bytes(want)


# the two-peak fallback scenario above, gamma = 0, c = inf, and two buy-and-hold books
BIT_SCENARIOS = [
    make_scenario(3, lambda w: 0.2 - 0.9 * w + w**2, lambda w: -0.8 - 0.5 * w,
                  lambda w: 0.3 * w, gamma=4.0, c=1.0, admissible=(-3.0, 3.0), res=1e-3),
    make_scenario(4, lambda w: 1.0 + 0.4 * w, lambda w: 0.3 * w**2, IDENT, gamma=0.0, c=0.7,
                  res=1e-2),
    make_scenario(5, lambda w: np.tanh(w), lambda w: 0.2 * w - 0.1 * w**2, lambda w: 0.5 * w,
                  gamma=1.3, c=math.inf, admissible=(-2.5, 1.5), res=2e-3),
    make_scenario(3, IDENT, ZERO, IDENT, admissible=(-1.0, 1.0)),
    make_scenario(2, IDENT, IDENT, IDENT, gamma=3.0, c=1.0, admissible=(-1.0, 1.0)),
]


@pytest.mark.parametrize("refine", [True, False])
@pytest.mark.parametrize("scn", [BIT_SCENARIOS[0], BIT_SCENARIOS[4]])
def test_one_tilt_of_both_coin_flips_gives_the_bits_of_two_calls(scn, refine):
    # finite gamma and c: the step, the leaf-window objective and Newton's
    # derivatives tilt both coin flips at once; without the aversion column
    # they take the two calls gamma = 0 and c = inf take, with the same bits
    assert impactlab.dp._coin_aversions(scn.agents.gamma, scn.agents.c) is not None
    stacked = value_recursion(scn, refine)
    with mock.patch.object(impactlab.dp, "_coin_aversions", lambda *args: None):
        two_calls = value_recursion(replace(scn), refine)
    assert result_bytes(stacked) == result_bytes(two_calls)


def test_cached_lattice_arrays_are_read_only():
    # the coin and leaf log-weights, the (gamma, c) columns and the scan grids with
    # their tie-break orders are built once and shared by every step that reads them
    lat, scn = Lattice(5), BIT_SCENARIOS[0]
    shared = [lat.coin(3), lat.leaf_log_weights_from(2), impactlab.dp._coin_aversions(1.5, 2.0),
              *(a for grid in scn._scan_grids for a in grid)]
    assert lat.coin(3).base is lat.coin(2).base is not None
    assert Lattice(7).leaf_log_weights_from(4) is shared[1]
    assert impactlab.dp._coin_aversions(1.5, 2.0) is shared[2]
    for array in shared:
        assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            array[...] = 0.0
    assert impactlab.dp._coin_aversions(0.0, 2.0) is None
    assert impactlab.dp._coin_aversions(1.5, math.inf) is None


def result_bytes(value) -> bytes:
    """A result as its type and bytes, field by field and item by item."""
    if dataclasses.is_dataclass(value):
        return b"".join(f.name.encode() + result_bytes(getattr(value, f.name))
                        for f in dataclasses.fields(value))
    if isinstance(value, (list, tuple)):
        return b"[" + b",".join(result_bytes(item) for item in value) + b"]"
    out = np.asarray(value)
    return f"{type(value).__name__} {out.dtype.str} {out.shape}".encode() + out.tobytes()


def outcome_bytes(call, *args, **kwargs) -> bytes:
    """``result_bytes`` of a call, or a refusal as its type and message."""
    try:
        return result_bytes(call(*args, **kwargs))
    except PreconditionError as exc:
        return f"{type(exc).__name__}: {exc}".encode()


# recorded before value_recursion became a loop of sup_convolution
RECORDED_LATTICE_SHA256 = "969659588cfd446841c171c1ac073db31b9f5b947040c7172d118b1c695724ff"


def test_lattice_outputs_keep_their_recorded_bits():
    digest = hashlib.sha256()
    for scn in BIT_SCENARIOS:
        n, pay = scn.lattice.n, scn.payoffs
        for refine in (True, False):
            result = value_recursion(scn, refine)
            digest.update(result_bytes(result))
            for level in range(n):
                digest.update(result_bytes(
                    sup_convolution(scn, level, result.fields[level + 1], refine)))
            digest.update(outcome_bytes(no_rebalance_check, scn, refine))
        # the refine-off step down the whole lattice with one menu array, as given
        leaves, y = scn.lattice.level_values(n), scn.y_grid()
        menus = pay.g_fn(leaves)[:, None] - pay.s_fn(leaves)[:, None] * y
        field = pay.g_fn(leaves) + pay.h_fn(leaves)
        for level in range(n - 1, -1, -1):
            field, policy = sup_convolution(scn, level, field, False, menus[:level + 2])
            digest.update(result_bytes((field, policy, menus[:level + 1])))
        digest.update(outcome_bytes(buy_and_hold_position, scn))
        book = lambda w: pay.g_fn(w) - 0.3 * pay.s_fn(w)
        for level in range(n + 1):
            for m in range(level + 1):
                digest.update(result_bytes((emm_eipu(scn, level, m),
                                            conditional_pi(scn, level, m, book))))
    assert digest.hexdigest() == RECORDED_LATTICE_SHA256


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


SYMMETRIC_GRIDS = [((-1.5, 1.5), 1.0), ((-0.5, 0.5), 0.25)]


@pytest.mark.parametrize("admissible,res", SYMMETRIC_GRIDS)
def test_sup_convolution_tie_breaks_at_every_node(admissible, res):
    # menus even in y make grid points +-y tie exactly at every node of the
    # level: the winner is the negative one, and 0 beats them all when it ties
    level = 3
    scn = make_scenario(5, IDENT, ZERO, ZERO, gamma=1.3, c=0.7, admissible=admissible, res=res)
    y = scn.y_grid()
    rng = np.random.default_rng(11)
    menus = rng.normal(size=(level + 2, 1)) + rng.normal(scale=0.5, size=(level + 2, 1)) * y**2
    owed = rng.normal(size=level + 2)
    values, policies = sup_convolution(scn, level, owed, refine=False, menus=menus.copy())
    for m in range(level + 1):
        objective = np.array([
            ce_flip(owed[m + 1] - menus[m + 1, k], owed[m] - menus[m, k], 0.7)
            + ce_flip(menus[m + 1, k], menus[m, k], 1.3)
            for k in range(y.size)
        ])
        mags = np.unique(np.abs(y))
        by_mag = np.array([objective[np.abs(y) == a].max() for a in mags])
        top = np.sort(by_mag)
        assert top[-1] - top[-2] > 1e-9  # the reference is not itself at a near-tie
        assert policies[m] == -mags[np.argmax(by_mag)]
        assert values[m] == pytest.approx(top[-1], abs=1e-12)
    assert np.any(policies < 0.0)


@pytest.mark.parametrize("admissible,res,expected", [((-1.5, 1.5), 1.0, -0.5), ((-0.5, 0.5), 0.25, 0.0)])
def test_value_recursion_full_ties_take_smallest_then_negative_y(admissible, res, expected):
    # S = 0 leaves every grid point tied exactly at every node of every level;
    # on the step-0.25 grid 0 must win over -0.25 (an additive key such as
    # 2|y| + (y >= 0) would rank -0.25 first)
    scn = make_scenario(4, ZERO, lambda w: 0.3 * w**2, IDENT, admissible=admissible, res=res)
    for pol in value_recursion(scn, refine=False).policies:
        assert np.all(pol == expected)


def test_refine_keeps_grid_policies_when_the_objective_is_flat():
    # S = 0: the objective does not depend on y, so its derivative is 0 and the
    # tie-broken grid policy stays (refinement used to walk it to a bracket end)
    scn = make_scenario(3, ZERO, lambda w: 0.3 * w**2, IDENT, admissible=(-1.5, 1.5), res=1.0)
    assert scn.y_grid().tolist() == [-1.5, -0.5, 0.5, 1.5]
    result = value_recursion(scn, refine=True)
    assert all(np.all(pol == -0.5) for pol in result.policies)
    assert result.bound_hits == 0


def test_sup_convolution_menus_contract():
    # given menus are overwritten with this level's rows: the tower step of the children
    scn = make_scenario(4, lambda w: 1.0 + 0.4 * w, lambda w: 0.3 * w**2, IDENT, gamma=1.3, c=0.7)
    y = scn.y_grid()
    owed = np.linspace(-0.2, 0.3, 4)
    menus = _level_menus(scn, 3, y)
    values, policies = sup_convolution(scn, 2, owed, refine=False, menus=menus)
    assert np.array_equal(menus[:3], _level_menus(scn, 2, y))
    alone = sup_convolution(scn, 2, owed, refine=False)
    assert np.array_equal(alone[0], values) and np.array_equal(alone[1], policies)
    with pytest.raises(ParameterError):
        sup_convolution(scn, 2, owed, menus=np.zeros((3, y.size)))


def _golden_max_reference(f, lo, hi, iters=70):
    # the scalar golden-section search the lockstep refinement replaced
    invphi = (math.sqrt(5.0) - 1.0) / 2.0
    x1 = hi - invphi * (hi - lo)
    x2 = lo + invphi * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - invphi * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + invphi * (hi - lo)
            f2 = f(x2)
    mid = 0.5 * (lo + hi)
    return mid, f(mid)


def test_lockstep_refine_matches_scalar_golden_section():
    rng = np.random.default_rng(2024)
    coin = np.full(2, -math.log(2.0))
    for trial in range(9):
        n = int(rng.integers(1, 6))
        a = rng.uniform(-1.0, 1.0, size=(3, 3))
        # the last trial has S = 0: a flat objective, where the grid point is kept
        k = float(trial < 8)
        gamma = float(rng.choice([0.0, rng.uniform(0.3, 2.0)]))
        c = float(rng.choice([math.inf, rng.uniform(0.3, 2.0)]))
        scn = make_scenario(
            n,
            lambda w, a=a, k=k: k * (1.0 + a[0, 0] * w + 0.2 * a[0, 1] * w**2),
            lambda w, a=a: a[1, 0] + a[1, 1] * w + a[1, 2] * w**2,
            lambda w, a=a: a[2, 0] + a[2, 1] * w + a[2, 2] * w**2,
            gamma=gamma, c=c, admissible=(-1.5, 1.5), res=0.05,
        )
        lat, y = scn.lattice, scn.y_grid()
        for level in range(n):
            owed = rng.normal(size=level + 2)
            _, grid_policies = sup_convolution(scn, level, owed, refine=False)
            values, policies = sup_convolution(scn, level, owed, refine=True)
            logw = lat.leaf_log_weights_from(level + 1)
            for m in range(level + 1):
                j = int(np.flatnonzero(y == grid_policies[m])[0])
                kids = [lat.leaf_values_from(level + 1, m + k) for k in (0, 1)]
                g_pair = np.array([scn.payoffs.g_fn(w) for w in kids])
                s_pair = np.array([scn.payoffs.s_fn(w) for w in kids])

                def objective(yy):
                    pi = ce(g_pair - yy * s_pair, logw, gamma)
                    return float(ce(owed[m:m + 2] - pi, coin, c) + ce(pi, coin, gamma))

                y_ref, val_ref = _golden_max_reference(
                    objective, y[max(j - 1, 0)], y[min(j + 1, y.size - 1)]
                )
                val_grid = objective(y[j])
                want = max(val_ref, val_grid)
                assert abs(values[m] - want) <= 1e-12
                # golden section stops about 1e-7 short of the maximizer on a flat
                # top, so the policies differ; the objective must not be lower
                assert objective(policies[m]) >= want - 1e-15 * max(1.0, abs(want))
                if k == 0.0:
                    assert policies[m] == y[j]
                h = 1e-6
                if y[max(j - 1, 0)] + h < policies[m] < y[min(j + 1, y.size - 1)] - h:
                    # first-order condition of a maximum, kinks (c = inf) included
                    at = objective(policies[m])
                    assert (objective(policies[m] + h) - at) / h <= 1e-9
                    assert (at - objective(policies[m] - h)) / h >= -1e-9


_POLY = st.tuples(*[st.floats(-1.0, 1.0) for _ in range(3)])


def _poly(k):
    return lambda w: k[0] + k[1] * w + k[2] * w**2


@settings(max_examples=60, deadline=None)
@given(
    n=st.integers(1, 4),
    g=_POLY,
    s=_POLY,
    gamma=st.one_of(st.just(0.0), st.floats(0.2, 2.0)),
    c=st.one_of(st.floats(0.2, 2.0), st.just(math.inf)),
    seed=st.integers(0, 2**16),
)
def test_refine_is_no_worse_than_golden_section_on_random_levels(n, g, s, gamma, c, seed):
    """Every node of every level, c = inf (a kink where the children tie) included."""
    scn = make_scenario(n, _poly(s), _poly(g), ZERO, gamma=gamma, c=c, admissible=(-3.0, 3.0), res=0.1)
    lat, y = scn.lattice, scn.y_grid()
    coin = np.full(2, -math.log(2.0))
    owed = np.random.default_rng(seed).normal(size=n + 1)
    for level in range(n):
        _, grid_policies = sup_convolution(scn, level, owed[:level + 2], refine=False)
        values, policies = sup_convolution(scn, level, owed[:level + 2], refine=True)
        logw = lat.leaf_log_weights_from(level + 1)
        for m in range(level + 1):
            j = int(np.flatnonzero(y == grid_policies[m])[0])
            kids = [lat.leaf_values_from(level + 1, m + k) for k in (0, 1)]
            g_pair, s_pair = (np.array([fn(w) for w in kids]) for fn in (_poly(g), _poly(s)))

            def objective(yy):
                pi = ce(g_pair - yy * s_pair, logw, gamma)
                return float(ce(owed[m:m + 2] - pi, coin, c) + ce(pi, coin, gamma))

            _, val_ref = _golden_max_reference(objective, y[max(j - 1, 0)], y[min(j + 1, y.size - 1)])
            want = max(val_ref, objective(y[j]))
            assert abs(values[m] - want) <= 1e-12 * max(1.0, abs(want))
            # golden section keeps the highest of 72 values with ~1e-15 of roundoff
            # (ce divides by the aversion), so it may read a few ulps above the maximum
            assert objective(policies[m]) >= want - 1e-14 * max(1.0, abs(want))


def _node_objective(scn, level, m, owed):
    """The objective of node (level, m) at one y, from its children's leaves."""
    lat, gamma, c = scn.lattice, scn.agents.gamma, scn.agents.c
    logw = lat.leaf_log_weights_from(level + 1)
    kids = [lat.leaf_values_from(level + 1, m + k) for k in (0, 1)]
    g_pair, s_pair = (np.array([fn(w) for w in kids]) for fn in (scn.payoffs.g_fn, scn.payoffs.s_fn))
    coin = np.full(2, -math.log(2.0))

    def objective(yy):
        pi = ce(g_pair - yy * s_pair, logw, gamma)
        return float(ce(owed[m:m + 2] - pi, coin, c) + ce(pi, coin, gamma))

    return objective


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 4),
    g=_POLY,
    s=_POLY,
    gamma=st.one_of(st.just(0.0), st.floats(0.2, 2.0)),
    c=st.one_of(st.floats(0.2, 2.0), st.just(math.inf)),
    admissible=st.sampled_from([(-3.0, 3.0), (-1.3, 2.9)]),
    points=st.sampled_from([1001, 1601, 2001]),
    seed=st.integers(0, 2**16),
)
def test_coarse_scan_matches_golden_section_around_the_full_grid_argmax(
    n, g, s, gamma, c, admissible, points, seed
):
    """Refinement scans about 64 intervals of these grids, not every point."""
    lo, hi = admissible
    scn = make_scenario(n, _poly(s), _poly(g), ZERO, gamma=gamma, c=c, admissible=admissible,
                        res=(hi - lo) / (points - 1))
    y = scn.y_grid()
    assert y.size == points
    owed = np.random.default_rng(seed).normal(size=n + 1)
    for level in range(n):
        _, grid_policies = sup_convolution(scn, level, owed[:level + 2], refine=False)
        values, _ = sup_convolution(scn, level, owed[:level + 2], refine=True)
        for m in range(level + 1):
            j = int(np.flatnonzero(y == grid_policies[m])[0])
            objective = _node_objective(scn, level, m, owed)
            _, val_ref = _golden_max_reference(objective, y[max(j - 1, 0)], y[min(j + 1, y.size - 1)])
            want = max(val_ref, objective(y[j]))
            assert abs(values[m] - want) <= 1e-12 * max(1.0, abs(want))


def test_fallback_finds_the_higher_of_two_peaks():
    # the higher peak is narrow: sampled every 94th point of 6001 it reads lower
    # than the broad one near y = -1.69, so the scan's argmax sits on the lower peak
    scn = make_scenario(3, lambda w: 0.2 - 0.9 * w + w**2, lambda w: -0.8 - 0.5 * w, ZERO,
                        gamma=4.0, c=1.0, admissible=(-3.0, 3.0), res=1e-3)
    y, owed = scn.y_grid(), np.array([2.2, 1.7])
    objective = _node_objective(scn, 0, 0, owed)
    row = np.array([objective(v) for v in y])
    full = int(np.argmax(row))
    coarse = np.arange(0, y.size, math.ceil((y.size - 1) / 64))
    low = int(coarse[np.argmax(row[coarse])])
    assert y[full] == pytest.approx(0.523) and y[low] == pytest.approx(-1.684)
    _, high_ref = _golden_max_reference(objective, y[full - 1], y[full + 1])
    _, low_ref = _golden_max_reference(objective, y[low - 94], y[low + 94])
    assert high_ref > low_ref + 1e-3

    tally = Counter()
    values, policies = sup_convolution(scn, 0, owed, refine=True, tally=tally)
    assert tally == {"evaluations": 11, "fallback_nodes": 1}
    assert abs(values[0] - high_ref) <= 1e-12
    assert policies[0] == pytest.approx(0.52316, abs=1e-5)


def test_refine_keeps_the_full_grid_tie_break_when_zero_is_off_the_stride():
    # S = 0 is flat in y; on [-0.37, 1] at 1e-3 the scan keeps every 22nd of 1371
    # points, and 0 (index 370) is not one of them: the scan adds it
    scn = make_scenario(4, ZERO, lambda w: 0.3 * w**2, IDENT, admissible=(-0.37, 1.0), res=1e-3)
    y = scn.y_grid()
    assert y.size == 1371 and 370 % math.ceil(1370 / 64) != 0
    grid = value_recursion(scn, refine=False)
    refined = value_recursion(scn, refine=True)
    for pol, ref in zip(refined.policies, grid.policies):
        assert np.all(pol == y[370]) and np.array_equal(pol, ref)
    assert refined.bound_hits == 0 and refined.fallback_nodes == 0
    assert refined.refine_evaluations == 8


def test_refine_keeps_a_binding_upper_end_off_the_stride():
    # H = -S wants y = 1/2 at every node; on [-1, 0.2] at 1e-3 the scan keeps
    # every 19th of 1201 points, and the end 0.2 (index 1200) is not one of them
    scn = make_scenario(3, IDENT, ZERO, lambda w: -w, admissible=(-1.0, 0.2), res=1e-3)
    y = scn.y_grid()
    assert y.size == 1201 and 1200 % math.ceil(1200 / 64) != 0
    result = value_recursion(scn, refine=True)
    assert result.bound_hits == 6
    assert all(np.all(pol == 0.2) for pol in result.policies)
    assert (result.refine_evaluations, result.fallback_nodes) == (6, 0)


def test_refinement_evaluations_stop_at_the_roundoff_floor():
    # lockstep Newton from the whole grid's argmax without the roundoff stop
    # takes 127 derivative evaluations here, plus 2 objective evaluations a
    # level: one or two nodes keep stepping on roundoff after the rest converge
    model = QuadraticModel(
        g_load=0.3, mu=0.1, sigma=1.1, a_lin=0.6, b_quad=0.4, agents=AgentPair(1.0, 1.0)
    )
    scn = DpScenario(Lattice(16), model.payoffs(), (-1.0, 1.0), 1e-3)
    assert scn.y_grid().size == 2001
    result = value_recursion(scn)
    assert result.fallback_nodes == 0
    # at least Newton's start and the final values at each level; Newton from
    # the scan point rather than the parabola's vertex takes about 64
    assert 2 * 16 <= result.refine_evaluations <= 56
    assert result.refine_evaluations == 50  # the count before the leaf tilt was shared
    assert value_recursion(scn, refine=False).refine_evaluations == 0


@settings(max_examples=40, deadline=None)
@given(
    n=st.integers(1, 6),
    g=_POLY,
    s=_POLY,
    gamma=st.one_of(st.just(0.0), st.floats(0.05, 3.0)),
    ys=st.lists(st.floats(-2.0, 2.0), min_size=1, max_size=4),
)
def test_tower_menus_match_leaf_enumeration(n, g, s, gamma, ys):
    scn = make_scenario(n, _poly(s), _poly(g), ZERO, gamma=gamma)
    y = np.array(ys)
    for level in range(n + 1):
        menus = _level_menus(scn, level, y)
        for m in range(level + 1):
            for k, yy in enumerate(y):
                ref = conditional_pi(scn, level, m, lambda w: _poly(g)(w) - yy * _poly(s)(w))
                assert abs(menus[m, k] - ref) <= 1e-12 * max(1.0, abs(ref))


@settings(max_examples=25, deadline=None)
@given(
    n=st.integers(1, 5),
    g=_POLY,
    s=_POLY,
    h=_POLY,
    gamma=st.one_of(st.just(0.0), st.floats(0.2, 2.0)),
    c=st.one_of(st.floats(0.2, 2.0), st.just(math.inf)),
)
def test_value_recursion_matches_direct_recursion_on_random_lattices(n, g, s, h, gamma, c):
    # gamma = 0 (a mean) or c = inf (a minimum) takes each coin flip's two CEs
    # in two calls; otherwise they are one tilt
    scn = make_scenario(
        n, _poly(s), _poly(g), _poly(h), gamma=gamma, c=c, admissible=(-1.0, 1.0), res=0.25
    )
    assert value_recursion(scn, refine=False).value == pytest.approx(
        direct_root_value(scn), abs=1e-10
    )


def test_value_recursion_scales_to_256_levels():
    # O(n^2 * grid): n = 256 on 2001 grid points takes seconds, and the error
    # against the closed-form limit halves from n = 128 (the O(1/n) lattice rate)
    model = QuadraticModel(
        g_load=0.2, mu=0.0, sigma=1.0, a_lin=0.5, b_quad=0.3, agents=AgentPair(1.0, 1.0)
    )
    limit = quadratic_v(model, 0.0, 0.0) - quadratic_p(model, 0.0, 0.0, 0.0)
    started = time.perf_counter()
    errors = {}
    for n in (128, 256):
        scn = DpScenario(Lattice(n), model.payoffs(), (-1.0, 1.0), 1e-3)
        assert scn.y_grid().size == 2001
        errors[n] = abs(value_recursion(scn, refine=False).value - limit)
    assert time.perf_counter() - started < 60.0
    assert errors[128] / errors[256] == pytest.approx(2.0, rel=0.1)


def test_bound_hits_count_policies_on_the_admissible_ends():
    # H = S = W_1 with gamma = c wants y = -1/2 at every node
    free = value_recursion(make_scenario(3, IDENT, ZERO, IDENT, admissible=(-1.0, 1.0), res=0.01))
    assert free.bound_hits == 0
    narrow = make_scenario(3, IDENT, ZERO, IDENT, admissible=(-0.2, 0.2), res=0.01)
    # on [0, 1] refinement ends a few 1e-18 above the binding end 0, not on it
    long_only = make_scenario(3, IDENT, ZERO, IDENT, admissible=(0.0, 1.0), res=0.01)
    for scn, end in ((narrow, -0.2), (long_only, 0.0)):
        for refine in (False, True):
            result = value_recursion(scn, refine=refine)
            assert result.bound_hits == 6
            assert all(np.allclose(pol, end, rtol=0.0, atol=1e-12) for pol in result.policies)
    rows = convergence_study(narrow, [1, 2], limit=0.0, refine=False)
    assert [r.bound_hits for r in rows] == [1, 3]


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

            if gamma == 0.0:  # a risk-neutral supplier prices at the mean
                cache[key] = float(np.exp(logw) @ vals)
            else:
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


def pareto_bound(scn):
    """B_n = CE_abar(G + H) - Pi_0(G) over the n + 1 leaves: the demander's value of
    the efficient (Borch) sharing of G + H, which a complete market reaches."""
    g, _, h = scn._leaves
    logw = scn.lattice.leaf_log_weights_from(0)
    return float(ce(g + h, logw, scn.agents.aggregate_aversion) - ce(g, logw, scn.agents.gamma))


def _smooth(k):
    return lambda w: k[0] + k[1] * w + k[2] * w**2 + k[3] * np.tanh(w) + k[4] * np.cos(w)


_SMOOTH = st.tuples(st.floats(-0.5, 0.5), st.floats(-0.5, 0.5), st.floats(-0.2, 0.2),
                    st.floats(-1.0, 1.0), st.floats(-1.0, 1.0))


# a strictly increasing S (slope >= 0.5), smooth G and H, and an admissible
# interval wide enough that most draws never reach it
_COMPLETE_MARKETS = dict(
    s=st.tuples(st.floats(-1.0, 1.0), st.floats(0.5, 2.0), st.floats(-0.3, 0.3)),
    g=_SMOOTH,
    h=_SMOOTH,
    gamma=st.one_of(st.just(0.0), st.floats(0.1, 4.0)),
    c=st.one_of(st.floats(0.2, 4.0), st.just(math.inf)),
)


def _complete_market(n, s, g, h, gamma, c):
    return make_scenario(n, lambda w: s[0] + s[1] * w + s[2] * np.tanh(w), _smooth(g),
                         _smooth(h), gamma=gamma, c=c, admissible=(-8.0, 8.0), res=1e-3)


@settings(max_examples=60, deadline=None)
@given(n=st.sampled_from([2, 4, 8, 16, 32]), **_COMPLETE_MARKETS)
def test_the_lattice_reaches_the_pareto_bound(n, s, g, h, gamma, c):
    """Each one-step market of the binomial lattice is complete when S is strictly
    increasing, so the recursion reaches B_n wherever the admissible interval
    does not bind; on the y grid alone (refine off) it cannot exceed B_n."""
    scn = _complete_market(n, s, g, h, gamma, c)
    refined = value_recursion(scn, refine=True)
    assume(refined.bound_hits == 0)
    bound = pareto_bound(scn)
    assert abs(refined.value - bound) <= 1e-12 * (1.0 + abs(bound))
    assert value_recursion(scn, refine=False).value <= bound + 1e-12


def replication_root(scn, level, m):
    """The y at node (level, m) whose step shares the risk of G + H by Borch's rule:
    Pi_up(G - yS) - Pi_down(G - yS) = (c/(c+gamma)) (CE_abar,up(G+H) - CE_abar,down(G+H)),
    found by a bracketed root-finder on the admissible interval.  The sharing
    weight and abar are written out here, not taken from AgentPair."""
    from scipy.optimize import brentq

    gamma, c, pay = scn.agents.gamma, scn.agents.c, scn.payoffs
    share = 1.0 if math.isinf(c) else c / (c + gamma)
    up, down = (level + 1, m + 1), (level + 1, m)
    book = lambda w: pay.g_fn(w) + pay.h_fn(w)
    target = share * (conditional_ce(scn, *up, book, gamma * share)
                      - conditional_ce(scn, *down, book, gamma * share))

    def gap(y):
        owed = lambda w: pay.g_fn(w) - y * pay.s_fn(w)
        return conditional_pi(scn, *up, owed) - conditional_pi(scn, *down, owed) - target

    return brentq(gap, *scn.admissible, xtol=1e-15)


@settings(max_examples=40, deadline=None)
@given(n=st.sampled_from([2, 4, 8, 16]), **_COMPLETE_MARKETS)
def test_every_policy_is_the_one_step_replication_root(n, s, g, h, gamma, c):
    """Where the admissible interval does not bind, the refined policy at every node
    replicates the efficient sharing of the step: it is the replication root."""
    scn = _complete_market(n, s, g, h, gamma, c)
    result = value_recursion(scn, refine=True)
    assume(result.bound_hits == 0)
    for level, row in enumerate(result.policies):
        for m, y in enumerate(row):
            assert abs(y - replication_root(scn, level, m)) <= 1e-10


def test_a_binding_admissible_interval_stays_below_the_pareto_bound():
    # S = tanh w flattens in the tails, so replication there needs |y| > 3
    scn = make_scenario(8, np.tanh, lambda w: 0.3 * w**2, np.cos, gamma=1.3, c=2.0,
                        admissible=(-3.0, 3.0))
    result = value_recursion(scn)
    assert result.bound_hits > 0
    assert result.value < pareto_bound(scn) - 0.01


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
