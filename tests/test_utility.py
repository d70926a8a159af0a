"""Certainty equivalents, agent pairs, and the Levy indifference prices."""

import contextlib
import math
import warnings
from fractions import Fraction
from numbers import Real

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import logsumexp

from impactlab import (
    AgentPair,
    Brownian,
    DomainError,
    GammaProcess,
    OneSidedStable,
    ParameterError,
    SampleSet,
    certainty_equivalent,
    levy_pi,
    levy_price_curve,
)
from impactlab import utility
from impactlab.utility import ce, newton_root, tilted_mean, tilted_moments


def test_agent_pair_composites():
    agents = AgentPair(gamma=1.0, c=1.0)
    assert agents.aggregate_aversion == pytest.approx(0.5)
    assert agents.demander_weight == pytest.approx(0.5)

    agents = AgentPair(gamma=1.0, c=3.0)
    assert agents.aggregate_aversion == pytest.approx(0.75)
    assert agents.demander_weight == pytest.approx(0.75)

    worst_case = AgentPair(gamma=2.0, c=math.inf)
    assert worst_case.aggregate_aversion == 2.0
    assert worst_case.demander_weight == 1.0

    neutral = AgentPair(gamma=0.0, c=5.0)
    assert neutral.aggregate_aversion == 0.0


def test_agent_pair_validation():
    with pytest.raises(ParameterError):
        AgentPair(gamma=-1.0, c=1.0)
    with pytest.raises(ParameterError):
        AgentPair(gamma=math.inf, c=1.0)
    with pytest.raises(ParameterError):
        AgentPair(gamma=1.0, c=0.0)
    with pytest.raises(ParameterError):
        AgentPair(gamma=1.0, c=-2.0)
    with pytest.raises(ParameterError):
        AgentPair(gamma=1.0, c=math.nan)


def test_sample_set_validation():
    with pytest.raises(ParameterError):
        SampleSet(np.array([1.0, 2.0]), np.array([0.5, 0.6]))
    with pytest.raises(ParameterError):
        SampleSet(np.array([1.0, math.inf]), np.array([0.5, 0.5]))
    with pytest.raises(ParameterError):
        SampleSet(np.array([1.0, 2.0]), np.array([-0.1, 1.1]))
    with pytest.raises(ParameterError):
        SampleSet(np.array([]), np.array([]))


def test_ce_anchor_values():
    two_point = SampleSet.uniform([1.0, -1.0])
    # constant -> itself, any aversion
    constant = SampleSet.uniform([2.5, 2.5, 2.5])
    for aversion in (0.0, 1.0, 7.0, math.inf):
        assert certainty_equivalent(constant, aversion) == pytest.approx(2.5, abs=1e-12)

    assert certainty_equivalent(two_point, 1.0) == pytest.approx(
        -math.log(math.cosh(1.0)), abs=1e-12
    )
    assert certainty_equivalent(two_point, 1.0) == pytest.approx(-0.433781, abs=1e-6)
    assert certainty_equivalent(two_point, 0.0) == pytest.approx(0.0, abs=1e-15)
    assert certainty_equivalent(two_point, math.inf) == -1.0

    # composite aversion 1/2 on the same support
    agents = AgentPair(gamma=1.0, c=1.0)
    # exact value -0.24022901...; quoted roundings of it are only good to ~1e-4
    composite = certainty_equivalent(two_point, agents.aggregate_aversion)
    assert composite == pytest.approx(-2.0 * math.log(math.cosh(0.5)), abs=1e-12)
    assert composite == pytest.approx(-0.2402, abs=1e-4)

    worst = AgentPair(gamma=1.0, c=math.inf)
    assert certainty_equivalent(two_point, worst.aggregate_aversion) == pytest.approx(
        -math.log(math.cosh(1.0)), abs=1e-12
    )


def test_ce_brute_force_oracle():
    # direct sum evaluation without the log-sum-exp shift
    rng = np.random.default_rng(31)
    for _ in range(50):
        values = rng.normal(0.0, 1.0, 8)
        weights = rng.dirichlet(np.ones(8))
        samples = SampleSet(values, weights)
        for aversion in (0.3, 1.0, 4.0):
            brute = -math.log(float(weights @ np.exp(-aversion * values))) / aversion
            assert certainty_equivalent(samples, aversion) == pytest.approx(
                brute, abs=1e-12
            )


def test_ce_cash_invariance_and_monotonicity():
    rng = np.random.default_rng(32)
    for _ in range(40):
        samples = SampleSet.uniform(rng.normal(0.0, 2.0, 10))
        shift = float(rng.normal(0.0, 10.0))
        for aversion in (0.0, 0.5, 2.0, 10.0, math.inf):
            residual = (
                certainty_equivalent(samples.shifted(shift), aversion)
                - certainty_equivalent(samples, aversion)
                - shift
            )
            assert abs(residual) < 1e-10
        levels = [0.0, 0.1, 0.5, 1.0, 3.0, 10.0, 50.0, math.inf]
        ces = [certainty_equivalent(samples, a) for a in levels]
        for lo, hi in zip(ces, ces[1:]):
            assert hi <= lo + 1e-12


def test_ce_concavity_in_values():
    # two-point mixtures of sample vectors: ce(mix) >= mix of ce
    rng = np.random.default_rng(33)
    for _ in range(40):
        v1, v2 = rng.normal(0.0, 1.5, (2, 6))
        weights = rng.dirichlet(np.ones(6))
        lam = float(rng.random())
        mixed = SampleSet(lam * v1 + (1 - lam) * v2, weights)
        part1 = SampleSet(v1, weights)
        part2 = SampleSet(v2, weights)
        for aversion in (0.4, 1.0, 5.0):
            lhs = certainty_equivalent(mixed, aversion)
            rhs = lam * certainty_equivalent(part1, aversion) + (
                1 - lam
            ) * certainty_equivalent(part2, aversion)
            assert lhs >= rhs - 1e-10


def test_ce_overflow_and_bad_aversion():
    samples = SampleSet.uniform([-1e308, 0.0])
    with pytest.raises(OverflowError):
        certainty_equivalent(samples, 10.0)
    with pytest.raises(ParameterError):
        certainty_equivalent(samples, -1.0)


# ---------------------------------------------------------------------------
# the array kernel, against independent references

_VALUES = st.floats(-1e3, 1e3, allow_nan=False)
# log-weights sum to one only up to roundoff, and that error reaches the CE
# divided by the aversion, so finite aversions stay away from 0
_AVERSION = st.floats(0.01, 100.0)


def _log_weights(draw, k):
    """k normalized log-weights, some of them -inf (zero weight)."""
    raw = draw(arrays(float, k, elements=st.floats(0.0, 1.0)))
    raw[draw(st.integers(0, k - 1))] += 0.5  # at least one supported value
    with np.errstate(divide="ignore"):
        return np.log(raw / raw.sum())


@st.composite
def weighted_support(draw, max_len=12):
    """values and log-weights of one support."""
    k = draw(st.integers(1, max_len))
    return draw(arrays(float, k, elements=_VALUES)), _log_weights(draw, k)


def _scale(*arrays_):
    return max(1.0, *(float(np.max(np.abs(a))) for a in arrays_))


@settings(deadline=None, max_examples=200)
@given(weighted_support(), _AVERSION)
def test_kernel_matches_logsumexp(support, aversion):
    values, logw = support
    reference = -logsumexp(logw - aversion * values) / aversion
    assert abs(ce(values, logw, aversion) - reference) <= 1e-12 * _scale(values)


@settings(deadline=None, max_examples=100)
@given(
    st.integers(1, 6),
    st.integers(1, 6),
    st.integers(0, 1),
    _AVERSION,
    st.data(),
)
def test_kernel_matches_logsumexp_on_either_axis(rows, cols, axis, aversion, data):
    values = data.draw(arrays(float, (rows, cols), elements=_VALUES))
    logw = _log_weights(data.draw, values.shape[axis])
    logw = logw if axis == 1 else logw[:, None]
    got = ce(values, logw, aversion, axis=axis)
    reference = -logsumexp(logw - aversion * values, axis=axis) / aversion
    assert got.shape == reference.shape
    assert np.max(np.abs(got - reference)) <= 1e-12 * _scale(values)


@settings(deadline=None, max_examples=200)
@given(weighted_support(), st.floats(0.01, 1e6))
def test_kernel_limits(support, aversion):
    values, logw = support
    weights = np.exp(logw)
    supported = values[weights > 0.0]
    tol = 1e-12 * _scale(values)
    mean = float(weights @ values)
    worst = float(supported.min())
    assert abs(ce(values, logw, 0.0) - mean) <= tol
    assert ce(values, logw, math.inf) == worst
    # between the two limits, and close to each one at its end
    got = ce(values, logw, aversion)
    spread = float(supported.max() - worst)
    assert mean - aversion * spread**2 / 8.0 - tol <= got <= mean + tol
    j = np.flatnonzero(weights > 0.0)[np.argmin(supported)]
    assert worst - tol <= got <= worst - logw[j] / aversion + tol


@settings(deadline=None, max_examples=200)
@given(weighted_support(), st.floats(-1e3, 1e3), st.sampled_from([0.0, 0.1, 1.0, 10.0, math.inf]))
def test_kernel_cash_invariance(support, cash, aversion):
    values, logw = support
    shifted = ce(values + cash, logw, aversion)
    assert abs(shifted - ce(values, logw, aversion) - cash) <= 1e-12 * _scale(values, cash)


@settings(deadline=None, max_examples=200)
@given(weighted_support(), st.just(0.0) | _AVERSION, st.just(0.0) | _AVERSION)
def test_kernel_monotone_in_aversion(support, a1, a2):
    values, logw = support
    lo, hi = sorted((a1, a2))
    assert ce(values, logw, hi) <= ce(values, logw, lo) + 1e-12 * _scale(values)
    assert ce(values, logw, math.inf) <= ce(values, logw, hi) + 1e-12 * _scale(values)


@settings(deadline=None, max_examples=200)
@given(weighted_support(), st.floats(0.0, 0.3), st.data())
def test_tilted_mean_matches_softmax(support, aversion, data):
    values, logw = support
    x = data.draw(arrays(float, values.shape, elements=_VALUES))
    # |aversion * values| <= 300: the unshifted exponentials stay finite
    direct = np.exp(logw - aversion * values)
    direct /= direct.sum()
    got = tilted_mean(x, values, logw, aversion)
    assert abs(got - float(direct @ x)) <= 1e-12 * _scale(x)


def test_levy_pi_anchor():
    model = GammaProcess(alpha=2.0, beta=1.0)
    got = levy_pi(model, gamma=1.0, z=1.0, x_t=0.3, t=0.5)
    assert got == pytest.approx(0.3 + 0.5 * math.log(1.5), abs=1e-14)
    assert got == pytest.approx(0.502733, abs=1e-6)
    # t=1 collapses to mark-to-market
    assert levy_pi(model, 1.0, 2.0, x_t=0.7, t=1.0) == pytest.approx(1.4)
    # z=0 prices nothing
    assert levy_pi(model, 1.0, 0.0, x_t=0.7, t=0.2) == 0.0


def test_levy_pi_monte_carlo():
    # -(1/gamma) log E[exp(-gamma z X_1)], sampled
    cases = [
        (Brownian(b=0.2, sigma=1.0), 1.0, 0.8),
        (GammaProcess(alpha=2.0, beta=1.0), 0.7, 1.2),
        (OneSidedStable(r=1.0, alpha=0.5), 1.0, 0.9),
    ]
    rng = np.random.default_rng(34)
    for model, gamma, z in cases:
        draws = model.sample_increments(rng, 1.0, 200_000)
        vals = np.exp(-gamma * z * draws)
        est = -math.log(vals.mean()) / gamma
        se = vals.std(ddof=1) / math.sqrt(vals.size) / (gamma * vals.mean())
        assert levy_pi(model, gamma, z, 0.0, 0.0) == pytest.approx(est, abs=4 * se)


def test_levy_pi_gamma_zero_branch():
    model = Brownian(b=0.4, sigma=1.0)
    assert levy_pi(model, 0.0, 2.0, x_t=0.1, t=0.25) == pytest.approx(
        0.1 * 2.0 + 0.75 * 2.0 * 0.4
    )


def test_levy_pi_domain_error():
    model = GammaProcess(alpha=1.0, beta=1.0)
    with pytest.raises(DomainError):
        levy_pi(model, gamma=2.0, z=-1.0, x_t=0.0, t=0.0)


def test_price_curve_shape():
    model = GammaProcess(alpha=3.0, beta=1.0)
    rng = np.random.default_rng(35)
    gamma, a = 1.0, 0.5
    for _ in range(60):
        z = float(rng.uniform(-0.5, 1.0))
        t = float(rng.uniform(0.0, 1.0))
        x_t = float(rng.normal())
        assert levy_price_curve(model, gamma, a, z, 0.0, x_t, t) == 0.0
        ys = np.sort(rng.uniform(-1.0, 1.0, 3))
        # second divided difference >= 0 (convexity in the traded volume)
        p = [levy_price_curve(model, gamma, a, z, y, x_t, t) for y in ys]
        d1 = (p[1] - p[0]) / (ys[1] - ys[0])
        d2 = (p[2] - p[1]) / (ys[2] - ys[1])
        assert d2 >= d1 - 1e-10
        y = float(rng.uniform(0.0, 1.0))
        bid = -levy_price_curve(model, gamma, a, z, -y, x_t, t)
        ask = levy_price_curve(model, gamma, a, z, y, x_t, t)
        assert bid <= ask + 1e-12


def test_price_curve_risk_neutral_limit():
    # Brownian: curve -> y * (x_t + (1-t) b) linearly in gamma
    model = Brownian(b=0.3, sigma=1.0)
    a, z, y, x_t, t = 0.4, 0.2, 0.7, 0.15, 0.25
    line = y * (x_t + (1.0 - t) * model.b)
    err = {}
    for gamma in (1e-2, 1e-4):
        err[gamma] = abs(levy_price_curve(model, gamma, a, z, y, x_t, t) - line)
    assert err[1e-4] < err[1e-2] * 1.1e-2  # shrinks proportionally with gamma
    assert levy_price_curve(model, 0.0, a, z, y, x_t, t) == pytest.approx(line)


@settings(deadline=None, max_examples=100)
@given(st.integers(1, 6), weighted_support(), st.floats(0.0, 10.0), st.data())
def test_tilted_mean_rows_equal_one_support_formula(rows, support, aversion, data):
    """Each row is tilted as the one-support formula it replaced, bit for bit."""
    x, logw = support
    values = data.draw(arrays(float, (rows, x.size), elements=_VALUES))
    got = tilted_mean(x, values, logw, aversion)
    for row, value in zip(values, got):
        exponent = logw - aversion * row
        exponent -= exponent.max()
        tilt = np.exp(exponent)
        assert value == float(x @ tilt) / float(tilt.sum())


_LEVY_MODELS = st.one_of(
    st.builds(Brownian, b=st.floats(-1.0, 1.0), sigma=st.floats(0.0, 2.0)),
    st.builds(GammaProcess, alpha=st.floats(0.5, 5.0), beta=st.floats(0.1, 5.0)),
    st.builds(OneSidedStable, r=st.floats(0.1, 2.0), alpha=st.floats(0.1, 0.9)),
)


@settings(deadline=None, max_examples=300)
@given(
    _LEVY_MODELS,
    st.floats(0.1, 3.0),
    st.floats(-1.0, 1.0),
    st.floats(0.0, 1.0),
    st.floats(-2.0, 2.0),
    st.floats(0.0, 1.0),
    st.tuples(st.floats(0.0, 0.3), st.floats(0.4, 0.6), st.floats(0.7, 0.95)),
)
def test_price_curve_convex_and_zero_at_no_trade(model, gamma, a, z, x_t, t, fractions):
    """Inside the cumulant domain P_t(z, 0) = 0 and P_t(z, .) is convex."""
    # the cumulant sees gamma*hold before a trade of y and gamma*(hold - y) after it
    hold, y_hi = a + z, 2.0
    if isinstance(model, GammaProcess):  # both above -alpha
        hold = max(hold, -0.9 * model.alpha / gamma)
        y_hi = min(y_hi, hold + 0.9 * model.alpha / gamma)
    elif isinstance(model, OneSidedStable):  # both >= 0
        hold = abs(hold)
        y_hi = min(y_hi, hold)
    z = hold - a
    ys = [y_hi - 2.0 + 2.0 * f for f in fractions]
    assert levy_price_curve(model, gamma, a, z, 0.0, x_t, t) == 0.0
    p = [levy_price_curve(model, gamma, a, z, y, x_t, t) for y in ys]
    d1 = (p[1] - p[0]) / (ys[1] - ys[0])
    d2 = (p[2] - p[1]) / (ys[2] - ys[1])
    assert d2 >= d1 - 1e-12 * max(1.0, *map(abs, p)) / min(ys[1] - ys[0], ys[2] - ys[1])


# ---------------------------------------------------------------------------
# tilted moments and the safeguarded Newton iteration


def _direct_moments(x, other, values, logw, aversion):
    """One support, by the textbook formulas; a = inf tilts onto the supported minimizers."""
    weights = np.exp(logw)
    if math.isinf(aversion):
        low = values[weights > 0.0].min()
        weights = np.where(values == low, weights, 0.0)
    else:
        weights = weights * np.exp(-aversion * values)
    weights = weights / weights.sum()
    mean_x, mean_o = float(weights @ x), float(weights @ other)
    return mean_x, float(weights @ ((x - mean_x) * (other - mean_o)))


@settings(deadline=None, max_examples=200)
@given(weighted_support(), st.sampled_from([0.0, 0.05, 0.3, math.inf]), st.data())
def test_tilted_moments_match_direct_formulas(support, aversion, data):
    values, logw = support
    x, other = (data.draw(arrays(float, values.shape, elements=st.floats(-10.0, 10.0)))
                for _ in range(2))
    # |aversion * values| <= 300: the unshifted exponentials stay finite
    want = _direct_moments(x, other, values, logw, aversion)
    mean, cov = tilted_moments(x, values, logw, aversion, other=other)
    assert abs(mean - want[0]) <= 1e-12 * _scale(x)
    assert abs(cov - want[1]) <= 1e-12 * _scale(x) * _scale(other)
    mean, var = tilted_moments(x, values, logw, aversion)
    assert var == pytest.approx(_direct_moments(x, x, values, logw, aversion)[1], abs=1e-12 * _scale(x) ** 2)
    assert var >= 0.0


@settings(deadline=None, max_examples=200)
@given(
    st.integers(0, 4),
    st.integers(1, 8),
    st.booleans(),
    st.sampled_from([0.0, math.inf]) | _AVERSION,
    st.data(),
)
def test_tilted_moments_give_the_bits_of_ce(rows, k, transpose, aversion, data):
    """``with_ce`` appends ce's own bits (from the moments' tilt for a finite
    aversion) and leaves the moments as they are; 0 rows is one 1-d support."""
    shape = (rows, k) if rows else (k,)
    values, x = (data.draw(arrays(float, shape, elements=_VALUES)) for _ in range(2))
    logw, axis = _log_weights(data.draw, k), -1
    if transpose and rows:
        values, x, logw, axis = values.T, x.T, logw[:, None], 0
    mean, cov, got = tilted_moments(x, values, logw, aversion, axis=axis, with_ce=True)
    want = np.asarray(ce(values, logw, aversion, axis))
    assert got.shape == want.shape and got.tobytes() == want.tobytes()
    mean_alone, cov_alone = tilted_moments(x, values, logw, aversion, axis=axis)
    assert mean.tobytes() == mean_alone.tobytes() and cov.tobytes() == cov_alone.tobytes()


@settings(deadline=None, max_examples=200)
@given(st.integers(0, 4), st.integers(1, 8), st.booleans(), st.just(0.0) | _AVERSION, st.data())
def test_tilted_mean_with_ce_gives_the_bits_of_both(rows, k, unsupported, aversion, data):
    """The pair call returns tilted_mean's and ce's own bits, from one tilt for
    a > 0; 0 rows is one 1-d support, and one node may have weight 0."""
    shape = (rows, k) if rows else (k,)
    values = data.draw(arrays(float, shape, elements=_VALUES))
    x = data.draw(arrays(float, k, elements=_VALUES))
    logw = _log_weights(data.draw, k)
    if unsupported and k > 1:
        weights, at = np.exp(logw), data.draw(st.integers(0, k - 1))
        weights[at], weights[at - 1] = 0.0, weights[at - 1] + weights[at]
        with np.errstate(divide="ignore"):
            logw = np.log(weights)
    mean, got = tilted_mean(x, values, logw, aversion, with_ce=True)
    want_mean = tilted_mean(x, values, logw, aversion)
    want = np.asarray(ce(values, logw, aversion))
    assert mean.shape == want_mean.shape and mean.tobytes() == want_mean.tobytes()
    assert got.shape == want.shape and got.tobytes() == want.tobytes()


def test_tilted_moments_refuse_an_overflowing_ce_as_ce_does():
    values, logw = np.array([-1e308, 0.0]), np.log([0.5, 0.5])
    for call in (lambda: ce(values, logw, 10.0),
                 lambda: tilted_moments(values, values, logw, 10.0, with_ce=True),
                 lambda: tilted_mean(values, values, logw, 10.0, with_ce=True)):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(OverflowError, match="non-finite even after shifting"):
                call()


def test_tilted_moments_rows_axes_and_stacked_moments():
    rng = np.random.default_rng(8)
    values, x, other = rng.normal(size=(3, 4, 6))
    logw = np.log(rng.dirichlet(np.ones(6)))
    for aversion in (0.0, 1.7, math.inf):
        mean, cov = tilted_moments(np.stack((x, other)), values, logw, aversion)
        for r in range(4):
            for k, z in enumerate((x, other)):
                want = _direct_moments(z[r], z[r], values[r], logw, aversion)
                assert mean[k, r] == pytest.approx(want[0], abs=1e-14)
                assert cov[k, r] == pytest.approx(want[1], abs=1e-14)
        # the same along axis 0 of the transposed arrays
        mean_t, cov_t = tilted_moments(x.T, values.T, logw[:, None], aversion, other=other.T, axis=0)
        mean_r, cov_r = tilted_moments(x, values, logw, aversion, other=other)
        assert np.allclose(mean_t, mean_r, rtol=0.0, atol=1e-14)
        assert np.allclose(cov_t, cov_r, rtol=0.0, atol=1e-14)


@settings(deadline=None, max_examples=100)
@given(weighted_support(max_len=8), st.just(0.0) | st.floats(0.01, 3.0), st.floats(-1.0, 1.0), st.data())
def test_tilted_moments_are_the_derivatives_of_ce(support, aversion, y, data):
    """For v(y) = g - y*s: d ce/dy = -E^a[s] and d2 ce/dy2 = -a*Var^a[s].  Tiny
    aversions are left out, as in _AVERSION: ce itself loses the payoff there."""
    _, logw = support
    g, s = (data.draw(arrays(float, logw.shape, elements=st.floats(-2.0, 2.0))) for _ in range(2))
    mean, var = tilted_moments(s, g - y * s, logw, aversion)
    h = 1e-4
    at = [float(ce(g - (y + k * h) * s, logw, aversion)) for k in (-1, 0, 1)]
    assert (at[2] - at[0]) / (2 * h) == pytest.approx(-mean, abs=1e-6)
    assert (at[2] - 2 * at[1] + at[0]) / h**2 == pytest.approx(-aversion * var, abs=1e-3)


def _counted(fn):
    calls = []

    def wrapped(x):
        calls.append(x.copy())
        return fn(x)

    return wrapped, calls


def test_newton_root_bisects_to_the_stopping_step_within_the_cap():
    roots = np.array([-0.7, 0.0, 1e-9, 0.3, 0.9999])
    # a NaN slope refuses every Newton step: pure bisection
    fn, calls = _counted(lambda x: (x - roots, np.full_like(x, np.nan)))
    got, values = newton_root(fn, np.zeros(5) + 0.5, -1.0, 1.0)
    assert len(calls) < utility._NEWTON_CAP
    assert np.all(np.abs(got - roots) <= 8 * np.finfo(float).eps)
    assert np.array_equal(values, got - roots)
    assert np.array_equal(calls[-1], got)  # fn's last call is at the returned points


def test_newton_root_either_orientation_and_zero_start():
    # decreasing function: fn < 0 at the larger end
    got, _ = newton_root(lambda x: (np.exp(-x) - 0.5, -np.exp(-x)), 0.0, 3.0, -1.0)
    assert got == pytest.approx(math.log(2.0), abs=1e-15)
    # a zero value at the start keeps it, even with a zero slope
    fn, calls = _counted(lambda x: (np.zeros_like(x), np.zeros_like(x)))
    got, _ = newton_root(fn, np.array([0.25, -0.5]), -1.0, 1.0)
    assert got.tolist() == [0.25, -0.5] and len(calls) == 1


def test_newton_root_converges_on_a_kink_where_plain_newton_cycles():
    # -F' of a maximum at a kink: each branch's Newton step lands on the other
    # branch's side, so unguarded Newton alternates between 0.9 and -0.4 forever
    kink = 0.2
    fn, calls = _counted(lambda x: (np.where(x < kink, x - 0.9, x + 0.4), np.ones_like(x)))
    got, _ = newton_root(fn, -0.4, -1.0, 1.0)
    assert abs(got - kink) <= 8 * np.finfo(float).eps
    assert len(calls) < utility._NEWTON_CAP
    assert calls[-1] == got


def test_newton_root_bisects_where_newton_crawls():
    # a root of multiplicity 21: each Newton step removes 1/21 of the distance,
    # so unguarded Newton needs about 700 steps; halving the steps bounds it
    fn, calls = _counted(lambda x: (x**21, 21 * x**20))
    got, _ = newton_root(fn, 0.5, -1.0, 1.0)
    assert abs(got) <= 1e-13
    assert len(calls) < utility._NEWTON_CAP


@pytest.mark.parametrize("fn", [
    lambda x: (x - 0.3, np.full_like(x, 1e-320)),  # the step f/slope overflows
    lambda x: (np.where(x < 0.3, -1.0, 1.0), np.full_like(x, 1e-300)),  # the bracket test does
], ids=["divide", "multiply"])
def test_newton_root_refuses_an_overflowing_step_without_a_warning(fn):
    # a tiny slope sends the Newton step far outside the bracket: refused, the
    # bracket bisects down to one ulp of its larger end, and nothing is printed
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got, _ = newton_root(fn, np.array([0.0]), np.array([-3.0]), np.array([3.0]))
    assert abs(got[0] - 0.3) <= np.spacing(3.0)


@settings(deadline=None, max_examples=50)
@given(arrays(float, 6, elements=st.floats(-3.0, 3.0)), st.floats(0.1, 5.0))
def test_newton_root_lockstep_equals_one_entry_at_a_time(targets, curvature):
    def fn(x, t=targets):
        return np.sinh(curvature * (x - t)) + x - t, curvature * np.cosh(curvature * (x - t)) + 1.0

    together, _ = newton_root(fn, np.zeros(6), -4.0, 4.0)
    for k, t in enumerate(targets):
        alone, _ = newton_root(lambda x: fn(x, t), 0.0, -4.0, 4.0)
        assert alone == together[k]
        assert abs(alone - t) <= 1e-14 * max(1.0, abs(t))


_ROOT = 0.3
# (name, the value at x): a slope-driven line, a step, and constant values
_NEWTON_VALUES = {
    "line": lambda x: x - _ROOT,
    "step": lambda x: np.where(x < _ROOT, -1.0, 1.0),
    "zero": lambda x: np.zeros_like(x),
    "negative-zero": lambda x: np.full_like(x, -0.0),
    "nan": lambda x: np.full_like(x, np.nan),
}


@pytest.mark.parametrize("slope", [0.0, -0.0, math.nan, math.inf, -math.inf, 1e-320, -1e-320, 1.0])
@pytest.mark.parametrize("value", sorted(_NEWTON_VALUES))
@pytest.mark.parametrize("start, neg, pos", [(0.0, -3.0, 3.0), (2.5, 3.0, -1.0)])
def test_newton_root_on_floats_equals_the_lockstep_arrays(value, slope, start, neg, pos):
    # one entry runs on Python floats; a zero, NaN or infinite slope must step
    # (or refuse to) as numpy's division does, at the same points, silently
    def on_arrays(x):
        points.append(float(x[0]).hex())
        return _NEWTON_VALUES[value](x), np.full_like(x, slope)

    def on_floats(x):
        points.append(float(x).hex())
        return float(_NEWTON_VALUES[value](np.array([x]))[0]), slope

    runs = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for fn, args in ((on_arrays, ([start], [neg], [pos])), (on_floats, (start, neg, pos))):
            points = []
            x, f = newton_root(fn, *(np.array(a) if fn is on_arrays else a for a in args))
            runs.append((float(np.ravel(x)[0]).hex(), float(np.ravel(f)[0]).hex(), points))
    assert runs[0] == runs[1]
    assert type(x) is float and type(f) is float


def test_float_division_gives_numpys_bits():
    numbers = [1.5, -1.5, 0.0, -0.0, math.nan, math.inf, -math.inf, 1e300, 1e-320, -1e-320]
    for a in numbers:
        for b in numbers:
            with np.errstate(all="ignore"):
                want = float(np.divide(a, b))
            got = utility._divide(a, b)
            assert type(got) is float
            assert got.hex() == want.hex() or math.isnan(got) and math.isnan(want)


def _newton_root_by_abc_test(fn, x, neg, pos):
    """``utility.newton_root`` verbatim from before its exact float type test:
    the numbers.Real test alone picks the float loop."""
    if isinstance(x, Real) and isinstance(neg, Real) and isinstance(pos, Real):
        x, neg, pos = float(x), float(neg), float(pos)
        where, any_, maximum, divide, quiet, point = (
            utility._choose, bool, max, utility._divide, contextlib.nullcontext, np.float64)
    else:
        x = np.asarray(x, dtype=float)
        where, any_, maximum, divide, quiet, point = (
            np.where, np.any, np.maximum, np.divide, utility._quiet, np.asarray)
    tol = utility._EPS * maximum(abs(neg), abs(pos))
    step = prev = abs(pos - neg)
    f, slope = fn(point(x))
    active = f != 0.0
    for _ in range(utility._NEWTON_CAP):
        neg = where(f < 0.0, x, neg)
        pos = where(f > 0.0, x, pos)
        # a tiny slope overflows the step, and the step the bracket test: an
        # infinite product reads as outside the bracket, which it is
        with quiet():
            dx = divide(f, slope)
            new = x - dx
            take = ((new - neg) * (new - pos) < 0.0) & (abs(dx) <= 0.5 * prev)
        new = where(take, new, 0.5 * (neg + pos))
        prev, step = step, abs(new - x)
        active &= step > tol
        if not any_(active):
            break
        x = where(active, new, x)
        f, slope = fn(point(x))
        active &= f != 0.0
    return x, f


# each input type newton_root may be given for a point or a bracket end: the
# integral ones take whole values (bool: 0 or 1), the others any float
_NUMBER_TYPES = {
    "float": float, "float64": np.float64, "float32": np.float32, "int": int,
    "int64": np.int64, "bool": bool, "Fraction": Fraction, "0-d array": np.array,
}


@st.composite
def _typed_number(draw, kind=None):
    kind = kind or draw(st.sampled_from(sorted(_NUMBER_TYPES)))
    if kind == "bool":
        return bool(draw(st.integers(0, 1)))
    if kind in ("int", "int64"):
        return _NUMBER_TYPES[kind](draw(st.integers(-4, 4)))
    return _NUMBER_TYPES[kind](draw(st.floats(-4.0, 4.0)))


def _bits(v):
    """The type, dtype and bytes of a result: a float's and a 0-d array's alike."""
    return type(v), np.asarray(v).dtype, np.asarray(v).tobytes()


@st.composite
def _typed_numbers(draw):
    """x, neg and pos: of one type, or of floats but one, or of any three types."""
    kinds = sorted(_NUMBER_TYPES)
    mix = draw(st.sampled_from(["one type", "floats but one", "any"]))
    if mix == "one type":
        kinds = [draw(st.sampled_from(kinds))] * 3
    elif mix == "floats but one":
        kinds = ["float"] * 3
        kinds[draw(st.integers(0, 2))] = draw(st.sampled_from(sorted(_NUMBER_TYPES)))
    else:
        kinds = [None] * 3
    return tuple(draw(_typed_number(kind)) for kind in kinds)


@settings(deadline=None, max_examples=300)
@given(_typed_numbers(), st.floats(-3.0, 3.0), st.floats(0.1, 5.0), st.floats(0.0, 2.0),
       st.booleans())
@example((0.5, -4.0, np.array(4.0)), 0.3, 1.0, 1.0, False)
@example((0.5, -4.0, 4.0), 0.3, 1.0, 1.0, False)
def test_newton_root_keeps_the_path_and_bits_of_the_abc_test(start, root, curvature, line,
                                                             falling):
    # a random monotone function, increasing or falling: every input type takes
    # the path, the points, the bits and the result types of the numbers.Real test
    x, neg, pos = start
    sign = -1.0 if falling else 1.0

    def fn(y):
        points.append(_bits(y))
        d = y - root
        return sign * (np.sinh(curvature * d) + line * d), sign * (
            curvature * np.cosh(curvature * d) + line)

    runs = []
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for newton in (newton_root, _newton_root_by_abc_test):
            points = []
            got, value = newton(fn, x, neg, pos)
            runs.append((_bits(got), _bits(value), points))
    assert runs[0] == runs[1]


_ROW_ORDERS = st.sampled_from([2, 3, 7, 33, 127, 128, 129, 370])


@settings(deadline=None, max_examples=200)
@given(_ROW_ORDERS, st.sampled_from([5e-324, 1e-310]) | st.floats(1e-300, 1e3),
       st.integers(0, 2**32 - 1), st.booleans())
def test_one_row_tilted_moments_give_the_bits_of_a_matrix_row(order, aversion, seed, given_other):
    # a 1-d row takes tilted_moments' one-row branch; as a (1, n) matrix, the
    # generic one: the same ufuncs in the same order, so the same bits
    from impactlab.markov import _rules

    nodes, logw = _rules(order)
    rng = np.random.default_rng(seed)
    s, g = rng.normal(size=(2, order))
    values, other = g - rng.uniform(-2.0, 2.0) * s, s if given_other else None
    mean, cov = tilted_moments(nodes, values, logw, aversion, other=other)
    mean_m, cov_m = tilted_moments(nodes, values[None, :], logw, aversion, other=other)
    assert type(mean) is type(cov) is np.float64  # the one-row branch's scalars
    assert mean_m.shape == cov_m.shape == (1,)
    assert np.asarray(mean).reshape(1).tobytes() == mean_m.tobytes()
    assert np.asarray(cov).reshape(1).tobytes() == cov_m.tobytes()
