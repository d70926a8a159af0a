"""Cumulant families: closed forms vs finite differences, domains, samplers."""

import hashlib
import importlib.util
import inspect
import math
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from impactlab import (
    Brownian,
    DomainError,
    GammaProcess,
    NonDifferentiableError,
    OneSidedStable,
    ParameterError,
)

MODELS = [
    Brownian(b=0.5, sigma=1.0),
    Brownian(b=-0.2, sigma=0.3),
    GammaProcess(alpha=2.0, beta=1.0),
    GammaProcess(alpha=0.7, beta=3.5),
    OneSidedStable(r=1.0, alpha=0.5),
    OneSidedStable(r=2.3, alpha=0.8),
]


def interior(model, rng, count):
    if isinstance(model, Brownian):
        return rng.uniform(-4.0, 4.0, count)
    if isinstance(model, GammaProcess):
        return rng.uniform(-model.alpha * 0.9, 5.0, count)
    return rng.uniform(0.05, 5.0, count)


def test_kappa_closed_form_anchors():
    # frozen closed-form evaluations
    assert Brownian(b=0.5, sigma=1.0).kappa(2.0) == pytest.approx(-1.0, abs=1e-15)
    assert Brownian(b=0.0, sigma=1.0).kappa(-0.5) == pytest.approx(-0.125, abs=1e-15)
    assert GammaProcess(alpha=2.0, beta=1.0).kappa(2.0) == pytest.approx(
        0.6931471805599453, abs=1e-15
    )
    assert GammaProcess(alpha=2.0, beta=1.0).kappa_prime(0.5) == pytest.approx(
        0.4, abs=1e-15
    )
    assert OneSidedStable(r=1.0, alpha=0.5).kappa(4.0) == pytest.approx(2.0, abs=1e-15)
    assert OneSidedStable(r=1.0, alpha=0.5).kappa_prime(1.0) == pytest.approx(
        0.5, abs=1e-15
    )
    assert OneSidedStable(r=1.0, alpha=0.5).kappa_double_prime(1.0) == pytest.approx(
        -0.25, abs=1e-15
    )


def test_brownian_kappa_is_finite_where_its_square_term_is_zero_times_infinity():
    # sigma^2 * u^2 is 0 * inf where sigma = 0 and u^2 overflows, or where sigma^2 underflows
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert Brownian(0.5, 0.0).kappa(1e200) == 5e199
        got = Brownian(0.5, 0.0).kappa(np.array([1e200, -1e200, 1.0]))
        assert got.tolist() == [5e199, -5e199, 0.5]
        assert Brownian(0.0, 1e-200).kappa(1e200) == -0.5


def test_brownian_kappa_has_the_sign_of_its_dominant_term_where_both_terms_overflow():
    # b*u and sigma^2 u^2 / 2 both overflow, so b*u - sigma^2 u^2 / 2 is inf - inf at u > 0
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert Brownian(1e10, 1.0).kappa(1e300) == -math.inf
        assert Brownian(1e10, 1.0).kappa(-1e300) == -math.inf
        assert Brownian(1e300, 1e-10).kappa(1e300) == math.inf
        assert Brownian(1e300, 1e-10).kappa(-1e300) == -math.inf
        got = Brownian(1e300, 1e-10).kappa(np.array([1e300, -1e300, 1.0]))
        assert got.tolist() == [math.inf, -math.inf, 1e300]


def test_kappa_zero_and_concavity():
    rng = np.random.default_rng(11)
    for model in MODELS:
        assert model.kappa(0.0) == 0.0
        u = np.sort(interior(model, rng, 60))
        # midpoint value above the chord -> concave
        mid = model.kappa(0.5 * (u[:-1] + u[1:]))
        chord = 0.5 * (model.kappa(u[:-1]) + model.kappa(u[1:]))
        assert np.all(mid >= chord - 1e-12)
        assert np.all(model.kappa_double_prime(u) <= 1e-15)


def test_derivatives_match_finite_differences():
    rng = np.random.default_rng(12)
    for model in MODELS:
        for u in interior(model, rng, 100):
            step = 1e-5 * max(1.0, abs(u))
            fd1 = (model.kappa(u + step) - model.kappa(u - step)) / (2 * step)
            fd2 = (
                model.kappa(u + step) - 2 * model.kappa(u) + model.kappa(u - step)
            ) / step**2
            assert model.kappa_prime(u) == pytest.approx(fd1, rel=1e-6, abs=1e-8)
            assert model.kappa_double_prime(u) == pytest.approx(fd2, rel=1e-4, abs=1e-5)


def test_array_and_scalar_shapes():
    model = GammaProcess(alpha=2.0, beta=1.0)
    assert isinstance(model.kappa(1.0), float)
    out = model.kappa(np.array([0.0, 1.0, 2.0]))
    assert out.shape == (3,)
    assert out[0] == 0.0


def test_domains():
    gamma = GammaProcess(alpha=2.0, beta=1.0)
    assert gamma.domain_contains(-1.9)
    assert not gamma.domain_contains(-2.0)
    with pytest.raises(DomainError):
        gamma.kappa(-2.5)

    stable = OneSidedStable(r=1.0, alpha=0.5)
    assert stable.domain_contains(0.0)
    assert not stable.domain_contains(-1e-9)
    with pytest.raises(DomainError):
        stable.kappa(-1.0)
    # kappa itself is fine at the boundary, the one-sided slope is not
    assert stable.kappa(0.0) == 0.0
    with pytest.raises(NonDifferentiableError):
        stable.kappa_prime(0.0)
    with pytest.raises(NonDifferentiableError):
        stable.kappa_double_prime(0.0)

    brownian = Brownian(b=0.0, sigma=1.0)
    assert brownian.domain_contains(-1e6) and brownian.domain_contains(1e6)


def test_means():
    assert Brownian(b=0.7, sigma=0.2).mean() == pytest.approx(0.7)
    assert GammaProcess(alpha=2.0, beta=3.0).mean() == pytest.approx(1.5)
    with pytest.raises(NonDifferentiableError):
        OneSidedStable(r=1.0, alpha=0.5).mean()


def test_parameter_validation():
    with pytest.raises(ParameterError):
        Brownian(b=0.0, sigma=-1.0)
    with pytest.raises(ParameterError):
        GammaProcess(alpha=0.0, beta=1.0)
    with pytest.raises(ParameterError):
        GammaProcess(alpha=1.0, beta=-2.0)
    with pytest.raises(ParameterError):
        OneSidedStable(r=0.0, alpha=0.5)
    with pytest.raises(ParameterError):
        OneSidedStable(r=1.0, alpha=1.0)
    with pytest.raises(ParameterError):
        OneSidedStable(r=1.0, alpha=0.0)


def laplace_zscore(model, u, dt, n_draws, seed):
    # Monte Carlo check of E[exp(-u dX)] = exp(-dt kappa(u))
    rng = np.random.default_rng(seed)
    draws = model.sample_increments(rng, dt, n_draws)
    vals = np.exp(-u * draws)
    target = math.exp(-dt * model.kappa(u))
    se = vals.std(ddof=1) / math.sqrt(n_draws)
    return (vals.mean() - target) / se


def test_sampler_laplace_transforms():
    # the transform identity pins the sampler normalization for every family
    cases = [
        (Brownian(b=0.3, sigma=1.2), (0.5, 1.0, -0.7)),
        (GammaProcess(alpha=2.0, beta=1.0), (0.5, 1.0, 3.0)),
        (OneSidedStable(r=1.0, alpha=0.5), (0.5, 1.0, 3.0)),
        (OneSidedStable(r=1.5, alpha=0.75), (0.5, 2.0, 4.0)),
    ]
    for model, us in cases:
        for dt in (1.0, 0.125):
            for u in us:
                z = laplace_zscore(model, u, dt, 100_000, seed=77)
                assert abs(z) < 4.0, (model, u, dt, z)


def test_sampler_moments_and_positivity():
    rng = np.random.default_rng(21)
    draws = Brownian(b=1.0, sigma=2.0).sample_increments(rng, 0.25, 50_000)
    assert draws.mean() == pytest.approx(0.25, abs=4 * 2.0 * 0.5 / math.sqrt(50_000))
    assert draws.var(ddof=1) == pytest.approx(1.0, rel=0.05)

    draws = GammaProcess(alpha=2.0, beta=3.0).sample_increments(rng, 0.5, 50_000)
    assert np.all(draws >= 0.0)
    assert draws.mean() == pytest.approx(0.75, rel=0.03)

    draws = OneSidedStable(r=1.0, alpha=0.5).sample_increments(rng, 0.1, 50_000)
    assert np.all(draws > 0.0)


def test_sampler_determinism():
    model = OneSidedStable(r=1.0, alpha=0.6)
    a = model.sample_increments(np.random.default_rng(5), 0.5, 64)
    b = model.sample_increments(np.random.default_rng(5), 0.5, 64)
    assert np.array_equal(a, b)


# ---------------------------------------------------------------------------
# one statement of each rule: pinned bits, the domain rule, the mean, the tracer

BIT_MODELS = [
    Brownian(b=0.5, sigma=1.0),
    Brownian(b=-0.2, sigma=0.3),
    Brownian(b=0.7, sigma=0.0),
    Brownian(b=-0.0, sigma=0.0),
    GammaProcess(alpha=2.0, beta=1.0),
    GammaProcess(alpha=0.7, beta=3.5),
    OneSidedStable(r=1.0, alpha=0.5),
    OneSidedStable(r=2.3, alpha=0.8),
    OneSidedStable(r=1.0, alpha=0.01),
]


def bit_points():
    points = [0.0, -0.0, 5e-324, 1e-300, math.inf, -math.inf, math.nan, 1.0, -1.0, 3.5]
    for alpha in sorted({m.alpha for m in BIT_MODELS if isinstance(m, GammaProcess)}):
        points += [-alpha, np.nextafter(-alpha, 0.0), np.nextafter(-alpha, -1.0)]
    points += [np.array([[0.25, 1.0], [2.0, 1e-300]]), np.linspace(-3.0, 3.0, 12).reshape(3, 4),
               np.array([0.5, -0.0, 2.0])]
    return points


def outcome_bytes(call, *args) -> bytes:
    """A result as its type and bytes, or a refusal as its type and message."""
    try:
        value = call(*args)
    except (DomainError, NonDifferentiableError) as exc:
        return f"{type(exc).__name__}: {exc}".encode()
    out = np.asarray(value)
    return f"{type(value).__name__} {out.dtype.str} {out.shape}".encode() + out.tobytes()


# recorded before the kappa* methods lost their private formula layer
RECORDED_CUMULANT_SHA256 = "c10845acd0772f1871971d9bf814c8b1f09378016c6d1e50482ac2844d339dd0"


def test_cumulant_outputs_keep_their_recorded_bits():
    digest = hashlib.sha256()
    for model in BIT_MODELS:
        digest.update(repr(model).encode() + outcome_bytes(model.mean))
        for u in bit_points():
            for call in (model.kappa, model.kappa_prime, model.kappa_double_prime,
                         model.domain_contains):
                digest.update(outcome_bytes(call, u))
    assert digest.hexdigest() == RECORDED_CUMULANT_SHA256


@st.composite
def models(draw):
    family = draw(st.sampled_from(["brownian", "gamma", "stable"]))
    if family == "brownian":
        return Brownian(draw(st.floats(-10.0, 10.0)), draw(st.floats(0.0, 10.0)))
    if family == "gamma":
        return GammaProcess(draw(st.floats(0.01, 100.0)), draw(st.floats(0.01, 100.0)))
    return OneSidedStable(draw(st.floats(0.01, 100.0)),
                          draw(st.floats(0.01, 0.99, exclude_max=True)))


@st.composite
def arguments(draw, model):
    edge = -model.alpha if isinstance(model, GammaProcess) else 0.0
    near = st.sampled_from([edge, np.nextafter(edge, -math.inf), np.nextafter(edge, math.inf),
                            0.0, -0.0, 5e-324, math.nan, math.inf, -math.inf])
    scalar = st.one_of(near, st.floats(allow_nan=True, allow_infinity=True))
    shape = draw(st.sampled_from(["float", "0-d", "1-d"]))
    if shape == "float":
        return draw(scalar)
    if shape == "0-d":
        return np.array(draw(scalar))
    return np.array(draw(st.lists(scalar, max_size=5)), dtype=float)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # a huge u overflows, as it may
@settings(deadline=None, max_examples=300)
@given(data=st.data())
def test_domain_contains_is_exactly_where_kappa_is_not_refused(data):
    model = data.draw(models())
    u = data.draw(arguments(model))
    try:
        model.kappa(u)
    except DomainError:
        refused = True
    else:
        refused = False
    assert model.domain_contains(u) is not refused


@settings(deadline=None, max_examples=200)
@given(model=models())
def test_the_mean_is_the_slope_at_zero(model):
    if isinstance(model, OneSidedStable):
        with pytest.raises(NonDifferentiableError):
            model.mean()
        return
    mean, slope = model.mean(), model.kappa_prime(0.0)
    assert type(mean) is float and np.float64(mean).tobytes() == np.float64(slope).tobytes()


def test_the_tracer_wraps_each_familys_own_cumulant_methods():
    """``bench/tracer.py`` patches ``cls.__dict__[name]`` of each family for each of its
    ``CUMULANT_METHODS``, so every family's own class body must hold them all; a traced
    call keeps its bits, and leaving the block restores every attribute."""
    spec = importlib.util.spec_from_file_location(
        "tracer", Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    families = (Brownian, GammaProcess, OneSidedStable)
    for cls in families:
        for name in tracer.CUMULANT_METHODS:
            assert inspect.isfunction(vars(cls).get(name)), (cls.__name__, name)

    layers = [importlib.import_module(f"impactlab.{layer}") for layer in tracer.LAYERS]
    owners = [importlib.import_module("impactlab"), *layers, *families]

    def attributes():  # vars() also runs a layer that is still a pending lazy module
        return {(owner.__name__, name): value for owner in owners
                for name, value in vars(owner).items()}

    originals = attributes()
    model = GammaProcess(2.0, 1.0)
    want = model.kappa(1.0)
    trace = tracer.Tracer()
    with trace.active():
        got = model.kappa(1.0)
    assert [span[0] for span in trace.spans] == ["cumulants.GammaProcess.kappa"]
    assert type(got) is float and np.float64(got).tobytes() == np.float64(want).tobytes()
    restored = attributes()
    assert restored.keys() == originals.keys()
    assert all(restored[key] is value for key, value in originals.items())
