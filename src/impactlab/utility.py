"""Exponential-utility certainty equivalents and indifference prices.

The central map is ``ce(F; a) = -(1/a) log E[exp(-a F)]`` for risk
aversion ``a``.  Two agents appear throughout: a supplier with aversion
``gamma`` and a demander with aversion ``c``; ``c = math.inf`` is a
legal first-class value meaning worst-case (essential infimum) pricing
and is handled by branching, never by arithmetic on the infinity.

Every certainty equivalent in the package, on sample sets, lattice
leaves or quadrature nodes, goes through one array kernel, ``ce``, and
its exponential tilt, ``tilted_mean``.  The kernel shifts the exponent by
its maximum before summing, so large negative payoffs cannot overflow;
builtin ``OverflowError`` is raised only if even the shifted sum is
non-finite.

The derivatives of a CE map are tilted moments: if the payoff v depends on
a parameter y, d ce/dy = E^a[dv/dy] and d2 ce/dy2 = E^a[d2v/dy2] -
a*Var^a[dv/dy] under the tilt exp(-a v).  ``tilted_moments`` gives them,
and ``newton_root`` is the safeguarded Newton iteration the package's 1-d
searches (the lattice sup-convolution, the completeness inversion) run on
them.
"""

from __future__ import annotations

import contextlib
import math
from dataclasses import dataclass
from numbers import Real
from typing import TYPE_CHECKING

import numpy as np

from .errors import DomainError, ParameterError

if TYPE_CHECKING:  # annotations only: importing cumulants here would load it with utility
    from .cumulants import LevyModel

_WEIGHT_TOL = 1e-12


@dataclass(frozen=True)
class AgentPair:
    """Supplier aversion gamma >= 0 and demander aversion c in (0, inf]."""

    gamma: float
    c: float

    def __post_init__(self):
        if not (self.gamma >= 0.0 and math.isfinite(self.gamma)):
            raise ParameterError("gamma must be finite and >= 0", "gamma")
        if not (self.c > 0.0):
            raise ParameterError("c must be > 0 (math.inf allowed)", "c")
        if math.isnan(self.c):
            raise ParameterError("c must not be NaN", "c")

    @property
    def aggregate_aversion(self) -> float:
        """Harmonic-style composite c*gamma/(c+gamma); gamma if c is inf, 0 if gamma is 0."""
        if self.gamma == 0.0:
            return 0.0
        if math.isinf(self.c):
            return self.gamma
        return self.c * self.gamma / (self.c + self.gamma)

    @property
    def demander_weight(self) -> float:
        """c/(c+gamma), the demander's share of aggregate risk; 1 if c is inf."""
        if math.isinf(self.c):
            return 1.0
        return self.c / (self.c + self.gamma)


@dataclass(frozen=True)
class SampleSet:
    """Finite weighted support of a payoff: values v_i with weights w_i summing to 1."""

    values: np.ndarray
    weights: np.ndarray

    def __post_init__(self):
        v = np.asarray(self.values, dtype=float)
        w = np.asarray(self.weights, dtype=float)
        if v.ndim != 1 or w.shape != v.shape or v.size == 0:
            raise ParameterError("values and weights must be equal-length 1-d arrays",
                                 "values" if v.ndim != 1 or v.size == 0 else "weights")
        if not np.all(np.isfinite(v)):
            raise ParameterError("sample values must be finite", "values")
        if np.any(w < 0.0) or not np.all(np.isfinite(w)):
            raise ParameterError("weights must be finite and >= 0", "weights")
        if abs(w.sum() - 1.0) > _WEIGHT_TOL:
            raise ParameterError(f"weights must sum to 1 within {_WEIGHT_TOL}", "weights")
        object.__setattr__(self, "values", v)
        object.__setattr__(self, "weights", w)

    @classmethod
    def uniform(cls, values) -> "SampleSet":
        v = np.asarray(values, dtype=float)
        return cls(v, np.ones(v.shape) / v.size)  # no values: an empty array, refused

    def shifted(self, cash: float) -> "SampleSet":
        return SampleSet(self.values + float(cash), self.weights)


def ce(values, logw, aversion: float, axis: int = -1):
    """-(1/a) log sum_i exp(logw_i - a v_i) along ``axis``.

    ``logw`` holds log-weights summing to one along ``axis`` and broadcasts
    against ``values``; entries of -inf are outside the support.  a = 0
    gives the weighted mean, a = inf the minimum over the support.
    """
    # ufunc reductions rather than ndarray methods: this runs tens of
    # thousands of times per lattice on arrays of a few elements
    if aversion == 0.0:
        return np.add.reduce(np.exp(logw) * values, axis)
    if math.isinf(aversion):
        return np.minimum.reduce(np.where(np.isneginf(logw), np.inf, values), axis)
    with np.errstate(over="ignore", invalid="ignore"):
        _, total, top = _tilt(logw - aversion * values, axis)
    return _ce_from_normaliser(total, top, aversion, axis)


def _tilt(exponent, axis: int, keepdims: bool = False):
    """The tilt exp(exponent - top) of the array ``exponent``, written over it, its
    sum along ``axis``, and the shift ``top``, the maximum along ``axis`` (kept)."""
    top = np.maximum.reduce(exponent, axis, keepdims=True)
    exponent -= top
    tilt = np.exp(exponent, exponent)
    return tilt, np.add.reduce(tilt, axis, keepdims=keepdims), top


def _ce_from_normaliser(total, top, aversion: float, axis: int):
    """-(1/a) log sum_i exp(logw_i - a v_i), from the sum ``total`` of the tilt
    exp(logw - a*v - top) along ``axis`` and its shift ``top`` (axis kept), for
    a finite a > 0; OverflowError if the result is non-finite."""
    with np.errstate(over="ignore", invalid="ignore"):
        out = -(np.log(total) + top.squeeze(axis)) / aversion
    if not np.isfinite(out).all():
        raise OverflowError("certainty equivalent is non-finite even after shifting")
    return out


def tilted_mean(x, values, logw, aversion: float, with_ce: bool = False):
    """E[x exp(-a v)] / E[exp(-a v)] along the last axis, for finite a >= 0.

    ``x`` and ``logw`` are 1-d over the support; each row of ``values`` is
    tilted on its own, and without ``with_ce`` ``aversion`` may be a column,
    one a row.  ``with_ce`` also returns ``ce(values, logw, aversion)``, bit
    for bit, which for a > 0 comes from the same tilt's normaliser: (mean, ce).
    """
    # with the CE, a non-finite one is reported as ce reports it: OverflowError, no warning
    quiet = np.errstate(over="ignore", invalid="ignore") if with_ce else contextlib.nullcontext()
    with quiet:
        tilt, total, top = _tilt(logw - aversion * values, -1)
        # one dot product per row: a matrix-vector product sums in another order
        mean = np.vecdot(tilt, x) / total
    if not with_ce:
        return mean
    if aversion == 0.0:  # the tilt does not weigh the values
        return mean, ce(values, logw, aversion)
    return mean, _ce_from_normaliser(total, top, aversion, -1)


def tilted_moments(
    x, values, logw, aversion: float, other=None, axis: int = -1, with_ce: bool = False
):
    """Tilted mean E^a[x] and covariance Cov^a[x, other] along ``axis``, under
    the weights exp(logw - a*values) normalized to sum to one.

    ``other`` defaults to ``x``, giving the variance.  ``x`` and ``other``
    broadcast against ``values``; leading axes of their own give several
    moments under one tilt.  a = 0 leaves the weights as they are, and
    a = inf keeps only the supported minimizers of ``values`` (the tilt
    ``ce``'s minimum is the limit of).  ``with_ce`` appends
    ``ce(values, logw, aversion, axis)``, bit for bit, which for a finite
    a > 0 comes from the same tilt's normaliser.
    """
    exponent = None
    if axis == -1 and not with_ce and 0.0 < aversion < math.inf:
        exponent = logw - aversion * values
        if exponent.ndim == 1 and np.ndim(x) <= 1 and (other is None or np.ndim(other) <= 1):
            # one row (a Newton step's): the ufuncs below, in order, without keepdims or squeeze
            exponent -= np.maximum.reduce(exponent)
            tilt = np.exp(exponent, exponent)
            tilt /= np.add.reduce(tilt)
            mean = np.add.reduce(tilt * x)
            spread = x - mean
            other = other if other is None else other - np.add.reduce(tilt * other)
            return mean, np.add.reduce(tilt * spread * (spread if other is None else other))
    # with the CE, a non-finite one is reported as ce reports it: OverflowError, no warning
    quiet = np.errstate(over="ignore", invalid="ignore") if with_ce else contextlib.nullcontext()
    with quiet:
        if aversion == 0.0:  # a new array to tilt in place: -0.0 + 0.0 is 0.0, which tilts alike
            exponent = logw + np.zeros_like(values, dtype=float)
        elif math.isinf(aversion):
            lowest = np.minimum.reduce(
                np.where(np.isneginf(logw), np.inf, values), axis, keepdims=True
            )
            exponent = np.where(values == lowest, logw, -np.inf)
        elif exponent is None:
            exponent = logw - aversion * values
        tilt, total, top = _tilt(exponent, axis, keepdims=True)
        tilt /= total
        mean = np.add.reduce(tilt * x, axis, keepdims=True)
        spread = x - mean
        if other is not None:
            other = other - np.add.reduce(tilt * other, axis, keepdims=True)
        cov = np.add.reduce(tilt * spread * (spread if other is None else other), axis)
    if not with_ce:
        return mean.squeeze(axis), cov
    if aversion == 0.0 or math.isinf(aversion):  # the tilt does not weigh the values
        certainty = ce(values, logw, aversion, axis)
    else:
        certainty = _ce_from_normaliser(total.squeeze(axis), top, aversion, axis)
    return mean.squeeze(axis), cov, certainty


_NEWTON_CAP = 128  # steps; bisecting any bracket down to the stopping step takes at most 53
_EPS = float(np.finfo(float).eps)


def _choose(cond, a, b):
    """np.where for one entry."""
    return a if cond else b


def _divide(a: float, b: float) -> float:
    """a / b on Python floats as numpy divides float64: a zero divisor gives the
    signed infinity, or NaN for a zero or NaN numerator, where Python raises."""
    if b == 0.0:
        if a == 0.0 or a != a:
            return math.nan
        return math.copysign(math.inf, a) * math.copysign(1.0, b)
    return a / b


def _quiet():
    """Silence the warnings of an array step: an infinite step is refused, not reported."""
    return np.errstate(divide="ignore", invalid="ignore", over="ignore")


def newton_root(fn, x, neg, pos):
    """A zero of each entry of ``fn`` by safeguarded Newton, all entries in lockstep.

    ``fn`` maps an array of points to (values, slopes).  Entry k starts at
    x[k] inside the bracket [neg[k], pos[k]] (either end may be the larger),
    on which fn is taken to be < 0 at neg[k] and > 0 at pos[k]; each value
    moves the matching end to its point.  A Newton step is taken when it lands
    strictly inside the bracket and is at most half the step before last;
    otherwise the bracket is bisected.  An entry stops at a zero value, or
    where its next step would be at most one ulp of the bracket's larger end.
    Returns the points and fn's values there; fn's last call is at those points.
    When x, neg and pos are all numbers, the one entry runs on Python floats in
    the same loop: they round as float64 arrays do, division by a zero slope
    included (``_divide``), without the fixed cost of a numpy call, which is
    most of a scalar root's Newton time.  fn then gets a numpy float64 (a
    float with the array methods) and should return two Python floats.
    """
    # type() first: a numbers.Real test is an ABC check, a fixed cost of every root
    if type(x) is type(neg) is type(pos) is float or all(
            isinstance(v, Real) for v in (x, neg, pos)):
        x, neg, pos = float(x), float(neg), float(pos)
        where, any_, maximum, divide, quiet, point = (
            _choose, bool, max, _divide, contextlib.nullcontext, np.float64)
    else:
        x = np.asarray(x, dtype=float)
        where, any_, maximum, divide, quiet, point = (
            np.where, np.any, np.maximum, np.divide, _quiet, np.asarray)
    tol = _EPS * maximum(abs(neg), abs(pos))
    step = prev = abs(pos - neg)
    f, slope = fn(point(x))
    active = f != 0.0
    for _ in range(_NEWTON_CAP):
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


def certainty_equivalent(samples: SampleSet, aversion: float) -> float:
    """ce(F; a) = -(1/a) log sum_i w_i exp(-a v_i), with the usual limits.

    a = 0 gives the plain mean, a = inf the worst supported value.
    """
    if aversion < 0.0 or math.isnan(aversion):
        raise ParameterError("aversion must be >= 0 (math.inf allowed)", "aversion")
    with np.errstate(divide="ignore"):
        logw = np.log(samples.weights)
    return float(ce(samples.values, logw, aversion))


def _check_time(t) -> None:
    """Refuse a time t, or an array of them, with an entry outside [0, 1] (or NaN)."""
    ok = (0.0 <= t) & (t <= 1.0)  # a bool for a float t, else a numpy bool or array
    if not (ok if isinstance(ok, bool) else ok.all()):
        raise ParameterError("t must lie in [0, 1]", "t")


def levy_pi(model: LevyModel, gamma: float, z: float, x_t: float, t: float) -> float:
    """Supplier indifference value at time t of z units of the terminal factor.

    Equals z*x_t + ((1-t)/gamma) * kappa(gamma*z); the gamma = 0 branch is
    the analytic limit z*x_t + (1-t)*z*kappa'(0).
    """
    _check_time(t)
    if gamma < 0.0 or not math.isfinite(gamma):
        raise ParameterError("gamma must be finite and >= 0", "gamma")
    if gamma == 0.0:
        return z * x_t + (1.0 - t) * z * model.kappa_prime(0.0)
    if not model.domain_contains(gamma * z):
        raise DomainError(f"gamma*z = {gamma * z} outside the cumulant domain")
    return z * x_t + (1.0 - t) / gamma * model.kappa(gamma * z)


def levy_price_curve(
    model: LevyModel,
    gamma: float,
    a: float,
    z: float,
    y: float,
    x_t: float,
    t: float,
) -> float:
    """Price charged at time t for y units, at inventory z, endowment loading a.

    P_t(z, y) = y*x_t + ((1-t)/gamma) * (kappa(gamma*(a+z)) - kappa(gamma*(a+z-y))).
    Convex in y with P_t(z, 0) = 0.  gamma = 0 falls back to the risk-neutral
    line y * (x_t + (1-t)*kappa'(0)).
    """
    _check_time(t)
    if gamma < 0.0 or not math.isfinite(gamma):
        raise ParameterError("gamma must be finite and >= 0", "gamma")
    if gamma == 0.0:
        return y * (x_t + (1.0 - t) * model.kappa_prime(0.0))
    u_hold = gamma * (a + z)
    u_after = gamma * (a + z - y)
    if not (model.domain_contains(u_hold) and model.domain_contains(u_after)):
        raise DomainError("inventory before or after the trade leaves the cumulant domain")
    return y * x_t + (1.0 - t) / gamma * (model.kappa(u_hold) - model.kappa(u_after))
