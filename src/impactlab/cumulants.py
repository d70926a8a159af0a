"""Levy factor families and their exponential cumulants.

Each family fixes a law for the factor increment via the cumulant
``kappa(u) = -log E[exp(-u * X_1)]``, finite on a half-line or interval
``U`` that depends on the family.  All pricing formulas downstream only
touch the factor through ``kappa`` and its first two derivatives, so the
three families share one small interface:

* ``Brownian(b, sigma)``      kappa(u) = b*u - sigma^2 * u^2 / 2   on R
* ``GammaProcess(alpha, beta)``  kappa(u) = beta * log(1 + u/alpha)  on (-alpha, inf)
* ``OneSidedStable(r, alpha)``   kappa(u) = r * u^alpha              on [0, inf)

``kappa`` is concave with ``kappa(0) = 0`` in every case.  The stable
family is not differentiable at the left edge ``u = 0``; asking for a
derivative there raises :class:`NonDifferentiableError` rather than
returning an infinity that would poison downstream arithmetic.

``_check`` is a family's one statement of ``U``: it refuses an argument
outside it with :class:`DomainError`, and its strict form, which ``kappa'``
and ``kappa''`` use, also refuses a point where the slope is infinite.
:class:`LevyModel` is the families' base: ``domain_contains(u)`` is "``_check``
refuses nothing" and ``mean()`` is ``kappa'(0)``.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import DomainError, NonDifferentiableError, ParameterError


def _as_float_array(u):
    out = np.asarray(u, dtype=float)
    if not np.all(np.isfinite(out)):
        raise DomainError("cumulant argument must be finite")
    return out


def _value(out):
    return float(out) if out.ndim == 0 else out


class LevyModel:
    """Base of the factor families: the rules they share, stated once.

    A family defines ``_check``, the ``kappa*`` methods and ``sample_increments``.
    """

    def domain_contains(self, u) -> bool:
        try:
            self._check(u)
        except DomainError:
            return False
        return True

    def mean(self) -> float:
        return self.kappa_prime(0.0)


@dataclass(frozen=True)
class Brownian(LevyModel):
    """Drifting Brownian factor: X_t = b*t + sigma*W_t."""

    b: float = 0.0
    sigma: float = 1.0

    def __post_init__(self):
        for name in ("b", "sigma"):
            if not math.isfinite(getattr(self, name)):
                raise ParameterError("Brownian parameters must be finite", name)
        if self.sigma < 0.0:
            raise ParameterError("Brownian sigma must be >= 0", "sigma")
        if not math.isfinite(self.sigma * self.sigma):
            raise ParameterError("Brownian sigma squared must be finite", "sigma")

    def _check(self, u, strict: bool = False):
        return _as_float_array(u)

    def kappa(self, u):
        u = self._check(u)
        with np.errstate(over="ignore", invalid="ignore"):
            half_square = 0.5 * self.sigma**2 * u**2
            # 0 * inf where sigma^2 underflows or u^2 overflows: (sigma*u)^2 is finite there
            half_square = np.where(np.isnan(half_square), 0.5 * (self.sigma * u) ** 2, half_square)
        return _value(self.b * u - half_square)

    def kappa_prime(self, u):
        u = self._check(u, strict=True)
        return _value(self.b - self.sigma**2 * u)

    def kappa_double_prime(self, u):
        return _value(np.full_like(self._check(u, strict=True), -self.sigma**2))

    def sample_increments(self, rng: np.random.Generator, dt: float, size: int):
        return rng.normal(loc=self.b * dt, scale=self.sigma * math.sqrt(dt), size=size)


@dataclass(frozen=True)
class GammaProcess(LevyModel):
    """Gamma subordinator with rate alpha and shape beta: X_1 ~ Gamma(beta, rate=alpha)."""

    alpha: float
    beta: float

    def __post_init__(self):
        if not (self.alpha > 0.0 and math.isfinite(self.alpha)):
            raise ParameterError("GammaProcess alpha (rate) must be > 0", "alpha")
        if not (self.beta > 0.0 and math.isfinite(self.beta)):
            raise ParameterError("GammaProcess beta (shape) must be > 0", "beta")

    def _check(self, u, strict: bool = False):
        u = _as_float_array(u)
        if np.any(u <= -self.alpha):
            raise DomainError(
                f"gamma cumulant needs u > {-self.alpha} (rate boundary), got min {u.min()}"
            )
        return u

    def kappa(self, u):
        return _value(self.beta * np.log1p(self._check(u) / self.alpha))

    def kappa_prime(self, u):
        return _value(self.beta / (self.alpha + self._check(u, strict=True)))

    def kappa_double_prime(self, u):
        # d*d, not d**2: a scalar d**2 calls pow, which can differ from the
        # array square in the last bit
        d = self.alpha + self._check(u, strict=True)
        return _value(-self.beta / (d * d))

    def sample_increments(self, rng: np.random.Generator, dt: float, size: int):
        return rng.gamma(shape=self.beta * dt, scale=1.0 / self.alpha, size=size)


@dataclass(frozen=True)
class OneSidedStable(LevyModel):
    """Positive stable subordinator: kappa(u) = r * u**alpha, 0 < alpha < 1.

    Increments are sampled with the exponential/uniform transformation for
    positive stable laws (Kanter's representation), scaled so that
    ``E[exp(-u X_t)] = exp(-t * kappa(u))`` holds exactly.
    """

    r: float
    alpha: float

    def __post_init__(self):
        if not (self.r > 0.0 and math.isfinite(self.r)):
            raise ParameterError("OneSidedStable r (rate) must be > 0", "r")
        if not (0.0 < self.alpha < 1.0):
            raise ParameterError("OneSidedStable alpha must lie in (0, 1)", "alpha")

    def _check(self, u, strict: bool = False):
        u = _as_float_array(u)
        if np.any(u < 0.0):
            raise DomainError("stable cumulant needs u >= 0")
        if strict and np.any(u == 0.0):
            raise NonDifferentiableError(
                "stable cumulant has infinite one-sided slope at u = 0"
            )
        return u

    def kappa(self, u):
        return _value(self.r * self._check(u) ** self.alpha)

    def kappa_prime(self, u):
        u = self._check(u, strict=True)
        with np.errstate(over="ignore"):  # as in kappa'': inf is the exact limit
            return _value(self.r * self.alpha * u ** (self.alpha - 1.0))

    def kappa_double_prime(self, u):
        u = self._check(u, strict=True)
        # u**(alpha - 2) overflows for a tiny u; its inf, and so -inf here, is the exact limit
        with np.errstate(over="ignore"):
            return _value(self.r * self.alpha * (self.alpha - 1.0) * u ** (self.alpha - 2.0))

    def mean(self) -> float:
        raise NonDifferentiableError(
            "one-sided stable factor has no finite mean (alpha < 1)"
        )

    def sample_increments(self, rng: np.random.Generator, dt: float, size: int):
        # Kanter: S = (A(theta)/E)^((1-alpha)/alpha) has E[exp(-u S)] = exp(-u^alpha)
        # for theta ~ U(0, pi), E ~ Exp(1); scale by (r*dt)^(1/alpha).
        a = self.alpha
        theta = np.pi * rng.random(size)
        np.clip(theta, 1e-12, np.pi - 1e-12, out=theta)
        expo = rng.exponential(size=size)
        np.maximum(expo, 1e-300, out=expo)
        log_a = (
            a * np.log(np.sin(a * theta))
            + (1.0 - a) * np.log(np.sin((1.0 - a) * theta))
            - np.log(np.sin(theta))
        ) / (1.0 - a)
        scale = (self.r * dt) ** (1.0 / a)
        return scale * np.exp(((1.0 - a) / a) * (log_a - np.log(expo)))
