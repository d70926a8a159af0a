"""Complete one-factor Markov market: quadrature fields and closed forms.

The terminal data are payoff functions of the factor level W_1 (security
s, supplier book g, demander endowment h).  Value fields come from the
Cole-Hopf form: conditional exponential certainty equivalents of the
terminal data under the Gaussian transition, by quadrature in log space.
The rule of a state, or of a column of states, is one read-only record,
``_Rule``: where the payoffs are read, their log-weights (a row shared by
every state, or a row each), and the score and scale that turn a tilted mean
into u = dv/dw, so no terminal callable is ever differentiated.  ``_hermite``
alone builds a rule and reads sqrt(1-t) and the Gauss-Hermite nodes z_k
(``_rules``): points w + sqrt(1-t)*z_k, score z_k and scale sqrt(1-t), the
Gaussian kernel identity d/dw E[G(w+s*Z)] = E[Z*G(w+s*Z)]/s.  Each entry
point checks its state (``_check_state``) and builds one rule, which reads
the payoffs at its points; v, u, p, q reduce those rows along the node axis
(``_ce_rows``; ``_grad_rows``, with the CE from the same tilt).  A table
(``_state_fields``) takes ``_STATE_BLOCK`` states a rule.  A ``fields``
benchmark root (``optimal_strategy_markov``) takes about 82 us on its
quadratic model (1 Newton step) and 94 us on its wave (1.75 steps;
``tools/time_fields.py``, 2 vCPUs).

Two parametric families carry their own closed forms for cross-checks:
``QuadraticModel`` (linear security, linear-plus-quadratic endowment) and
``ShockWaveModel`` whose gradient field is an exact tanh traveling wave.
Along driver paths, ``shockwave_path`` and ``shockwave_batch`` give one
``ShockWaveRecord`` type, a path being the one-row case of a batch.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import lru_cache
from typing import TYPE_CHECKING, Callable, NamedTuple, Tuple

import numpy as np

from .errors import NoRootError, ParameterError, PreconditionError, QuadratureError, _whole_number
from .utility import AgentPair, _check_time, _divide, ce, newton_root, tilted_mean, tilted_moments

if TYPE_CHECKING:  # annotations only: importing paths here would load it with markov
    from .paths import PathBatch, PathSample

DEFAULT_ORDER = 128
# the largest order whose rule hermegauss computes (at 371 every weight is 0); it
# builds an order x order matrix first, so a larger order is refused before the call
MAX_ORDER = 370
_WEIGHT_SUM_TOL = 1e-12  # |sum of the weights / sqrt(2*pi) - 1| is <= 4.4e-16 at orders 2-370
_RESIDUAL_TOL = 1e-10  # the inversion's stopping residual, and how often it doubles the bracket
_MAX_EXPANSIONS = 30
_STATE_BLOCK = 128  # states per node evaluation: the (block, order) arrays bound the memory
_LOG_SQRT_2PI = 0.5 * math.log(2.0 * math.pi)


@lru_cache(maxsize=16, typed=True)  # typed: an order of 128.0 is refused, not a cache hit
def _rules(order: int) -> Tuple[np.ndarray, np.ndarray]:
    """Probabilists' Gauss-Hermite nodes and normalized log-weights."""
    order = _whole_number(order, "order", least=2)
    refusal = f"Hermite rule of order {order} is not computable in double precision"
    if order > MAX_ORDER:
        raise QuadratureError(f"{refusal} (the largest is {MAX_ORDER})", "order")
    from numpy.polynomial.hermite_e import hermegauss  # here: numpy.polynomial costs 3-5 ms

    with np.errstate(over="ignore", invalid="ignore"):
        nodes, weights = hermegauss(order)
    total = weights.sum() / math.sqrt(2.0 * math.pi)  # a NaN or inf weight fails it too
    if not (np.isfinite(nodes).all() and abs(total - 1.0) <= _WEIGHT_SUM_TOL):
        raise QuadratureError(refusal, "order")
    with np.errstate(divide="ignore"):
        logw = np.log(weights) - _LOG_SQRT_2PI
    nodes.flags.writeable = logw.flags.writeable = False  # every field at this order reads them
    return nodes, logw


class _Rule(NamedTuple):
    """A read-only quadrature rule for one state or a column of states: payoffs are read
    at ``points`` (a row, or a row per state) and weighed by ``logw`` (a shared row, or a
    row per state), and u = -E^a[score]/(a*scale), E[score*G]/scale at a = 0."""

    points: np.ndarray
    logw: np.ndarray
    score: np.ndarray
    scale: float


def _hermite(t: float, order: int, w, *fns):
    """The rule at time t for a float w or a column of states (score z_k, scale sqrt(1-t)),
    and each callable at its points: (rule, *rows).  At t = 1 node 0 is w + (-0.0), w."""
    nodes, logw = _rules(order)
    scale = math.sqrt(1.0 - t)
    points = w + scale * nodes
    points.flags.writeable = False
    rule = _Rule(points, logw, nodes, scale)
    return (rule, *_node_values(rule, *fns))


@dataclass(frozen=True)
class MarkovPayoffs:
    """Terminal data s, g, h as vectorized callables of the factor level, plus agents."""

    s_fn: Callable[[np.ndarray], np.ndarray]
    g_fn: Callable[[np.ndarray], np.ndarray]
    h_fn: Callable[[np.ndarray], np.ndarray]
    agents: AgentPair


def _check_state(t: float, w, terminal_ok: bool, y: float = 0.0):
    """Refuse a time outside [0, 1] (or t = 1, unless ``terminal_ok``), and a NaN or
    infinite factor level w (a float, or any of an array of states) or inventory y."""
    _check_time(t)
    if not terminal_ok and t >= 1.0:
        raise ParameterError("gradient fields need t < 1", "t")
    if isinstance(w, np.ndarray):  # a table's states: the first non-finite one, if any
        w = next(iter(w[~np.isfinite(w)]), 0.0)
    for name, x in (("w", w), ("y", y)):
        if not math.isfinite(x):
            raise ParameterError(f"{name} must be finite, got {x}", name)


def _payoff_rows(points: np.ndarray, fns, error, where: str) -> np.ndarray:
    """Each callable on the 1-d ``points``, from one call, as a float row of their
    shape (a constant is broadcast); a non-finite value raises ``error`` naming ``where``."""
    out = np.empty((len(fns), points.size))
    for fn, row in zip(fns, out):
        row[...] = fn(points)
    if not np.isfinite(out).all():  # one check for every payoff
        raise error(f"terminal payoff is non-finite at {where}")
    return out


def _node_values(rule: _Rule, *fns):
    """Each callable at the rule's points, from one call on the raveled points: one
    row of nodes for a float w, a row per state for a column of states."""
    vals = _payoff_rows(rule.points.ravel(), fns, QuadratureError, "a quadrature node")
    return vals.reshape((len(fns),) + rule.points.shape)


def _ce_rows(vals, rule: _Rule, aversion: float):
    """Conditional certainty equivalent of each row of node values (node 0 at t = 1)."""
    if rule.scale == 0.0:
        return vals[..., 0]
    return ce(vals, rule.logw, aversion)


def _grad_rows(vals, rule: _Rule, aversion: float, with_ce: bool = False):
    """w-derivative of _ce_rows from the rule's score and scale (t < 1); ``with_ce``
    puts _ce_rows first, from the same tilt of each row: (ce, gradient)."""
    if aversion == 0.0:
        grad = np.vecdot(rule.score * vals, np.exp(rule.logw)) / rule.scale
        return (ce(vals, rule.logw, aversion), grad) if with_ce else grad
    if with_ce:
        mean, certainty = tilted_mean(rule.score, vals, rule.logw, aversion, with_ce=True)
        return certainty, -mean / (aversion * rule.scale)
    return -tilted_mean(rule.score, vals, rule.logw, aversion) / (aversion * rule.scale)


def _state_fields(payoffs: MarkovPayoffs, t: float, w, y: float, order: int = DEFAULT_ORDER):
    """Rows v, u, p, q at one t < 1 for each w of a 1-d array (in blocks), inventory y:
    v and u from one tilt of the nodes, p and q from another."""
    _check_state(t, w, terminal_ok=False, y=y)
    abar, gamma = payoffs.agents.aggregate_aversion, payoffs.agents.gamma
    out = np.empty((4, len(w)))
    for start in range(0, len(w), _STATE_BLOCK):
        rows = slice(start, start + _STATE_BLOCK)
        rule, s, g, h = _hermite(t, order, w[rows, None], payoffs.s_fn, payoffs.g_fn, payoffs.h_fn)
        out[:2, rows] = _grad_rows(g + h, rule, abar, with_ce=True)
        out[2:, rows] = _grad_rows(g - y * s, rule, gamma, with_ce=True)
        del rule, s, g, h  # one block's points and node values are live at a time
    return out


def field_v(payoffs: MarkovPayoffs, t: float, w: float, order: int = DEFAULT_ORDER) -> float:
    """Aggregate allocation value v(t, w): CE of (g+h)(W_1) at aversion c*gamma/(c+gamma)."""
    _check_state(t, w, terminal_ok=True)
    rule, g, h = _hermite(t, order, w, payoffs.g_fn, payoffs.h_fn)
    return float(_ce_rows(g + h, rule, payoffs.agents.aggregate_aversion))


def field_p(
    payoffs: MarkovPayoffs, t: float, w: float, y: float, order: int = DEFAULT_ORDER
) -> float:
    """Supplier book value p(t, w, y): CE of (g - y*s)(W_1) at aversion gamma."""
    _check_state(t, w, terminal_ok=True, y=y)
    rule, s, g = _hermite(t, order, w, payoffs.s_fn, payoffs.g_fn)
    return float(_ce_rows(g - y * s, rule, payoffs.agents.gamma))


def field_u(payoffs: MarkovPayoffs, t: float, w: float, order: int = DEFAULT_ORDER) -> float:
    """u = dv/dw, computed by differentiating under the quadrature."""
    _check_state(t, w, terminal_ok=False)
    rule, g, h = _hermite(t, order, w, payoffs.g_fn, payoffs.h_fn)
    return float(_grad_rows(g + h, rule, payoffs.agents.aggregate_aversion))


def field_q(
    payoffs: MarkovPayoffs, t: float, w: float, y: float, order: int = DEFAULT_ORDER
) -> float:
    """q = dp/dw at inventory y, computed by differentiating under the quadrature."""
    _check_state(t, w, terminal_ok=False, y=y)
    rule, s, g = _hermite(t, order, w, payoffs.s_fn, payoffs.g_fn)
    return float(_grad_rows(g - y * s, rule, payoffs.agents.gamma))


def replication_price(
    payoffs: MarkovPayoffs, t: float = 0.0, w: float = 0.0, order: int = DEFAULT_ORDER
) -> float:
    """Supplier indifference charge for taking on -H: CE_gamma(g) - CE_gamma(g+h)."""
    _check_state(t, w, terminal_ok=True)
    rule, g, h = _hermite(t, order, w, payoffs.g_fn, payoffs.h_fn)
    ce_g, ce_gh = _ce_rows(np.vstack((g, g + h)), rule, payoffs.agents.gamma)
    return float(ce_g - ce_gh)


def completeness_invert(
    payoffs: MarkovPayoffs,
    t: float,
    w: float,
    z: float,
    order: int = DEFAULT_ORDER,
    bracket: Tuple[float, float] = (-50.0, 50.0),
) -> float:
    """Solve -dp/dw(t, w, y) = z for the replicating inventory y.

    With s and g evaluated at the nodes once, doubles the bracket about its
    midpoint until the residual changes sign (at most _MAX_EXPANSIONS times,
    and while it stays finite), checks the map is monotone at 9 points of it
    (ends included, one batched residual), then polishes by safeguarded Newton
    inside the probe interval where the sign changes, to |residual| <= _RESIDUAL_TOL."""
    _check_state(t, w, terminal_ok=False)
    rule, s, g = _hermite(t, order, w, payoffs.s_fn, payoffs.g_fn)
    return _invert(s, g, payoffs.agents.gamma, rule, z, bracket)


@lru_cache(maxsize=64)
def _probe_grid(lo: float, hi: float) -> np.ndarray:
    """The 9 probes of the bracket [lo, hi], ends included, read-only: roots
    share their brackets.  A zero end may get the grid of the other signed
    zero; a probe's sign of zero changes neither its residual nor the chord."""
    probes = np.linspace(lo, hi, 9)
    probes.flags.writeable = False
    return probes


def _probe_gradients(s, g, probes, gamma, rule: _Rule, h=None, abar=0.0) -> list:
    """_grad_rows of g - y*s at each y of ``probes`` (aversion gamma), as floats, from
    one tilt of the rows; with ``h``, the _grad_rows of g + h at aversion abar comes
    first, from the same tilt, which takes each row at its own aversion."""
    if h is not None and (abar == 0.0) != (gamma == 0.0):  # c*gamma underflowed to abar = 0
        return [float(_grad_rows(g + h, rule, abar)),
                *_probe_gradients(s, g, probes, gamma, rule)]
    head = 0 if h is None else 1
    rows = np.empty((head + len(probes), s.size))
    np.subtract(g, np.multiply.outer(probes, s), out=rows[head:])
    if head:
        np.add(g, h, out=rows[0])
    if gamma == 0.0:  # then abar = 0 too: every row untilted
        return _grad_rows(rows, rule, gamma).tolist()
    aversion = _probe_aversion(gamma, abar if head else gamma, len(rows))
    mean = tilted_mean(rule.score, rows, rule.logw, aversion[:, None])
    return (mean / (aversion * -rule.scale)).tolist()  # negation is exact


@lru_cache(maxsize=64)
def _probe_aversion(gamma: float, head: float, rows: int) -> np.ndarray:
    """The probe rows' aversions, ``head`` then gamma, read-only; float64 for an int gamma."""
    aversion = np.full(rows, gamma, dtype=float)
    aversion[0] = head
    aversion.flags.writeable = False
    return aversion


def _invert(s, g, gamma, rule: _Rule, z, bracket, h=None, agents=None) -> float:
    """``completeness_invert`` on the node values s and g of one state.  Given the
    node values h and the agents, z is -(c/(c+gamma)) * dv/dw instead, dv/dw coming
    from the first probes' tilt (``optimal_strategy_markov``)."""
    def with_slope(y):
        # one tilt gives the residual (its tilted mean of the score, for gamma > 0)
        # and its y-derivative, the gamma-tilted covariance of the score and s
        vals = g - np.multiply.outer(y, s)
        mean, cov = tilted_moments(rule.score, vals, rule.logw, gamma, other=s)
        if gamma == 0.0:
            value = -float(_grad_rows(vals, rule, gamma)) - z
        else:  # a subnormal gamma may leave gamma * scale at 0
            value = _divide(float(mean), gamma * rule.scale) - z
        return value, float(cov) / rule.scale

    lo, hi = float(bracket[0]), float(bracket[1])
    if not lo < hi:
        raise ParameterError("bracket must satisfy lo < hi", "bracket")
    if not math.isfinite(hi - lo):  # a NaN, an infinite end or an infinite width
        raise ParameterError(f"bracket must be finite with a finite width, got [{lo}, {hi}]",
                             "bracket")
    # the bracket bookkeeping runs on Python floats, which round as float64
    # arrays do: numpy's bits without numpy's fixed cost per call
    probes = _probe_grid(lo, hi)
    if h is None:
        gradients = _probe_gradients(s, g, probes, gamma, rule)
    else:
        dv, *gradients = _probe_gradients(s, g, probes, gamma, rule, h, agents.aggregate_aversion)
        z = -agents.demander_weight * dv
    vals = [-q - z for q in gradients]
    expansions = 0
    while vals[0] * vals[-1] > 0.0:
        if expansions >= _MAX_EXPANSIONS:
            raise NoRootError(
                f"no sign change in [{lo}, {hi}] after {expansions} expansions"
            )
        mid, width = 0.5 * (lo + hi), hi - lo
        if not math.isfinite((mid + width) - (mid - width)):
            raise NoRootError(f"no sign change in [{lo}, {hi}] after {expansions} expansions:"
                              " the next leaves the float range")
        lo, hi = mid - width, mid + width
        probes = _probe_grid(lo, hi)
        vals = [-q - z for q in _probe_gradients(s, g, probes, gamma, rule)]
        expansions += 1
    diffs = [b - a for a, b in zip(vals, vals[1:])]
    # deep exponential tilts flatten numerically at the bracket ends, so only a
    # genuine direction reversal (not a flat stretch) disqualifies the map; a
    # NaN residual leaves the scale at 1, as numpy's NaN-propagating max did
    scale = 1.0 if any(v != v for v in vals) else max(1.0, *map(abs, vals))
    tol = 1e-12 * scale
    if any(d > tol for d in diffs) and any(d < -tol for d in diffs):
        raise PreconditionError(
            "y -> -dp/dw is not monotone on the searched bracket"
        )
    k = next((i for i in range(8) if vals[i] * vals[i + 1] <= 0.0), None)
    if k is None:  # a NaN residual at an end stops the expansions with no sign change
        raise NoRootError(f"no sign change among the probes of [{lo}, {hi}]")
    (a, b), (ra, rb) = probes[k:k + 2].tolist(), vals[k:k + 2]
    # Newton starts where the chord through the probe interval's ends crosses zero
    start = a if ra == rb else a - ra * (b - a) / (rb - ra)
    root, left = newton_root(with_slope, start, *((a, b) if ra <= rb else (b, a)))
    if abs(left) > _RESIDUAL_TOL:
        raise NoRootError(f"Newton polish left residual {float(left):.3e}")
    return float(root)


def optimal_strategy_markov(
    payoffs: MarkovPayoffs,
    t: float,
    w: float,
    order: int = DEFAULT_ORDER,
    bracket: Tuple[float, float] = (-50.0, 50.0),
) -> float:
    """Optimal demander position: invert completeness at z = -(c/(c+gamma)) * dv/dw,
    dv/dw coming from the tilt of the first bracket's probes."""
    _check_state(t, w, terminal_ok=False)
    rule, s, g, h = _hermite(t, order, w, payoffs.s_fn, payoffs.g_fn, payoffs.h_fn)
    return _invert(s, g, payoffs.agents.gamma, rule, None, bracket, h, payoffs.agents)


# ---------------------------------------------------------------------------
# quadratic-Gaussian family


@dataclass(frozen=True)
class QuadraticModel:
    """Linear security s = mu + sigma*w, book g = g_load * s, endowment
    h = h_const + a_lin*w + b_quad*w^2/2.  Requires sigma != 0 and
    1 + abar*b_quad > 0."""

    g_load: float
    mu: float
    sigma: float
    a_lin: float
    b_quad: float
    agents: AgentPair
    h_const: float = 0.0

    def __post_init__(self):
        if self.sigma == 0.0 or not math.isfinite(self.sigma):
            raise ParameterError("sigma must be finite and nonzero", "sigma")
        abar = self.agents.aggregate_aversion
        if 1.0 + abar * self.b_quad <= 0.0:
            raise ParameterError(
                "aggregate aversion too large for the quadratic endowment: "
                "need 1 + abar*b_quad > 0", "b_quad"
            )

    def payoffs(self) -> MarkovPayoffs:
        mu, sigma, g_load, h_const, a_lin, b_quad = (
            self.mu, self.sigma, self.g_load, self.h_const, self.a_lin, self.b_quad)

        def h_fn(w):
            w = np.asarray(w, dtype=float)
            return h_const + a_lin * w + 0.5 * b_quad * w**2
        return MarkovPayoffs(
            s_fn=lambda w: mu + sigma * np.asarray(w, dtype=float),
            g_fn=lambda w: g_load * (mu + sigma * np.asarray(w, dtype=float)),
            h_fn=h_fn, agents=self.agents,
        )


def quadratic_v(model: QuadraticModel, t: float, w: float) -> float:
    """Closed-form aggregate value field for the quadratic family."""
    _check_time(t)
    abar = model.agents.aggregate_aversion
    lin = model.g_load * model.sigma + model.a_lin + model.b_quad * w
    denom = 1.0 + abar * model.b_quad * (1.0 - t)
    out = (
        model.h_const
        + model.g_load * model.mu
        + (model.g_load * model.sigma + model.a_lin) * w
        + 0.5 * model.b_quad * w**2
        - 0.5 * abar * lin**2 * (1.0 - t) / denom
    )
    if abar > 0.0:
        out += 0.5 * math.log(denom) / abar
    else:
        # risk-neutral limit of log(denom)/(2*abar): the plain variance term
        out += 0.5 * model.b_quad * (1.0 - t)
    return out


def quadratic_p(model: QuadraticModel, t: float, w: float, y: float) -> float:
    """Closed-form supplier book value for the quadratic family."""
    _check_time(t)
    gamma = model.agents.gamma
    q = model.g_load - y
    return q * model.mu + q * model.sigma * w - 0.5 * gamma * q**2 * model.sigma**2 * (1.0 - t)


@dataclass(frozen=True)
class QuadraticForms:
    v: float
    p_at: Callable[[float], float]
    y_star: float
    s_star: float
    convexity: float
    volatility: float


def quadratic_closed_forms(model: QuadraticModel, t: float, w: float) -> QuadraticForms:
    """All closed-form fields of the quadratic family at one state (t, w).

    ``volatility`` is the quadratic-variation density of the efficient price,
    ``convexity`` the local curvature gamma*sigma^2*(1-t) of the price curve.
    """
    _check_time(t)
    agents = model.agents
    abar = agents.aggregate_aversion
    lin = model.g_load * model.sigma + model.a_lin
    denom = 1.0 + abar * model.b_quad * (1.0 - t)
    y_star = (
        model.g_load
        - (lin + model.b_quad * w) / model.sigma * agents.demander_weight / denom
    )
    s_star = model.mu + model.sigma * (w - lin * abar * (1.0 - t)) / denom
    return QuadraticForms(
        v=quadratic_v(model, t, w),
        p_at=lambda y: quadratic_p(model, t, w, y),
        y_star=y_star,
        s_star=s_star,
        convexity=agents.gamma * model.sigma**2 * (1.0 - t),
        volatility=model.sigma**2 / denom**2,
    )


# ---------------------------------------------------------------------------
# shock-wave family


def _log_cosh(x):
    x = np.asarray(x, dtype=float)
    return np.abs(x) + np.log1p(np.exp(-2.0 * np.abs(x))) - math.log(2.0)


@dataclass(frozen=True)
class ShockWaveModel:
    """Traveling-wave endowment: s = mu - sigma*w, g = 0,
    h(w) = w - log cosh(a*(w - w_c))/a + offset, with a the aggregate aversion."""

    mu: float
    sigma: float
    w_c: float
    agents: AgentPair
    offset: float = 0.0

    def __post_init__(self):
        if not (self.sigma > 0.0 and math.isfinite(self.sigma)):
            raise ParameterError("sigma must be finite and > 0", "sigma")
        if self.agents.aggregate_aversion <= 0.0:
            raise ParameterError("shock wave needs strictly positive aggregate aversion",
                                 "agents.gamma")

    @property
    def wave_aversion(self) -> float:
        return self.agents.aggregate_aversion

    def payoffs(self) -> MarkovPayoffs:
        a, mu, sigma, w_c, offset = self.wave_aversion, self.mu, self.sigma, self.w_c, self.offset

        def h_fn(w):
            w = np.asarray(w, dtype=float)
            return w - _log_cosh(a * (w - w_c)) / a + offset
        return MarkovPayoffs(
            s_fn=lambda w: mu - sigma * np.asarray(w, dtype=float),
            g_fn=lambda w: np.zeros_like(np.asarray(w, dtype=float)),
            h_fn=h_fn, agents=self.agents,
        )


def tanh_field(model: ShockWaveModel, t, w):
    """Exact gradient field u(t, w) = 1 - tanh(a*(w - w_c) - a^2*(1-t))."""
    a = model.wave_aversion
    return 1.0 - np.tanh(a * (np.asarray(w, dtype=float) - model.w_c) - a**2 * (1.0 - t))


def wave_position(model: ShockWaveModel, t) -> float:
    """Steepest point of the price wave in the -W coordinate: -w_c - a*(1-t)."""
    return -model.w_c - model.wave_aversion * (1.0 - np.asarray(t, dtype=float))


def shockwave_strategy(model: ShockWaveModel, t, w):
    """Optimal position (c/(c+gamma)) * u(t, w) / sigma along the wave."""
    return model.agents.demander_weight * tanh_field(model, t, w) / model.sigma


def shockwave_price(model: ShockWaveModel, t, w):
    """Efficient price mu - sigma*w + sigma*(1-t)*a*u(t, w)."""
    t = np.asarray(t, dtype=float)
    w = np.asarray(w, dtype=float)
    a = model.wave_aversion
    return model.mu - model.sigma * w + model.sigma * (1.0 - t) * a * tanh_field(model, t, w)


@dataclass(frozen=True)
class ShockWaveRecord:
    """Wave-market state along a driver path or a batch, one column per grid time.

    w, s_star and y_star are (n+1) for a ``PathSample`` and (paths, n+1) for a
    ``PathBatch``; times and wave_position do not depend on the path and are
    read-only (n+1).
    """

    times: np.ndarray
    w: np.ndarray
    s_star: np.ndarray
    y_star: np.ndarray
    wave_position: np.ndarray


def _wave_record(model: ShockWaveModel, w, grid) -> ShockWaveRecord:
    """One code path for a path's levels (1-d) and a batch's (paths, n+1) matrix."""
    times = grid.times
    times.flags.writeable = False
    position = wave_position(model, times)
    position.flags.writeable = False
    return ShockWaveRecord(
        times=times,
        w=w,
        s_star=shockwave_price(model, times, w),
        y_star=shockwave_strategy(model, times, w),
        wave_position=position,
    )


def shockwave_path(model: ShockWaveModel, path: PathSample, grid) -> ShockWaveRecord:
    """Evaluate the wave market along a standard Brownian driver path."""
    return _wave_record(model, path.x, grid)


def shockwave_batch(model: ShockWaveModel, batch: PathBatch, grid) -> ShockWaveRecord:
    """``shockwave_path`` for every path of a batch, row k for path first + k."""
    return _wave_record(model, batch.x, grid)


@dataclass(frozen=True)
class CrashEvent:
    index: int
    time: float
    drawdown: float
    bound: float

    @property
    def satisfied(self) -> bool:
        return self.drawdown >= self.bound


def crash_events(model: ShockWaveModel, record: ShockWaveRecord) -> list:
    """Upcrossings of the wave front and the realized price drawdown around each.

    A crossing happens between grid times t_i, t_{i+1} when
    psi_t = W_t - a*(1-t) - w_c moves from negative to nonnegative.  The
    drawdown is the largest peak-to-trough fall of s_star within the time
    window |t - t_i| <= 1/a; the steep-slope bound is
    sigma * a * (1 - t_i) * tanh(1).
    """
    a = model.wave_aversion
    times = record.times
    psi = record.w - a * (1.0 - times) - model.w_c
    events = []
    for i in np.nonzero((psi[:-1] < 0.0) & (psi[1:] >= 0.0))[0]:
        in_window = np.abs(times - times[i]) <= 1.0 / a
        s_win = record.s_star[in_window]
        drawdown = float(np.max(np.maximum.accumulate(s_win) - s_win))
        bound = model.sigma * a * (1.0 - times[i]) * math.tanh(1.0)
        events.append(CrashEvent(int(i), float(times[i]), drawdown, bound))
    return events
