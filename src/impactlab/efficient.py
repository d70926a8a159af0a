"""Closed-form efficient market driven by a Levy factor.

A supplier (aversion gamma) quotes price curves for a terminal factor
claim; a demander (aversion c) carries a deterministic piecewise-constant
endowment loading H' plus cash h.  Everything here is the closed-form
consequence: the optimal demand schedule, the efficient intermediation
price and its risk premium/convexity corrections, realized trading P&L
along a simulated path, and the time-0 value of the whole allocation.

All formulas reduce to cumulant evaluations at the composite aversion
``abar = c*gamma/(c+gamma)``; ``c = inf`` branches to ``abar = gamma``.

Each closed-form quantity (Y*, the EIPU, the risk premium, the convexity)
is one function that broadcasts over h', t and x, and the efficient price
is the price curve at the inventory -Y*.  Along simulated paths, every
column that depends only on the scenario and the H' series (times, H', Y*,
risk premium, convexity, the fee leg of the P&L) is those functions on the
grid times, built once, read-only, and shared; only x, s*, the endowment
payoff, the P&L and the terminal wealth are computed per path.  One record
type holds either a path or a batch: a path is the one-row case.

A per-path record is mostly fixed cost, so ``_record`` keeps it small: the
shared columns and a (2, n) matrix of each interval's H' and Y* are memoised
per H' series; a path's two sums are one ``np.vecdot`` of that matrix with its
increments, added as floats; and
the frozen record is filled through its ``__dict__``, in field order, without
the guarded ``object.__setattr__`` per field of the dataclass ``__init__``.
``dataclasses.replace`` and the public constructor give a record with the
same fields and bytes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cumulants import LevyModel, OneSidedStable, _value
from .errors import DomainError, NonDifferentiableError, ParameterError
from .paths import PathBatch, PathGrid, PathSample, ShockSchedule
from .utility import AgentPair, _check_time, levy_price_curve


@dataclass(frozen=True)
class LevyScenario:
    """Market data: factor model, agent pair, supplier loading a, endowment schedule, grid.

    Construction verifies that every inventory state the closed-form strategy
    can reach keeps the cumulant arguments inside the domain U, that kappa'
    exists at each level's aggregate argument, and that the schedule's shocks
    snap onto the grid.
    """

    model: LevyModel
    agents: AgentPair
    a: float
    schedule: ShockSchedule
    grid: PathGrid

    def __post_init__(self):
        if not math.isfinite(self.a):
            raise ParameterError("loading a must be finite", "a")
        g = self.agents.gamma
        if g > 0.0 and not self.model.domain_contains(g * self.a):
            raise DomainError("gamma * a outside the cumulant domain", "a")
        for i, level in enumerate(self.schedule.levels()):
            # gamma*(a - Y*) equals abar*(a + H') identically, so one check
            # covers both the supplier's and the aggregate's arguments; the
            # strict one, as every path quantity reads kappa' there.
            field = f"schedule.shocks[{i - 1}]" if i else "schedule.initial_value"
            try:
                self.model._check(self._argument(level), strict=True)
            except NonDifferentiableError as exc:
                raise NonDifferentiableError(
                    str(exc), "agents.gamma" if self.abar == 0.0 else field) from None
            except DomainError:
                raise DomainError(
                    f"endowment level {level} pushes the aggregate argument out of domain",
                    field) from None
        self.schedule._grid_indices(self.grid, "schedule.shocks")

    @property
    def abar(self) -> float:
        return self.agents.aggregate_aversion

    def _argument(self, h_prime):
        """The aggregate cumulant argument abar*(a+h'), equal to gamma*(a - Y*)."""
        return self.abar * (self.a + h_prime)

    @cached_property
    def _drift(self) -> float:
        # kappa'(0); the stable family raises NonDifferentiableError on every call
        return self.model.kappa_prime(0.0)

    @cached_property
    def _kappa_ga(self) -> float:
        return self.model.kappa(self.agents.gamma * self.a)

    @cached_property
    def _columns_memo(self) -> list:
        # one slot: (key, _shared_columns value) of the last H' series seen
        return [None]


def optimal_position(agents: AgentPair, a: float, h_prime):
    """Y* = gamma/(c+gamma) * a - c/(c+gamma) * h'; the c = inf limit is -h'.

    Broadcasts over h' (a float or an array, such as the grid series
    ``schedule.series(grid)[:-1]`` of each interval's H').
    """
    w = agents.demander_weight
    return (1.0 - w) * a - w * h_prime


def eipu(scenario: LevyScenario, x_t, h_prime_t, t):
    """Expected-impact-adjusted unit value x_t + (1-t) * kappa'(abar*(a+h'))."""
    _check_time(t)
    slope = scenario.model.kappa_prime(scenario._argument(h_prime_t))
    with np.errstate(invalid="ignore"):
        leg = (1.0 - t) * slope
    # a tiny argument makes the stable family's kappa' infinite: 0 at t = 1, not 0 * inf
    return x_t + _value(np.where(np.isnan(leg), 0.0, leg))


def risk_premium(scenario: LevyScenario, h_prime_t, t):
    """(1-t) * (kappa'(0) - kappa'(abar*(a+h'))); subtracts from the compensated level."""
    _check_time(t)
    drift = scenario._drift  # first: the stable family raises here whatever h' is
    return (1.0 - t) * (drift - scenario.model.kappa_prime(scenario._argument(h_prime_t)))


def efficient_convexity(scenario: LevyScenario, h_prime_t, t):
    """-gamma * (1-t) * kappa''(abar*(a+h')) >= 0, the local price-curve curvature."""
    _check_time(t)
    curvature = scenario.model.kappa_double_prime(scenario._argument(h_prime_t))
    remaining = 1.0 - t
    with np.errstate(invalid="ignore"):
        convexity = -scenario.agents.gamma * remaining * curvature
    # a tiny argument makes the stable family's kappa'' infinite: 0 at t = 1, not 0 * inf
    return _value(np.where(remaining == 0.0, 0.0, convexity))


def efficient_price(
    scenario: LevyScenario, x_t: float, h_prime_t: float, t: float, y: float
) -> float:
    """Price charged for y units when the market sits at the efficient inventory.

    The price curve at inventory -Y*, since gamma*(a - Y*) = abar*(a+h'):
    y*x_t + ((1-t)/gamma) * (kappa(abar*(a+h')) - kappa(abar*(a+h') - gamma*y));
    gamma = 0 degenerates to the risk-neutral line.
    """
    y_star = optimal_position(scenario.agents, scenario.a, h_prime_t)
    return levy_price_curve(scenario.model, scenario.agents.gamma, scenario.a, -y_star, y,
                            x_t, t)


def _fee_leg(scenario: LevyScenario, y: np.ndarray) -> float:
    """The path-independent part of the P&L of positions y: P&L = sum_i y_i dX_i + fee."""
    g = scenario.agents.gamma
    dt = scenario.grid.dt
    if g == 0.0:
        return -(scenario._drift * float(y.sum()) * dt)
    u = g * (scenario.a - y)
    if not scenario.model.domain_contains(u):
        raise DomainError("strategy leaves the supplier inventory domain")
    return float(np.sum(scenario.model.kappa(u) - scenario._kappa_ga)) * dt / g


def realized_pnl(scenario: LevyScenario, path: PathSample | PathBatch, strategy):
    """Demander trading P&L of a per-interval position array along one path.

    strategy[i] is the position held on [t_i, t_{i+1}); the sums use this
    left-point value, matching simple predictable strategies:
    sum_i Y_i dX_i + (1/gamma) sum_i (kappa(gamma*(a-Y_i)) - kappa(gamma*a)) dt.
    A ``PathSample`` gives a float; a ``PathBatch`` gives one P&L per path.
    """
    y = np.asarray(strategy, dtype=float)
    n = scenario.grid.n_steps
    if y.shape != (n,):
        raise ParameterError(f"strategy must have one position per interval ({n})")
    pnl = np.vecdot(path.increments, y) + _fee_leg(scenario, y)
    return float(pnl) if pnl.ndim == 0 else pnl


def allocation_value(scenario: LevyScenario) -> float:
    """Time-0 certainty-equivalent value of the optimally intermediated endowment.

    h + ((c+gamma)/(c*gamma)) * sum_i kappa(abar*(a+H'_i)) dt - (1/gamma)*kappa(gamma*a),
    with left-endpoint H' sums; branches cover c = inf and gamma = 0.
    """
    agents = scenario.agents
    g = agents.gamma
    h_series = scenario.schedule.series(scenario.grid)[:-1]
    dt = scenario.grid.dt
    if g == 0.0:
        return scenario.schedule.h + scenario._drift * float(h_series.sum()) * dt
    inv_weight = 1.0 / g if math.isinf(agents.c) else (agents.c + g) / (agents.c * g)
    body = inv_weight * float(np.sum(scenario.model.kappa(scenario._argument(h_series)))) * dt
    return scenario.schedule.h + body - scenario.model.kappa(g * scenario.a) / g


@dataclass(frozen=True)
class EfficientRecord:
    """Market state at every grid time along a path or a batch, plus the terminal
    wealth split.

    times, h_prime, y_star, risk_premium and convexity are (n+1) read-only
    arrays shared by every path with the same H' series.  x and s_star are
    (n+1) for a ``PathSample`` and (paths, n+1) for a ``PathBatch``; the
    wealth split is a float for a path and one value per path for a batch.
    """

    times: np.ndarray
    x: np.ndarray
    h_prime: np.ndarray
    y_star: np.ndarray
    s_star: np.ndarray
    risk_premium: np.ndarray
    convexity: np.ndarray
    endowment_payoff: float | np.ndarray
    trading_pnl: float | np.ndarray
    terminal_wealth: float | np.ndarray


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _shared_columns(scenario: LevyScenario, h_prime):
    """For one H' series: the record columns every path shares (times, h_prime,
    y_star, risk_premium, convexity, in field order); a (2, n) matrix of each
    interval's H' and Y*, which weighs a path's increments; s_star - x; and the fee
    leg of the P&L at Y*.  Memoised on the series' bytes."""
    h = np.asarray(h_prime, dtype=float)
    key = (h.shape, h.tobytes())
    entry = scenario._columns_memo[0]
    if entry is not None and entry[0] == key:
        return entry[1]
    times = scenario.grid.times
    y_star = optimal_position(scenario.agents, scenario.a, h)
    # -0.0 is the exact additive identity, so this is (1-t)*kappa' bit for bit
    slope_leg = eipu(scenario, -0.0, h, times)
    if isinstance(scenario.model, OneSidedStable):  # no compensated level
        premium = np.full_like(h, math.nan)
    else:
        premium = risk_premium(scenario, h, times)
    shared = tuple(_read_only(column) for column in (
        times, h.copy(), y_star, premium, efficient_convexity(scenario, h, times)))
    weights = _read_only(np.stack((h[:-1], y_star[:-1])))
    value = (shared, weights, slope_leg, _fee_leg(scenario, weights[1]))
    scenario._columns_memo[0] = (key, value)
    return value


def _filled(shared: tuple, x, s_star, endowment, pnl, wealth) -> EfficientRecord:
    """The ``EfficientRecord`` of the ``shared`` columns and one path's or batch's own
    fields, written into its ``__dict__`` where the frozen dataclass ``__init__`` would
    pay one ``object.__setattr__`` a field.  Written in field order, as ``__init__``
    writes them, the dict keeps sharing its keys with every other record's."""
    times, h_prime, y_star, premium, convexity = shared
    record = object.__new__(EfficientRecord)
    values = record.__dict__
    values["times"] = times
    values["x"] = x
    values["h_prime"] = h_prime
    values["y_star"] = y_star
    values["s_star"] = s_star
    values["risk_premium"] = premium
    values["convexity"] = convexity
    values["endowment_payoff"] = endowment
    values["trading_pnl"] = pnl
    values["terminal_wealth"] = wealth
    return record


def _record(scenario: LevyScenario, paths) -> EfficientRecord:
    """One code path for a ``PathSample`` (1-d rows) and a ``PathBatch`` (matrices)."""
    shared, weights, slope_leg, fee = _shared_columns(scenario, paths.h_prime)
    increments = paths.increments
    if increments.ndim == 1:  # a path: floats, which add as float64 scalars do
        endowment, pnl = np.vecdot(weights, increments).tolist()
    else:
        endowment, pnl = np.vecdot(weights[:, None, :], increments)
    endowment = scenario.schedule.h + endowment
    pnl = pnl + fee
    return _filled(shared, paths.x, paths.x + slope_leg, endowment, pnl, endowment + pnl)


def efficient_path_record(scenario: LevyScenario, path: PathSample) -> EfficientRecord:
    """Evaluate the closed-form market along a simulated path.

    The risk premium column is NaN for the stable family, whose compensated
    level does not exist; s_star comes from the direct formula either way.
    """
    return _record(scenario, path)


def efficient_batch_record(scenario: LevyScenario, batch: PathBatch) -> EfficientRecord:
    """``efficient_path_record`` for every path of a batch, row k for path first + k."""
    return _record(scenario, batch)
