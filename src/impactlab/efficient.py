"""Closed-form efficient market driven by a Levy factor.

A supplier (aversion gamma) quotes price curves for a terminal factor
claim; a demander (aversion c) carries a deterministic piecewise-constant
endowment loading H' plus cash h.  Everything here is the closed-form
consequence: the optimal demand schedule, the efficient intermediation
price and its risk premium/convexity corrections, realized trading P&L
along a simulated path, and the time-0 value of the whole allocation.

All formulas reduce to cumulant evaluations at the composite aversion
``abar = c*gamma/(c+gamma)``; ``c = inf`` branches to ``abar = gamma``.

Along simulated paths, every column that depends only on the scenario and
the H' series (times, H', Y*, risk premium, convexity, the fee leg of the
P&L) is built once, read-only, and shared; only x, s*, the endowment
payoff, the P&L and the terminal wealth are computed per path.  The
per-path functions are one-row cases of the batched ones.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .cumulants import LevyModel, OneSidedStable
from .errors import DomainError, NonDifferentiableError, ParameterError
from .paths import PathBatch, PathGrid, PathSample, ShockSchedule
from .utility import AgentPair


@dataclass(frozen=True)
class LevyScenario:
    """Market data: factor model, agent pair, supplier loading a, endowment schedule, grid.

    Construction verifies that every inventory state the closed-form strategy
    can reach keeps the cumulant arguments inside the domain U.
    """

    model: LevyModel
    agents: AgentPair
    a: float
    schedule: ShockSchedule
    grid: PathGrid

    def __post_init__(self):
        if not math.isfinite(self.a):
            raise ParameterError("loading a must be finite")
        g = self.agents.gamma
        if g > 0.0 and not self.model.domain_contains(g * self.a):
            raise DomainError("gamma * a outside the cumulant domain")
        abar = self.agents.aggregate_aversion
        for level in self.schedule.levels():
            # gamma*(a - Y*) equals abar*(a + H') identically, so one check
            # covers both the supplier's and the aggregate's arguments.
            if not self.model.domain_contains(abar * (self.a + level)):
                raise DomainError(
                    f"endowment level {level} pushes the aggregate argument out of domain"
                )

    @property
    def abar(self) -> float:
        return self.agents.aggregate_aversion

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


def optimal_position(agents: AgentPair, a: float, h_prime: float) -> float:
    """Y* = gamma/(c+gamma) * a - c/(c+gamma) * h'; the c = inf limit is -h'."""
    w = agents.demander_weight
    return (1.0 - w) * a - w * h_prime


def optimal_position_series(scenario: LevyScenario) -> np.ndarray:
    """Y* on each grid interval [t_i, t_{i+1}), from the snapped H' series."""
    h = scenario.schedule.series(scenario.grid)[:-1]
    w = scenario.agents.demander_weight
    return (1.0 - w) * scenario.a - w * h


def eipu(scenario: LevyScenario, x_t: float, h_prime_t: float, t: float) -> float:
    """Expected-impact-adjusted unit value x_t + (1-t) * kappa'(abar*(a+h'))."""
    if not 0.0 <= t <= 1.0:
        raise ParameterError("t must lie in [0, 1]")
    u = scenario.abar * (scenario.a + h_prime_t)
    return x_t + (1.0 - t) * scenario.model.kappa_prime(u)


def risk_premium(scenario: LevyScenario, h_prime_t: float, t: float) -> float:
    """(1-t) * (kappa'(0) - kappa'(abar*(a+h'))); subtracts from the compensated level."""
    if not 0.0 <= t <= 1.0:
        raise ParameterError("t must lie in [0, 1]")
    u = scenario.abar * (scenario.a + h_prime_t)
    return (1.0 - t) * (scenario.model.kappa_prime(0.0) - scenario.model.kappa_prime(u))


def efficient_convexity(scenario: LevyScenario, h_prime_t: float, t: float) -> float:
    """-gamma * (1-t) * kappa''(abar*(a+h')) >= 0, the local price-curve curvature."""
    if not 0.0 <= t <= 1.0:
        raise ParameterError("t must lie in [0, 1]")
    u = scenario.abar * (scenario.a + h_prime_t)
    return -scenario.agents.gamma * (1.0 - t) * scenario.model.kappa_double_prime(u)


def efficient_price(
    scenario: LevyScenario, x_t: float, h_prime_t: float, t: float, y: float
) -> float:
    """Price charged for y units when the market sits at the efficient inventory.

    y*x_t + ((1-t)/gamma) * (kappa(ubar) - kappa(ubar - gamma*y)) with
    ubar = abar*(a+h'); gamma = 0 degenerates to the risk-neutral line.
    """
    if not 0.0 <= t <= 1.0:
        raise ParameterError("t must lie in [0, 1]")
    g = scenario.agents.gamma
    ubar = scenario.abar * (scenario.a + h_prime_t)
    if g == 0.0:
        return y * (x_t + (1.0 - t) * scenario.model.kappa_prime(0.0))
    if not scenario.model.domain_contains(ubar - g * y):
        raise DomainError("trade size y leaves the cumulant domain")
    return y * x_t + (1.0 - t) / g * (
        scenario.model.kappa(ubar) - scenario.model.kappa(ubar - g * y)
    )


def _fee_leg(scenario: LevyScenario, y: np.ndarray) -> float:
    """The path-independent part of the P&L of positions y: P&L = sum_i y_i dX_i + fee."""
    g = scenario.agents.gamma
    dt = scenario.grid.dt
    if g == 0.0:
        return -(scenario._drift * float(y.sum()) * dt)
    u = g * (scenario.a - y)
    if not scenario.model.domain_contains(u):
        raise DomainError("strategy leaves the supplier inventory domain")
    return float(np.sum(scenario.model._kappa(u) - scenario._kappa_ga)) * dt / g


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
        drift = scenario.model.kappa_prime(0.0)
        return scenario.schedule.h + drift * float(h_series.sum()) * dt
    abar = scenario.abar
    inv_weight = 1.0 / g if math.isinf(agents.c) else (agents.c + g) / (agents.c * g)
    body = inv_weight * float(np.sum(scenario.model.kappa(abar * (scenario.a + h_series)))) * dt
    return scenario.schedule.h + body - scenario.model.kappa(g * scenario.a) / g


@dataclass(frozen=True)
class EfficientPathRecord:
    """Per-grid-time market state along one path, plus terminal wealth split.

    times, h_prime, y_star, risk_premium and convexity are read-only arrays
    shared by every path with the same H' series.
    """

    times: np.ndarray
    x: np.ndarray
    h_prime: np.ndarray
    y_star: np.ndarray
    s_star: np.ndarray
    risk_premium: np.ndarray
    convexity: np.ndarray
    endowment_payoff: float
    trading_pnl: float
    terminal_wealth: float


@dataclass(frozen=True)
class EfficientBatchRecord:
    """``EfficientPathRecord`` for every path of a batch.

    times, h_prime, y_star, risk_premium and convexity are the shared
    read-only (n+1) columns; x and s_star are (paths, n+1) and the terminal
    wealth split is one value per path.
    """

    times: np.ndarray
    x: np.ndarray
    h_prime: np.ndarray
    y_star: np.ndarray
    s_star: np.ndarray
    risk_premium: np.ndarray
    convexity: np.ndarray
    endowment_payoff: np.ndarray
    trading_pnl: np.ndarray
    terminal_wealth: np.ndarray


def _read_only(a: np.ndarray) -> np.ndarray:
    a.flags.writeable = False
    return a


def _shared_columns(scenario: LevyScenario, h_prime):
    """For one H' series: the record columns every path shares, s_star - x, and
    the fee leg of the P&L at Y*.  Memoised on the series' bytes."""
    h = np.asarray(h_prime, dtype=float)
    key = (h.shape, h.tobytes())
    entry = scenario._columns_memo[0]
    if entry is not None and entry[0] == key:
        return entry[1]
    times = scenario.grid.times
    w = scenario.agents.demander_weight
    y_star = (1.0 - w) * scenario.a - w * h
    model = scenario.model
    u = model._check(scenario.abar * (scenario.a + h), strict=True)
    slope = model._kappa_prime(u)
    convexity = -scenario.agents.gamma * (1.0 - times) * model._kappa_double_prime(u)
    if isinstance(model, OneSidedStable):
        premium = np.full_like(h, math.nan)
    else:
        premium = (1.0 - times) * (scenario._drift - slope)
    shared = dict(times=times, h_prime=h.copy(), y_star=y_star, risk_premium=premium,
                  convexity=convexity)
    value = (
        {name: _read_only(column) for name, column in shared.items()},
        (1.0 - times) * slope,
        _fee_leg(scenario, y_star[:-1]),
    )
    scenario._columns_memo[0] = (key, value)
    return value


def _record(record_type, scenario: LevyScenario, paths):
    """One code path for a ``PathSample`` (1-d rows) and a ``PathBatch`` (matrices)."""
    shared, slope_leg, fee = _shared_columns(scenario, paths.h_prime)
    endowment = scenario.schedule.h + np.vecdot(paths.increments, shared["h_prime"][:-1])
    pnl = np.vecdot(paths.increments, shared["y_star"][:-1]) + fee
    wealth = endowment + pnl
    if endowment.ndim == 0:
        endowment, pnl, wealth = float(endowment), float(pnl), float(wealth)
    return record_type(x=paths.x, s_star=paths.x + slope_leg, endowment_payoff=endowment,
                       trading_pnl=pnl, terminal_wealth=wealth, **shared)


def efficient_path_record(scenario: LevyScenario, path: PathSample) -> EfficientPathRecord:
    """Evaluate the closed-form market along a simulated path.

    The risk premium column is NaN for the stable family, whose compensated
    level does not exist; s_star comes from the direct formula either way.
    """
    return _record(EfficientPathRecord, scenario, path)


def efficient_batch_record(scenario: LevyScenario, batch: PathBatch) -> EfficientBatchRecord:
    """``efficient_path_record`` for every path of a batch, row k for path first + k."""
    return _record(EfficientBatchRecord, scenario, batch)
