"""Discrete-time dynamic programming on a recombining binomial lattice.

The factor takes +-1/sqrt(n) steps with probability 1/2 over n periods,
so level j holds j+1 nodes at values (2m - j)/sqrt(n).  The demander's
value function is computed in composed form: one sup-convolution per
period applied to the aggregate terminal payoff, which only ever needs
one-step conditional certainty equivalents plus conditional prices of
the form Pi_t(G - y*S).  Cash never enters the state: values are stored
net of cash and the identity V(x, z) = x + V(0, z) is what tests check.

The per-period supremum is scanned on an inventory grid of resolution
``y_resolution`` and then polished with golden-section search between
the winning grid point's neighbors (the objective is concave in y).
Grid ties break toward the smallest |y|, then toward negative y.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import ParameterError, PreconditionError
from .markov import MarkovPayoffs, field_p, field_v
from .utility import ce, tilted_mean

_INVPHI = (math.sqrt(5.0) - 1.0) / 2.0
_LOG2 = math.log(2.0)
_COIN = np.full(2, -_LOG2)  # log-weights of one fair coin flip


@dataclass(frozen=True)
class Lattice:
    """Recombining +-1/sqrt(n) walk over n periods of length 1/n."""

    n: int

    def __post_init__(self):
        if not isinstance(self.n, int) or self.n < 1:
            raise ParameterError("lattice period count must be an integer >= 1")

    def node_value(self, level: int, m: int) -> float:
        if not 0 <= level <= self.n or not 0 <= m <= level:
            raise ParameterError("node index outside the lattice")
        return (2 * m - level) / math.sqrt(self.n)

    def level_values(self, level: int) -> np.ndarray:
        if not 0 <= level <= self.n:
            raise ParameterError("level outside the lattice")
        return (2 * np.arange(level + 1) - level) / math.sqrt(self.n)

    def leaf_values_from(self, level: int, m: int) -> np.ndarray:
        """Terminal factor levels reachable from node (level, m)."""
        if not 0 <= level <= self.n or not 0 <= m <= level:
            raise ParameterError("node index outside the lattice")
        remaining = self.n - level
        ups = np.arange(remaining + 1)
        return (2 * (m + ups) - self.n) / math.sqrt(self.n)

    def leaf_log_weights_from(self, level: int) -> np.ndarray:
        """Log binomial weights of the leaves from any node at this level (exact binomials)."""
        remaining = self.n - level
        logs, binom = [], 1
        for k in range(remaining + 1):
            logs.append(math.log(binom))
            binom = binom * (remaining - k) // (k + 1)
        return np.array(logs) - remaining * _LOG2


@dataclass(frozen=True)
class DpScenario:
    """Lattice, terminal payoff data, admissible inventory interval, scan resolution."""

    lattice: Lattice
    payoffs: MarkovPayoffs
    admissible: Tuple[float, float]
    y_resolution: float = 1e-3

    def __post_init__(self):
        lo, hi = self.admissible
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ParameterError("admissible interval must be finite with lo < hi")
        if not lo <= 0.0 <= hi:
            raise ParameterError("admissible interval must contain 0")
        if not 0.0 < self.y_resolution <= (hi - lo):
            raise ParameterError("y_resolution must lie in (0, hi - lo]")

    @property
    def agents(self):
        return self.payoffs.agents

    def y_grid(self) -> np.ndarray:
        lo, hi = self.admissible
        count = int(round((hi - lo) / self.y_resolution)) + 1
        return np.linspace(lo, hi, count)


def conditional_ce(
    scenario: DpScenario, level: int, m: int, terminal_fn: Callable, aversion: float
) -> float:
    """Certainty equivalent of terminal_fn(W_1) over the leaves below (level, m)."""
    leaves = scenario.lattice.leaf_values_from(level, m)
    logw = scenario.lattice.leaf_log_weights_from(level)
    vals = np.asarray(terminal_fn(leaves), dtype=float)
    return float(ce(vals, logw, aversion))


def conditional_pi(scenario: DpScenario, level: int, m: int, terminal_fn: Callable) -> float:
    """Supplier conditional indifference value (aversion gamma) at a node."""
    return conditional_ce(scenario, level, m, terminal_fn, scenario.agents.gamma)


def _golden_max(f: Callable[[float], float], lo: float, hi: float, iters: int = 70):
    x1 = hi - _INVPHI * (hi - lo)
    x2 = lo + _INVPHI * (hi - lo)
    f1, f2 = f(x1), f(x2)
    for _ in range(iters):
        if f1 >= f2:
            hi, x2, f2 = x2, x1, f1
            x1 = hi - _INVPHI * (hi - lo)
            f1 = f(x1)
        else:
            lo, x1, f1 = x1, x2, f2
            x2 = lo + _INVPHI * (hi - lo)
            f2 = f(x2)
    mid = 0.5 * (lo + hi)
    return mid, f(mid)


def sup_convolution(
    scenario: DpScenario,
    level: int,
    continuation: np.ndarray,
    refine: bool = True,
) -> Tuple[np.ndarray, np.ndarray]:
    """One backward step: from the composed field at level+1 to level.

    For each node, maximizes over the post-trade inventory y the sum of the
    demander's one-step CE of (continuation - Pi_child(G - y*S)) and the
    supplier's one-step CE of Pi_child(G - y*S).
    """
    lat = scenario.lattice
    if not 0 <= level < lat.n:
        raise ParameterError("sup_convolution level must lie in [0, n)")
    continuation = np.asarray(continuation, dtype=float)
    if continuation.shape != (level + 2,):
        raise ParameterError("continuation must hold one value per node at level+1")
    agents = scenario.agents
    gamma, c = agents.gamma, agents.c
    y = scenario.y_grid()
    logw = lat.leaf_log_weights_from(level + 1)
    coin = _COIN[:, None]

    # row mc holds child node mc's leaves; menus[mc] is Pi_child(G - y*S) on the grid
    child_g = np.empty((level + 2, lat.n - level))
    child_s = np.empty_like(child_g)
    menus = np.empty((level + 2, y.size))
    for mc in range(level + 2):
        leaves = lat.leaf_values_from(level + 1, mc)
        child_g[mc] = scenario.payoffs.g_fn(leaves)
        child_s[mc] = scenario.payoffs.s_fn(leaves)
        menus[mc] = ce(child_g[mc] - y[:, None] * child_s[mc], logw, gamma, axis=1)

    values = np.empty(level + 1)
    policies = np.empty(level + 1)
    for m in range(level + 1):
        # rows (down child, up child) of each coin-flip pair
        pi_pair, owed = menus[m:m + 2], continuation[m:m + 2]
        objective = ce(owed[:, None] - pi_pair, coin, c, axis=0) + ce(pi_pair, coin, gamma, axis=0)
        best = objective.max()
        ties = np.nonzero(objective == best)[0]
        j = min(ties, key=lambda k: (abs(y[k]), 0.0 if y[k] < 0.0 else 1.0))
        y_best, val_best = float(y[j]), float(objective[j])
        if refine:
            lo = float(y[max(j - 1, 0)])
            hi = float(y[min(j + 1, y.size - 1)])
            g_pair, s_pair = child_g[m:m + 2], child_s[m:m + 2]

            def scalar_objective(yy: float) -> float:
                pi = ce(g_pair - yy * s_pair, logw, gamma)
                return float(ce(owed - pi, _COIN, c) + ce(pi, _COIN, gamma))

            y_ref, val_ref = _golden_max(scalar_objective, lo, hi)
            if val_ref >= val_best:
                y_best, val_best = y_ref, val_ref
        values[m] = val_best
        policies[m] = y_best
    return values, policies


@dataclass(frozen=True)
class DpValue:
    """Composed-field recursion output: root value net of Pi_0(G), the field
    F_k per level, per-node policies, and the root supplier value Pi_0(G)."""

    value: float
    fields: List[np.ndarray]
    policies: List[np.ndarray]
    pi0_g: float


def value_recursion(scenario: DpScenario, refine: bool = True) -> DpValue:
    """Backward induction as a composition of one-step sup-convolutions.

    F_n = (g+h)(leaves); F_k = one sup-convolution of F_{k+1}; the demander
    value is F_0(root) - Pi_0(G).
    """
    lat = scenario.lattice
    leaves = lat.level_values(lat.n)
    terminal = np.asarray(scenario.payoffs.g_fn(leaves), dtype=float) + np.asarray(
        scenario.payoffs.h_fn(leaves), dtype=float
    )
    fields: List[np.ndarray] = [None] * (lat.n + 1)
    policies: List[np.ndarray] = [None] * lat.n
    fields[lat.n] = terminal
    current = terminal
    for level in range(lat.n - 1, -1, -1):
        current, pol = sup_convolution(scenario, level, current, refine=refine)
        fields[level] = current
        policies[level] = pol
    pi0_g = conditional_pi(scenario, 0, 0, scenario.payoffs.g_fn)
    return DpValue(
        value=float(current[0]) - pi0_g,
        fields=fields,
        policies=policies,
        pi0_g=pi0_g,
    )


@dataclass(frozen=True)
class NoRebalanceReport:
    y_star: float
    is_buy_and_hold: bool
    value_gap: float
    max_policy_deviation: float


def buy_and_hold_position(scenario: DpScenario) -> float:
    """The single y_star with g - y_star*s = (c/(c+gamma)) * (g+h) on every leaf.

    PreconditionError if no such y_star exists or it is inadmissible.
    """
    lat = scenario.lattice
    leaves = lat.level_values(lat.n)
    g_vals = np.asarray(scenario.payoffs.g_fn(leaves), dtype=float)
    s_vals = np.asarray(scenario.payoffs.s_fn(leaves), dtype=float)
    h_vals = np.asarray(scenario.payoffs.h_fn(leaves), dtype=float)
    weight = scenario.agents.demander_weight
    target = weight * (g_vals + h_vals)
    movable = np.abs(s_vals) > 1e-14
    if not movable.any():
        raise PreconditionError("security payoff vanishes on every leaf")
    y_star = float((g_vals[movable][0] - target[movable][0]) / s_vals[movable][0])
    mismatch = np.max(np.abs(g_vals - y_star * s_vals - target))
    if mismatch > 1e-10:
        raise PreconditionError(
            f"endowment is not proportional: pointwise residual {mismatch:.3e}"
        )
    lo, hi = scenario.admissible
    if not lo <= y_star <= hi:
        raise PreconditionError(f"buy-and-hold position {y_star} is inadmissible")
    return y_star


def no_rebalance_check(
    scenario: DpScenario, refine: bool = True, result: Optional[DpValue] = None
) -> NoRebalanceReport:
    """For endowments with G - y*S proportional to G + H, verify buy-and-hold.

    Finds y_star with ``buy_and_hold_position``, then checks the recursion's
    policy sits at y_star everywhere and that the root value equals the
    aggregate CE of G + H minus Pi_0(G).  ``result``, when given, is this
    scenario's ``value_recursion`` output and is used instead of a new run.
    """
    y_star = buy_and_hold_position(scenario)
    if result is None:
        result = value_recursion(scenario, refine=refine)
    max_dev = max(
        float(np.max(np.abs(pol - y_star))) for pol in result.policies
    )
    abar = scenario.agents.aggregate_aversion
    aggregate_ce = conditional_ce(
        scenario, 0, 0, lambda w: np.asarray(scenario.payoffs.g_fn(w), dtype=float)
        + np.asarray(scenario.payoffs.h_fn(w), dtype=float), abar
    )
    gap = result.value - (aggregate_ce - result.pi0_g)
    return NoRebalanceReport(
        y_star=y_star,
        is_buy_and_hold=bool(max_dev <= scenario.y_resolution),
        value_gap=float(gap),
        max_policy_deviation=float(max_dev),
    )


def emm_eipu(scenario: DpScenario, level: int, m: int) -> float:
    """Efficient price at a node: E[S exp(-abar*(G+H))] / E[exp(-abar*(G+H))]."""
    lat = scenario.lattice
    leaves = lat.leaf_values_from(level, m)
    logw = lat.leaf_log_weights_from(level)
    g_vals = np.asarray(scenario.payoffs.g_fn(leaves), dtype=float)
    s_vals = np.asarray(scenario.payoffs.s_fn(leaves), dtype=float)
    h_vals = np.asarray(scenario.payoffs.h_fn(leaves), dtype=float)
    abar = scenario.agents.aggregate_aversion
    return tilted_mean(s_vals, g_vals + h_vals, logw, abar)


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    value: float
    error: float


def convergence_study(
    scenario: DpScenario,
    n_list: Sequence[int],
    limit: Optional[float] = None,
    refine: bool = True,
    order: int = 128,
) -> List[ConvergenceRow]:
    """Root DP value against the continuous-market limit for each lattice size.

    The limit defaults to v(0, 0) - p(0, 0, 0) from the Markov quadrature
    fields of the same payoff data.
    """
    if limit is None:
        limit = field_v(scenario.payoffs, 0.0, 0.0, order) - field_p(
            scenario.payoffs, 0.0, 0.0, 0.0, order
        )
    rows = []
    for n in n_list:
        sub = DpScenario(
            lattice=Lattice(int(n)),
            payoffs=scenario.payoffs,
            admissible=scenario.admissible,
            y_resolution=scenario.y_resolution,
        )
        value = value_recursion(sub, refine=refine).value
        error = abs(value - limit)
        if not math.isfinite(error):
            raise PreconditionError(f"non-finite convergence error at n={n}")
        rows.append(ConvergenceRow(n=int(n), value=value, error=error))
    return rows
