"""Discrete-time dynamic programming on a recombining binomial lattice.

The factor takes +-1/sqrt(n) steps with probability 1/2 over n periods,
so level j holds j+1 nodes at values (2m - j)/sqrt(n).  ``Lattice`` owns
this binomial step: the coin's log-weights, each node's (down, up) children,
the leaves each child reaches and their log-weights (the weights built once
and held read-only), and the node and cell counts behind the recursion's
working set, which the command line's memory check reads.  The
demander's value function is computed in composed form: one sup-convolution
per period applied to the aggregate terminal payoff, which only ever needs
one-step conditional certainty equivalents plus conditional prices of the
form Pi_t(G - y*S).  Cash never enters the state: values are stored
net of cash and the identity V(x, z) = x + V(0, z) is what tests check.
``DpScenario`` owns the data every step reads, its leaf rows G, S and H and
its two scan grids with their tie-break orders, evaluated once per scenario
object; ``sup_convolution`` is the one backward step, and
``value_recursion`` is a loop of it.

Every coin flip takes two certainty equivalents of the same two children,
the supplier's at gamma and the demander's at c.  Where both are tilts
(gamma > 0, c < inf) they are one tilt of the two stacked, through a column
of the aversions, each with its own tilt's bits; the step writes the tilt's
exponent over its own (2, 2, nodes, grid) buffer and the CEs over the
normaliser.  gamma = 0 (a mean) or c = inf (a minimum) takes two calls.

Each level is a few array operations over all its nodes.  The menus
Pi(G - y*S) on a scan grid rise from the leaves by the tower property,
O(n^2 * grid) in all, and each node takes the grid argmax (ties toward the
smallest |y|, then negative y).  With refinement off the scan grid is the
whole inventory grid of resolution ``y_resolution``.  With it on, the scan
grid is a coarse subset of about 64 intervals (``_scan_grids``), and the
argmax is polished by lockstep safeguarded Newton steps between its scan
neighbours, from the vertex of the parabola through the three scan values.
The objective's first and second y-derivatives are tilted moments of S over
the leaves and of the children's derivatives over the coin flip
(``utility.tilted_moments``), so each step costs about one objective
evaluation.  A first derivative whose two terms cancel to within a few ulps
is taken as 0, so Newton stops at the roundoff floor instead of stepping on
noise, and a zero derivative at the start keeps it.  A node whose scan row
has two or more local maxima, or whose objective is convex at Newton's point,
falls back to a scan of the whole inventory grid from its leaves and
Newton between that grid's neighbours; so ``y_resolution`` sets the
refine-off scan and the refine-on fallback.
"""

from __future__ import annotations

import math
from collections import Counter
from dataclasses import dataclass, replace
from functools import cached_property, lru_cache
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .errors import ParameterError, PreconditionError, _whole_number
from .markov import MarkovPayoffs, _payoff_rows, field_p, field_v
from .utility import _ce_from_normaliser, _tilt, ce, newton_root, tilted_mean, tilted_moments

_COARSE_INTERVALS = 64  # the refine-on scan grid's intervals over the admissible range
_SLOPE_FLOOR = 4 * np.finfo(float).eps  # F' this close to its terms' cancellation is 0
_SCAN_CELLS = 1 << 18  # entries of the largest array a whole-grid fallback scan builds


@dataclass(frozen=True)
class Lattice:
    """Recombining +-1/sqrt(n) walk over n periods of length 1/n, and the one
    owner of its binomial step (the module docstring lists what that holds)."""

    n: int

    def __post_init__(self):
        object.__setattr__(self, "n", _whole_number(self.n, "n", 1))

    def nodes(self, level: int) -> int:
        """How many nodes ``level`` holds."""
        return level + 1

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
        return (2 * (m + np.arange(self.n - level + 1)) - self.n) / math.sqrt(self.n)

    def leaf_log_weights_from(self, level: int) -> np.ndarray:
        """Log binomial weights of the leaves from any node at this level (exact
        binomials), read-only and built once for each number of remaining steps."""
        if not 0 <= level <= self.n:
            raise ParameterError("level outside the lattice")
        return _leaf_log_weights(self.n - level)

    def coin(self, ndim: int = 1) -> np.ndarray:
        """Log-weights of one step's (down, up) children, along the first of ``ndim``
        axes: a read-only view of one array built once."""
        return _COIN.reshape((2,) + (1,) * (ndim - 1))

    def children(self, rows: np.ndarray, out: Optional[np.ndarray] = None) -> np.ndarray:
        """(down child, up child) rows of every node one level up, stacked on axis 0,
        written into ``out`` when it is given."""
        if out is None:
            out = np.empty((2, len(rows) - 1) + rows.shape[1:], dtype=rows.dtype)
        out[0], out[1] = rows[:-1], rows[1:]
        return out

    def child_leaves(self, leaves: np.ndarray, level: int) -> np.ndarray:
        """A read-only (..., children, nodes, leaves) view of the n+1 ``leaves`` along
        the last axis: entry [..., k, m, l] is leaf m + k + l, leaf l of child
        (level+1, m+k) of node m."""
        shape = leaves.shape[:-1] + (2, self.nodes(level), self.n - level)
        strides = leaves.strides[:-1] + (leaves.strides[-1],) * 3
        return as_strided(leaves, shape, strides, writeable=False)

    def working_cells(self, points: float, refine: bool) -> float:
        """About how many floats the value recursion holds at once on a y grid
        of ``points``: a row per leaf and one more, of menus on the whole grid
        with refine off; with it on, of menus on the scan grid, plus a level's
        leaf windows (2 (level+1) (n-level) cells) and a fallback's rows."""
        rows = self.nodes(self.n) + 1
        if not refine:
            return rows * points
        return rows * (min(points, _COARSE_INTERVALS + 2.0) + rows / 2) + points + _SCAN_CELLS


# every level of a lattice of up to 127 steps, and at most 128 rows of n+1 floats held
@lru_cache(maxsize=128)
def _leaf_log_weights(remaining: int) -> np.ndarray:
    """Log binomial weights of the leaves ``remaining`` steps on, read-only."""
    logs, binom = [], 1
    for k in range(remaining + 1):
        logs.append(math.log(binom))
        binom = binom * (remaining - k) // (k + 1)
    logw = np.array(logs) - remaining * math.log(2.0)
    logw.flags.writeable = False
    return logw


_COIN = np.full(2, -math.log(2.0))
_COIN.flags.writeable = False


@lru_cache(maxsize=16)
def _coin_aversions(gamma: float, c: float) -> Optional[np.ndarray]:
    """(gamma, c) as a read-only (2, 1, 1, 1) column, for one tilt of the supplier's
    and the demander's coin flips; None where one of them is a mean (gamma = 0)
    or a minimum (c = inf), which ``ce`` takes without a tilt."""
    if gamma == 0.0 or math.isinf(c):
        return None
    column = np.array((gamma, c), dtype=float).reshape(2, 1, 1, 1)
    column.flags.writeable = False
    return column


@dataclass(frozen=True)
class DpScenario:
    """Lattice, terminal payoff data, admissible inventory interval, inventory grid resolution."""

    lattice: Lattice
    payoffs: MarkovPayoffs
    admissible: Tuple[float, float]
    y_resolution: float = 1e-3

    def __post_init__(self):
        lo, hi = self.admissible
        if not (math.isfinite(lo) and math.isfinite(hi) and lo < hi):
            raise ParameterError("admissible interval must be finite with lo < hi",
                                 "admissible[0]" if not math.isfinite(lo) else "admissible[1]")
        if not lo <= 0.0 <= hi:
            raise ParameterError("admissible interval must contain 0", "admissible[0]")
        if not 0.0 < self.y_resolution <= (hi - lo):
            raise ParameterError("y_resolution must lie in (0, hi - lo]", "y_resolution")

    @property
    def agents(self):
        return self.payoffs.agents

    def y_grid(self) -> np.ndarray:
        lo, hi = self.admissible
        count = int(round((hi - lo) / self.y_resolution)) + 1
        return np.linspace(lo, hi, count)

    @cached_property
    def _leaves(self) -> np.ndarray:
        """G, S and H on all n+1 leaves, read-only rows; a non-finite value
        raises PreconditionError on every read, as nothing is cached then."""
        pay = self.payoffs
        rows = _leaf_payoffs(self, 0, 0, (pay.g_fn, pay.s_fn, pay.h_fn))
        rows.flags.writeable = False
        return rows

    @cached_property
    def _scan_grids(self) -> Tuple[Tuple[np.ndarray, np.ndarray], Tuple[np.ndarray, np.ndarray]]:
        """The y points the menus are carried on and the argmax is taken over,
        each with the order of its tie-break, read-only, indexed by ``refine``.
        Refine off: the whole y grid.  Refine on: every k-th point of it, for
        k = ceil((N - 1) / 64), with both ends and the point the whole grid's
        tie-break picks on a flat objective (smallest |y|, then negative y), so
        that flat objectives and policies on a bound keep the whole grid's
        answers, and a grid of at most 65 points is its own subset."""
        y = self.y_grid()
        keep = np.zeros(y.size, dtype=bool)
        keep[::-(-(y.size - 1) // _COARSE_INTERVALS)] = True
        # the first of the smallest |y| is the negative one: y increases
        keep[-1] = keep[np.argmin(np.abs(y))] = True
        grids = []
        for points in (y, y[keep]):
            order = np.lexsort((points >= 0.0, np.abs(points)))  # smallest |y|, then y < 0
            points.flags.writeable = order.flags.writeable = False
            grids.append((points, order))
        return tuple(grids)


def conditional_ce(
    scenario: DpScenario, level: int, m: int, terminal_fn: Callable, aversion: float
) -> float:
    """Certainty equivalent of terminal_fn(W_1) over the leaves below (level, m)."""
    vals = _leaf_payoffs(scenario, level, m, (terminal_fn,))[0]
    return float(ce(vals, scenario.lattice.leaf_log_weights_from(level), aversion))


def conditional_pi(scenario: DpScenario, level: int, m: int, terminal_fn: Callable) -> float:
    """Supplier conditional indifference value (aversion gamma) at a node."""
    return conditional_ce(scenario, level, m, terminal_fn, scenario.agents.gamma)


def _leaf_payoffs(scenario: DpScenario, level: int, m: int, fns) -> np.ndarray:
    """Each of ``fns`` on the leaves below node (level, m), one float row each;
    PreconditionError if a value is non-finite."""
    leaves = scenario.lattice.leaf_values_from(level, m)
    return _payoff_rows(leaves, fns, PreconditionError, "a lattice leaf")


def _level_menus(scenario: DpScenario, level: int, y: np.ndarray) -> np.ndarray:
    """Pi(G - y*S) on the y grid, one row per node of ``level``: G - y*S at the
    leaves, then one coin-flip CE of the children's rows per level up."""
    lat = scenario.lattice
    g, s, _ = scenario._leaves
    menus, coin = g[:, None] - s[:, None] * y, lat.coin(3)
    for _ in range(lat.n - level):
        menus = ce(lat.children(menus), coin, scenario.agents.gamma, axis=0)
    return menus


def _tie_broken_argmax(rows: np.ndarray, order: np.ndarray) -> np.ndarray:
    """Column of each row's maximum; ties go to the column first in ``order``
    (a scan grid's: the smallest |y|, then negative y)."""
    ranked = rows[:, order]
    return order[(ranked == np.maximum.reduce(ranked, 1, keepdims=True)).argmax(1)]


def _coin_flips(scenario: DpScenario, menus: np.ndarray, owed: np.ndarray):
    """This level's menus, the supplier's coin-flip CE of the children's ``menus``,
    and the objective: the demander's coin-flip CE of ``owed`` less the children's
    menus, plus the supplier's.  The stack both are tilted in is freed on return,
    before the argmax copies the objective."""
    lat, gamma, c = scenario.lattice, scenario.agents.gamma, scenario.agents.c
    coin, aversions = lat.coin(3), _coin_aversions(gamma, c)
    if aversions is None:  # a mean or a minimum: a call each
        pairs = lat.children(menus)
        own = ce(pairs, coin, gamma, axis=0)
        return own, ce(np.subtract(owed[:, :, None], pairs, out=pairs), coin, c, axis=0) + own
    stack = np.empty((2,) + owed.shape + menus.shape[1:])
    pairs = lat.children(menus, out=stack[0])
    np.subtract(owed[:, :, None], pairs, out=stack[1])
    with np.errstate(over="ignore", invalid="ignore"):
        exponent = np.subtract(coin, np.multiply(stack, aversions, out=stack), out=stack)
        _, total, top = _tilt(exponent, 1)
        own, demand = _ce_from_normaliser(total, top, aversions, 1)
    return own, np.add(demand, own, out=demand)


def sup_convolution(
    scenario: DpScenario, level: int, continuation: np.ndarray, refine: bool = True,
    menus: Optional[np.ndarray] = None, *, tally: Optional[Counter] = None,
) -> Tuple[np.ndarray, np.ndarray]:
    """One backward step: from the composed field at level+1 to level.

    For each node, maximizes over the post-trade inventory y the sum of the
    demander's one-step CE of (continuation - Pi_child(G - y*S)) and the
    supplier's one-step CE of Pi_child(G - y*S).  ``menus``, when given,
    holds the children's Pi(G - y*S) on the scan grid (the y grid, or with
    ``refine`` its coarse subset), one row per node at level+1, and its first
    level+1 rows are overwritten with this level's; without it the children's
    rows are built up from the leaves.  ``tally``, when given, gets the
    refinement's ``evaluations`` (calls of the objective or its derivatives
    from the leaves, each over the nodes it serves) and ``fallback_nodes``
    added to it.
    """
    lat = scenario.lattice
    if not 0 <= level < lat.n:
        raise ParameterError("sup_convolution level must lie in [0, n)")
    next_nodes = lat.nodes(level + 1)
    continuation = np.asarray(continuation, dtype=float)
    if continuation.shape != (next_nodes,):
        raise ParameterError("continuation must hold one value per node at level+1")
    y, order = scenario._scan_grids[bool(refine)]
    if menus is None:
        menus = _level_menus(scenario, level + 1, y)
    elif menus.shape != (next_nodes, y.size):
        raise ParameterError("menus must hold one scan-grid row per node at level+1")
    owed = lat.children(continuation)
    own, objective = _coin_flips(scenario, menus, owed)
    menus[:len(own)] = own
    j = _tie_broken_argmax(objective, order)
    if not refine:
        return objective[np.arange(j.size), j], y[j]
    return _refine(scenario, level, owed, y, objective, j,
                   Counter() if tally is None else tally)


class _LeafWindows:
    """The objective of some nodes of a level from their children's leaves,
    its negated y-derivatives for Newton, and a count of their calls.
    ``leaves`` holds G and S as the lattice's (children, nodes, leaves) views."""

    def __init__(self, scenario: DpScenario, level: int, owed: np.ndarray, leaves, nodes):
        lat = scenario.lattice
        self.gamma, self.c = scenario.agents.gamma, scenario.agents.c
        self.aversions = _coin_aversions(self.gamma, self.c)  # None: two tilts
        self.logw = lat.leaf_log_weights_from(level + 1)
        self.coin = lat.coin(2)  # along the children axis, which the nodes axis follows
        self.g, self.s = leaves[:, :, nodes]
        self.owed = owed[:, nodes]
        self.calls = 0
        self.curvature = None  # F'' at the last derivative call

    def objective(self, yy):
        """F at the points yy, (points, nodes)."""
        self.calls += 1
        pi = ce(self.g - np.asarray(yy)[..., None, :, None] * self.s, self.logw, self.gamma)
        coin = self.coin
        if self.aversions is None:
            return ce(self.owed - pi, coin, self.c, axis=-2) + ce(pi, coin, self.gamma, axis=-2)
        own, demand = ce(np.array((pi, self.owed - pi)), coin, self.aversions, axis=-2)
        return demand + own

    def negated_derivatives(self, yy):
        """-F' and -F'' from pi' = -E^gamma[S] and pi'' = -gamma*Var^gamma[S] per
        child, and (CE_a f)' = E^a[f'], (CE_a f)'' = E^a[f''] - a*Var^a[f'] per
        coin flip.  F' is 0 where its two terms cancel to within roundoff, so
        Newton stops there rather than step on noise."""
        self.calls += 1
        gamma, c, coin = self.gamma, self.c, self.coin
        book = self.g - yy[:, None] * self.s
        mean, var, pi = tilted_moments(self.s, book, self.logw, gamma, with_ce=True)
        slopes = np.array((mean, gamma * var))  # -pi' and -pi'' of each child
        if self.aversions is None:
            dem, dem_var = tilted_moments(slopes, self.owed - pi, coin, c, axis=-2)
            sup, sup_var = tilted_moments(-slopes, pi, coin, gamma, axis=-2)
        else:  # one tilt of both coin flips, each with its derivatives on the axis after
            (sup, dem), (sup_var, dem_var) = tilted_moments(
                np.array((-slopes, slopes)), np.array((pi, self.owed - pi))[:, None], coin,
                self.aversions, axis=-2)
        slope = dem[0] + sup[0]
        floor = _SLOPE_FLOOR * (np.abs(dem[0]) + np.abs(sup[0]))
        # a*Var^a[f'] tends to 0 as a -> inf wherever the minimizing child is unique
        curvature = dem[1] + sup[1] - gamma * sup_var[0] - (0.0 if math.isinf(c) else c) * dem_var[0]
        self.curvature = curvature
        return np.where(np.abs(slope) <= floor, 0.0, -slope), -curvature

    def scan(self, y: np.ndarray) -> np.ndarray:
        """The objective at every point of y, one row per node, a chunk of y at a
        time so that no array exceeds about _SCAN_CELLS entries."""
        width = max(1, _SCAN_CELLS // self.g.size)
        chunks = [self.objective(y[k:k + width, None]) for k in range(0, y.size, width)]
        return np.concatenate(chunks).T

    def polish(self, y: np.ndarray, rows: np.ndarray, j: np.ndarray):
        """Safeguarded Newton on F' inside [y[j-1], y[j+1]], every node in
        lockstep, from the vertex of the parabola through the grid objective
        ``rows`` at those three points (y[j] itself at an end of the grid or
        where the three tie); the result replaces y[j] when it does at least
        as well.  Returns the values, the points and F'' at Newton's point."""
        below, above = np.maximum(j - 1, 0), np.minimum(j + 1, y.size - 1)
        lo, at, hi = y[below], y[j], y[above]
        nodes = np.arange(j.size)
        d0, d2 = lo - at, hi - at
        mid = rows[nodes, j]
        g0, g2 = rows[nodes, below] - mid, rows[nodes, above] - mid
        den = 2.0 * (d0 * g2 - d2 * g0)
        with np.errstate(divide="ignore", invalid="ignore"):
            shift = np.where(den > 0.0, (d0 * d0 * g2 - d2 * d2 * g0) / den, 0.0)
        start = (at + shift).clip(lo, hi)
        best, _ = newton_root(self.negated_derivatives, start, lo, hi)
        curvature = self.curvature  # newton_root's last call is at the point it returns
        f_best, f_grid = self.objective(np.array((best, at)))
        better = f_best >= f_grid
        return np.where(better, f_best, f_grid), np.where(better, best, at), curvature


def _peaks(rows: np.ndarray) -> np.ndarray:
    """Local maxima per row, ends included: the places where the row stops
    rising, counting a rise into the first point and none out of the last."""
    rise = np.ones((rows.shape[0], rows.shape[1] + 1), dtype=bool)
    rise[:, -1] = False
    np.greater(rows[:, 1:], rows[:, :-1], out=rise[:, 1:-1])
    return np.add.reduce(rise[:, :-1] & ~rise[:, 1:], 1)


def _refine(scenario, level, owed, y, rows, j, tally):
    """Newton from the scan-grid argmax y[j] between its scan-grid neighbours, on
    the objective from the children's leaves.  A node whose scan row has two or
    more local maxima, or whose objective is convex at Newton's point (F'' > 0),
    is scanned again on the whole y grid from its leaves and polished between
    that grid's neighbours instead.  F'' = 0 exactly is left
    out: it comes from an objective flat or linear in y, whose best scan point
    (the tie-break winner or an end) is already the whole grid's."""
    leaves = scenario.lattice.child_leaves(scenario._leaves[:2], level)  # G and S
    windows = _LeafWindows(scenario, level, owed, leaves, slice(None))
    values, policies, curvature = windows.polish(y, rows, j)
    tally["evaluations"] += windows.calls
    fallback = np.flatnonzero((_peaks(rows) >= 2) | (curvature > 0.0))
    tally["fallback_nodes"] += fallback.size
    if fallback.size:
        full, order = scenario._scan_grids[False]
        group = max(1, _SCAN_CELLS // full.size)  # nodes whose whole-grid rows are held at once
        for k in range(0, fallback.size, group):
            nodes = fallback[k:k + group]
            windows = _LeafWindows(scenario, level, owed, leaves, nodes)
            scanned = windows.scan(full)
            values[nodes], policies[nodes], _ = windows.polish(
                full, scanned, _tie_broken_argmax(scanned, order)
            )
            tally["evaluations"] += windows.calls
    return values, policies


@dataclass(frozen=True)
class DpValue:
    """Composed-field recursion output: root value net of Pi_0(G), the field
    F_k per level, per-node policies, the root supplier value Pi_0(G), how
    many nodes have their policy on an end of the admissible interval, and
    the refinement's work: calls of the objective or its derivatives from the
    leaves, and nodes scanned again on the whole y grid."""

    value: float
    fields: List[np.ndarray]
    policies: List[np.ndarray]
    pi0_g: float
    bound_hits: int
    refine_evaluations: int
    fallback_nodes: int


def value_recursion(scenario: DpScenario, refine: bool = True) -> DpValue:
    """Backward induction as a composition of one-step sup-convolutions.

    F_n = (g+h)(leaves); F_k = one sup-convolution of F_{k+1}; the demander
    value is F_0(root) - Pi_0(G).  One menu array is carried up the levels, and
    the scenario's leaf rows and scan grid are read by every step.
    """
    lat = scenario.lattice
    g, _, h = scenario._leaves
    fields, policies, tally = [g + h], [], Counter()
    menus = _level_menus(scenario, lat.n, scenario._scan_grids[bool(refine)][0])
    for level in range(lat.n - 1, -1, -1):
        current, pol = sup_convolution(scenario, level, fields[-1], refine,
                                       menus[:level + 2], tally=tally)
        fields.append(current)
        policies.append(pol)
    pi0_g = float(ce(g, lat.leaf_log_weights_from(0), scenario.agents.gamma))
    lo, hi = scenario.admissible
    tol = 1e-12 * (hi - lo)  # refinement stops a few 1e-15 widths short of a binding end
    every = np.concatenate(policies)
    hits = int(np.count_nonzero((every <= lo + tol) | (every >= hi - tol)))
    return DpValue(float(current[0]) - pi0_g, fields[::-1], policies[::-1], pi0_g, hits,
                   tally["evaluations"], tally["fallback_nodes"])


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
    g_vals, s_vals, h_vals = scenario._leaves
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
    max_dev = max(float(np.max(np.abs(pol - y_star))) for pol in result.policies)
    # the recursion's leaf field is G + H
    aggregate_ce = ce(result.fields[-1], scenario.lattice.leaf_log_weights_from(0),
                      scenario.agents.aggregate_aversion)
    gap = result.value - (aggregate_ce - result.pi0_g)
    return NoRebalanceReport(y_star=y_star, is_buy_and_hold=bool(max_dev <= scenario.y_resolution),
                             value_gap=float(gap), max_policy_deviation=max_dev)


def emm_eipu(scenario: DpScenario, level: int, m: int) -> float:
    """Efficient price at a node: E[S exp(-abar*(G+H))] / E[exp(-abar*(G+H))]."""
    pay = scenario.payoffs
    g, s, h = _leaf_payoffs(scenario, level, m, (pay.g_fn, pay.s_fn, pay.h_fn))
    logw = scenario.lattice.leaf_log_weights_from(level)
    return tilted_mean(s, g + h, logw, scenario.agents.aggregate_aversion)


@dataclass(frozen=True)
class ConvergenceRow:
    n: int
    value: float
    error: float
    bound_hits: int


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
        result = value_recursion(replace(scenario, lattice=Lattice(n)), refine=refine)
        error = abs(result.value - limit)
        if not math.isfinite(error):
            raise PreconditionError(f"non-finite convergence error at n={n}")
        rows.append(ConvergenceRow(int(n), result.value, error, result.bound_hits))
    return rows
