"""Seeded simulation of factor paths on a uniform grid over [0, 1].

Increments are drawn from the exact marginal law of each family (never
an Euler scheme), so expectations of exponentials of grid sums match
the cumulant formulas up to Monte Carlo error only.  Reproducibility
contract: same (model, grid, schedule, seed) gives bit-identical paths;
batch runs derive one generator per path from (seed, path_index) so the
result is independent of execution order.

A batch is the Monte Carlo primitive: path k's increments are drawn from
its own stream into row k of one matrix, one ``cumsum`` along the rows
gives the levels, and one read-only H' series serves every path.
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .cumulants import Brownian, GammaProcess, LevyModel, OneSidedStable
from .errors import ParameterError, ScheduleError


@dataclass(frozen=True)
class PathGrid:
    """Uniform time grid t_i = i/n_steps on [0, 1]."""

    n_steps: int

    def __post_init__(self):
        if not isinstance(self.n_steps, int) or self.n_steps < 1:
            raise ParameterError("n_steps must be an integer >= 1")

    @property
    def dt(self) -> float:
        return 1.0 / self.n_steps

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) / self.n_steps


@dataclass(frozen=True)
class ShockSchedule:
    """Deterministic piecewise-constant endowment loading H'.

    Starts at ``initial_value``; each (time, jump) moves it by ``jump`` at
    ``time`` in (0, 1), right-continuously.  The scalar ``h`` rides along as
    the cash leg of the endowment.
    """

    initial_value: float = 0.0
    shocks: Tuple[Tuple[float, float], ...] = ()
    h: float = 0.0

    def __post_init__(self):
        object.__setattr__(
            self,
            "shocks",
            tuple((float(s), float(j)) for s, j in self.shocks),
        )
        last = 0.0
        for s, j in self.shocks:
            if not 0.0 < s < 1.0:
                raise ScheduleError(f"shock time {s} must lie strictly inside (0, 1)")
            if s <= last:
                raise ScheduleError("shock times must be strictly increasing")
            if not math.isfinite(j):
                raise ScheduleError("shock jumps must be finite")
            last = s
        if not (math.isfinite(self.initial_value) and math.isfinite(self.h)):
            raise ScheduleError("initial_value and h must be finite")

    def levels(self) -> np.ndarray:
        """All values H' takes over [0, 1], in order."""
        vals = [self.initial_value]
        for _, j in self.shocks:
            vals.append(vals[-1] + j)
        return np.array(vals)

    def series(self, grid: PathGrid) -> np.ndarray:
        """H' at every grid time, shocks snapped to the nearest grid point.

        Right-continuous: the entry at a snapped shock index already includes
        that jump.  Snapping must keep shocks distinct and interior.
        """
        n = grid.n_steps
        out = np.full(n + 1, self.initial_value)
        used = set()
        for s, j in self.shocks:
            idx = int(round(s * n))
            if idx <= 0 or idx >= n:
                raise ScheduleError(
                    f"shock at {s} snaps to grid index {idx}, outside the open interval"
                )
            if idx in used:
                raise ScheduleError(f"two shocks snap to the same grid index {idx}")
            used.add(idx)
            out[idx:] += j
        return out


@dataclass(frozen=True)
class PathSample:
    """One simulated factor path: levels x (n+1), increments (n), H' series (n+1)."""

    x: np.ndarray
    increments: np.ndarray
    h_prime: np.ndarray

    def __post_init__(self):
        if self.x[0] != 0.0:
            raise ParameterError("path must start at x = 0")
        if self.x.shape != self.h_prime.shape or self.x.size != self.increments.size + 1:
            raise ParameterError("inconsistent path array lengths")


def path_generator(seed: int, path_index: int = 0) -> np.random.Generator:
    """Generator for one path, split from (seed, path_index)."""
    return np.random.default_rng(np.random.SeedSequence([int(seed), int(path_index)]))


def simulate_path(
    model: LevyModel,
    grid: PathGrid,
    schedule: ShockSchedule,
    seed: int,
    path_index: int = 0,
) -> PathSample:
    """Draw one path with exact-marginal increments; deterministic in (seed, path_index)."""
    return simulate_batch(model, grid, schedule, seed, 1, first=path_index)[0]


@dataclass(frozen=True, eq=False)
class PathBatch(Sequence):
    """Paths first, first+1, ... as the rows of one matrix.

    ``x`` is (paths, n+1) with column 0 all zero, ``increments`` is
    (paths, n), and the read-only (n+1) series ``h_prime`` is shared by every
    path.  Indexing gives ``PathSample`` row views (a slice gives a list of
    them); nothing is copied.
    """

    x: np.ndarray
    increments: np.ndarray
    h_prime: np.ndarray
    first: int = 0

    def __len__(self) -> int:
        return self.x.shape[0]

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [self[i] for i in range(*k.indices(len(self)))]
        return PathSample(x=self.x[k], increments=self.increments[k], h_prime=self.h_prime)


def simulate_batch(
    model: LevyModel,
    grid: PathGrid,
    schedule: ShockSchedule,
    seed: int,
    n_paths: int,
    first: int = 0,
) -> PathBatch:
    """Paths first..first+n_paths-1 as one ``PathBatch``; its row k - first
    equals ``simulate_path(model, grid, schedule, seed, k)``."""
    if n_paths < 1:
        raise ParameterError("n_paths must be >= 1")
    h_prime = schedule.series(grid)
    h_prime.flags.writeable = False
    n = grid.n_steps
    increments = np.empty((n_paths, n))
    for row, k in zip(increments, range(first, first + n_paths)):
        row[:] = model.sample_increments(path_generator(seed, k), grid.dt, n)
    x = np.empty((n_paths, n + 1))
    x[:, 0] = 0.0
    np.cumsum(increments, axis=1, out=x[:, 1:])
    return PathBatch(x=x, increments=increments, h_prime=h_prime, first=first)


def martingale_component(model: LevyModel, path: PathSample, grid: PathGrid) -> np.ndarray:
    """Compensated series x_t + (1-t) * E[X_1] at every grid time.

    Raises NonDifferentiableError for the stable family (no finite mean).
    """
    return path.x + (1.0 - grid.times) * model.mean()
