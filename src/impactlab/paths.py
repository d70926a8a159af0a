"""Seeded simulation of factor paths on a uniform grid over [0, 1].

Increments are drawn from the exact marginal law of each family (never
an Euler scheme), so expectations of exponentials of grid sums match
the cumulant formulas up to Monte Carlo error only.  Reproducibility
contract: same (model, grid, schedule, seed) gives bit-identical paths;
path k draws from its own PCG64 stream, the one ``path_generator(seed, k)``
seeds through ``SeedSequence([seed, k])``, so the result is independent of
execution order and of how the paths are split into batches.

A batch is the Monte Carlo primitive: path k's increments are drawn from
its own stream into row k of one matrix, one ``cumsum`` along the rows
gives the levels, and one read-only H' series serves every path.  Building
a ``SeedSequence`` and a ``PCG64`` per path would cost more than drawing a
short path, so a batch runs numpy's ``SeedSequence`` hash on every path's
(seed, k) at once in ``uint32`` arithmetic, and moves one ``Generator``
from stream to stream by setting its PCG64 state.  The hash is numpy's,
transcribed step by step: its cost is a fixed number of numpy calls per
batch, so a one-path batch (``simulate_path``) pays it whole.
"""

from __future__ import annotations

import math
import numbers
from collections.abc import Sequence
from dataclasses import dataclass
from typing import Tuple

import numpy as np

from .cumulants import LevyModel
from .errors import ParameterError, ScheduleError, _whole_number


@dataclass(frozen=True)
class PathGrid:
    """Uniform time grid t_i = i/n_steps on [0, 1]."""

    n_steps: int

    def __post_init__(self):
        object.__setattr__(self, "n_steps", _whole_number(self.n_steps, "n_steps", 1))

    @property
    def dt(self) -> float:
        return 1.0 / self.n_steps

    @property
    def times(self) -> np.ndarray:
        return np.arange(self.n_steps + 1) / self.n_steps


def _real(value, label: str, argument: str) -> float:
    """``value`` as a float, refused naming ``argument`` unless it is a finite real
    number other than a bool."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ScheduleError(f"{label} must be a number", argument)
    try:
        value = float(value)
    except OverflowError:  # an int too large for a float
        value = math.inf
    if not math.isfinite(value):
        raise ScheduleError(f"{label} must be finite", argument)
    return value


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
        shocks, last = [], 0.0
        for i, shock in enumerate(self.shocks):
            argument = f"shocks[{i}]"
            if not isinstance(shock, (tuple, list, np.ndarray)) or len(shock) != 2:
                raise ScheduleError("must be a [time, jump] pair", argument)
            s, j = (_real(value, label, argument) for label, value in zip(("time", "jump"), shock))
            if not 0.0 < s < 1.0:
                raise ScheduleError(f"shock time {s} must lie strictly inside (0, 1)", argument)
            if s <= last:
                raise ScheduleError("shock times must be strictly increasing", argument)
            shocks.append((s, j))
            last = s
        object.__setattr__(self, "shocks", tuple(shocks))
        for name in ("initial_value", "h"):
            object.__setattr__(self, name, _real(getattr(self, name), name, name))

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
        out = np.full(grid.n_steps + 1, self.initial_value)
        for idx, (_, j) in zip(self._grid_indices(grid), self.shocks):
            out[idx:] += j
        return out

    def _grid_indices(self, grid: PathGrid, argument: str = "shocks") -> list:
        """The grid index each shock snaps to; a refusal names ``argument``."""
        n = grid.n_steps
        indices = [int(round(s * n)) for s, _ in self.shocks]
        # the times increase, so only neighbours can snap to one index
        for (s, _), idx, before in zip(self.shocks, indices, [None, *indices]):
            if idx <= 0 or idx >= n:
                raise ScheduleError(
                    f"shock at {s} snaps to grid index {idx}, outside the open interval", argument
                )
            if idx == before:
                raise ScheduleError(f"two shocks snap to the same grid index {idx}", argument)
        return indices


def _check_paths(x: np.ndarray, increments: np.ndarray, h_prime: np.ndarray, ndim: int):
    """Refuse levels x that are not ``ndim``-d (1 for a path, 2 for a batch's rows) or
    do not all start at 0, and increments or an H' series of another length."""
    if x.ndim != ndim or not x.shape[-1]:
        raise ParameterError(f"x must be a {ndim}-d array of levels from t = 0", "x")
    if (x[..., 0] != 0.0).any():
        raise ParameterError("path must start at x = 0", "x")
    if increments.shape != (*x.shape[:-1], x.shape[-1] - 1):
        raise ParameterError("inconsistent path array lengths", "increments")
    if h_prime.shape != x.shape[-1:]:
        raise ParameterError("inconsistent path array lengths", "h_prime")


@dataclass(frozen=True)
class PathSample:
    """One simulated factor path: levels x (n+1), increments (n), H' series (n+1)."""

    x: np.ndarray
    increments: np.ndarray
    h_prime: np.ndarray

    def __post_init__(self):
        _check_paths(self.x, self.increments, self.h_prime, 1)


def _row_view(x: np.ndarray, increments: np.ndarray, h_prime: np.ndarray) -> PathSample:
    """The ``PathSample`` of one row of a checked ``PathBatch``, built without the
    dataclass ``__init__``: only the row's start is tested again, since a batch's
    arrays can be written in place after its check."""
    if x[0] != 0.0:
        raise ParameterError("path must start at x = 0", "x")
    path = object.__new__(PathSample)
    values = path.__dict__
    values["x"], values["increments"], values["h_prime"] = x, increments, h_prime
    return path


def path_generator(seed: int, path_index: int = 0) -> np.random.Generator:
    """Generator for one path, split from (seed, path_index)."""
    entropy = [_whole_number(seed, "seed"), _whole_number(path_index, "path_index")]
    return np.random.default_rng(np.random.SeedSequence(entropy))


# numpy's SeedSequence with its default pool of 4 uint32 words for many paths at
# once: hashmix, mix, SeedSequence.mix_entropy and SeedSequence.generate_state of
# numpy/random/bit_generator.pyx line for line, each step acting on one uint32 row
# of the (words, paths) entropy.  The tests compare it with path_generator.
_MASK32 = 0xFFFFFFFF
_INIT_A, _MULT_A = 0x43B0D7E5, 0x931E8875
_INIT_B, _MULT_B = 0x8B51F9DD, 0x58F38DED
_MIX_MULT_L, _MIX_MULT_R, _XSHIFT = 0xCA01F9DD, 0x4973F715, 16
_PCG64_MULT, _MASK128 = 0x2360ED051FC65DA44385DF649FCCF645, (1 << 128) - 1


def _words(n: int) -> list:
    """The little-endian uint32 words of an int >= 0 (one word for 0), as SeedSequence splits it."""
    out = [n & _MASK32]
    while n := n >> 32:
        out.append(n & _MASK32)
    return out


def _hashmix(value, hash_const: int, mult: int = _MULT_A):
    """hashmix of a uint32 row, and the hash constant it leaves, which numpy carries by pointer."""
    value = value ^ hash_const
    hash_const = hash_const * mult & _MASK32
    value *= hash_const
    return value ^ value >> _XSHIFT, hash_const


def _mix(x, y):
    result = _MIX_MULT_L * x - _MIX_MULT_R * y
    return result ^ result >> _XSHIFT


def _seed_sequence_state(entropy: np.ndarray, size: int) -> np.ndarray:
    """``SeedSequence(words).generate_state(8, np.uint32)`` of each column, as (8, columns):
    rows 0..size-1 of the uint32 ``entropy`` are the words; when size < 4 it has four
    rows, the rest zero, which is how the pool is filled then."""
    mixer, hash_const = [None] * 4, _INIT_A
    for i in range(4):
        mixer[i], hash_const = _hashmix(entropy[i], hash_const)
    for i_src in range(4):  # so late words affect earlier ones
        for i_dst in range(4):
            if i_src != i_dst:
                value, hash_const = _hashmix(mixer[i_src], hash_const)
                mixer[i_dst] = _mix(mixer[i_dst], value)
    for i_src in range(4, size):  # words past the pool mix into each pool word
        for i_dst in range(4):
            value, hash_const = _hashmix(entropy[i_src], hash_const)
            mixer[i_dst] = _mix(mixer[i_dst], value)
    state, hash_const = mixer * 2, _INIT_B  # numpy cycles through the pool
    for i_dst in range(8):
        state[i_dst], hash_const = _hashmix(state[i_dst], hash_const, _MULT_B)
    return np.array(state)


def _stream_words(seed: int, first: int, n_paths: int) -> np.ndarray:
    """Row k - first is ``SeedSequence([seed, k]).generate_state(4, np.uint64)``.

    Paths first..first+n_paths-1, split where a path index carries into a
    new uint32 word: within a block only the index's lowest word varies.
    """
    seed_words = _words(seed)
    blocks = []
    k, end = first, first + n_paths
    while k < end:
        stop = min(end, (k | _MASK32) + 1)
        words = seed_words + _words(k)
        entropy = np.array(words + [0] * (4 - len(words)), dtype=np.uint32)[:, None]
        entropy = entropy.repeat(stop - k, axis=1)
        entropy[len(seed_words)] += np.arange(stop - k, dtype=np.uint32)
        # pairs of words as little-endian uint64, as generate_state joins them
        state = _seed_sequence_state(entropy, len(words))
        blocks.append(np.ascontiguousarray(state.T, dtype="<u4").view("<u8"))
        k = stop
    return np.concatenate(blocks)


def _pcg64_states(words: np.ndarray):
    """The ``state`` of ``PCG64`` seeded with each row of ``_stream_words``.

    Words 0-1 are its initstate and words 2-3 its initseq, high word first;
    seeding sets inc = (initseq << 1) | 1 and steps the LCG from 0, adds
    initstate, and steps again: state = ((inc + initstate) * M + inc) mod 2**128.
    """
    for state_hi, state_lo, seq_hi, seq_lo in words.tolist():
        inc = ((seq_hi << 64 | seq_lo) << 1 | 1) & _MASK128
        state = ((inc + (state_hi << 64 | state_lo)) * _PCG64_MULT + inc) & _MASK128
        yield {
            "bit_generator": "PCG64",
            "state": {"state": state, "inc": inc},
            "has_uint32": 0,
            "uinteger": 0,
        }


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
    path.  The arrays are checked once, at construction, by the rules of a
    ``PathSample``, and ``first`` as ``simulate_batch`` checks it.  Indexing
    and iteration give ``PathSample`` row views (a slice gives a list of
    them); nothing is copied, and a row is not checked again except for its
    start, x = 0, which a write into ``x`` can break.
    """

    x: np.ndarray
    increments: np.ndarray
    h_prime: np.ndarray
    first: int = 0

    def __post_init__(self):
        _check_paths(self.x, self.increments, self.h_prime, 2)
        object.__setattr__(self, "first", _whole_number(self.first, "first"))

    def __len__(self) -> int:
        return self.x.shape[0]

    def __getitem__(self, k):
        if isinstance(k, slice):
            return [_row_view(x, inc, self.h_prime)
                    for x, inc in zip(self.x[k], self.increments[k])]
        return _row_view(self.x[k], self.increments[k], self.h_prime)

    def __iter__(self):
        h_prime = self.h_prime
        for x, increments in zip(self.x, self.increments):
            yield _row_view(x, increments, h_prime)


def simulate_batch(
    model: LevyModel,
    grid: PathGrid,
    schedule: ShockSchedule,
    seed: int,
    n_paths: int,
    first: int = 0,
) -> PathBatch:
    """Paths first..first+n_paths-1 as one ``PathBatch``; its row k - first
    equals ``simulate_path(model, grid, schedule, seed, k)``.

    Row k - first is drawn from the stream of ``path_generator(seed, k)``:
    every path's ``SeedSequence([seed, k])`` words are hashed at once, and one
    ``Generator`` is set to each path's PCG64 state before its draws.
    """
    seed, first = _whole_number(seed, "seed"), _whole_number(first, "first")
    n_paths = _whole_number(n_paths, "n_paths", 1)
    h_prime = schedule.series(grid)
    h_prime.flags.writeable = False
    n = grid.n_steps
    increments = np.empty((n_paths, n))
    bit_generator = np.random.PCG64(0)  # every path sets its own state
    rng = np.random.Generator(bit_generator)
    sample, dt = model.sample_increments, grid.dt
    for row, state in zip(increments, _pcg64_states(_stream_words(seed, first, n_paths))):
        bit_generator.state = state
        row[:] = sample(rng, dt, n)
    x = np.empty((n_paths, n + 1))
    x[:, 0] = 0.0
    np.cumsum(increments, axis=1, out=x[:, 1:])
    return PathBatch(x=x, increments=increments, h_prime=h_prime, first=first)

