"""Command-line front end: JSON or YAML scenario configs in, deterministic CSVs out.

Subcommands mirror the scenario modes: ``levy-sim``, ``markov-fields``,
``shockwave``, ``dp-value``, ``convergence``, ``verify``.  A config holds
every setting of its run; ``--out`` overrides only ``out``.  Every config
carries ``schema_version: 1``.  A config whose text is JSON is read with
``json``; any other text, JSON's non-standard NaN and Infinity tokens
included, is read as YAML 1.2 by PyYAML, which is imported only then.
Validation checks each field's type and shape, then builds each library
object the run needs, once.  A ``model`` section names its model by
``family`` (``levy-sim``) or ``kind``; ``_FAMILIES`` and ``_KINDS`` give each
model's layer, type name and fields, with their defaults, and one reader,
``_model``, builds every model from them (the ``black-scholes`` kind, a
payoff set, has its own builder).  A malformed field, an ``out`` under a
file, or a rule a library object refuses (an ArgumentError, whose
``argument`` ``_refusals`` maps to its config field), is reported as a
ConfigError naming the offending dotted path, before any computation starts
and before the output directory is made, and exits with status 2.
Computation-stage errors exit 3 with a machine-readable JSON record on
stderr; ``verify`` exits 1 when any invariant fails.

CSV output uses a header row, '.' decimal separator, 17 significant digits
for reals (%.17g, -0.0 written as 0), and LF line endings, so reruns with
the same config and seed are byte-identical.  Every mode writes its files
into a staging directory whose files move into the output directory only
after the last one is written, so a failed run adds no file (and removes
the output directory if it made it and it is still empty).  The path
modes simulate in blocks of paths.  They write the text of the
path-independent columns once per run, into a row template that each path
file fills with its own columns.  ``_emit_path_files`` writes a block's path
files from up to one process per CPU; their bytes do not depend on that count.

A mode runs the code of only the layers it uses.  ``errors`` and ``utility``,
which every mode uses, are imported at the top; ``_lazy`` registers
``cumulants``, ``dp``, ``efficient``, ``markov`` and ``paths`` in
``sys.modules`` as lazy modules, whose code runs when a name is first read
from them.  So ``markov-fields`` runs ``markov``; ``dp-value`` and
``convergence`` run ``dp`` and ``markov``; ``levy-sim`` runs ``cumulants``,
``paths`` and ``efficient``; ``shockwave`` runs ``cumulants``, ``paths`` and
``markov``; ``verify`` runs every layer.

``run`` is the process entry of ``python -m impactlab.cli`` and the
``impactlab`` script: it calls ``main`` and freezes the garbage collector
(``gc.freeze()``) before the process exits, so the interpreter's shutdown
collection walks nothing.  ``main`` is the in-process call and never freezes.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import importlib.util
import itertools
import json
import math
import os
import re
import shutil
import sys
import tempfile
import warnings
from pathlib import Path
from typing import Callable, List, NamedTuple, NoReturn, Optional, Sequence

import numpy as np

from . import __version__
from .errors import ArgumentError, ConfigError, NoRootError
from .utility import AgentPair


def _lazy(layer: str):
    """The package's module ``layer``, in ``sys.modules``; its code runs when a name is
    first read from it, so a mode runs only the layers it uses."""
    name = f"{__package__}.{layer}"
    if name not in sys.modules:
        spec = importlib.util.find_spec(name)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[name] = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(sys.modules[name])
    return sys.modules[name]


cumulants, dp, efficient, markov, paths = map(_lazy, ("cumulants", "dp", "efficient", "markov",
                                                      "paths"))

SCHEMA_VERSION = 1

_REQUIRED = object()


# ---------------------------------------------------------------------------
# config access


class Section:
    """Mapping wrapper that reports problems with dotted field paths."""

    def __init__(self, data, prefix: str = ""):
        name = prefix or "<root>"
        if not isinstance(data, dict):
            raise ConfigError(name, "must be a mapping")
        self.data = data
        self.prefix = prefix

    def path(self, name: str) -> str:
        return f"{self.prefix}.{name}" if self.prefix else name

    def require_keys(self, allowed):
        for key in self.data:
            if key not in allowed:
                raise ConfigError(self.path(str(key)), "unknown field")

    def section(self, name: str, required: bool = True) -> "Section":
        if name not in self.data:
            if required:
                raise ConfigError(self.path(name), "required section is missing")
            return Section({}, self.path(name))
        return Section(self.data[name], self.path(name))

    def _fetch(self, name: str, default):
        if name in self.data:
            return self.data[name]
        if default is _REQUIRED:
            raise ConfigError(self.path(name), "required field is missing")
        return default

    def number(self, name: str, default=_REQUIRED, **rules) -> float:
        return _number(self._fetch(name, default), self.path(name), **rules)

    def integer(self, name: str, default=_REQUIRED, minimum: Optional[int] = None) -> int:
        return _integer(self._fetch(name, default), self.path(name), minimum)

    def string(self, name: str, default=_REQUIRED, choices=None) -> str:
        raw = self._fetch(name, default)
        if not isinstance(raw, str):
            raise ConfigError(self.path(name), "must be a string")
        if choices is not None and raw not in choices:
            raise ConfigError(
                self.path(name), f"must be one of {', '.join(sorted(choices))}"
            )
        return raw

    def boolean(self, name: str, default=_REQUIRED) -> bool:
        raw = self._fetch(name, default)
        if not isinstance(raw, bool):
            raise ConfigError(self.path(name), "must be a boolean")
        return bool(raw)

    def list_of(self, name: str, read: Callable, plural: str, default=_REQUIRED) -> list:
        """The list at ``name``, each entry read by ``read`` (``_number`` or ``_integer``)
        at its own path."""
        raw = self._fetch(name, default)
        if not isinstance(raw, (list, tuple)):
            raise ConfigError(self.path(name), f"must be a list of {plural}")
        return [read(entry, f"{self.path(name)}[{i}]") for i, entry in enumerate(raw)]


def _number(raw, path: str, positive: bool = False, allow_inf: bool = False) -> float:
    """``raw`` as a float, refused at ``path`` unless it is a finite number (or an
    infinity, or the string inf or infinity, with ``allow_inf``), > 0 if ``positive``."""
    if isinstance(raw, str) and allow_inf and raw.lower() in ("inf", "infinity"):
        raw = math.inf
    if isinstance(raw, bool) or not isinstance(raw, (int, float)):
        raise ConfigError(path, "must be a number")
    try:
        value = float(raw)
    except OverflowError:  # an int too large for a float: its sign's infinity, as 1e400 is
        value = math.inf if raw > 0 else -math.inf
    if math.isnan(value) and not path.endswith("]"):  # a NaN list entry is "not finite"
        raise ConfigError(path, "must not be NaN")
    if not math.isfinite(value) and not (allow_inf and math.isinf(value)):
        raise ConfigError(path, "must be finite")
    if positive and not value > 0.0:
        raise ConfigError(path, "must be > 0")
    return value


def _integer(raw, path: str, minimum: Optional[int] = None) -> int:
    """``raw``, refused at ``path`` unless it is an integer, >= ``minimum`` if given."""
    if isinstance(raw, bool) or not isinstance(raw, int):
        raise ConfigError(path, "must be an integer")
    if minimum is not None and raw < minimum:
        raise ConfigError(path, f"must be >= {minimum}")
    return int(raw)


@functools.lru_cache(maxsize=None)
def _config_loader():
    """PyYAML's safe loader, reading YAML 1.2 floats that YAML 1.1 leaves as
    strings: an exponent without a '.' or without a sign (1e-05, 2.5e3).
    Built, and yaml imported, on the first config that is not JSON."""
    import yaml

    class _ConfigLoader(yaml.SafeLoader):
        pass

    _ConfigLoader.add_implicit_resolver(
        "tag:yaml.org,2002:float",
        re.compile(r"^[-+]?(?:\.[0-9]+|[0-9]+(?:\.[0-9]*)?)[eE][-+]?[0-9]+$"),
        list("-+.0123456789"),
    )
    return _ConfigLoader


def _not_json(token: str):
    """json's parse_constant: NaN, Infinity and -Infinity are not JSON, so YAML reads them."""
    raise ValueError(f"{token} is not JSON")


_TOO_DEEP = "is nested too deeply to read"


def _parse_config(text: str):
    """The data of a config's text: JSON text read by ``json``, any other by YAML.
    Text nested deeper than either reader's recursion can go is refused."""
    try:
        return json.loads(text, parse_constant=_not_json)
    except ValueError:
        pass
    except RecursionError as exc:
        raise ConfigError("config", _TOO_DEEP) from exc
    import yaml  # here, not at the top: a JSON config never pays its import

    try:
        return yaml.load(text, Loader=_config_loader())
    except yaml.YAMLError as exc:
        raise ConfigError("config", f"invalid YAML: {exc}") from exc
    except RecursionError as exc:
        raise ConfigError("config", _TOO_DEEP) from exc


def _load_config(path: Optional[str], mode: str, fields: Sequence[str]) -> Section:
    """The config at ``path`` for ``mode``: its version and mode checked, then its
    top-level keys, each schema_version, mode or one of the mode's ``fields``."""
    if path is None:
        raise ConfigError("config", f"mode {mode!r} requires --config")
    try:
        text = Path(path).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError) as exc:
        raise ConfigError("config", f"cannot read {path}: {exc}") from exc
    data = _parse_config(text)
    root = Section(data if data is not None else {}, "")
    version = root.integer("schema_version")
    if version != SCHEMA_VERSION:
        raise ConfigError("schema_version", f"must be {SCHEMA_VERSION}, got {version}")
    declared = root.string("mode", default=mode)
    if declared != mode:
        raise ConfigError("mode", f"config declares {declared!r} but subcommand is {mode!r}")
    root.require_keys({"schema_version", "mode", *fields})
    return root


# ---------------------------------------------------------------------------
# shared builders


# a run that passed validation and then fails exits 3
_RUN_ERRORS = (ArgumentError, NoRootError, OverflowError, OSError)

# the config field of a library argument, where the two are spelled differently
_RENAMED = {"a": "loading", "admissible[0]": "admissible.lo", "admissible[1]": "admissible.hi"}


@contextlib.contextmanager
def _refusals(section: str = ""):
    """Report a library refusal inside the block as a ConfigError naming the config
    field of its argument.

    An argument of an object read from ``section`` is a field of that section.
    An argument that is a field of another argument (``agents.gamma``,
    ``schedule.shocks[1]``) names a top-level section already.  A refusal
    naming no argument names ``section``.  Section's own ConfigErrors pass
    through with their fields.
    """
    try:
        yield
    except ArgumentError as exc:
        argument = exc.argument or ""
        field = argument if "." in argument else ".".join(filter(None, (section, argument)))
        raise ConfigError(_RENAMED.get(field, field), str(exc)) from exc


def _agents(root: Section) -> AgentPair:
    sec = root.section("agents")
    sec.require_keys({"gamma", "c"})
    gamma = sec.number("gamma")
    c = sec.number("c", positive=True, allow_inf=True)
    with _refusals(sec.prefix):
        return AgentPair(gamma=gamma, c=c)


# each model a model section names by its family (levy-sim) or kind: its layer and
# type name, and its fields, in read order, each with its default (_REQUIRED: none)
_FAMILIES = {"brownian": ((cumulants, "Brownian"), dict(b=_REQUIRED, sigma=_REQUIRED)),
             "gamma": ((cumulants, "GammaProcess"), dict(alpha=_REQUIRED, beta=_REQUIRED)),
             "stable": ((cumulants, "OneSidedStable"), dict(r=_REQUIRED, alpha=_REQUIRED))}
_KINDS = {"quadratic": ((markov, "QuadraticModel"), dict(g_load=0.0, mu=0.0, sigma=_REQUIRED,
                                                         a_lin=0.0, b_quad=0.0, h_const=0.0)),
          "shockwave": ((markov, "ShockWaveModel"), dict(mu=0.0, sigma=_REQUIRED, w_c=_REQUIRED,
                                                         offset=0.0))}


def _model(sec: Section, selector: str, name: str, table, **given):
    """Model ``name`` of ``table``, built from the arguments ``given`` and its fields
    in the model section ``sec``, whose other key can only be ``selector``, the
    field that named it."""
    (layer, type_name), fields = table[name]
    sec.require_keys({selector, *fields})
    with _refusals(sec.prefix):
        return getattr(layer, type_name)(
            **{field: sec.number(field, default) for field, default in fields.items()}, **given)


def _levy_model(root: Section):
    sec = root.section("model")
    return _model(sec, "family", sec.string("family", choices=tuple(_FAMILIES)), _FAMILIES)


def _schedule(root: Section) -> paths.ShockSchedule:
    sec = root.section("schedule", required=False)
    sec.require_keys({"initial_value", "h", "shocks"})
    initial = sec.number("initial_value", default=0.0)
    h = sec.number("h", default=0.0)
    shocks = sec.data.get("shocks", [])
    if not isinstance(shocks, (list, tuple)):
        raise ConfigError(sec.path("shocks"), "must be a list of [time, jump] pairs")
    with _refusals(sec.prefix):
        return paths.ShockSchedule(initial_value=initial, shocks=tuple(shocks), h=h)


def _black_scholes_payoffs(sec: Section, agents: AgentPair) -> markov.MarkovPayoffs:
    sec.require_keys({"kind", "zeta", "sigma", "alpha", "mu"})
    zeta = sec.number("zeta", positive=True)
    sigma = sec.number("sigma", positive=True)
    alpha = sec.number("alpha")
    mu = sec.number("mu", default=0.0)
    gamma, c = agents.gamma, agents.c
    # the total book G + H is alpha*sigma*W_1; the split puts gamma/(c+gamma)
    # of it plus a -mu/(c+gamma) security leg on the demander side, which
    # makes the constant y* = mu/(c+gamma) the proportional-endowment root
    frac = 0.0 if math.isinf(c) else gamma / (c + gamma)
    lever = 0.0 if math.isinf(c) else mu / (c + gamma)

    def s_fn(w):
        return zeta * np.exp(sigma * np.asarray(w, dtype=float))

    def h_fn(w):
        w = np.asarray(w, dtype=float)
        return frac * alpha * sigma * w - lever * zeta * np.exp(sigma * w)

    def g_fn(w):
        w = np.asarray(w, dtype=float)
        return alpha * sigma * w - h_fn(w)

    return markov.MarkovPayoffs(s_fn=s_fn, g_fn=g_fn, h_fn=h_fn, agents=agents)


def _dp_payoffs(root: Section, agents: AgentPair) -> markov.MarkovPayoffs:
    sec = root.section("model")
    kind = sec.string("kind", choices=("black-scholes", *_KINDS))
    if kind == "black-scholes":
        return _black_scholes_payoffs(sec, agents)
    return _model(sec, "kind", kind, _KINDS, agents=agents).payoffs()


# value_recursion holds the (n+1, grid) menus plus, at its widest level, the
# (2, 2, n, grid) stack of both coin flips' tilt, its (2, n, grid) shift and
# normaliser: about 9 float64s per (n+2) * grid cell as measured with
# tracemalloc (8.47 at n = 20, 8.99 at n = 64); 10 leaves some room.  The budget also
# bounds the markov-fields w grid, 8 bytes a point.
_DP_BYTES_PER_CELL = 10 * 8
_DP_MEMORY_BUDGET = 2 * 1024**3


def _over_budget(field: str, what: str, need: float) -> None:
    if need > _DP_MEMORY_BUDGET:
        raise ConfigError(field, f"{what} would hold about {need / 2**30:.3g} GiB, over the "
                                 f"{_DP_MEMORY_BUDGET / 2**30:.3g} GiB budget")


# One path of levy-sim or shockwave holds its levels, increments, H' series and
# record columns, plus the row template's text of the path-independent columns:
# about 250 bytes a grid point for levy-sim and 140-180 for shockwave, as
# measured with tracemalloc on one- and two-path runs; 300 leaves room for the
# longest values' text.
_PATH_BYTES_PER_POINT = 300


def _path_grid(root: Section, default: int) -> paths.PathGrid:
    """The path modes' grid, refused over the memory budget."""
    n_steps = root.integer("grid", default, minimum=1)
    _over_budget("grid", f"a path grid of {n_steps} steps", _PATH_BYTES_PER_POINT * (n_steps + 1))
    return paths.PathGrid(n_steps)


def _dp_scenario(root: Section, agents: AgentPair, lattice_n: int, refine: bool = True,
                 lattice_field: str = "lattice_n") -> dp.DpScenario:
    """``lattice_n`` is the largest lattice the run will build, set by ``lattice_field``.
    A recursion over the memory budget even on the coarsest grid (two points)
    names that field, since no resolution helps; otherwise ``y_resolution``."""
    adm = root.section("admissible")
    adm.require_keys({"lo", "hi"})
    lo, hi = adm.number("lo"), adm.number("hi")
    resolution = root.number("y_resolution", default=1e-3, positive=True)
    points = (hi - lo) / resolution + 1.0  # float: a tiny resolution must not overflow
    lattice = dp.Lattice(lattice_n)
    for field, grid in ((lattice_field, 2.0), ("y_resolution", points)):
        _over_budget(field, f"the recursion at n={lattice_n} on {grid:.4g} grid points",
                     _DP_BYTES_PER_CELL * lattice.working_cells(grid, refine))
    payoffs = _dp_payoffs(root, agents)
    with _refusals():
        return dp.DpScenario(lattice, payoffs, (lo, hi), resolution)


def _quad_order(root: Section) -> int:
    order = root.integer("order", default=markov.DEFAULT_ORDER)
    with _refusals():
        markov._rules(order)
    return order


# ---------------------------------------------------------------------------
# CSV emission


_BLOCK_ROWS = 4096  # rows per formatted write: the text held stays bounded for any grid


def _prepared(header: Sequence[str], columns):
    """Columns ready for %-formatting, and the text format of each block; checks
    their shape."""
    cols, specs = [], []
    for col in map(np.asarray, columns):
        if col.dtype == np.bool_:
            cols.append(np.where(col, "true", "false"))
            specs.append("%s")
        elif np.issubdtype(col.dtype, np.integer):
            cols.append(col)
            specs.append("%d")
        else:
            cols.append(np.asarray(col, dtype=float) + 0.0)
            specs.append("%.17g")
    if len(cols) != len(header) or len({len(c) for c in cols}) > 1:
        raise ValueError("emit_csv needs one equal-length column per header field")
    rows = len(cols[0]) if cols else 0
    return _block_texts(",".join(specs) + "\n", rows), _row_values(cols, rows)


def _block_texts(line: str, rows: int):
    """The format of each _BLOCK_ROWS block of a ``rows``-row table of lines ``line``."""
    return (line * min(_BLOCK_ROWS, rows - start) for start in range(0, rows, _BLOCK_ROWS))


def _row_values(cols, rows: int):
    """The values of each _BLOCK_ROWS block of ``rows``-long columns, row by row."""
    for start in range(0, rows, _BLOCK_ROWS):
        values = [None] * (len(cols) * min(_BLOCK_ROWS, rows - start))
        for j, col in enumerate(cols):
            values[j::len(cols)] = col[start:start + _BLOCK_ROWS].tolist()
        yield tuple(values)


class _RowTemplate(NamedTuple):
    """The rows of many files that share some float columns, those columns written."""

    fields: int  # columns in a row
    slots: int  # per-file columns in a row, each a %.17g slot
    rows: int
    blocks: List[str]  # the text of each _BLOCK_ROWS block


def _row_template(columns) -> _RowTemplate:
    """Write once the float columns that every file of a run shares.

    ``columns`` has one entry per header field: a shared float column, or None
    for a per-file float column, which becomes a %.17g slot.  Each shared value
    is the text emit_csv writes for it, so a file written through the template
    has the bytes of one written without it.
    """
    shared = [np.asarray(c, dtype=float) + 0.0 for c in columns if c is not None]
    if not shared or len({len(c) for c in shared}) > 1:
        raise ValueError("a row template needs equal-length shared columns, at least one")
    rows = len(shared[0])
    line = ",".join("%.17g" if c is not None else "%%.17g" for c in columns) + "\n"
    blocks = [text % values for text, values in zip(_block_texts(line, rows),
                                                    _row_values(shared, rows))]
    return _RowTemplate(len(columns), len(columns) - len(shared), rows, blocks)


def _filled(header: Sequence[str], columns, template: _RowTemplate):
    """The per-file columns of ``template`` ready for its slots; checks their shape."""
    cols = [np.asarray(c, dtype=float) + 0.0 for c in columns]
    if (len(header) != template.fields or len(cols) != template.slots
            or any(len(c) != template.rows for c in cols)):
        raise ValueError("emit_csv needs one column of the template's length per slot")
    return template.blocks, _row_values(cols, template.rows)


def emit_csv(path: Path, header: Sequence[str], columns=(), *, blocks=None,
             template: Optional[_RowTemplate] = None) -> None:
    """Header + equal-length columns, LF endings, byte-stable.

    Bools are written true/false and integers with %d.  Everything else is
    float64 written with %.17g after adding +0.0: -0.0 as 0; nan, inf, -inf.
    ``blocks``, an iterable of such column sets, writes their rows one block
    after another under the one header, holding one block at a time.
    ``template``, from ``_row_template``, holds the text of the columns that
    many files share; ``columns`` are then the float columns of its slots, in
    order.
    """
    if template is not None:
        tables = iter([_filled(header, columns, template)])
    else:
        tables = (_prepared(header, b) for b in ([columns] if blocks is None else blocks))
    table = next(tables, None)  # a malformed first table raises before the file is opened
    with open(path, "w", encoding="utf-8", newline="") as fh:
        fh.write(",".join(header) + "\n")
        while table is not None:
            for text, values in zip(*table):
                fh.write(text % values)
            table = next(tables, None)


@contextlib.contextmanager
def _staged(out: Path, quiet: bool):
    """Make ``out`` and a staging directory inside it.  The staged files move into
    ``out`` when the block completes, and a line notes each; the staging directory
    is removed either way, so a failed run adds no file.  A failed run also
    removes ``out`` if it made it and ``out`` is still empty."""
    made = not out.exists()
    out.mkdir(parents=True, exist_ok=True)
    stage = Path(tempfile.mkdtemp(prefix=".staging-", dir=out))
    completed = False
    try:
        yield stage
        names = sorted(f.name for f in stage.iterdir())
        for name in names:
            os.replace(stage / name, out / name)
        completed = True
    finally:
        shutil.rmtree(stage, ignore_errors=True)
        if made and not completed:
            with contextlib.suppress(OSError):  # not empty: some file did land in it
                out.rmdir()
    for name in names:
        _note(quiet, f"wrote {out / name}")


def _emit_path_files(files, header: Sequence[str], template: _RowTemplate) -> None:
    """emit_csv each (path, per-file columns) of ``files`` in contiguous shares: this
    process writes the first, a forked writer each other one.  Every writer is reaped
    before this returns or raises; a failed one raises OSError."""
    values = sum(np.size(c) for _, columns in files for c in columns)
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 1
    # 2**14 values, about 15 ms of %.17g, are worth a writer process
    writers = max(1, min(cpus, len(files), values >> 14))
    cuts = [len(files) * i // writers for i in range(writers + 1)]
    shares = [files[a:b] for a, b in zip(cuts, cuts[1:])]

    def write(share):
        for path, columns in share:
            emit_csv(path, header, columns, template=template)

    children, failure = [], ""  # (pid, read end of its error pipe) of each writer
    try:
        for share in shares[1:]:
            read_end, write_end = os.pipe()
            try:
                with warnings.catch_warnings():  # Python 3.12+ warns of fork() beside
                    warnings.simplefilter("ignore", DeprecationWarning)  # numpy's BLAS
                    pid = os.fork()  # threads, which no writer calls
            except OSError:
                os.close(read_end)
                os.close(write_end)
                raise
            if pid == 0:  # a writer ends here, never returning into the caller's frames,
                try:  # so their cleanup, atexit handlers and buffered output run once
                    write(share)
                    os._exit(0)
                except BaseException as exc:
                    os.write(write_end, f"{type(exc).__name__}: {exc}".encode()[:4096])
                finally:
                    os._exit(1)
            os.close(write_end)
            children.append((pid, read_end))
        write(shares[0])
    finally:
        for pid, read_end in children:
            if os.waitpid(pid, 0)[1] and not failure:
                failure = os.read(read_end, 4096).decode(errors="replace") or "no message"
            os.close(read_end)
    if failure:
        raise OSError(f"a path-file writer failed: {failure}")


_PATH_BLOCK_VALUES = 1 << 16  # path levels per simulated block: memory stays bounded


def _path_blocks(model, grid: paths.PathGrid, schedule: paths.ShockSchedule, seed: int,
                 n_paths: int):
    """Consecutive ``PathBatch`` blocks of paths 0..n_paths-1."""
    rows = max(1, _PATH_BLOCK_VALUES // (grid.n_steps + 1))
    for first in range(0, n_paths, rows):
        yield paths.simulate_batch(model, grid, schedule, seed, min(rows, n_paths - first),
                                   first=first)


def _note(quiet: bool, message: str, stream=None) -> None:
    if not quiet:
        print(message, file=stream)


def _note_bound_hits(quiet: bool, n: int, hits: int) -> None:
    """A policy on an end of the admissible interval may be the constraint, not an optimum."""
    if hits:
        _note(quiet, f"n={n}: {hits} lattice node(s) have their policy on an admissible "
              "bound (admissible.lo or admissible.hi)", sys.stderr)


def _out_path(root: Section, args) -> Path:
    """The output directory, refused if the file system cannot encode it or a file is
    in its way: the nearest of it and its ancestors that exists is not a directory."""
    field, out = ("--out", args.out) if args.out is not None else ("out", root.string("out", "."))
    try:
        if "\0" in out:
            raise ValueError("embedded null character")
        os.fsencode(out)  # a lone surrogate has no bytes
    except ValueError as exc:
        raise ConfigError(field, f"must be a path the file system can encode: {exc}") from exc
    path = Path(out)
    existing = next((part for part in (path, *path.parents) if part.exists()), None)
    if existing is not None and not existing.is_dir():
        raise ConfigError(field, f"must name a directory, but {existing} is not one")
    return path


def _path_width(n_paths: int) -> int:
    return max(3, len(str(n_paths - 1)))


# ---------------------------------------------------------------------------
# mode runners


def _run_levy_sim(args) -> int:
    root = _load_config(args.config, "levy-sim", ("seed", "paths", "grid", "out", "agents",
                                                   "loading", "model", "schedule"))
    agents = _agents(root)
    model = _levy_model(root)
    schedule = _schedule(root)
    loading = root.number("loading")
    seed = root.integer("seed", minimum=0)
    n_paths = root.integer("paths", 1, minimum=1)
    grid = _path_grid(root, 256)
    out = _out_path(root, args)

    with _refusals():
        scenario = efficient.LevyScenario(model, agents, loading, schedule, grid)

    width = _path_width(n_paths)
    alloc = efficient.allocation_value(scenario)
    header = ("t", "x", "h_prime", "y_star", "s_star", "risk_premium", "convexity")
    template, summary = None, []
    with _staged(out, args.quiet) as stage:
        for batch in _path_blocks(model, grid, schedule, seed, n_paths):
            record = efficient.efficient_batch_record(scenario, batch)
            if template is None:
                template = _row_template((record.times, None, record.h_prime, record.y_star,
                                          None, record.risk_premium, record.convexity))
            _emit_path_files([(stage / f"levy_path_{k:0{width}d}.csv", (x, s_star))
                              for k, x, s_star in zip(itertools.count(batch.first), record.x,
                                                      record.s_star)], header, template)
            summary.append((record.endowment_payoff, record.trading_pnl, record.terminal_wealth))
        emit_csv(
            stage / "levy_summary.csv",
            ("path", "endowment_payoff", "trading_pnl", "terminal_wealth", "allocation_value"),
            (np.arange(n_paths), *map(np.concatenate, zip(*summary)), np.full(n_paths, alloc)),
        )
    return 0


def _run_markov_fields(args) -> int:
    root = _load_config(args.config, "markov-fields", ("out", "agents", "model", "times", "w",
                                                        "order", "inventory"))
    agents = _agents(root)
    order = _quad_order(root)
    inventory = root.number("inventory", default=0.0)
    times = root.list_of("times", _number, "numbers")
    if not times:
        raise ConfigError("times", "must not be empty")
    for i, t in enumerate(times):
        if not 0.0 <= t < 1.0:
            raise ConfigError(f"times[{i}]", "must lie in [0, 1)")
    wsec = root.section("w")
    wsec.require_keys({"min", "max", "count"})
    w_min, w_max = wsec.number("min"), wsec.number("max")
    if w_min > w_max:
        raise ConfigError("w.max", "must be >= w.min")
    count = wsec.integer("count", minimum=1)
    _over_budget("w.count", f"a w grid of {count} points", 8.0 * count)

    sec = root.section("model")
    kind = sec.string("kind", choices=tuple(_KINDS))
    model = _model(sec, "kind", kind, _KINDS, agents=agents)
    if kind == "quadratic":
        def closed(t, w):
            forms = markov.quadratic_closed_forms(model, t, w)
            return forms.y_star, forms.s_star
    else:
        def closed(t, w):
            return markov.shockwave_strategy(model, t, w), markov.shockwave_price(model, t, w)

    out = _out_path(root, args)
    payoffs = model.payoffs()
    w = np.linspace(w_min, w_max, count)

    def table():
        for t in times:
            for start in range(0, count, _BLOCK_ROWS):
                ws = w[start:start + _BLOCK_ROWS]
                yield (np.full(len(ws), t), ws,
                       *markov._state_fields(payoffs, t, ws, inventory, order), *closed(t, ws))

    with _staged(out, args.quiet) as stage:
        emit_csv(stage / "markov_fields.csv", ("t", "w", "v", "u", "p", "q", "y_star", "s_star"),
                 blocks=table())
    return 0


def _run_shockwave(args) -> int:
    root = _load_config(args.config, "shockwave",
                        ("seed", "paths", "grid", "out", "agents", "model"))
    agents = _agents(root)
    sec = root.section("model")
    if "kind" in sec.data and sec.string("kind") != "shockwave":
        raise ConfigError("model.kind", "must be 'shockwave' in shockwave mode")
    model = _model(sec, "kind", "shockwave", _KINDS, agents=agents)
    seed = root.integer("seed", minimum=0)
    n_paths = root.integer("paths", 1, minimum=1)
    grid = _path_grid(root, 1000)
    out = _out_path(root, args)

    driver = cumulants.Brownian(b=0.0, sigma=1.0)
    width = _path_width(n_paths)
    header = ("t", "W", "S_star", "Y_star", "wave_position")
    template = None
    with _staged(out, args.quiet) as stage:
        for batch in _path_blocks(driver, grid, paths.ShockSchedule(), seed, n_paths):
            record = markov.shockwave_batch(model, batch, grid)
            if template is None:
                template = _row_template((record.times, None, None, None, record.wave_position))
            rows = zip(itertools.count(batch.first), record.w, record.s_star, record.y_star)
            _emit_path_files([(stage / f"shockwave_path_{k:0{width}d}.csv", (w, s_star, y_star))
                              for k, w, s_star, y_star in rows], header, template)
    return 0


def _run_dp_value(args) -> int:
    root = _load_config(args.config, "dp-value", ("out", "agents", "model", "lattice_n",
                                                   "admissible", "y_resolution", "refine",
                                                   "buy_and_hold", "emm_root"))
    agents = _agents(root)
    lattice_n = root.integer("lattice_n", minimum=1)
    refine = root.boolean("refine", default=True)
    scenario = _dp_scenario(root, agents, lattice_n, refine)
    buy_and_hold = root.boolean("buy_and_hold", default=False)
    emm_root = root.boolean("emm_root", default=False)
    if buy_and_hold:
        with _refusals("buy_and_hold"):
            dp.buy_and_hold_position(scenario)
    out = _out_path(root, args)

    # every result is computed before the first file is written; each file is one row
    result = dp.value_recursion(scenario, refine=refine)
    _note_bound_hits(args.quiet, lattice_n, result.bound_hits)
    outputs = [(
        "dp_value.csv",
        ("n", "value", "root_policy", "pi0_g"),
        (lattice_n, result.value, float(result.policies[0][0]), result.pi0_g),
    )]
    if buy_and_hold:
        report = dp.no_rebalance_check(scenario, result=result)
        outputs.append((
            "dp_buy_and_hold.csv",
            ("y_star", "is_buy_and_hold", "value_gap", "max_policy_deviation"),
            (report.y_star, report.is_buy_and_hold, report.value_gap,
             report.max_policy_deviation),
        ))
    if emm_root:
        outputs.append(
            ("dp_emm.csv", ("n", "s_star_root"), (lattice_n, dp.emm_eipu(scenario, 0, 0)))
        )
    with _staged(out, args.quiet) as stage:
        for name, header, row in outputs:
            emit_csv(stage / name, header, [[v] for v in row])
    return 0


def _run_convergence(args) -> int:
    root = _load_config(args.config, "convergence", ("out", "agents", "model", "n_list",
                                                      "admissible", "y_resolution", "refine",
                                                      "order", "limit"))
    agents = _agents(root)
    n_list = root.list_of("n_list", _integer, "integers")
    if not n_list:
        raise ConfigError("n_list", "must not be empty")
    for i, n in enumerate(n_list):
        if n < 1:
            raise ConfigError(f"n_list[{i}]", "must be >= 1")
        if i > 0 and n <= n_list[i - 1]:
            raise ConfigError(f"n_list[{i}]", "must be strictly increasing")
    order = _quad_order(root)
    refine = root.boolean("refine", default=True)
    limit = None
    if root.data.get("limit") is not None:
        limit = root.number("limit")
    scenario = _dp_scenario(root, agents, n_list[-1], refine, f"n_list[{len(n_list) - 1}]")
    out = _out_path(root, args)

    table = dp.convergence_study(scenario, n_list, limit=limit, refine=refine, order=order)
    for row in table:
        _note_bound_hits(args.quiet, row.n, row.bound_hits)
    with _staged(out, args.quiet) as stage:
        emit_csv(stage / "convergence.csv", ("n", "value", "error"),
                 zip(*[(r.n, r.value, r.error) for r in table]))
    return 0


def _run_verify(args) -> int:
    from .verification import run_all  # here, not at the top: no other mode compiles it

    passed, failed = run_all(quiet=args.quiet)
    return 0 if failed == 0 else 1


_FLAGS = {
    "--config": dict(help="JSON or YAML scenario config (schema_version: 1): the whole run"),
    "--out": dict(help="override the config's output directory, out"),
    "--quiet": dict(action="store_true", help="suppress progress lines"),
}

# each mode: its runner, the flags it reads (argparse refuses any other) and its help
_MODES = {
    "levy-sim": (_run_levy_sim, tuple(_FLAGS),
                 "simulate factor paths and the closed-form efficient market along them"),
    "markov-fields": (_run_markov_fields, tuple(_FLAGS),
                      "tabulate the quadrature value/price fields on a (t, w) grid"),
    "shockwave": (_run_shockwave, tuple(_FLAGS),
                  "emit traveling-wave market paths (t, W, S_star, Y_star, wave_position)"),
    "dp-value": (_run_dp_value, tuple(_FLAGS), "run the lattice value recursion for one scenario"),
    "convergence": (_run_convergence, tuple(_FLAGS),
                    "tabulate the lattice value's error against its continuum limit over n"),
    "verify": (_run_verify, ("--quiet",), "run the built-in invariant suite"),
}


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="impactlab",
        description="Deterministic scenario runner for the impactlab library.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    sub = parser.add_subparsers(dest="mode", required=True)
    for mode, (_, flags, help_text) in _MODES.items():
        p = sub.add_parser(mode, help=help_text)
        for flag in flags:
            p.add_argument(flag, **_FLAGS[flag])
    return parser


def _error_record(exc: Exception) -> dict:
    record = {"error": type(exc).__name__, "message": str(exc)}
    if isinstance(exc, ConfigError):
        record["field"] = exc.field
    return record


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _MODES[args.mode][0](args)
    except (ConfigError, *_RUN_ERRORS) as exc:
        json.dump(_error_record(exc), sys.stderr, sort_keys=True)
        sys.stderr.write("\n")
        return 2 if isinstance(exc, ConfigError) else 3


def run(argv=None) -> NoReturn:
    """The process entry: ``python -m impactlab.cli`` and the ``impactlab`` script.

    Runs ``main(argv)`` and exits with its status.  On the way out, also when
    argparse exits, ``gc.freeze()`` moves every object the process holds out of
    the collector's reach, so the interpreter's shutdown collection has nothing
    to walk: what dies with the process is left to the OS.  ``atexit`` handlers
    and the flushing of stdout and stderr still run.  ``main`` never freezes,
    since in a caller's process nothing frozen would ever be collected.
    """
    try:
        status = main(argv)
    finally:
        gc.freeze()
    sys.exit(status)


if __name__ == "__main__":
    run()
