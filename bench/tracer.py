"""Spans around impactlab's public functions, recorded from outside the package.

``Tracer.active()`` wraps every public function of the layer modules and the
cumulant families' ``kappa*`` / ``sample_increments`` methods, rebinding each
wrapper in every ``impactlab`` namespace that holds the original (so
``impactlab.cli.value_recursion`` is traced as well as
``impactlab.dp.value_recursion``), and restores the originals on exit.
Spans stay in memory as (name, start, end, parent, operation) rows;
``layer_metrics`` turns them into self times, counts and ratios.
"""

from __future__ import annotations

import contextlib
import functools
import inspect
import os
import sys
from time import perf_counter

LAYERS = ("cumulants", "utility", "paths", "efficient", "markov", "dp", "cli")
CUMULANT_METHODS = ("kappa", "kappa_prime", "kappa_double_prime", "sample_increments")
CLI_MODES = ("convergence", "dp-value", "markov-fields", "levy-sim", "shockwave")


def _note_csv_bytes(args, kwargs):
    return os.path.getsize(kwargs.get("path", args[0]))


def _note_steps(args, kwargs):
    return kwargs.get("grid", args[1]).n_steps


# extra figure recorded on a span after its call returns
NOTES = {"cli.emit_csv": _note_csv_bytes, "paths.simulate_path": _note_steps}


class Tracer:
    def __init__(self):
        self.spans = []  # [name, start, end, parent index, operation id, note]
        self._stack = []
        self.op_id = 0

    def _wrap(self, name, fn):
        spans, stack, note = self.spans, self._stack, NOTES.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            index = len(spans)
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, self.op_id, None]
            spans.append(span)
            stack.append(index)
            span[1] = perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
                if note is not None:
                    span[5] = note(args, kwargs)

        return traced

    @contextlib.contextmanager
    def operation(self, name):
        """A root span opened by the benchmark around one operation."""
        self.op_id += 1
        index = len(self.spans)
        span = [name, perf_counter(), 0.0, -1, self.op_id, None]
        self.spans.append(span)
        self._stack.append(index)
        try:
            yield
        finally:
            span[2] = perf_counter()
            self._stack.pop()

    @contextlib.contextmanager
    def active(self):
        """Patch every traced name for the duration of the block."""
        import impactlab.cli  # noqa: F401  (loads the package and every layer module)

        undo = []
        originals = {}
        for layer in LAYERS:
            module = sys.modules[f"impactlab.{layer}"]
            for attr, value in vars(module).items():
                if (
                    not attr.startswith("_")
                    and inspect.isfunction(value)
                    and value.__module__ == module.__name__
                ):
                    originals[id(value)] = (value, self._wrap(f"{layer}.{attr}", value))
        namespaces = [m for n, m in sys.modules.items() if n == "impactlab" or n.startswith("impactlab.")]
        for module in namespaces:
            for attr, value in list(vars(module).items()):
                if id(value) in originals and originals[id(value)][0] is value:
                    undo.append((module, attr, value))
                    setattr(module, attr, originals[id(value)][1])
        from impactlab import cumulants

        for cls in (cumulants.Brownian, cumulants.GammaProcess, cumulants.OneSidedStable):
            for attr in CUMULANT_METHODS:
                value = cls.__dict__[attr]
                undo.append((cls, attr, value))
                setattr(cls, attr, self._wrap(f"cumulants.{cls.__name__}.{attr}", value))
        try:
            yield self
        finally:
            for owner, attr, value in reversed(undo):
                setattr(owner, attr, value)

    def write(self, path):
        with open(path, "w", encoding="utf-8") as fh:
            fh.write("name,start,end,parent,operation\n")
            for name, start, end, parent, op, _ in self.spans:
                fh.write(f"{name},{start!r},{end!r},{parent},{op}\n")


def self_times(spans, keep=lambda span: True):
    """Self time per layer over the spans that ``keep`` accepts."""
    child = [0.0] * len(spans)
    for name, start, end, parent, op, note in spans:
        if parent >= 0:
            child[parent] += end - start
    out = {layer: 0.0 for layer in LAYERS}
    for i, span in enumerate(spans):
        layer = span[0].split(".", 1)[0]
        if layer in out and keep(span):
            out[layer] += span[2] - span[1] - child[i]
    return out


def layer_metrics(spans, rounds, op_modes):
    """Per-round layer figures from the spans of ``rounds`` traced rounds.

    ``op_modes`` maps an operation id to its CLI mode (or "api").
    """
    self_time = self_times(spans)
    total, calls, notes = {}, {}, {}
    for name, start, end, parent, op, note in spans:
        total[name] = total.get(name, 0.0) + end - start
        calls[name] = calls.get(name, 0) + 1
        if note is not None:
            notes[name] = notes.get(name, 0) + note

    def t(name):
        return total.get(name, 0.0)

    def n(name):
        return calls.get(name, 0)

    def ratio(num, den, scale=1.0):
        return scale * num / den if den else 0.0

    fields = ("markov.field_v", "markov.field_u", "markov.field_p", "markov.field_q")
    field_s = sum(t(f) for f in fields)
    field_calls = sum(n(f) for f in fields)
    q_in_invert = sum(
        1
        for name, _, _, parent, _, _ in spans
        if name == "markov.field_q" and parent >= 0 and spans[parent][0] == "markov.completeness_invert"
    )
    dp_value_ops = [op for op, mode in op_modes.items() if mode == "dp-value"]
    recursions_in_dp_value = sum(
        1 for s in spans if s[0] == "dp.value_recursion" and s[4] in dp_value_ops
    )
    kappa_calls = sum(
        c for name, c in calls.items()
        if name.startswith("cumulants.") and name.rsplit(".", 1)[1].startswith("kappa") and name.count(".") == 2
    )
    sample_s = sum(v for name, v in total.items() if name.endswith(".sample_increments"))
    emit_s = t("cli.emit_csv")
    csv_bytes = notes.get("cli.emit_csv", 0)
    steps = notes.get("paths.simulate_path", 0)
    batch_s = t("paths.simulate_batch")

    per_round = {
        "cli.self_s": (self_time["cli"], "s"),
        "cli.emit_csv_s": (emit_s, "s"),
        "cli.csv_bytes": (csv_bytes, "bytes"),
        "dp.self_s": (self_time["dp"], "s"),
        "dp.sup_convolution_s": (t("dp.sup_convolution"), "s"),
        "dp.sup_convolution_calls": (n("dp.sup_convolution"), "count"),
        "dp.no_rebalance_check_s": (t("dp.no_rebalance_check"), "s"),
        "markov.self_s": (self_time["markov"], "s"),
        "markov.field_s": (field_s, "s"),
        "markov.field_calls": (field_calls, "count"),
        "markov.invert_calls": (n("markov.completeness_invert"), "count"),
        "markov.shockwave_path_s": (t("markov.shockwave_path"), "s"),
        "paths.self_s": (self_time["paths"], "s"),
        "paths.simulate_batch_s": (batch_s, "s"),
        "paths.paths_simulated": (n("paths.simulate_path"), "count"),
        "efficient.self_s": (self_time["efficient"], "s"),
        "efficient.path_record_s": (t("efficient.efficient_path_record"), "s"),
        "efficient.path_records": (n("efficient.efficient_path_record"), "count"),
        "cumulants.self_s": (self_time["cumulants"], "s"),
        "cumulants.kappa_calls": (kappa_calls, "count"),
        "cumulants.sample_increments_s": (sample_s, "s"),
        "utility.self_s": (self_time["utility"], "s"),
        "utility.certainty_equivalent_calls": (n("utility.certainty_equivalent"), "count"),
    }
    out = {name: (value / rounds, unit) for name, (value, unit) in per_round.items()}
    # ratios are independent of the number of rounds
    out["cli.emit_mb_per_s"] = (ratio(csv_bytes, emit_s, 1e-6), "MB/s")
    out["dp.value_recursion_calls"] = (ratio(recursions_in_dp_value, len(dp_value_ops)), "count")
    out["markov.field_us_per_call"] = (ratio(field_s, field_calls, 1e6), "us")
    out["markov.field_q_per_invert"] = (ratio(q_in_invert, n("markov.completeness_invert")), "count")
    out["paths.steps_per_s"] = (ratio(steps, batch_s), "1/s")
    return out
