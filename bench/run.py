"""Benchmark for impactlab: CLI wall time, library pass time and per-layer spans.

Run from the repository root:

    python3 bench/run.py --workload lattice --seed 1 --seconds 30 --trace 0

Workloads: ``lattice``, ``fields``, ``montecarlo`` (see workloads.py).
The last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``.  With ``--trace 0`` the metrics
are the end-to-end figures (set-up time, library pass time, CLI time, peak
resident set); with ``--trace 1`` they are the per-layer figures from a
traced in-process run.  An operation is one CLI invocation or one library
pass, together with the check of its output.  The benchmark refuses to run
(exit 2) unless it sits in an impactlab checkout with ``src/impactlab``.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
RESULTS = BENCH / "results"

SETUP_PROBES = 5
IMPORT_PROBES = 3
MIN_ROUNDS = 2
CHILD_TIMEOUT_S = 150.0

# one thread everywhere: impactlab's path pool is slower than serial on small
# boxes, and BLAS threads would make timings depend on the machine's load
SINGLE_THREAD = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}

# Seconds the calibration loop takes on the reference box (2-vCPU Xeon VM,
# Python 3.11, numpy 2.4) when that box runs at full speed.  See Clock.
CALIBRATION_NOMINAL_S = 0.045


def calibration_loop():
    """A fixed mix of interpreter, small-numpy-call and vector work; returns its seconds."""
    import numpy as np

    start = time.perf_counter()
    total = 0.0
    for i in range(150_000):
        total += i * 0.5
    a = np.arange(64.0)
    for _ in range(7_500):
        a = np.exp(-a * 1e-3) + 0.0
    b = np.linspace(0.0, 1.0, 150_000)
    for _ in range(10):
        float(np.log1p(b).sum())
    return time.perf_counter() - start


class Clock:
    """Wall-clock samples scaled to the box's nominal speed.

    On a shared VM the CPU speed a process gets drifts by a third between
    regimes that last seconds to minutes, longer than one run.  Each sample
    is bracketed by two runs of ``calibration_loop`` and multiplied by
    CALIBRATION_NOMINAL_S over their mean, an estimate of the time the
    sample would have taken at nominal speed.  The estimate removes about
    half of the run-to-run spread, not all of it: the loop is short and
    does not slow exactly as the program does.
    """

    def __init__(self):
        self.raw = []
        self.calibrations = []

    @contextlib.contextmanager
    def sample(self, record):
        """Bracket a block; the block appends its raw seconds to the yielded list."""
        before = calibration_loop()
        box = []
        yield box
        after = calibration_loop()
        self.calibrations += [before, after]
        if box:
            self.raw.append(box[0])
            record.append(box[0] * CALIBRATION_NOMINAL_S / (0.5 * (before + after)))

    def report(self):
        cal = statistics.median(self.calibrations)
        print(
            f"calibration loop median {cal:.4f} s (nominal {CALIBRATION_NOMINAL_S} s) "
            f"over {len(self.calibrations)} runs; {len(self.raw)} raw samples "
            f"{sum(self.raw):.2f} s in total",
            file=sys.stderr,
        )


def child_env():
    env = {k: v for k, v in os.environ.items() if k != "IMPACTLAB_THREADS"}
    env.update(SINGLE_THREAD, PYTHONPATH=str(SRC))
    return env


def wait_with_usage(proc, timeout):
    """Wait for a child and return (exit code, peak RSS in KiB); kill it on timeout."""
    box = []
    waiter = threading.Thread(target=lambda: box.append(os.wait4(proc.pid, 0)))
    waiter.start()
    waiter.join(timeout)
    if waiter.is_alive():
        proc.kill()
        waiter.join()
    _, status, usage = box[0]
    proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, usage.ru_maxrss


def python_child(argv, cwd):
    """Run ``python3 argv...``; returns (exit code, wall seconds, peak KiB, stdout)."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            [sys.executable, *argv], stdout=out, stderr=err, cwd=cwd, env=child_env()
        )
        code, rss = wait_with_usage(proc, CHILD_TIMEOUT_S)
        wall = time.perf_counter() - start
        out.seek(0)
        err.seek(0)
        if code != 0:
            sys.stderr.write(err.read().decode("utf-8", "replace")[-2000:])
        return code, wall, rss, out.read().decode("utf-8", "replace")


def probe(clock, argv, count):
    """Median over ``count`` fresh processes of the seconds each reports.

    One extra process runs first and is discarded: it may compile bytecode.
    """
    python_child(argv, ROOT)
    values = []
    for _ in range(count):
        with clock.sample(values) as box:
            code, _, _, out = python_child(argv, ROOT)
            if code != 0:
                raise RuntimeError(f"probe {argv} exited {code}")
            box.append(float(out.strip().splitlines()[-1]))
    return statistics.median(values)


class Tally:
    """Operations attempted and failed, and whether every check held."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True

    def attempt(self, label, action):
        """Run one operation's program call; None if it raised or exited non-zero."""
        self.attempted += 1
        try:
            return action()
        except Exception as exc:  # a failing operation is counted, not fatal
            self.failed += 1
            print(f"{label}: operation failed: {exc!r}", file=sys.stderr)
            return None

    def verify(self, label, check, output):
        """Check an operation's output; a mismatch makes the run incorrect."""
        from checks import CheckFailed

        try:
            check(output)
        except CheckFailed as exc:
            self.correct = False
            print(f"{label}: check failed: {exc}", file=sys.stderr)

    def result(self, metrics):
        return {
            "correct": self.correct,
            "attempted": self.attempted,
            "failed": self.failed,
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
        }


class CliFailed(RuntimeError):
    pass


def _cli_workdir(op, scratch):
    work = Path(tempfile.mkdtemp(prefix=f"{op.mode}-", dir=scratch))
    config = work / "config.json"
    config.write_text(json.dumps(op.config), encoding="utf-8")
    return work, [op.mode, "--config", str(config), "--out", str(work / "out"), "--quiet"]


def run_cli_subprocess(op, scratch):
    """One CLI invocation in a fresh interpreter; returns (work dir, wall s, peak KiB)."""
    work, argv = _cli_workdir(op, scratch)
    code, wall, rss, _ = python_child(["-m", "impactlab.cli", *argv], work)
    if code != 0:
        raise CliFailed(f"{op.mode} exited {code}")
    return work, wall, rss


def run_cli_inprocess(op, scratch):
    """One CLI invocation through impactlab.cli.main; returns (work dir, wall s)."""
    import impactlab.cli

    work, argv = _cli_workdir(op, scratch)
    start = time.perf_counter()
    code = impactlab.cli.main(argv)
    wall = time.perf_counter() - start
    if code != 0:
        raise CliFailed(f"{op.mode} returned {code}")
    return work, wall


def check_and_remove(op):
    def check(output):
        try:
            op.check(output[0] / "out")
        finally:
            shutil.rmtree(output[0], ignore_errors=True)

    return check


def timed_api(workload):
    start = time.perf_counter()
    result = workload.api_pass()
    return result, time.perf_counter() - start


def measure(workload, seconds, scratch, tally):
    """End-to-end figures: repeated rounds of every CLI op and one library pass."""
    clock = Clock()
    setup_argv = [str(BENCH / "run.py"), "--probe-setup", workload.name, "--seed", str(workload.seed)]
    setup_s = probe(clock, setup_argv, SETUP_PROBES)
    workload.build()
    refs = workload.references()
    steps = [
        (op.mode, lambda op=op: run_cli_subprocess(op, scratch), check_and_remove(op))
        for op in workload.cli_ops()
    ]
    steps.append(("api", lambda: timed_api(workload), lambda out: workload.check_api(out[0], refs)))
    _, action, check = steps[-1]
    out = tally.attempt("api warm-up", action)  # untimed
    if out is not None:
        tally.verify("api warm-up", check, out)

    samples = {label: [] for label, _, _ in steps}
    peak_kib = 0
    start = time.perf_counter()
    rounds = 0
    last_round = 0.0
    while rounds < MIN_ROUNDS or time.perf_counter() - start + last_round <= seconds:
        round_start = time.perf_counter()
        for label, action, check in steps:
            with clock.sample(samples[label]) as box:
                out = tally.attempt(label, action)
                if out is not None:
                    box.append(out[1])
            if out is not None:
                peak_kib = max(peak_kib, out[2] if len(out) > 2 else 0)
                tally.verify(label, check, out)
        rounds += 1
        last_round = time.perf_counter() - round_start
    clock.report()
    peak_kib = max(peak_kib, resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)
    api = samples.pop("api")
    nan = float("nan")
    return {
        "setup_s": (setup_s, "s"),
        "api_s": (statistics.median(api) if api else nan, "s"),
        "cli_s": (sum(statistics.median(v) if v else nan for v in samples.values()), "s"),
        "peak_rss_mb": (peak_kib / 1024.0, "MB"),
    }


def measure_traced(workload, seconds, scratch, tally):
    """Per-layer figures: untraced and traced in-process rounds, alternating."""
    from tracer import CLI_MODES, Tracer, layer_metrics

    clock = Clock()
    code = "import time; t = time.perf_counter(); import impactlab.cli; print(time.perf_counter() - t)"
    metrics = {"cli.import_s": (probe(clock, ["-c", code], IMPORT_PROBES), "s")}
    ops = workload.cli_ops()
    walls = {mode: [] for mode in CLI_MODES}
    for op in ops:
        with clock.sample(walls[op.mode]) as box:
            out = tally.attempt(op.mode, lambda: run_cli_subprocess(op, scratch))
            if out is not None:
                box.append(out[1])
        if out is not None:
            tally.verify(op.mode, check_and_remove(op), out)
    metrics.update({f"cli.{mode}_s": (sum(v), "s") for mode, v in walls.items()})

    import impactlab.cli  # noqa: F401

    workload.build()
    refs = workload.references()
    steps = [
        (op.mode, lambda op=op: run_cli_inprocess(op, scratch), check_and_remove(op)) for op in ops
    ]
    steps.append(("api", lambda: timed_api(workload), lambda out: workload.check_api(out[0], refs)))
    tracer = Tracer()
    op_modes = {}

    def spanned(label, action):
        def run():
            with tracer.operation(f"bench.{label}"):
                return action()

        return run

    def one_round(traced):
        total = 0.0
        for label, action, check in steps:
            out = tally.attempt(label, spanned(label, action) if traced else action)
            if traced:
                op_modes[tracer.op_id] = label
            if out is not None:
                total += out[1]
                tally.verify(label, check, out)
        return total

    one_round(traced=False)  # warm-up: caches, lazy imports
    plain, traced = [], []
    start = time.perf_counter()
    while not traced or time.perf_counter() - start < seconds:
        plain.append(one_round(traced=False))
        with tracer.active():
            traced.append(one_round(traced=True))
    metrics.update(layer_metrics(tracer.spans, len(traced), op_modes))
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    report_shares(tracer, op_modes)
    RESULTS.mkdir(exist_ok=True)
    tracer.write(RESULTS / f"spans-{workload.name}.csv")
    return dict(sorted(metrics.items()))


def report_shares(tracer, op_modes):
    """Print to stderr how each operation's traced time splits over the layers."""
    from tracer import LAYERS, self_times

    roots = {s[4]: s[2] - s[1] for s in tracer.spans if s[3] == -1}
    for label in dict.fromkeys(op_modes.values()):
        ops = {op for op, mode in op_modes.items() if mode == label}
        layers = self_times(tracer.spans, lambda span: span[4] in ops)
        wall = sum(roots[op] for op in ops)
        shares = ", ".join(
            f"{layer} {layers[layer] / wall:.0%}" for layer in LAYERS if layers[layer] > 0.005 * wall
        )
        print(f"traced {label}: {wall / len(ops):.3f} s per run; self time {shares}", file=sys.stderr)


def probe_setup(name, seed):
    """Fresh-process set-up: import impactlab and build the workload's inputs."""
    start = time.perf_counter()
    import impactlab  # noqa: F401
    from workloads import WORKLOADS

    workload = WORKLOADS[name](seed)
    workload.build()
    workload.cli_ops()
    print(time.perf_counter() - start)
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=("lattice", "fields", "montecarlo"))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--probe-setup", metavar="WORKLOAD", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "impactlab" / "__init__.py").is_file():
        print(f"bench: no impactlab sources under {SRC}; run from an impactlab checkout", file=sys.stderr)
        return 2
    os.environ.pop("IMPACTLAB_THREADS", None)
    os.environ.update(SINGLE_THREAD)
    sys.path[:0] = [str(SRC), str(BENCH)]
    if args.probe_setup:
        return probe_setup(args.probe_setup, args.seed)
    if args.workload is None:
        parser.error("--workload is required")

    from workloads import WORKLOADS

    workload = WORKLOADS[args.workload](args.seed)
    RESULTS.mkdir(exist_ok=True)
    scratch = tempfile.mkdtemp(prefix="run-", dir=RESULTS)
    tally = Tally()
    try:
        if args.trace:
            metrics = measure_traced(workload, args.seconds, scratch, tally)
        else:
            metrics = measure(workload, args.seconds, scratch, tally)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    print(json.dumps(tally.result(metrics)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
