"""In-process timings of the path seeding and the path batches, as medians.

Run from the repository root:

    python3 tools/time_paths.py                 # 15 repeats of each call
    python3 tools/time_paths.py --repeats 1     # a quick pass

It times ``paths._stream_words`` (the batched ``SeedSequence([seed, k])``
hash and its uint64 words) for 4,000, 65 and 1 paths, ``simulate_batch``
for 4,000 gamma paths of 16 steps and 65 Brownian paths of 1,000 steps,
and one ``simulate_path``.  The 4,000-path hash and batch match the size of
the library pass of the benchmark's ``montecarlo`` workload; 65 paths of
1,000 steps fill one block of its command-line runs.  Each line gives the
median wall time and a sha256 digest of what the call returned (the words
or the increments), so that two checkouts' outputs can be compared.

The per-path line times that library pass's shape: ``simulate_batch`` of
4,000 gamma paths of 16 steps in the scenario of ``montecarlo`` (workload
seed ``--seed``), the batch iterated twice, once for ``efficient_path_record``
on each row and once for each path's last level.  Its digest covers every
record's x, s_star and wealth split (endowment payoff, trading P&L, terminal
wealth), in path order.

The last two lines run ``levy-sim`` and ``shockwave`` in process, through
``impactlab.cli.main``, at the command-line configs of ``montecarlo``
(``bench/workloads.py``, workload seed ``--seed``).  Each times one path-file
writer, with the CPU set patched to one CPU, against a writer a CPU, in
turn.  It gives both medians of the wall time and of the CPU time (user and
system, of this process and of the writers it reaped), and a sha256 digest
of the written files' names and bytes; the tool fails if the two runs'
files differ.  It imports
``src/impactlab`` from the checkout it sits in.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(1, str(ROOT / "bench"))

from impactlab import Brownian, GammaProcess, PathGrid, ShockSchedule  # noqa: E402
from impactlab.cli import main as cli_main  # noqa: E402
from impactlab.efficient import efficient_path_record  # noqa: E402
from impactlab.paths import _stream_words, simulate_batch, simulate_path  # noqa: E402
from time_dp import median_seconds  # noqa: E402
from workloads import MonteCarlo  # noqa: E402


def report(label, seconds, array):
    digest = hashlib.sha256(array.tobytes()).hexdigest()[:16]
    print(f"{label}: median {seconds * 1e6:.0f} us; sha256 {digest}")


def path_pass(scenario, seed, n_paths):
    """The records and last levels of the ``montecarlo`` library pass, one row at a time."""
    batch = simulate_batch(scenario.model, scenario.grid, scenario.schedule, seed, n_paths)
    records = [efficient_path_record(scenario, path) for path in batch]
    return records, [path.x[-1] for path in batch]


def records_digest(records):
    digest = hashlib.sha256()
    for r in records:
        split = np.array([r.endowment_payoff, r.trading_pnl, r.terminal_wealth])
        digest.update(r.x.tobytes() + r.s_star.tobytes() + split.tobytes())
    return digest.hexdigest()[:16]


def files_digest(out):
    digest = hashlib.sha256()
    for path in sorted(out.iterdir()):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()[:16]


def time_writers(op, repeats, scratch):
    """Median wall and CPU times of in-process runs of ``op`` with one CPU and with
    this process's own CPU set, ``repeats`` each after a warm pair, run in turn so
    that a drift in the box's speed reaches both; and each one's files' digest."""
    config = scratch / f"{op.mode}.json"
    config.write_text(json.dumps(op.config), encoding="utf-8")
    out, real = scratch / "out", os.sched_getaffinity
    times, cpu_times, digests = {1: [], None: []}, {1: [], None: []}, {}

    def run(cpus):
        shutil.rmtree(out, ignore_errors=True)
        os.sched_getaffinity = real if cpus is None else (lambda pid: {0})
        try:
            start, cpu_start = time.perf_counter(), sum(os.times()[:4])
            if cli_main([op.mode, "--config", str(config), "--out", str(out), "--quiet"]) != 0:
                raise SystemExit(f"{op.mode} failed")
            times[cpus].append(time.perf_counter() - start)
            cpu_times[cpus].append(sum(os.times()[:4]) - cpu_start)
        finally:
            os.sched_getaffinity = real
        digests[cpus] = files_digest(out)

    try:
        for _ in range(repeats + 1):
            run(1)
            run(None)
    finally:
        shutil.rmtree(out, ignore_errors=True)
    medians = {key: {cpus: statistics.median(t[1:]) for cpus, t in runs.items()}
               for key, runs in (("wall", times), ("cpu", cpu_times))}
    return medians, digests


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=15)
    parser.add_argument("--seed", type=int, default=2024)
    args = parser.parse_args(argv)
    seed, repeats = args.seed, args.repeats

    for n_paths in (4000, 65, 1):
        seconds, words = median_seconds(lambda: _stream_words(seed, 0, n_paths), repeats)
        report(f"hash {n_paths} paths", seconds, words)

    schedule = ShockSchedule()
    for model, n_paths, n_steps in ((GammaProcess(2.0, 3.0), 4000, 16),
                                    (Brownian(0.1, 1.3), 65, 1000)):
        grid = PathGrid(n_steps)
        seconds, batch = median_seconds(
            lambda: simulate_batch(model, grid, schedule, seed, n_paths), repeats)
        report(f"simulate_batch {type(model).__name__} {n_paths} x {n_steps}", seconds,
               batch.increments)

    grid = PathGrid(16)
    seconds, path = median_seconds(
        lambda: simulate_path(GammaProcess(2.0, 3.0), grid, schedule, seed, 7), repeats)
    report("simulate_path GammaProcess 16 steps", seconds, path.increments)

    workload = MonteCarlo(seed)
    workload.build()
    seconds, (records, _) = median_seconds(
        lambda: path_pass(workload.scenario, workload.api_seed, workload.API_PATHS), repeats)
    print(f"per-path pass GammaProcess {workload.API_PATHS} x {workload.API_GRID}, iterated "
          f"twice, efficient_path_record a row: median {seconds * 1e3:.1f} ms "
          f"({seconds / workload.API_PATHS * 1e6:.1f} us a path); sha256 {records_digest(records)}")

    cpus = len(os.sched_getaffinity(0))
    with tempfile.TemporaryDirectory(prefix="time_paths-") as scratch:
        for op in MonteCarlo(seed).cli_ops():
            medians, digests = time_writers(op, repeats, Path(scratch))
            if digests[1] != digests[None]:
                raise SystemExit(f"{op.mode}: the files differ between 1 and {cpus} writers")
            wall, cpu = medians["wall"], medians["cpu"]
            print(f"{op.mode} {op.config['paths']} x {op.config['grid']}: median "
                  f"{wall[1] * 1e3:.0f} ms (CPU {cpu[1] * 1e3:.0f} ms) with 1 writer, "
                  f"{wall[None] * 1e3:.0f} ms (CPU {cpu[None] * 1e3:.0f} ms) with up to {cpus}; "
                  f"sha256 {digests[1]}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
