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
or the increments), so that two checkouts' outputs can be compared.  It
imports ``src/impactlab`` from the checkout it sits in.
"""

from __future__ import annotations

import argparse
import hashlib
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from impactlab import Brownian, GammaProcess, PathGrid, ShockSchedule  # noqa: E402
from impactlab.paths import _stream_words, simulate_batch, simulate_path  # noqa: E402


def median_seconds(fn, repeats):
    """Median wall time of ``repeats`` calls of fn after a warm one, and fn's last result."""
    result = fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def report(label, seconds, array):
    digest = hashlib.sha256(array.tobytes()).hexdigest()[:16]
    print(f"{label}: median {seconds * 1e6:.0f} us; sha256 {digest}")


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
    return 0


if __name__ == "__main__":
    sys.exit(main())
