"""In-process timings of the ``fields`` workload's library pass and table, as medians.

Run from the repository root:

    python3 tools/time_fields.py                  # seeds 1-3, 9 repeats
    python3 tools/time_fields.py --seeds 1 --repeats 1   # a quick pass

For each seed of the benchmark's ``fields`` workload (``bench/workloads.py``)
it times the workload's library pass: ``optimal_strategy_markov`` at 16
times and 41 factor levels on its quadratic and its shock-wave model, 1,312
roots.  Each line gives the median wall time and the time a root, the
number of Newton evaluations the pass takes (calls of
``markov.tilted_moments``, one tilt of the nodes each), and a sha256 of the
roots' bytes, so two checkouts' roots can be compared.  A second line a seed
times the table of the workload's ``markov-fields`` command: its config is
read by the command line's own readers, and ``markov._state_fields`` gives
the v, u, p, q rows at each of its 16 times over its 301 factor levels.  The
line gives the median wall time and a sha256 of the rows' bytes.  It imports
``src/impactlab`` from the checkout it sits in.
"""

from __future__ import annotations

import argparse
import collections
import hashlib
import sys
from pathlib import Path
from unittest import mock

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from impactlab import cli, markov  # noqa: E402
from time_dp import median_seconds  # noqa: E402
from workloads import Fields  # noqa: E402


def evaluations(work):
    """Newton evaluations of one library pass, counted as tilts of the nodes."""
    calls = collections.Counter()
    tilt = markov.tilted_moments

    def counted(*args, **kwargs):
        calls["tilts"] += 1
        return tilt(*args, **kwargs)

    with mock.patch.object(markov, "tilted_moments", counted):
        work.api_pass()
    return calls["tilts"]


def table_pass(work):
    """A callable giving the v, u, p, q rows of the workload's markov-fields table."""
    root = cli.Section(work.cli_ops()[0].config)
    payoffs = cli._model(root.section("model"), "kind", "quadratic", cli._KINDS,
                         agents=cli._agents(root)).payoffs()
    w = np.linspace(root.data["w"]["min"], root.data["w"]["max"], root.data["w"]["count"])
    times, y, order = root.data["times"], root.data["inventory"], root.data["order"]
    return lambda: np.hstack([markov._state_fields(payoffs, t, w, y, order) for t in times])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--repeats", type=int, default=9)
    args = parser.parse_args(argv)

    for seed in args.seeds:
        work = Fields(seed)
        work.build()
        seconds, roots = median_seconds(work.api_pass, args.repeats)
        roots = np.array(roots)
        digest = hashlib.sha256(roots.tobytes()).hexdigest()
        print(f"seed {seed} optimal_strategy_markov x {roots.size}: median {seconds * 1e3:.2f} ms"
              f" ({seconds / roots.size * 1e6:.1f} us a root); "
              f"Newton evaluations {evaluations(work)}; roots sha256 {digest}")
        seconds, rows = median_seconds(table_pass(work), args.repeats)
        digest = hashlib.sha256(rows.tobytes()).hexdigest()
        print(f"seed {seed} markov-fields table, {len(work.TIMES)} t x {work.W_RANGE[2]} w: "
              f"median {seconds * 1e3:.2f} ms; rows sha256 {digest}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
