"""In-process timings of the lattice recursion, refine on and off, as medians.

Run from the repository root:

    python3 tools/time_dp.py                      # seeds 1-3, 9 repeats, n = 128 at 4001 points
    python3 tools/time_dp.py --seeds 1 --repeats 1 --big-n 16   # a quick pass

For each seed of the benchmark's ``lattice`` workload (``bench/workloads.py``)
it times the workload's refine-on calls: ``no_rebalance_check`` on the
library pass's Black-Scholes scenario, and the ``convergence`` invocation's
recursions (quadratic model, each n of its ``n_list``, without the
quadrature limit).  Then its refine-off calls: the library pass's six small
polynomial lattices, and the ``dp-value`` invocation's recursion (its
Black-Scholes scenario at n = 20 on [-1, 1] at resolution 1e-3).  Then one
larger recursion: the quadratic model with g_load 0.3, mu 0.1, sigma 1.1,
a_lin 0.6, b_quad 0.4, gamma = c = 1, on [-2, 2] at resolution 1e-3 (4001
points).  Each line gives the median wall time, the refinement's evaluation
and fallback counts where the recursion reports them, and the root values
with all their digits, so two checkouts' outputs can be compared.  It
imports ``src/impactlab`` from the checkout it sits in.
"""

from __future__ import annotations

import argparse
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

from impactlab import (  # noqa: E402
    AgentPair, DpScenario, Lattice, MarkovPayoffs, QuadraticModel, no_rebalance_check,
    value_recursion,
)
from checks import black_scholes_payoffs  # noqa: E402
from workloads import QUADRATIC_KEYS, Lattice as LatticeWorkload  # noqa: E402


def median_seconds(fn, repeats):
    """Median wall time of ``repeats`` calls of fn after a warm one (imports,
    caches and first-call set-up are not timed), and fn's last result."""
    result = fn()
    times = []
    for _ in range(repeats):
        start = time.perf_counter()
        result = fn()
        times.append(time.perf_counter() - start)
    return statistics.median(times), result


def counts(results):
    """Summed evaluation and fallback counts, or '-' where the recursion has none."""
    found = [(getattr(r, "refine_evaluations", None), getattr(r, "fallback_nodes", None))
             for r in results]
    if any(e is None for e, _ in found):
        return "evaluations -, fallback nodes -"
    return f"evaluations {sum(e for e, _ in found)}, fallback nodes {sum(f for _, f in found)}"


def report(label, seconds, results, value):
    print(f"{label}: median {seconds * 1e3:.2f} ms; {counts(results)}; value {value!r}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[1, 2, 3])
    parser.add_argument("--repeats", type=int, default=9)
    parser.add_argument("--big-n", type=int, default=128)
    args = parser.parse_args(argv)

    for seed in args.seeds:
        work = LatticeWorkload(seed)
        work.build()
        scenario = work.api_scenario
        seconds, _ = median_seconds(lambda: no_rebalance_check(scenario), args.repeats)
        result = value_recursion(scenario)  # the counts: the report does not carry them
        report(f"seed {seed} no_rebalance_check n={scenario.lattice.n} on "
               f"{scenario.y_grid().size} points", seconds, [result], result.value)

        payoffs = QuadraticModel(
            agents=AgentPair(work.quad["gamma"], work.quad["c"]),
            **{k: work.quad[k] for k in QUADRATIC_KEYS},
        ).payoffs()
        ladder = [DpScenario(Lattice(n), payoffs, work.ADMISSIBLE, work.RESOLUTION)
                  for n in work.N_LIST]
        seconds, results = median_seconds(lambda: [value_recursion(s) for s in ladder],
                                          args.repeats)
        report(f"seed {seed} convergence recursions n={work.N_LIST}", seconds, results,
               results[-1].value)

        small = work.small_scenarios
        seconds, results = median_seconds(
            lambda: [value_recursion(s, refine=False) for s in small], args.repeats)
        report(f"seed {seed} refine off small lattices n={[s.lattice.n for s in small]}",
               seconds, results, [r.value for r in results])

        s, g, h = black_scholes_payoffs(work.bs)
        payoffs = MarkovPayoffs(s_fn=s, g_fn=g, h_fn=h,
                                agents=AgentPair(work.bs["gamma"], work.bs["c"]))
        dp_value = DpScenario(Lattice(work.DP_N), payoffs, work.ADMISSIBLE, work.RESOLUTION)
        seconds, result = median_seconds(lambda: value_recursion(dp_value, refine=False),
                                         args.repeats)
        report(f"seed {seed} refine off dp-value n={work.DP_N} on "
               f"{dp_value.y_grid().size} points", seconds, [result], result.value)

    model = QuadraticModel(g_load=0.3, mu=0.1, sigma=1.1, a_lin=0.6, b_quad=0.4,
                           agents=AgentPair(1.0, 1.0))
    big = DpScenario(Lattice(args.big_n), model.payoffs(), (-2.0, 2.0), 1e-3)
    # seconds a run at n = 128: few repeats
    seconds, result = median_seconds(lambda: value_recursion(big), max(1, min(args.repeats, 3)))
    report(f"quadratic n={args.big_n} on {big.y_grid().size} points", seconds, [result],
           result.value)
    return 0


if __name__ == "__main__":
    sys.exit(main())
