"""Alternating benchmark pairs of two commits, written as a BENCH_<pr>.json file.

Run from the repository root:

    python3 tools/bench_pairs.py --parent HEAD~1 --change HEAD --pr 17 \\
        --workload montecarlo --first-seed 701 \\
        --claim montecarlo:cli_s --note "what the change does"

Each commit is extracted with ``git archive`` into its own temporary
directory, so both sides run their committed files only.  For
each workload, ten seeds make ten pairs; one pair runs

    python3 bench/run.py --workload W --seed S --trace 0

in the two worktrees, one after the other: the parent first for odd seeds,
the change first for even seeds.  The run length is ``bench/run.py``'s own
default.  The k-th workload named (counting from 0) takes seeds
``first-seed + 20 k`` onwards.  With ``--traced-seed`` each side also makes
one ``--trace 1`` run of every workload at that seed.

The output has the schema of ``BENCH_16.json``: for every end-to-end
metric of ``BENCHMARK.json``, each side's median and quartiles
(``numpy.percentile`` 25 and 75), its per-run values in seed order, and
in how many pairs the change is lower; per workload, the seeds and each
side's attempted and failed operations, and whether every check held;
and the Python and numpy versions, ``nproc`` and the commands.  It is
written to the repository root.  The extracted trees are removed at the end,
also when a run fails.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import tempfile
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
SIDES = ("parent", "change")
PAIRS = 10
COMMAND = "python3 bench/run.py --workload W --seed {seed} --trace {trace}"
TRACED_NOTE = ("the tracer records spans in the run's own process only: where path files "
               "are written by forked writers, cli.emit_csv_s, cli.csv_bytes and "
               "cli.emit_mb_per_s count only the run's own share")


def git(*args, cwd=ROOT):
    return subprocess.run(["git", *args], cwd=cwd, check=True, capture_output=True,
                          text=True).stdout.strip()


def bench(tree, workload, seed, trace):
    """The last stdout line of one bench/run.py run in ``tree``, parsed."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--trace", str(trace)]
    done = subprocess.run(argv, cwd=tree, capture_output=True, text=True)
    if done.returncode != 0:
        raise SystemExit(f"{' '.join(argv)} in {tree} exited {done.returncode}:\n{done.stderr}")
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(values):
    q1, median, q3 = np.percentile(values, [25, 50, 75])
    return {"median": round(float(median), 4), "q1": round(float(q1), 4),
            "q3": round(float(q3), 4)}


def workload_record(runs, seeds, metrics):
    """The BENCH_<pr>.json entry of one workload from its runs[side][i] results."""
    record = {
        "pairs": len(seeds),
        "seeds": seeds,
        "attempted": {side: sum(r["attempted"] for r in runs[side]) for side in SIDES},
        "failed": {side: sum(r["failed"] for r in runs[side]) for side in SIDES},
        "correct": all(r["correct"] for side in SIDES for r in runs[side]),
        "metrics": {},
    }
    for name, unit in metrics:
        values = {side: [round(r["metrics"][name]["value"], 4) for r in runs[side]]
                  for side in SIDES}
        record["metrics"][name] = {
            "unit": unit,
            **{side: summary(values[side]) for side in SIDES},
            "change_lower_in_pairs": sum(c < p for p, c in zip(values["parent"],
                                                               values["change"])),
            "parent_runs": values["parent"],
            "change_runs": values["change"],
        }
    return record


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--parent", default="HEAD~1", help="the commit before the change")
    parser.add_argument("--change", default="HEAD", help="the commit with the change")
    parser.add_argument("--pr", required=True, help="writes BENCH_<pr>.json")
    parser.add_argument("--workload", action="append",
                        choices=("lattice", "fields", "montecarlo"),
                        help="repeat for several (default: all three)")
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--claim", metavar="WORKLOAD:METRIC", help="the claimed metric")
    parser.add_argument("--note", default="", help="the 'change' field: what the change does")
    parser.add_argument("--traced-seed", type=int, help="also one --trace 1 run a side")
    args = parser.parse_args(argv)
    workloads = args.workload or ["lattice", "fields", "montecarlo"]
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    metrics = [(m["name"], m["unit"]) for m in declared["end_to_end"]]

    result = {"change": args.note}
    if args.claim:
        workload, metric = args.claim.split(":")
        result["claim"] = {"workload": workload, "metric": metric}
    versions = subprocess.run(
        [sys.executable, "-c", "import platform, numpy; print(platform.python_version(), "
         "numpy.__version__)"], check=True, capture_output=True, text=True).stdout.split()
    result.update({
        "command": COMMAND.format(seed="S", trace=0),
        "order": "alternating pairs: parent first for odd seeds, change first for even seeds",
        "python": versions[0],
        "numpy": versions[1],
        "nproc": len(os.sched_getaffinity(0)),
        "host": f"{os.cpu_count()}-CPU {platform.machine()} host",
        "quartiles": "numpy.percentile 25 / 50 / 75 over the runs of each side",
        "workloads": {},
    })
    commits = {side: git("rev-parse", ref)
               for side, ref in zip(SIDES, (args.parent, args.change))}

    with tempfile.TemporaryDirectory(prefix="bench_pairs-") as scratch:
        trees = {side: Path(scratch) / side for side in SIDES}
        for side in SIDES:
            trees[side].mkdir()
            archive = subprocess.run(["git", "archive", commits[side]], cwd=ROOT, check=True,
                                     capture_output=True).stdout
            subprocess.run(["tar", "-x", "-C", str(trees[side])], input=archive, check=True)
        for k, workload in enumerate(workloads):
            seeds = [args.first_seed + 20 * k + i for i in range(PAIRS)]
            runs = {side: [] for side in SIDES}
            for seed in seeds:
                for side in SIDES if seed % 2 else SIDES[::-1]:
                    runs[side].append(bench(trees[side], workload, seed, 0))
                    print(f"{workload} seed {seed} {side}: " + ", ".join(
                        f"{name} {runs[side][-1]['metrics'][name]['value']:.4g}"
                        for name, _ in metrics), file=sys.stderr)
            result["workloads"][workload] = workload_record(runs, seeds, metrics)
        if args.traced_seed is not None:
            result["traced"] = {"command": COMMAND.format(seed=args.traced_seed, trace=1)
                                + ", one run a side", "note": TRACED_NOTE}
            for workload in workloads:
                result["traced"][workload] = {"seed": args.traced_seed, **{
                    side: {name: round(m["value"], 4) for name, m in sorted(bench(
                        trees[side], workload, args.traced_seed, 1
                    )["metrics"].items())} for side in SIDES}}

    out = ROOT / f"BENCH_{args.pr}.json"
    out.write_text(json.dumps(result, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
