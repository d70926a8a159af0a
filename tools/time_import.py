"""Fresh-process import timings of the package, as medians, and the layers each loads.

Run from the repository root:

    python3 tools/time_import.py                # 9 fresh processes a scenario
    python3 tools/time_import.py --repeats 1    # a quick pass

Each scenario is one import statement run in a new interpreter: a bare
``import impactlab``, the ``from impactlab import ...`` line of each
workload's ``build()`` in ``bench/workloads.py`` (read from that file), and
``import impactlab.cli``.  A plain ``import numpy`` comes first for
reference, since every layer imports it.  Each line gives the median time
of the statement inside the child, timed with ``perf_counter``, and the
sorted list of ``impactlab.*`` modules it loaded.  That list does not depend
on the machine, so two checkouts can be compared by it.  The children run
under ``PYTHONDONTWRITEBYTECODE=1``, as the benchmark's command-line
children may: with no ``__pycache__`` in ``src/impactlab`` each one compiles
the sources it imports.  It imports ``src/impactlab`` from the checkout it
sits in.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

CHILD = """\
import json, sys, time
start = time.perf_counter()
{statement}
seconds = time.perf_counter() - start
print(json.dumps([seconds, sorted(m for m in sys.modules if m.startswith("impactlab."))]))
"""


def workload_imports():
    """(workload name, the ``from impactlab import`` statement of its build())."""
    tree = ast.parse((ROOT / "bench" / "workloads.py").read_text(encoding="utf-8"))
    found = []
    for cls in tree.body:
        if not isinstance(cls, ast.ClassDef):
            continue
        names = [n.value.value for n in cls.body
                 if isinstance(n, ast.Assign) and [ast.unparse(t) for t in n.targets] == ["name"]]
        builds = [f for f in cls.body if isinstance(f, ast.FunctionDef) and f.name == "build"]
        if names and builds:
            line = next(node for node in ast.walk(builds[0])
                        if isinstance(node, ast.ImportFrom) and node.module == "impactlab")
            found.append((names[0], ast.unparse(line)))
    return found


def run_child(statement):
    """(seconds, loaded impactlab modules) of one fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    proc = subprocess.run([sys.executable, "-c", CHILD.format(statement=statement)],
                          capture_output=True, text=True, env=env, check=True, cwd=ROOT)
    return json.loads(proc.stdout)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=9)
    args = parser.parse_args(argv)

    scenarios = [("reference", "import numpy"), ("bare", "import impactlab")]
    scenarios += [(f"{name} build", line) for name, line in workload_imports()]
    scenarios.append(("cli", "import impactlab.cli"))
    # round robin, so a drift in the machine's speed falls on every scenario alike
    runs = [[run_child(statement) for _, statement in scenarios] for _ in range(args.repeats)]
    for k, (label, statement) in enumerate(scenarios):
        seconds = statistics.median(run[k][0] for run in runs)
        loaded = ", ".join(m.removeprefix("impactlab.") for m in runs[-1][k][1]) or "none"
        print(f"{label} ({statement}): median {seconds * 1e3:.1f} ms; loads {loaded}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
