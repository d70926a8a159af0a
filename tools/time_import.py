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
sorted list of ``impactlab.*`` modules it loaded, with ``yaml`` if it loaded
PyYAML.  A module counts as loaded once its code has run: a layer that
``impactlab.cli`` registers as a lazy module, whose code runs on the first
read of a name from it, is listed apart, as registered.  That list does not
depend on the machine, so two checkouts can be
compared by it.  Two more scenarios time ``cli._load_config`` on the
seed-1 ``fields`` workload's ``markov-fields`` config, written as JSON (as
the benchmark writes it) and as YAML, in a child that has imported
``impactlab.cli`` before its timer starts.  The children run
under ``PYTHONDONTWRITEBYTECODE=1``, as the benchmark's command-line
children may: with no ``__pycache__`` in ``src/impactlab`` each one compiles
the sources it imports.  It imports ``src/impactlab`` from the checkout it
sits in.

The last line times the other end of a command-line process: a small
``levy-sim`` run through ``python -m impactlab.cli``, from the command's
return to its process being reaped.  The child registers an ``atexit``
handler before it imports anything, so the handler runs after every other
one and prints ``time.monotonic()`` (one clock for every process); the
interval runs from there, through the interpreter's finalisation, to
``subprocess.run`` returning in this process.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import yaml

ROOT = Path(__file__).resolve().parent.parent

CHILD = """\
import json, sys, time, types
{setup}
start = time.perf_counter()
{statement}
seconds = time.perf_counter() - start
modules = {{n: m for n, m in sys.modules.items() if n.startswith("impactlab.") or n == "yaml"}}
print(json.dumps([seconds, sorted(n for n, m in modules.items() if type(m) is types.ModuleType),
                  sorted(n for n, m in modules.items() if type(m) is not types.ModuleType)]))
"""

EXIT_CHILD = """\
import atexit, runpy, sys, time
atexit.register(lambda: print(time.monotonic()))
sys.argv = {argv!r}
runpy.run_module("impactlab.cli", run_name="__main__", alter_sys=True)
"""

# a levy-sim run of two short paths: the command is the part that does not matter
EXIT_CONFIG = {
    "schema_version": 1, "mode": "levy-sim", "seed": 7, "paths": 2, "grid": 16,
    "agents": {"gamma": 1.0, "c": 1.0}, "loading": 1.0,
    "model": {"family": "gamma", "alpha": 4.0, "beta": 1.0},
    "schedule": {"initial_value": 0.0, "h": 0.0, "shocks": [[0.5, 0.25]]},
}


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


def run_child(code):
    """The stdout of ``code`` run in a fresh interpreter."""
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"), PYTHONDONTWRITEBYTECODE="1",
               OMP_NUM_THREADS="1", OPENBLAS_NUM_THREADS="1", MKL_NUM_THREADS="1")
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True, cwd=ROOT).stdout


def import_seconds(statement, setup=""):
    """(seconds, loaded impactlab modules and yaml, registered ones whose code has not
    run) of one statement, after ``setup``."""
    return json.loads(run_child(CHILD.format(setup=setup, statement=statement)))


def fields_config():
    """The seed-1 ``fields`` workload's markov-fields config, as the benchmark builds it."""
    sys.path.insert(0, str(ROOT / "bench"))
    from workloads import Fields

    return Fields(1).cli_ops()[0].config


def exit_seconds(argv):
    """Seconds from the return of the command ``argv`` to its process being reaped."""
    stdout = run_child(EXIT_CHILD.format(argv=argv))
    return time.monotonic() - float(stdout.split()[-1])


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--repeats", type=int, default=9)
    args = parser.parse_args(argv)

    scenarios = [("reference", "import numpy", ""), ("bare", "import impactlab", "")]
    scenarios += [(f"{name} build", line, "") for name, line in workload_imports()]
    scenarios.append(("cli", "import impactlab.cli", ""))
    with tempfile.TemporaryDirectory(prefix="time_import-") as work:
        config = Path(work) / "levy-sim.json"
        config.write_text(json.dumps(EXIT_CONFIG), encoding="utf-8")
        fields = tuple(fields_config())
        for kind, dump in (("JSON", json.dumps), ("YAML", yaml.safe_dump)):
            name = f"fields.{kind.lower()}"
            (Path(work) / name).write_text(dump(fields_config()), encoding="utf-8")
            scenarios.append((f"fields config as {kind}",
                              f"cli._load_config({name!r}, 'markov-fields', {fields!r})",
                              f"import os, impactlab.cli as cli; os.chdir({work!r})"))
        # round robin, so a drift in the machine's speed falls on every scenario alike
        runs, exits = [], []
        for r in range(args.repeats):
            runs.append([import_seconds(statement, setup) for _, statement, setup in scenarios])
            exits.append(exit_seconds(["impactlab", "levy-sim", "--config", str(config),
                                       "--out", str(Path(work) / str(r)), "--quiet"]))
    for k, (label, statement, _) in enumerate(scenarios):
        seconds = statistics.median(run[k][0] for run in runs)
        loaded, pending = (", ".join(m.removeprefix("impactlab.") for m in names) or "none"
                           for names in runs[-1][k][1:])
        registers = "" if pending == "none" else f"; registers, not yet run: {pending}"
        print(f"{label} ({statement}): median {seconds * 1e3:.1f} ms; loads {loaded}{registers}")
    print(f"exit (python -m impactlab.cli levy-sim, 2 paths): median "
          f"{statistics.median(exits) * 1e3:.1f} ms from the command's return to its "
          "process being reaped")
    return 0


if __name__ == "__main__":
    sys.exit(main())
