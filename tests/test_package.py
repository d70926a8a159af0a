"""The package namespace: lazy public names, each loading only its own layers."""

import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import impactlab

SRC = str(Path(impactlab.__file__).resolve().parents[1])


def _layers_loaded(statement):
    """The ``impactlab.*`` modules a fresh interpreter holds after the statement."""
    code = "\n".join([
        "import json, sys",
        statement,
        "print(json.dumps(sorted(m for m in sys.modules if m.startswith('impactlab.'))))",
    ])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [SRC, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout)


def test_each_import_loads_only_the_layers_it_needs():
    assert _layers_loaded("import impactlab") == []
    assert _layers_loaded("from impactlab import QuadraticModel") == [
        "impactlab.errors", "impactlab.markov", "impactlab.utility",
    ]
    loaded = _layers_loaded("from impactlab import LevyScenario")
    assert "impactlab.efficient" in loaded
    assert "impactlab.dp" not in loaded and "impactlab.markov" not in loaded


def test_every_public_name_is_its_layers_object():
    table = impactlab._LAYER_OF
    assert sorted(table) == impactlab.__all__
    for name, layer in table.items():
        module = importlib.import_module(f"impactlab.{layer}")
        assert getattr(impactlab, name) is getattr(module, name)
        assert name not in vars(impactlab)  # looked up in the layer on every access
    assert set(table) <= set(dir(impactlab))
    namespace = {}
    exec("from impactlab import *", namespace)
    assert set(table) <= set(namespace)
    assert impactlab.dp is importlib.import_module("impactlab.dp")


def test_an_unknown_name_is_an_attribute_error_naming_it():
    with pytest.raises(AttributeError, match="'no_such_name'"):
        impactlab.no_such_name  # noqa: B018
    with pytest.raises(ImportError, match="no_such_name"):
        exec("from impactlab import no_such_name", {})
