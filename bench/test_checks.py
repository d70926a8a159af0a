"""Each output check accepts the program's outputs and rejects a copy with one
value perturbed.  Outputs come from small in-process CLI runs of the same
workload definitions the benchmark uses.

    python3 -m pytest -q bench/test_checks.py
"""

import json
import shutil
import sys
from pathlib import Path

import numpy as np
import pytest

BENCH = Path(__file__).resolve().parent
sys.path[:0] = [str(BENCH.parent / "src"), str(BENCH)]

import impactlab.cli  # noqa: E402
from checks import CheckFailed  # noqa: E402
from workloads import Fields, Lattice, MonteCarlo  # noqa: E402

SEED = 3


def small_lattice():
    w = Lattice(SEED)
    w.N_LIST, w.DP_N, w.API_N = [2, 4, 8], 6, 4
    return w


def small_fields():
    w = Fields(SEED)
    w.TIMES, w.W_RANGE = [0.0, 0.5], (-1.0, 1.0, 5)
    w.API_TIMES, w.API_W = [0.0, 0.5], np.linspace(-1.0, 1.0, 3)
    return w


def small_montecarlo():
    w = MonteCarlo(SEED)
    w.CLI_PATHS, w.CLI_GRID, w.API_PATHS = 3, 40, 2000
    return w


def run_op(op, directory):
    config = directory / f"{op.mode}.json"
    config.write_text(json.dumps(op.config), encoding="utf-8")
    out = directory / op.mode
    assert impactlab.cli.main([op.mode, "--config", str(config), "--out", str(out), "--quiet"]) == 0
    return out


def perturbed_copy(out, tmp_path, name, row, column, new=None, delta=1e-6):
    """Copy of an output directory with one CSV field changed."""
    copy = tmp_path / "perturbed"
    shutil.copytree(out, copy)
    path = copy / name
    lines = path.read_text(encoding="utf-8").splitlines()
    header = lines[0].split(",")
    fields = lines[row + 1].split(",")
    i = header.index(column)
    fields[i] = new if new is not None else repr(float(fields[i]) + delta)
    lines[row + 1] = ",".join(fields)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return copy


@pytest.fixture(scope="module")
def outputs(tmp_path_factory):
    """(workload, op, output dir) for every CLI op of the three small workloads."""
    directory = tmp_path_factory.mktemp("outputs")
    found = {}
    for workload in (small_lattice(), small_fields(), small_montecarlo()):
        for op in workload.cli_ops():
            found[op.mode] = (workload, op, run_op(op, directory))
    return found


PERTURBATIONS = [
    ("convergence", "convergence.csv", 2, "value", None),
    ("convergence", "convergence.csv", 1, "error", None),
    ("dp-value", "dp_value.csv", 0, "value", None),
    ("dp-value", "dp_value.csv", 0, "pi0_g", None),
    ("dp-value", "dp_value.csv", 0, "root_policy", None),
    ("dp-value", "dp_buy_and_hold.csv", 0, "y_star", None),
    ("dp-value", "dp_buy_and_hold.csv", 0, "is_buy_and_hold", "false"),
    ("dp-value", "dp_buy_and_hold.csv", 0, "value_gap", "1e-07"),
    ("dp-value", "dp_emm.csv", 0, "s_star_root", None),
    ("markov-fields", "markov_fields.csv", 3, "v", None),
    ("markov-fields", "markov_fields.csv", 4, "u", None),
    ("markov-fields", "markov_fields.csv", 5, "p", None),
    ("markov-fields", "markov_fields.csv", 6, "q", None),
    ("markov-fields", "markov_fields.csv", 7, "y_star", None),
    ("markov-fields", "markov_fields.csv", 8, "s_star", None),
    ("levy-sim", "levy_path_001.csv", 0, "x", "1e-300"),
    ("levy-sim", "levy_path_001.csv", 10, "y_star", None),
    ("levy-sim", "levy_path_001.csv", 11, "s_star", None),
    ("levy-sim", "levy_path_001.csv", 12, "risk_premium", None),
    ("levy-sim", "levy_path_001.csv", 13, "convexity", None),
    ("levy-sim", "levy_path_001.csv", 14, "h_prime", None),
    ("levy-sim", "levy_summary.csv", 1, "terminal_wealth", None),
    ("levy-sim", "levy_summary.csv", 2, "trading_pnl", None),
    ("levy-sim", "levy_summary.csv", 0, "allocation_value", None),
    ("shockwave", "shockwave_path_002.csv", 0, "W", "1e-300"),
    ("shockwave", "shockwave_path_002.csv", 20, "S_star", None),
    ("shockwave", "shockwave_path_002.csv", 21, "Y_star", None),
    ("shockwave", "shockwave_path_002.csv", 22, "wave_position", None),
]


@pytest.mark.parametrize("mode", ["convergence", "dp-value", "markov-fields", "levy-sim", "shockwave"])
def test_check_accepts_program_output(outputs, mode):
    _, op, out = outputs[mode]
    op.check(out)
    op.check(out)  # a rerun compared with the first digest


@pytest.mark.parametrize("mode,name,row,column,new", PERTURBATIONS)
def test_check_rejects_one_perturbed_value(outputs, tmp_path, mode, name, row, column, new):
    _, op, out = outputs[mode]
    copy = perturbed_copy(out, tmp_path, name, row, column, new)
    with pytest.raises(CheckFailed):
        op.check_values(copy)  # the value checks alone, without the rerun digest


@pytest.mark.parametrize("mode", ["levy-sim", "shockwave"])
def test_rerun_digest_rejects_changed_bytes(outputs, tmp_path, mode):
    _, op, out = outputs[mode]
    op.first_digest = None
    op.check(out)
    copy = tmp_path / "rerun"
    shutil.copytree(out, copy)
    target = sorted(copy.glob("*_path_*.csv"))[0]
    header, first, rest = target.read_bytes().split(b"\n", 2)
    # the same numbers in other bytes: t = 0 written as 0.0
    target.write_bytes(b"\n".join((header, first.replace(b"0,", b"0.0,", 1), rest)))
    op.check_values(copy)
    with pytest.raises(CheckFailed):
        op.check(copy)


def test_convergence_check_rejects_errors_that_stall(outputs, tmp_path):
    workload, op, out = outputs["convergence"]
    from checks import quadratic_limit, read_csv

    header, rows = read_csv(out / "convergence.csv")
    limit = quadratic_limit(workload.quad)
    # the last value moved to the error of its predecessor: rows still agree
    # with the limit, but the error no longer falls
    stalled = limit + (rows[-2, 1] - limit)
    copy = perturbed_copy(out, tmp_path, "convergence.csv", len(rows) - 1, "value", repr(float(stalled)))
    copy = perturbed_copy(copy, tmp_path / "b", "convergence.csv", len(rows) - 1, "error", repr(float(abs(stalled - limit))))
    with pytest.raises(CheckFailed):
        op.check_values(copy)


@pytest.mark.parametrize("factory", [small_lattice, small_fields, small_montecarlo])
def test_api_check_accepts_and_rejects(factory):
    workload = factory()
    workload.build()
    refs = workload.references()
    result = workload.api_pass()
    workload.check_api(result, refs)
    if isinstance(workload, Lattice):
        small, report = result
        bad = ([small[0] + 1e-8] + small[1:], report)
    elif isinstance(workload, Fields):
        quad, wave = result
        bad = (quad, [wave[0] + 1e-6] + wave[1:])
    else:
        ce, endowment, terminal, x1 = result
        bad = (ce + 1e-9, endowment, terminal, x1)
    with pytest.raises(CheckFailed):
        workload.check_api(bad, refs)


def test_allocation_check_rejects_a_shifted_wealth_sample():
    workload = small_montecarlo()
    workload.build()
    ce, endowment, terminal, x1 = workload.api_pass()
    from checks import ce_with_se

    shifted = terminal + 10 * ce_with_se(terminal, workload.levy["c"])[1]
    ce_shifted = ce_with_se(shifted, workload.levy["c"])[0]
    with pytest.raises(CheckFailed):
        workload.check_api((ce_shifted, endowment, shifted, x1), None)
