"""End-to-end CLI runs: exit codes, dotted-field errors, byte-stable CSV output."""

import csv
import hashlib
import importlib.util
import io
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
import yaml
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from impactlab import cli, markov
from impactlab.cli import emit_csv, main
from impactlab.cumulants import GammaProcess
from impactlab.dp import DpScenario, Lattice, emm_eipu
from impactlab.efficient import LevyScenario, allocation_value, efficient_path_record
from impactlab.errors import QuadratureError
from impactlab.markov import QuadraticModel, quadratic_closed_forms
from impactlab.paths import PathGrid, ShockSchedule, simulate_path
from impactlab.utility import AgentPair


def write_config(tmp_path, data, name="scenario.yaml"):
    p = tmp_path / name
    p.write_text(yaml.safe_dump(data), encoding="utf-8")
    return str(p)


def read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))
    return rows[0], rows[1:]


def levy_config(out, **overrides):
    data = {
        "schema_version": 1,
        "mode": "levy-sim",
        "seed": 7,
        "paths": 2,
        "grid": 16,
        "out": str(out),
        "agents": {"gamma": 1.0, "c": 1.0},
        "loading": 1.0,
        "model": {"family": "gamma", "alpha": 4.0, "beta": 1.0},
        "schedule": {"initial_value": 0.0, "h": 0.0, "shocks": [[0.5, 0.25]]},
    }
    data.update(overrides)
    return data


def stderr_record(capsys):
    err = capsys.readouterr().err.strip().splitlines()
    return json.loads(err[-1])


# ---------------------------------------------------------------------------
# levy-sim


def test_levy_sim_outputs_and_reruns_byte_identical(tmp_path, capsys):
    out_a, out_b = tmp_path / "a", tmp_path / "b"
    cfg = write_config(tmp_path, levy_config(out_a))
    assert main(["levy-sim", "--config", cfg, "--quiet"]) == 0
    assert main(["levy-sim", "--config", cfg, "--quiet", "--out", str(out_b)]) == 0

    names = sorted(p.name for p in out_a.iterdir())
    assert names == ["levy_path_000.csv", "levy_path_001.csv", "levy_summary.csv"]
    for name in names:
        assert (out_a / name).read_bytes() == (out_b / name).read_bytes()

    header, rows = read_csv(out_a / "levy_path_000.csv")
    assert header == ["t", "x", "h_prime", "y_star", "s_star", "risk_premium", "convexity"]
    assert len(rows) == 17  # grid + 1 levels
    assert float(rows[0][0]) == 0.0 and float(rows[0][1]) == 0.0
    assert float(rows[-1][0]) == 1.0

    header, rows = read_csv(out_a / "levy_summary.csv")
    assert header == ["path", "endowment_payoff", "trading_pnl", "terminal_wealth", "allocation_value"]
    assert [r[0] for r in rows] == ["0", "1"]


def test_levy_sim_columns_match_library(tmp_path):
    out = tmp_path / "o"
    cfg = write_config(tmp_path, levy_config(out))
    assert main(["levy-sim", "--config", cfg, "--quiet"]) == 0

    model = GammaProcess(alpha=4.0, beta=1.0)
    agents = AgentPair(gamma=1.0, c=1.0)
    grid = PathGrid(16)
    schedule = ShockSchedule(initial_value=0.0, shocks=((0.5, 0.25),), h=0.0)
    scenario = LevyScenario(model, agents, 1.0, schedule, grid)

    for k in (0, 1):
        record = efficient_path_record(scenario, simulate_path(model, grid, schedule, 7, k))
        _, rows = read_csv(out / f"levy_path_{k:03d}.csv")
        got = np.array([[float(v) for v in row] for row in rows])
        assert np.array_equal(got[:, 1], record.x)
        assert np.array_equal(got[:, 3], record.y_star)
        assert np.array_equal(got[:, 4], record.s_star)
        assert np.array_equal(got[:, 6], record.convexity)

    _, srows = read_csv(out / "levy_summary.csv")
    assert float(srows[0][4]) == allocation_value(scenario)


def test_levy_sim_flag_overrides(tmp_path):
    out = tmp_path / "o"
    cfg = write_config(tmp_path, levy_config(out))
    assert main(["levy-sim", "--config", cfg, "--quiet", "--paths", "1", "--grid", "8"]) == 0
    assert sorted(p.name for p in out.iterdir()) == ["levy_path_000.csv", "levy_summary.csv"]
    _, rows = read_csv(out / "levy_path_000.csv")
    assert len(rows) == 9

    # a different seed must change the sampled increments
    out2 = tmp_path / "o2"
    assert main(["levy-sim", "--config", cfg, "--quiet", "--out", str(out2), "--seed", "8"]) == 0
    a = read_csv(out / "levy_path_000.csv")[1]
    b = read_csv(out2 / "levy_path_000.csv")[1]
    assert a != b


def test_levy_sim_accepts_infinite_c(tmp_path):
    out = tmp_path / "o"
    data = levy_config(out)
    data["agents"] = {"gamma": 1.0, "c": "inf"}
    cfg = write_config(tmp_path, data)
    assert main(["levy-sim", "--config", cfg, "--quiet"]) == 0
    _, rows = read_csv(out / "levy_path_000.csv")
    # c = inf pins the position at -h' along the whole grid
    assert all(float(r[3]) == -float(r[2]) for r in rows)
    assert any(float(r[2]) == 0.25 for r in rows)


def test_exponent_floats_without_a_point_are_numbers(tmp_path):
    # YAML 1.1 reads 1e-05 as a string; json.dumps writes small floats that way
    runs = {}
    for text in ("1e-05", "1.0e-05"):
        out = tmp_path / text
        cfg = tmp_path / f"{text}.yaml"
        data = levy_config(out, loading=0.5)
        cfg.write_text(yaml.safe_dump(data).replace("loading: 0.5", f"loading: {text}"),
                       encoding="utf-8")
        assert main(["levy-sim", "--config", str(cfg), "--quiet"]) == 0
        runs[text] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert runs["1e-05"] == runs["1.0e-05"]


@pytest.mark.parametrize("text", ['"1e-05"', "1e-05x", "e5", "1e"])
def test_strings_that_resemble_exponent_floats_are_refused(tmp_path, capsys, text):
    cfg = tmp_path / "scenario.yaml"
    data = levy_config(tmp_path / "o", loading=0.5)
    cfg.write_text(yaml.safe_dump(data).replace("loading: 0.5", f"loading: {text}"),
                   encoding="utf-8")
    assert main(["levy-sim", "--config", str(cfg)]) == 2
    record = stderr_record(capsys)
    assert record["field"] == "loading" and "must be a number" in record["message"]


@pytest.mark.parametrize("sign", [1, -1])
def test_a_number_too_large_for_a_float_is_refused_as_not_finite(tmp_path, capsys, sign):
    # float() of these ints raises OverflowError, which used to exit 3 naming no field
    huge = sign * 10**330
    cfg = write_config(tmp_path, levy_config(tmp_path / "o", loading=huge))
    assert main(["levy-sim", "--config", cfg]) == 2
    assert stderr_record(capsys) == {
        "error": "ConfigError", "field": "loading", "message": "loading: must be finite"
    }
    data = markov_config(tmp_path / "m")
    data["times"] = [huge, 0.5]
    cfg = write_config(tmp_path, data)
    assert main(["markov-fields", "--config", cfg]) == 2
    assert stderr_record(capsys) == {
        "error": "ConfigError", "field": "times[0]", "message": "times[0]: must be finite"
    }


def test_a_demander_aversion_too_large_for_a_float_reads_as_inf(tmp_path, capsys):
    runs = {}
    for c in ("inf", 10**400):
        out = tmp_path / str(len(runs))
        cfg = write_config(tmp_path, levy_config(out, agents={"gamma": 1.0, "c": c}))
        assert main(["levy-sim", "--config", cfg, "--quiet"]) == 0
        runs[c] = {p.name: p.read_bytes() for p in out.iterdir()}
    assert runs["inf"] == runs[10**400]
    cfg = write_config(tmp_path, levy_config(tmp_path / "n", agents={"gamma": 1.0, "c": -10**400}))
    assert main(["levy-sim", "--config", cfg]) == 2
    assert stderr_record(capsys)["message"] == "agents.c: must be > 0"


def test_stable_levy_sim_with_a_tiny_argument_warns_nothing(tmp_path):
    # kappa'' overflows to its exact limit -inf at abar*(a + h') = 1e-300 / 2
    out = tmp_path / "o"
    data = levy_config(out, agents={"gamma": 0.5, "c": "inf"}, loading=1.0e-300, grid=4,
                       paths=1, model={"family": "stable", "r": 1.0, "alpha": 0.5},
                       schedule={"initial_value": 0.0, "h": 0.0, "shocks": []})
    cfg = write_config(tmp_path, data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["levy-sim", "--config", cfg, "--quiet"]) == 0
    _, rows = read_csv(out / "levy_path_000.csv")
    assert [r[6] for r in rows] == ["inf"] * 4 + ["0"]


# ---------------------------------------------------------------------------
# config errors


def test_missing_config_flag(capsys):
    assert main(["levy-sim"]) == 2
    assert stderr_record(capsys)["field"] == "config"


def test_wrong_schema_version(tmp_path, capsys):
    cfg = write_config(tmp_path, levy_config(tmp_path, schema_version=2))
    assert main(["levy-sim", "--config", cfg]) == 2
    rec = stderr_record(capsys)
    assert rec["field"] == "schema_version" and rec["error"] == "ConfigError"


def test_mode_mismatch(tmp_path, capsys):
    cfg = write_config(tmp_path, levy_config(tmp_path))
    assert main(["markov-fields", "--config", cfg]) == 2
    assert stderr_record(capsys)["field"] == "mode"


def test_unknown_keys_rejected(tmp_path, capsys):
    cfg = write_config(tmp_path, levy_config(tmp_path, mystery=1))
    assert main(["levy-sim", "--config", cfg]) == 2
    assert stderr_record(capsys)["field"] == "mystery"

    data = levy_config(tmp_path)
    data["model"]["zzz"] = 1.0
    cfg = write_config(tmp_path, data)
    assert main(["levy-sim", "--config", cfg]) == 2
    assert stderr_record(capsys)["field"] == "model.zzz"


def test_agent_and_domain_validation(tmp_path, capsys):
    data = levy_config(tmp_path)
    data["agents"]["gamma"] = -1.0
    cfg = write_config(tmp_path, data)
    assert main(["levy-sim", "--config", cfg]) == 2
    assert stderr_record(capsys)["field"] == "agents.gamma"

    # gamma * loading falls outside the gamma-family cumulant domain
    cfg = write_config(tmp_path, levy_config(tmp_path, loading=-8.0))
    assert main(["levy-sim", "--config", cfg]) == 2
    assert stderr_record(capsys)["field"] == "loading"

    data = levy_config(tmp_path)
    data["schedule"]["shocks"] = [[0.5, 0.25], [0.25, 0.1]]
    cfg = write_config(tmp_path, data)
    assert main(["levy-sim", "--config", cfg]) == 2
    assert stderr_record(capsys)["field"] == "schedule.shocks[1]"


def test_invalid_yaml_and_missing_file(tmp_path, capsys):
    bad = tmp_path / "bad.yaml"
    bad.write_text("mode: [unclosed", encoding="utf-8")
    assert main(["levy-sim", "--config", str(bad)]) == 2
    assert stderr_record(capsys)["field"] == "config"
    assert main(["levy-sim", "--config", str(tmp_path / "absent.yaml")]) == 2
    assert stderr_record(capsys)["field"] == "config"


def test_negative_seed_flag(tmp_path, capsys):
    cfg = write_config(tmp_path, levy_config(tmp_path))
    assert main(["levy-sim", "--config", cfg, "--seed", "-1"]) == 2
    assert stderr_record(capsys)["field"] == "--seed"


def test_unwritable_out_dir_exits_3(tmp_path, capsys):
    blocker = tmp_path / "file"
    blocker.write_text("x", encoding="utf-8")
    cfg = write_config(tmp_path, levy_config(blocker / "sub"))
    assert main(["levy-sim", "--config", cfg, "--quiet"]) == 3
    assert "Error" in stderr_record(capsys)["error"]


# ---------------------------------------------------------------------------
# markov-fields


def markov_config(out):
    return {
        "schema_version": 1,
        "mode": "markov-fields",
        "out": str(out),
        "agents": {"gamma": 1.0, "c": 2.0},
        "model": {
            "kind": "quadratic",
            "g_load": 0.4,
            "mu": 0.1,
            "sigma": 1.3,
            "a_lin": 0.7,
            "b_quad": 0.5,
            "h_const": 0.2,
        },
        "times": [0.0, 0.5],
        "w": {"min": -1.0, "max": 1.0, "count": 3},
        "order": 128,
        "inventory": 0.3,
    }


def test_markov_fields_table(tmp_path):
    out = tmp_path / "o"
    cfg = write_config(tmp_path, markov_config(out))
    assert main(["markov-fields", "--config", cfg, "--quiet"]) == 0
    header, rows = read_csv(out / "markov_fields.csv")
    assert header == ["t", "w", "v", "u", "p", "q", "y_star", "s_star"]
    assert len(rows) == 6

    model = QuadraticModel(
        g_load=0.4, mu=0.1, sigma=1.3, a_lin=0.7, b_quad=0.5,
        agents=AgentPair(gamma=1.0, c=2.0), h_const=0.2,
    )
    for row in rows:
        t, w = float(row[0]), float(row[1])
        forms = quadratic_closed_forms(model, t, w)
        assert float(row[6]) == pytest.approx(forms.y_star, rel=1e-12)
        assert float(row[7]) == pytest.approx(forms.s_star, rel=1e-12)
        assert float(row[2]) == pytest.approx(forms.v, abs=1e-9)


def test_markov_fields_validation(tmp_path, capsys):
    data = markov_config(tmp_path)
    data["times"] = [0.0, 1.0]
    cfg = write_config(tmp_path, data)
    assert main(["markov-fields", "--config", cfg]) == 2
    assert stderr_record(capsys)["field"] == "times[1]"

    data = markov_config(tmp_path)
    data["order"] = 384
    cfg = write_config(tmp_path, data)
    assert main(["markov-fields", "--config", cfg]) == 2
    assert stderr_record(capsys)["field"] == "order"

    data = markov_config(tmp_path)
    data["w"] = {"min": 1.0, "max": -1.0, "count": 3}
    cfg = write_config(tmp_path, data)
    assert main(["markov-fields", "--config", cfg]) == 2
    assert stderr_record(capsys)["field"] == "w.max"

    # gamma = c = 4 gives abar = 2; b_quad = -0.6 breaches the curvature bound
    data = markov_config(tmp_path)
    data["agents"] = {"gamma": 4.0, "c": 4.0}
    data["model"]["b_quad"] = -0.6
    cfg = write_config(tmp_path, data)
    assert main(["markov-fields", "--config", cfg]) == 2
    assert stderr_record(capsys)["field"] == "model.b_quad"


# ---------------------------------------------------------------------------
# shockwave


def shockwave_config(out):
    return {
        "schema_version": 1,
        "mode": "shockwave",
        "seed": 3,
        "paths": 1,
        "grid": 12,
        "out": str(out),
        "agents": {"gamma": 4.0, "c": 4.0},
        "model": {"mu": 0.0, "sigma": 1.0, "w_c": -0.6},
    }


def test_shockwave_exact_header_and_determinism(tmp_path):
    out = tmp_path / "o"
    cfg = write_config(tmp_path, shockwave_config(out))
    assert main(["shockwave", "--config", cfg, "--quiet"]) == 0
    target = out / "shockwave_path_000.csv"
    first_line = target.read_text(encoding="utf-8").splitlines()[0]
    assert first_line == "t,W,S_star,Y_star,wave_position"
    _, rows = read_csv(target)
    assert len(rows) == 13
    # wave front ends at -w_c when t = 1
    assert float(rows[-1][4]) == pytest.approx(0.6)
    before = target.read_bytes()
    assert main(["shockwave", "--config", cfg, "--quiet"]) == 0
    assert target.read_bytes() == before


def test_shockwave_rejects_foreign_kind(tmp_path, capsys):
    data = shockwave_config(tmp_path)
    data["model"]["kind"] = "quadratic"
    cfg = write_config(tmp_path, data)
    assert main(["shockwave", "--config", cfg]) == 2
    assert stderr_record(capsys)["field"] == "model.kind"

    data = shockwave_config(tmp_path)
    data["agents"] = {"gamma": 0.0, "c": 1.0}
    cfg = write_config(tmp_path, data)
    assert main(["shockwave", "--config", cfg]) == 2
    assert stderr_record(capsys)["field"] == "agents.gamma"


# ---------------------------------------------------------------------------
# all-or-nothing output and bounded memory


def split_config(mode, out):
    """40 paths of 1,000 steps: one block, split between up to 3 writers."""
    if mode == "levy-sim":
        return levy_config(out, paths=40, grid=1000)
    return dict(shockwave_config(out), paths=40, grid=1000)


def use_cpus(monkeypatch, count):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(count)))


@pytest.mark.parametrize("fail_at", [0, 3, "child", "parent"])
@pytest.mark.parametrize("mode", ["levy-sim", "shockwave"])
def test_path_modes_write_all_or_nothing(tmp_path, monkeypatch, capsys, mode, fail_at):
    """A failure at the fail_at-th file of a one-writer run, or, in a run split
    between two writers, at a file of the forked writer's share (path 30) or
    of this process's share (path 5, while the other writer runs)."""
    out = tmp_path / "o"
    if isinstance(fail_at, int):
        data = levy_config(out, paths=5) if mode == "levy-sim" else shockwave_config(out)
        data["paths"] = 5
    else:
        use_cpus(monkeypatch, 2)
        data = split_config(mode, out)
    cfg = write_config(tmp_path, data)
    real, calls = cli.emit_csv, []
    target = {"child": "_030.csv", "parent": "_005.csv"}.get(fail_at)

    def failing(path, *args, **kwargs):
        calls.append(path)  # in this process only: a forked writer appends to its copy
        if (path.name.endswith(target) if target else len(calls) == fail_at + 1):
            raise OSError(f"injected failure at {path.name}")
        return real(path, *args, **kwargs)

    monkeypatch.setattr(cli, "emit_csv", failing)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main([mode, "--config", cfg]) == 3
    captured = capsys.readouterr()
    assert "injected" in json.loads(captured.err.strip().splitlines()[-1])["message"]
    assert len(captured.err.strip().splitlines()) == 1  # the record, and no warning
    assert "wrote" not in captured.out
    assert not out.exists()  # no CSV, no staging directory, and no directory made
    with pytest.raises(ChildProcessError):  # every writer was reaped
        os.waitpid(-1, os.WNOHANG)
    monkeypatch.setattr(cli, "emit_csv", real)
    assert main([mode, "--config", cfg, "--quiet"]) == 0
    assert len(list(out.iterdir())) == data["paths"] + (mode == "levy-sim")


@pytest.mark.parametrize("mode", ["levy-sim", "shockwave"])
def test_path_file_bytes_do_not_depend_on_the_writer_count(tmp_path, monkeypatch, mode):
    real_fork, forks, digests = os.fork, [], {}

    def fork():
        forks.append(os.getpid())
        return real_fork()

    monkeypatch.setattr(os, "fork", fork)
    for cpus in (1, 2, 3):
        use_cpus(monkeypatch, cpus)
        out = tmp_path / f"o{cpus}"
        assert main([mode, "--config", write_config(tmp_path, split_config(mode, out)),
                     "--quiet"]) == 0
        digests[cpus] = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
                         for p in out.iterdir()}
    assert len(forks) == 0 + 1 + 2  # one writer, then two, then three
    assert len(digests[1]) == 40 + (mode == "levy-sim")
    assert digests[2] == digests[1] and digests[3] == digests[1]
    forks.clear()  # 3 paths x 64 steps: too few values for a second writer
    small = write_config(tmp_path, _recorded_run_config(mode, tmp_path / "small"))
    assert main([mode, "--config", small, "--quiet"]) == 0
    assert forks == []


def test_markov_fields_failure_mid_table_writes_nothing(tmp_path, monkeypatch, capsys):
    out = tmp_path / "o"
    cfg = write_config(tmp_path, markov_config(out))
    real, calls = cli._state_fields, []

    def failing(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:  # the rows of the first t are already written
            raise QuadratureError("injected failure at the second t")
        return real(*args, **kwargs)

    monkeypatch.setattr(cli, "_state_fields", failing)
    assert main(["markov-fields", "--config", cfg]) == 3
    assert stderr_record(capsys)["error"] == "QuadratureError"
    assert not out.exists()


@pytest.mark.parametrize("mode", ["levy-sim", "markov-fields"])
def test_failed_run_leaves_an_existing_out_and_its_files(tmp_path, monkeypatch, capsys, mode):
    out = tmp_path / "o"
    out.mkdir()
    (out / "notes.txt").write_text("kept", encoding="utf-8")
    cfg = write_config(tmp_path, levy_config(out) if mode == "levy-sim" else markov_config(out))

    def failing(*args, **kwargs):
        raise OSError("injected failure")

    monkeypatch.setattr(cli, "emit_csv", failing)
    assert main([mode, "--config", cfg, "--quiet"]) == 3
    assert "injected" in stderr_record(capsys)["message"]
    assert [p.name for p in out.iterdir()] == ["notes.txt"]
    assert (out / "notes.txt").read_text(encoding="utf-8") == "kept"
    # an existing empty directory stays too
    (out / "notes.txt").unlink()
    assert main([mode, "--config", cfg, "--quiet"]) == 3
    assert out.is_dir() and list(out.iterdir()) == []


def test_markov_fields_memory_does_not_grow_with_times(tmp_path):
    """The table is written one block of states at a time, never held whole."""

    def peak(n_times):
        data = markov_config(tmp_path / f"o{n_times}")
        data.update(times=[i / (n_times + 1) for i in range(n_times)], order=16)
        data["w"] = {"min": -1.0, "max": 1.0, "count": 1000}
        cfg = write_config(tmp_path, data, f"fields{n_times}.yaml")
        tracemalloc.start()
        try:
            assert main(["markov-fields", "--config", cfg, "--quiet"]) == 0
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    peak(1)  # first-call allocations
    few, many = peak(2), peak(8)
    assert many < 1.1 * few, (few, many)


# ---------------------------------------------------------------------------
# dp-value and convergence


def dp_config(out, **overrides):
    data = {
        "schema_version": 1,
        "mode": "dp-value",
        "out": str(out),
        "agents": {"gamma": 1.0, "c": 1.0},
        "model": {
            "kind": "quadratic",
            "g_load": 0.0,
            "mu": 0.0,
            "sigma": 1.0,
            "a_lin": 1.0,
            "b_quad": 0.0,
            "h_const": 0.0,
        },
        "lattice_n": 6,
        "admissible": {"lo": -1.0, "hi": 1.0},
        "y_resolution": 0.001,
        "buy_and_hold": True,
        "emm_root": True,
    }
    data.update(overrides)
    return data


def test_dp_value_mode(tmp_path):
    out = tmp_path / "o"
    cfg = write_config(tmp_path, dp_config(out))
    assert main(["dp-value", "--config", cfg, "--quiet"]) == 0

    header, rows = read_csv(out / "dp_value.csv")
    assert header == ["n", "value", "root_policy", "pi0_g"]
    assert len(rows) == 1 and rows[0][0] == "6"
    # H = S = W_1 with gamma = c: finite-n value sits near -abar/2 = -0.25
    assert float(rows[0][1]) == pytest.approx(-0.25, abs=0.01)
    assert float(rows[0][2]) == pytest.approx(-0.5, abs=1e-6)

    header, rows = read_csv(out / "dp_buy_and_hold.csv")
    assert header == ["y_star", "is_buy_and_hold", "value_gap", "max_policy_deviation"]
    assert float(rows[0][0]) == pytest.approx(-0.5)
    assert rows[0][1] == "true"
    assert abs(float(rows[0][2])) < 1e-9

    header, rows = read_csv(out / "dp_emm.csv")
    assert header == ["n", "s_star_root"]
    model = QuadraticModel(
        g_load=0.0, mu=0.0, sigma=1.0, a_lin=1.0, b_quad=0.0, agents=AgentPair(1.0, 1.0)
    )
    scn = DpScenario(Lattice(6), model.payoffs(), (-1.0, 1.0), 0.001)
    assert float(rows[0][1]) == emm_eipu(scn, 0, 0)


def test_dp_value_trivial_market(tmp_path):
    out = tmp_path / "o"
    data = dp_config(out, buy_and_hold=False, emm_root=False)
    data["model"]["a_lin"] = 0.0
    cfg = write_config(tmp_path, data)
    assert main(["dp-value", "--config", cfg, "--quiet"]) == 0
    _, rows = read_csv(out / "dp_value.csv")
    assert abs(float(rows[0][1])) < 1e-9
    assert not (out / "dp_buy_and_hold.csv").exists()
    assert not (out / "dp_emm.csv").exists()


def test_dp_black_scholes_symmetric_root_price(tmp_path):
    out = tmp_path / "o"
    data = dp_config(out, buy_and_hold=False)
    data["model"] = {"kind": "black-scholes", "zeta": 1.0, "sigma": 0.5, "alpha": 1.0, "mu": 0.0}
    data["lattice_n"] = 16
    cfg = write_config(tmp_path, data)
    assert main(["dp-value", "--config", cfg, "--quiet"]) == 0
    _, rows = read_csv(out / "dp_emm.csv")
    # gamma = c and alpha = 1 balance the tilts exactly at every n
    assert float(rows[0][1]) == pytest.approx(1.0, abs=1e-12)


def test_dp_buy_and_hold_needs_proportional_endowment(tmp_path, capsys):
    # quadratic endowment with b_quad != 0: G - y*S is never proportional to G + H
    out = tmp_path / "o"
    data = dp_config(out, lattice_n=16, admissible={"lo": -2.0, "hi": 2.0}, refine=True)
    data["model"].update(g_load=0.2, a_lin=0.5, b_quad=0.3)
    cfg = write_config(tmp_path, data)
    assert main(["dp-value", "--config", cfg]) == 2
    assert stderr_record(capsys)["field"] == "buy_and_hold"
    assert not out.exists() or not list(out.iterdir())


def test_dp_value_runs_recursion_once(tmp_path, monkeypatch):
    import impactlab.cli
    import impactlab.dp

    calls = []
    original = impactlab.dp.value_recursion

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(impactlab.dp, "value_recursion", counted)
    monkeypatch.setattr(impactlab.cli, "value_recursion", counted)
    cfg = write_config(tmp_path, dp_config(tmp_path / "o"))
    assert main(["dp-value", "--config", cfg, "--quiet"]) == 0
    assert (tmp_path / "o" / "dp_buy_and_hold.csv").exists()
    assert len(calls) == 1


def test_dp_admissible_validation(tmp_path, capsys):
    data = dp_config(tmp_path)
    data["admissible"] = {"lo": 0.5, "hi": 1.0}
    cfg = write_config(tmp_path, data)
    assert main(["dp-value", "--config", cfg]) == 2
    assert stderr_record(capsys)["field"] == "admissible.lo"

    data = dp_config(tmp_path)
    data["y_resolution"] = 1e-9
    cfg = write_config(tmp_path, data)
    assert main(["dp-value", "--config", cfg]) == 2
    assert stderr_record(capsys)["field"] == "y_resolution"


def convergence_config(out):
    data = dp_config(out, buy_and_hold=False, emm_root=False)
    data["mode"] = "convergence"
    del data["lattice_n"]
    del data["buy_and_hold"]
    del data["emm_root"]
    data["n_list"] = [2, 4, 8]
    data["y_resolution"] = 0.01
    return data


def test_convergence_mode(tmp_path):
    out = tmp_path / "o"
    cfg = write_config(tmp_path, convergence_config(out))
    assert main(["convergence", "--config", cfg, "--quiet"]) == 0
    header, rows = read_csv(out / "convergence.csv")
    assert header == ["n", "value", "error"]
    assert [r[0] for r in rows] == ["2", "4", "8"]
    errors = [float(r[2]) for r in rows]
    assert errors[0] > errors[1] > errors[2]
    for row in rows:
        # default limit comes from the quadrature fields: -abar/2 = -0.25 here
        assert float(row[2]) == pytest.approx(abs(float(row[1]) + 0.25), abs=1e-10)


def test_convergence_n_list_validation(tmp_path, capsys):
    data = convergence_config(tmp_path)
    data["n_list"] = [4, 4]
    cfg = write_config(tmp_path, data)
    assert main(["convergence", "--config", cfg]) == 2
    assert stderr_record(capsys)["field"] == "n_list[1]"


@pytest.mark.parametrize("mode", ["dp-value", "convergence"])
def test_dp_memory_estimate_refuses_before_any_output(tmp_path, capsys, monkeypatch, mode):
    # n = 64 on 2e6 grid points would hold ~10 GB with refinement off, which
    # scans the whole grid; refused while validating
    def never(*args, **kwargs):
        raise AssertionError("the recursion must not start")

    monkeypatch.setattr(cli, "value_recursion", never)
    monkeypatch.setattr(cli, "convergence_study", never)
    out = tmp_path / "o"
    data = convergence_config(out) if mode == "convergence" else dp_config(out)
    data.update(admissible={"lo": -1.0, "hi": 1.0}, y_resolution=1e-6, refine=False)
    if mode == "convergence":
        data["n_list"] = [2, 64]
    else:
        data["lattice_n"] = 64
    cfg = write_config(tmp_path, data)
    assert main([mode, "--config", cfg]) == 2
    record = stderr_record(capsys)
    assert record["field"] == "y_resolution" and "GiB" in record["message"]
    assert not out.exists()


def test_dp_memory_estimate_accepts_documented_sizes():
    # README and benchmark runs (n <= 32 on <= 4001 points) sit far inside the
    # budget, and so does a 512-level lattice on the README grid
    agents = AgentPair(1.0, 1.0)
    for n, lo, hi, res in [(16, -2.0, 2.0, 1e-3), (32, -2.0, 2.0, 1e-3),
                           (20, -1.0, 1.0, 1e-3), (512, -2.0, 2.0, 1e-3)]:
        data = dp_config(".", admissible={"lo": lo, "hi": hi}, y_resolution=res)
        scenario = cli._dp_scenario(cli.Section(data), agents, n)
        assert scenario.lattice.n == n and scenario.y_grid().size == round((hi - lo) / res) + 1
    assert cli._DP_BYTES_PER_CELL * (64 + 2) * 2_000_001 > cli._DP_MEMORY_BUDGET


def test_dp_memory_estimate_follows_the_scan_grid_with_refine_on(tmp_path, capsys, monkeypatch):
    # refinement carries the menus on at most 66 scan points, so n = 64 on 2e6
    # grid points fits; the leaf windows still refuse a lattice of 10^4 levels
    agents = AgentPair(1.0, 1.0)
    data = dp_config(".", admissible={"lo": -1.0, "hi": 1.0}, y_resolution=1e-6)
    scenario = cli._dp_scenario(cli.Section(data), agents, 64, refine=True)
    assert scenario.y_grid().size == 2_000_001
    # the grid is what is too fine at n = 64 with refinement off; at n = 10^4 the
    # leaf windows alone exceed the budget on any grid, so the lattice is named
    for n, refine, field in ((64, False, "y_resolution"), (10_000, True, "lattice_n")):
        with pytest.raises(cli.ConfigError) as refused:
            cli._dp_scenario(cli.Section(data), agents, n, refine=refine)
        assert refused.value.field == field and "GiB" in str(refused.value)

    # on the command line, the field that set the largest lattice is named
    def never(*args, **kwargs):
        raise AssertionError("the recursion must not start")

    monkeypatch.setattr(cli, "value_recursion", never)
    monkeypatch.setattr(cli, "convergence_study", never)
    out = tmp_path / "o"
    for argv, field, lattice in ((["dp-value"], "lattice_n", {"lattice_n": 10_000}),
                                 (["dp-value", "--grid", "10000"], "--grid", {"lattice_n": 4}),
                                 (["convergence"], "n_list[2]", {"n_list": [2, 4, 10_000]})):
        data = convergence_config(out) if argv[0] == "convergence" else dp_config(out)
        data.update(admissible={"lo": -1.0, "hi": 1.0}, y_resolution=1.0, refine=True, **lattice)
        assert main(argv + ["--config", write_config(tmp_path, data)]) == 2
        record = stderr_record(capsys)
        assert record["field"] == field and "2 grid points" in record["message"]
        assert not out.exists()


def _readme_config(mode):
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    blocks = [b.split("```", 1)[0] for b in text.split("```yaml\n")[1:]]
    return next(yaml.safe_load(b) for b in blocks if f"mode: {mode}\n" in b)


@pytest.mark.parametrize("mode", ["dp-value", "convergence"])
def test_readme_lattice_examples_run(tmp_path, mode):
    cfg = write_config(tmp_path, _readme_config(mode))
    assert main([mode, "--config", cfg, "--quiet", "--out", str(tmp_path / "o")]) == 0
    assert list((tmp_path / "o").iterdir())


def test_bound_hits_are_reported_on_stderr(tmp_path, capsys):
    # H = S = W_1 with gamma = c wants y = -1/2 everywhere; [-0.2, 0.2] binds at every node
    out = tmp_path / "o"
    data = dp_config(out, buy_and_hold=False, emm_root=False, lattice_n=3,
                     admissible={"lo": -0.2, "hi": 0.2}, y_resolution=0.01)
    cfg = write_config(tmp_path, data)
    assert main(["dp-value", "--config", cfg]) == 0
    captured = capsys.readouterr()
    assert "n=3: 6 lattice node(s) have their policy on an admissible bound" in captured.err
    assert "admissible bound" not in captured.out
    assert main(["dp-value", "--config", cfg, "--quiet"]) == 0
    assert capsys.readouterr().err == ""

    data = convergence_config(out)
    data.update(admissible={"lo": -0.2, "hi": 0.2}, n_list=[1, 2])
    cfg = write_config(tmp_path, data)
    assert main(["convergence", "--config", cfg]) == 0
    err = capsys.readouterr().err
    assert "n=1: 1 lattice node(s)" in err and "n=2: 3 lattice node(s)" in err


# ---------------------------------------------------------------------------
# refusal panel: library rules named by the CLI field they come from


def _with_model(data, **model):
    data["model"] = dict(data["model"], **model)
    return data


def _with_agents(data, gamma, c):
    data["agents"] = {"gamma": gamma, "c": c}
    return data


def _with_shocks(data, *shocks, **schedule):
    data["schedule"] = dict(data["schedule"], shocks=[list(s) for s in shocks], **schedule)
    return data


_WAVE = {"kind": "shockwave", "mu": 0.0, "sigma": 1.0, "w_c": -0.6}
_NOT_PROPORTIONAL = dict(g_load=0.2, a_lin=0.5, b_quad=0.3)

REFUSALS = {
    # case: (mode, config builder for the output directory, expected field)
    "shock-time-outside-0-1": (
        "levy-sim", lambda o: _with_shocks(levy_config(o), (1.5, 0.25)), "schedule.shocks[0]"),
    "shocks-out-of-order": (
        "levy-sim", lambda o: _with_shocks(levy_config(o), (0.5, 0.25), (0.25, 0.1)),
        "schedule.shocks[1]"),
    "non-finite-jump": (
        "levy-sim", lambda o: _with_shocks(levy_config(o), (0.25, 0.1), (0.5, math.inf)),
        "schedule.shocks[1]"),
    "shocks-snap-to-one-index": (
        "levy-sim", lambda o: _with_shocks(levy_config(o), (0.5, 0.1), (0.51, 0.1)),
        "schedule.shocks"),
    "gamma-loading-outside-domain": (
        "levy-sim", lambda o: levy_config(o, loading=-8.0), "loading"),
    "initial-level-outside-domain": (
        "levy-sim", lambda o: _with_shocks(levy_config(o), initial_value=-9.5),
        "schedule.initial_value"),
    "shocked-level-outside-domain": (
        "levy-sim", lambda o: _with_shocks(levy_config(o), (0.25, 0.5), (0.5, -10.0)),
        "schedule.shocks[1]"),
    "stable-alpha-ge-1": (
        "levy-sim", lambda o: levy_config(o, model={"family": "stable", "r": 1.0, "alpha": 1.5}),
        "model.alpha"),
    "stable-alpha-le-0": (
        "levy-sim", lambda o: levy_config(o, model={"family": "stable", "r": 1.0, "alpha": 0.0}),
        "model.alpha"),
    "gamma-alpha-le-0": (
        "levy-sim", lambda o: levy_config(o, model={"family": "gamma", "alpha": 0.0, "beta": 1.0}),
        "model.alpha"),
    "gamma-beta-le-0": (
        "levy-sim",
        lambda o: levy_config(o, model={"family": "gamma", "alpha": 4.0, "beta": -1.0}),
        "model.beta"),
    "brownian-sigma-lt-0": (
        "levy-sim",
        lambda o: levy_config(o, model={"family": "brownian", "b": 0.0, "sigma": -1.0}),
        "model.sigma"),
    "agents-c-le-0": ("levy-sim", lambda o: _with_agents(levy_config(o), 1.0, 0.0), "agents.c"),
    "b_quad-curvature-markov-fields": (
        "markov-fields",
        lambda o: _with_model(_with_agents(markov_config(o), 4.0, 4.0), b_quad=-0.6),
        "model.b_quad"),
    "b_quad-curvature-dp-value": (
        "dp-value", lambda o: _with_model(_with_agents(dp_config(o), 4.0, 4.0), b_quad=-0.6),
        "model.b_quad"),
    "zero-aversion-shockwave": (
        "shockwave", lambda o: _with_agents(shockwave_config(o), 0.0, 1.0), "agents.gamma"),
    "zero-aversion-markov-fields": (
        "markov-fields", lambda o: _with_agents(dict(markov_config(o), model=_WAVE), 0.0, 1.0),
        "agents.gamma"),
    "zero-aversion-dp-value": (
        "dp-value",
        lambda o: _with_agents(dp_config(o, model=_WAVE, buy_and_hold=False), 0.0, 1.0),
        "agents.gamma"),
    "zero-aversion-convergence": (
        "convergence", lambda o: _with_agents(dict(convergence_config(o), model=_WAVE), 0.0, 1.0),
        "agents.gamma"),
    "lo-gt-hi": (
        "dp-value", lambda o: dp_config(o, admissible={"lo": 1.0, "hi": -1.0}), "admissible.hi"),
    "lo-eq-hi": (
        "dp-value", lambda o: dp_config(o, admissible={"lo": 0.0, "hi": 0.0}), "admissible.hi"),
    "interval-without-0": (
        "dp-value", lambda o: dp_config(o, admissible={"lo": -2.0, "hi": -1.0}), "admissible.lo"),
    "y_resolution-gt-width-dp-value": (
        "dp-value", lambda o: dp_config(o, y_resolution=5), "y_resolution"),
    "y_resolution-gt-width-convergence": (
        "convergence", lambda o: dict(convergence_config(o), y_resolution=2.5), "y_resolution"),
    "order-not-computable-markov-fields": (
        "markov-fields", lambda o: dict(markov_config(o), order=384), "order"),
    "order-not-computable-convergence": (
        "convergence", lambda o: dict(convergence_config(o), order=384), "order"),
    "order-lt-2": ("markov-fields", lambda o: dict(markov_config(o), order=1), "order"),
    "buy_and_hold-not-proportional": (
        "dp-value", lambda o: _with_model(dp_config(o), **_NOT_PROPORTIONAL), "buy_and_hold"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_library_rules_are_refused_naming_the_field(tmp_path, capsys, case):
    mode, config, field = REFUSALS[case]
    out = tmp_path / "o"
    cfg = write_config(tmp_path, config(out))
    assert main([mode, "--config", cfg]) == 2
    assert stderr_record(capsys)["field"] == field
    assert not out.exists()


@pytest.mark.parametrize("mode, names", [
    ("dp-value", ["dp_buy_and_hold.csv", "dp_emm.csv", "dp_value.csv"]),
    ("convergence", ["convergence.csv"]),
])
def test_lattice_modes_write_all_or_nothing(tmp_path, monkeypatch, capsys, mode, names):
    out = tmp_path / "o"
    cfg = write_config(tmp_path, dp_config(out) if mode == "dp-value" else convergence_config(out))
    real = cli.emit_csv
    for fail_at in range(len(names)):
        calls = []

        def failing(path, *args, **kwargs):
            calls.append(path)
            if len(calls) == fail_at + 1:
                raise OSError(f"injected failure at file {fail_at}")
            return real(path, *args, **kwargs)

        monkeypatch.setattr(cli, "emit_csv", failing)
        assert main([mode, "--config", cfg, "--quiet"]) == 3
        assert "injected" in stderr_record(capsys)["message"]
        assert not out.exists() or list(out.iterdir()) == []  # no CSV, no staging directory
    monkeypatch.setattr(cli, "emit_csv", real)
    assert main([mode, "--config", cfg, "--quiet"]) == 0
    assert sorted(p.name for p in out.iterdir()) == names


@pytest.mark.parametrize("by_flag", [False, True])
def test_markov_fields_refuses_a_w_grid_over_the_memory_budget(tmp_path, capsys, monkeypatch,
                                                               by_flag):
    def never(*args, **kwargs):
        raise AssertionError("the w grid must not be built")

    monkeypatch.setattr(cli.np, "linspace", never)
    out = tmp_path / "o"
    data = markov_config(out)
    count = 10**12
    assert 8 * count > cli._DP_MEMORY_BUDGET
    argv = ["markov-fields", "--grid", str(count)] if by_flag else ["markov-fields"]
    data["w"]["count"] = 3 if by_flag else count
    assert main(argv + ["--config", write_config(tmp_path, data)]) == 2
    record = stderr_record(capsys)
    assert record["field"] == ("--grid" if by_flag else "w.count") and "GiB" in record["message"]
    assert not out.exists()


@pytest.mark.parametrize("by_flag", [False, True])
@pytest.mark.parametrize("mode", ["levy-sim", "shockwave"])
def test_path_modes_refuse_a_grid_over_the_memory_budget(tmp_path, capsys, monkeypatch, mode,
                                                         by_flag):
    def never(*args, **kwargs):
        raise AssertionError("no path array may be allocated")

    monkeypatch.setattr(cli, "simulate_batch", never)
    monkeypatch.setattr(cli.ShockSchedule, "series", never)
    out = tmp_path / "o"
    data = levy_config(out) if mode == "levy-sim" else shockwave_config(out)
    steps = 10**10
    assert cli._PATH_BYTES_PER_POINT * (steps + 1) > cli._DP_MEMORY_BUDGET
    data["grid"] = 3 if by_flag else steps
    argv = [mode, "--grid", str(steps)] if by_flag else [mode]
    assert main(argv + ["--config", write_config(tmp_path, data)]) == 2
    record = stderr_record(capsys)
    assert record["field"] == ("--grid" if by_flag else "grid") and "GiB" in record["message"]
    assert not out.exists()


def test_path_grid_budget_accepts_millions_of_steps():
    no_flag = mock.Mock(grid=None)
    assert cli._path_grid(no_flag, cli.Section({"grid": 2_000_000}), 256).n_steps == 2_000_000
    assert cli._path_grid(no_flag, cli.Section({"grid": 7_000_000}), 256).n_steps == 7_000_000
    with pytest.raises(cli.ConfigError):
        cli._path_grid(no_flag, cli.Section({"grid": 7_200_000}), 256)


# ---------------------------------------------------------------------------
# verify and plumbing


def test_verify_exits_zero(capsys):
    assert main(["verify", "--quiet"]) == 0


@pytest.mark.parametrize("argv", [
    ["dp-value", "--seed", "5"], ["convergence", "--grid", "8"], ["verify", "--config", "x"],
])
def test_modes_refuse_flags_they_do_not_read(argv, capsys):
    with pytest.raises(SystemExit) as refused:
        main(argv)
    assert refused.value.code == 2
    assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err


def test_version_flag(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["--version"])
    assert exc.value.code == 0


def test_missing_subcommand_is_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        main([])
    assert exc.value.code == 2


def test_emit_csv_and_field_formatting(tmp_path):
    target = tmp_path / "empty.csv"
    emit_csv(target, ("a", "b"), ([], []))
    assert target.read_bytes() == b"a,b\n"

    emit_csv(target, ("a", "b", "c", "d"), ([-0.0], [True], [3], [0.1]))
    text = target.read_text(encoding="utf-8")
    assert text == "a,b,c,d\n0,true,3,0.10000000000000001\n"

    emit_csv(target, ("x", "flag"), (np.array([1.5, -0.0]), np.array([False, True])))
    assert target.read_text(encoding="utf-8") == "x,flag\n1.5,false\n0,true\n"
    # 17 significant digits round-trip float64 exactly
    x = math.pi * 1e-7
    emit_csv(target, ("x",), ([x],))
    assert float(read_csv(target)[1][0][0]) == x

    with pytest.raises(ValueError):
        emit_csv(target, ("a", "b"), ([1.0, 2.0], [1.0]))
    with pytest.raises(ValueError):
        emit_csv(target, ("a", "b"), ([1.0],))


def _reference_field(value) -> str:
    """The per-value rule of the row-wise csv.writer emitter that emit_csv replaced."""
    if isinstance(value, (bool, np.bool_)):
        return "true" if value else "false"
    if isinstance(value, (int, np.integer)):
        return str(int(value))
    if isinstance(value, (float, np.floating)):
        value = float(value)
        if value == 0.0:
            value = 0.0  # fold -0.0
        return format(value, ".17g")
    return str(value)


def _reference_csv(header, columns) -> bytes:
    buf = io.StringIO(newline="")
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(list(header))
    for row in zip(*columns):
        writer.writerow([_reference_field(v) for v in row])
    return buf.getvalue().encode("utf-8")


_SPECIAL_FLOATS = [-0.0, 0.0, math.nan, math.inf, -math.inf, 5e-324, -5e-324, 1e-310, 1e300, -1e300]
_FLOATS = st.floats(min_value=-1e300, max_value=1e300) | st.sampled_from(_SPECIAL_FLOATS)


@st.composite
def _csv_tables(draw):
    n_rows = draw(st.integers(0, 12))
    columns = []
    for kind in draw(st.lists(st.sampled_from(["float", "int", "bool"]), min_size=1, max_size=5)):
        if kind == "float":
            col = draw(arrays(np.float64, n_rows, elements=_FLOATS))
        elif kind == "int":
            col = draw(arrays(np.int64, n_rows, elements=st.integers(-(2**63), 2**63 - 1)))
        else:
            col = draw(arrays(np.bool_, n_rows))
        columns.append(col.tolist() if draw(st.booleans()) else col)
    return columns


@settings(deadline=None, max_examples=200)
@given(columns=_csv_tables(), block_rows=st.integers(1, 5))
def test_emit_csv_matches_row_writer_reference(tmp_path_factory, columns, block_rows):
    header = [f"c{j}" for j in range(len(columns))]
    target = tmp_path_factory.mktemp("emit") / "table.csv"
    with mock.patch.object(cli, "_BLOCK_ROWS", block_rows):
        emit_csv(target, header, columns)
    assert target.read_bytes() == _reference_csv(header, columns)


@settings(deadline=None, max_examples=200)
@given(n_rows=st.integers(0, 12), shared=st.lists(st.booleans(), min_size=1, max_size=6),
       block_rows=st.integers(1, 5), data=st.data())
def test_row_template_writes_the_bytes_of_emit_csv(tmp_path_factory, n_rows, shared, block_rows,
                                                   data):
    """A file through a row template equals emit_csv without it and the row writer."""
    shared[data.draw(st.integers(0, len(shared) - 1))] = True  # a template shares a column
    columns = [data.draw(arrays(np.float64, n_rows, elements=_FLOATS)) for _ in shared]
    header = [f"c{j}" for j in range(len(columns))]
    folder = tmp_path_factory.mktemp("template")
    with mock.patch.object(cli, "_BLOCK_ROWS", block_rows):
        template = cli._row_template([c if s else None for c, s in zip(columns, shared)])
        emit_csv(folder / "template.csv", header, [c for c, s in zip(columns, shared) if not s],
                 template=template)
        emit_csv(folder / "plain.csv", header, columns)
    want = _reference_csv(header, columns)
    assert (folder / "plain.csv").read_bytes() == want
    assert (folder / "template.csv").read_bytes() == want


def test_row_template_refuses_columns_that_do_not_fit(tmp_path):
    template = cli._row_template([[1.0, 2.0], None, [3.0, -0.0]])
    emit_csv(tmp_path / "ok.csv", ("a", "b", "c"), ([0.5, math.nan],), template=template)
    assert (tmp_path / "ok.csv").read_text(encoding="utf-8") == "a,b,c\n1,0.5,3\n2,nan,0\n"
    for header, columns in [(("a", "b", "c"), ([0.5],)), (("a", "b", "c"), ([0.5, 1.0], [1.0, 2.0])),
                            (("a", "b"), ([0.5, 1.0],))]:
        with pytest.raises(ValueError):
            emit_csv(tmp_path / "bad.csv", header, columns, template=template)
    assert not (tmp_path / "bad.csv").exists()
    for columns in ([None], [[1.0], None, [1.0, 2.0]]):
        with pytest.raises(ValueError):
            cli._row_template(columns)


# sha256 of every CSV written by the three runs below, recorded from the
# row-wise csv.writer emitter that emit_csv replaced (numpy 2.4, x86-64 Linux)
RECORDED_SHA256 = {
    "levy-sim": {
        "levy_path_000.csv": "b2505eff64b90969a68c3d69c4ba022452864762026d0d3c9eac8d6276618cf6",
        "levy_path_001.csv": "71b55193c9f7e602b1a08e890f83c6bb2d81633b543e6b9acf453ca06dc0ba16",
        "levy_path_002.csv": "d18be5c7b2760141b4a7eb8cc16550093a7cc44a26df345f065e5ded63814c11",
        "levy_summary.csv": "1aaaf664835cdc6d84ef2390325a71ee54e10e9a1837a81999208ed0ea44ed17",
    },
    "shockwave": {
        "shockwave_path_000.csv": "7b2227425098bab687a29edafdf95e6a68eab836652f4ab1c096e3ba5adb69d5",
        "shockwave_path_001.csv": "67453477a535c7cd2af3fe502aa567d9e67ae9fac5b5360b14e304fd152fb838",
        "shockwave_path_002.csv": "e63318dd151d174214c9845f286fcf8b2a584a3a0eb37982712a6008762b3423",
    },
    "markov-fields": {
        "markov_fields.csv": "fd113ab18cc22a264b707bc581db639ae9679423ad9bfbb3fb1992f8969da13c",
    },
}


def _recorded_run_config(mode, out):
    if mode == "levy-sim":
        shocks = {"initial_value": 0.0, "h": 0.0, "shocks": [[0.25, 0.25], [0.75, -0.5]]}
        return levy_config(out, paths=3, grid=64, schedule=shocks)
    if mode == "shockwave":
        return dict(shockwave_config(out), paths=3, grid=64)
    data = markov_config(out)
    data["w"] = {"min": -1.0, "max": 1.0, "count": 11}
    return data


@pytest.mark.parametrize("mode", sorted(RECORDED_SHA256))
def test_csv_bytes_match_recorded_digests(tmp_path, mode):
    out = tmp_path / "o"
    cfg = write_config(tmp_path, _recorded_run_config(mode, out))
    assert main([mode, "--config", cfg, "--quiet"]) == 0
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == RECORDED_SHA256[mode]


def test_cli_import_and_path_modes_load_no_scipy(tmp_path):
    """Importing the CLI and running its path modes loads no scipy (no module in
    the package imports it; see the next test for every mode), and no
    ``impactlab.verification``, which only ``verify`` imports.  The import loads
    every layer the benchmark's tracer reads from ``sys.modules``."""
    spec = importlib.util.spec_from_file_location(
        "tracer", Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    levy = write_config(tmp_path, levy_config(tmp_path / "levy"), "levy.yaml")
    shock = write_config(tmp_path, shockwave_config(tmp_path / "shock"), "shock.yaml")
    code = "\n".join([
        "import json, sys",
        "import impactlab.cli as cli",
        f"missing = [m for m in {tracer.LAYERS!r} if 'impactlab.' + m not in sys.modules]",
        "loaded = lambda: sorted(m for m in sys.modules",
        "                        if m in ('scipy', 'impactlab.verification') or m.startswith('scipy.'))",
        "seen = [missing, loaded()]",
        f"assert cli.main(['levy-sim', '--config', {levy!r}, '--quiet']) == 0",
        "seen.append(loaded())",
        f"assert cli.main(['shockwave', '--config', {shock!r}, '--quiet']) == 0",
        "seen.append(loaded())",
        "print(json.dumps(seen))",
    ])
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], [], [], []]


def test_every_mode_and_the_strategy_run_with_scipy_unimportable(tmp_path):
    """scipy is a test dependency only: with every scipy import failing, the lattice
    and quadrature modes, ``verify`` and ``optimal_strategy_markov`` still run."""
    configs = {
        mode: write_config(tmp_path, make(tmp_path / mode), f"{mode}.yaml")
        for mode, make in (
            ("convergence", convergence_config),
            ("dp-value", dp_config),
            ("markov-fields", markov_config),
        )
    }
    code = "\n".join([
        "import sys",
        "sys.modules['scipy'] = None",  # any 'import scipy...' now raises ImportError
        "import impactlab.cli as cli",
        "from impactlab import AgentPair, QuadraticModel, optimal_strategy_markov",
        *(f"assert cli.main([{mode!r}, '--config', {cfg!r}, '--quiet']) == 0"
          for mode, cfg in configs.items()),
        "assert cli.main(['verify', '--quiet']) == 0",
        "model = QuadraticModel(0.4, 0.1, 1.3, 0.7, 0.5, AgentPair(1.0, 2.0))",
        "print(optimal_strategy_markov(model.payoffs(), 0.3, 0.2))",
    ])
    src = str(Path(cli.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    model = QuadraticModel(0.4, 0.1, 1.3, 0.7, 0.5, AgentPair(1.0, 2.0))
    assert float(proc.stdout.splitlines()[-1]) == pytest.approx(quadratic_closed_forms(model, 0.3, 0.2).y_star, abs=1e-10)
    for mode in configs:
        assert any((tmp_path / mode).iterdir())


def test_a_huge_quadrature_order_is_refused_before_the_rule_is_built(tmp_path, capsys, monkeypatch):
    def no_rule(order):
        raise AssertionError(f"hermegauss called for order {order}")

    monkeypatch.setattr(markov, "hermegauss", no_rule)
    out = tmp_path / "o"
    cfg = write_config(tmp_path, dict(markov_config(out), order=100000))
    assert main(["markov-fields", "--config", cfg]) == 2
    assert stderr_record(capsys)["field"] == "order"
    assert not out.exists()
