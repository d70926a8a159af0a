"""End-to-end CLI runs: exit codes, dotted-field errors, byte-stable CSV output."""

import csv
import gc
import hashlib
import importlib.util
import inspect
import io
import json
import math
import os
import re
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
from impactlab.dp import DpScenario, Lattice, emm_eipu, value_recursion
from impactlab.efficient import LevyScenario, allocation_value, efficient_path_record
from impactlab.errors import QuadratureError
from impactlab.markov import QuadraticModel, ShockWaveModel, quadratic_closed_forms
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


def test_levy_sim_seed_changes_the_increments(tmp_path):
    paths = []
    for seed in (7, 8):
        out = tmp_path / f"o{seed}"
        cfg = write_config(tmp_path, levy_config(out, seed=seed, paths=1))
        assert main(["levy-sim", "--config", cfg, "--quiet"]) == 0
        paths.append(read_csv(out / "levy_path_000.csv")[1])
    assert paths[0] != paths[1]


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


def stable_config(out, **overrides):
    """A one-path stable run whose only endowment level is 0: the argument is abar*a."""
    data = levy_config(out, seed=3, paths=1, grid=4, agents={"gamma": 0.5, "c": "inf"},
                       loading=0.5, model={"family": "stable", "r": 1.0, "alpha": 0.5},
                       schedule={"initial_value": 0.0, "h": 0.0, "shocks": []})
    data.update(overrides)
    return data


@pytest.mark.parametrize("loading, alpha", [(1e-300, 0.5), (1e-320, 0.01)])
def test_stable_levy_sim_with_a_tiny_argument_warns_nothing(tmp_path, loading, alpha):
    # kappa'' overflows to its exact limit -inf at abar*(a + h') = loading / 2, and so
    # does kappa' at a subnormal one: s* is x at t = 1, where (1 - t) * kappa' is 0
    out = tmp_path / "o"
    data = stable_config(out, loading=loading, model={"family": "stable", "r": 1.0,
                                                      "alpha": alpha})
    cfg = write_config(tmp_path, data)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["levy-sim", "--config", cfg, "--quiet"]) == 0
    _, rows = read_csv(out / "levy_path_000.csv")
    assert [r[6] for r in rows] == ["inf"] * 4 + ["0"]
    assert rows[-1][0] == "1" and rows[-1][4] == rows[-1][1]


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


def test_a_config_that_is_not_utf8_is_refused(tmp_path, capsys):
    cfg = tmp_path / "utf16.json"
    cfg.write_bytes(json.dumps(levy_config(tmp_path / "o")).encode("utf-16"))  # starts \xff\xfe
    assert main(["levy-sim", "--config", str(cfg)]) == 2
    record = stderr_record(capsys)
    assert record["field"] == "config" and "can't decode byte 0xff" in record["message"]
    assert not (tmp_path / "o").exists()


# 100,000 nested lists: past the recursion limits of json's C scanner (deeper in
# newer Pythons) and of PyYAML's composer
_DEEP = "[" * 100_000 + "]" * 100_000


@pytest.mark.parametrize("name, text", [
    ("deep.json", '{"schema_version": 1, "deep": ' + _DEEP + "}"),
    ("deep.yaml", "schema_version: 1\ndeep: " + _DEEP + "\n"),
], ids=["json", "yaml"])
def test_a_config_nested_too_deeply_to_read_is_refused(tmp_path, capsys, name, text):
    """json's scanner and PyYAML's composer both recurse once a level; past their
    recursion limits the config is refused, not a traceback."""
    cfg = tmp_path / name
    cfg.write_text(text, encoding="utf-8")
    assert main(["levy-sim", "--config", str(cfg), "--out", str(tmp_path / "o")]) == 2
    assert stderr_record(capsys) == {"error": "ConfigError", "field": "config",
                                     "message": "config: is nested too deeply to read"}
    assert list(tmp_path.iterdir()) == [cfg]


@pytest.mark.parametrize("by_flag", [False, True])
@pytest.mark.parametrize("out", ["\ud800", "o\0ut"])
def test_an_out_path_the_file_system_cannot_encode_is_refused(tmp_path, capsys, out, by_flag):
    """A lone surrogate or a NUL in ``out`` is refused up front, before any mode
    makes its output directory."""
    cfg = write_config(tmp_path, dict(convergence_config(out), n_list=[1]))
    argv = ["convergence", "--config", cfg] + (["--out", out] if by_flag else [])
    assert main(argv) == 2
    record = stderr_record(capsys)
    assert record["field"] == ("--out" if by_flag else "out")
    assert "must be a path the file system can encode" in record["message"]
    assert list(tmp_path.iterdir()) == [Path(cfg)]


@pytest.mark.parametrize("by_flag", [False, True])
@pytest.mark.parametrize("mode", ["levy-sim", "shockwave", "markov-fields", "dp-value",
                                  "convergence"])
@pytest.mark.parametrize("under", ["", "sub"], ids=["a-file", "under-a-file"])
def test_an_out_with_a_file_in_its_way_is_refused_up_front(tmp_path, capsys, monkeypatch,
                                                           under, mode, by_flag):
    """An ``out`` that names a file, or a path under one, is refused before any
    computation and before any directory is made."""
    def never(*args, **kwargs):
        raise AssertionError("the computation must not start")

    for layer, name in (("paths", "simulate_batch"), ("markov", "_state_fields"),
                        ("dp", "value_recursion"), ("dp", "convergence_study")):
        monkeypatch.setattr(getattr(cli, layer), name, never)
    blocker = tmp_path / "file"
    blocker.write_text("x", encoding="utf-8")
    out = str(blocker / under) if under else str(blocker)
    makers = {"levy-sim": levy_config, "shockwave": shockwave_config,
              "markov-fields": markov_config, "dp-value": dp_config,
              "convergence": convergence_config}
    cfg = write_config(tmp_path, makers[mode](tmp_path / "o" if by_flag else out))
    assert main([mode, "--config", cfg, "--quiet"] + (["--out", out] if by_flag else [])) == 2
    field = "--out" if by_flag else "out"
    assert stderr_record(capsys) == {"error": "ConfigError", "field": field,
                                     "message": f"{field}: must name a directory, but "
                                                f"{blocker} is not one"}
    assert sorted(tmp_path.iterdir()) == [blocker, Path(cfg)]


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


@pytest.mark.parametrize("kind, fields, model", [
    ("quadratic", {"sigma": 1.3}, QuadraticModel(0.0, 0.0, 1.3, 0.0, 0.0, AgentPair(1.0, 2.0), 0.0)),
    ("shockwave", {"sigma": 1.3, "w_c": -0.6}, ShockWaveModel(0.0, 1.3, -0.6, AgentPair(1.0, 2.0))),
], ids=["quadratic", "shockwave"])
def test_a_model_field_left_out_reads_as_its_default(kind, fields, model):
    sec = cli.Section(dict(fields, kind=kind), "model")
    assert cli._model(sec, "kind", kind, cli._KINDS, agents=model.agents) == model


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
    real, calls = cli.markov._state_fields, []

    def failing(*args, **kwargs):
        calls.append(args)
        if len(calls) == 2:  # the rows of the first t are already written
            raise QuadratureError("injected failure at the second t")
        return real(*args, **kwargs)

    monkeypatch.setattr(cli.markov, "_state_fields", failing)
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
    import impactlab.dp

    calls = []
    original = impactlab.dp.value_recursion

    def counted(*args, **kwargs):
        calls.append(1)
        return original(*args, **kwargs)

    monkeypatch.setattr(impactlab.dp, "value_recursion", counted)  # the CLI calls it there
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

    monkeypatch.setattr(cli.dp, "value_recursion", never)
    monkeypatch.setattr(cli.dp, "convergence_study", never)
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


def test_dp_memory_estimate_bounds_the_traced_peak_of_a_recursion():
    # the refusal's estimate must not fall behind the kernel: a refine-off
    # recursion's peak, at the widest level's stacked tilt, is about 9 float64s
    # per (n+2) * grid cell as tracemalloc counts it (8.99 at n = 64)
    model = QuadraticModel(g_load=0.3, mu=0.1, sigma=1.1, a_lin=0.6, b_quad=0.4,
                           agents=AgentPair(1.0, 1.0))
    scenario = DpScenario(Lattice(64), model.payoffs(), (-1.0, 1.0), 1e-3)
    scenario._leaves, scenario._scan_grids  # the scenario's own inputs, built first
    tracemalloc.start()
    try:
        value_recursion(scenario, refine=False)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    cells = scenario.lattice.working_cells(scenario.y_grid().size, refine=False)
    assert peak < cli._DP_BYTES_PER_CELL * cells, peak / (8 * cells)


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

    monkeypatch.setattr(cli.dp, "value_recursion", never)
    monkeypatch.setattr(cli.dp, "convergence_study", never)
    out = tmp_path / "o"
    for mode, field, lattice in (("dp-value", "lattice_n", {"lattice_n": 10_000}),
                                 ("convergence", "n_list[2]", {"n_list": [2, 4, 10_000]})):
        data = convergence_config(out) if mode == "convergence" else dp_config(out)
        data.update(admissible={"lo": -1.0, "hi": 1.0}, y_resolution=1.0, refine=True, **lattice)
        assert main([mode, "--config", write_config(tmp_path, data)]) == 2
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
    "shock-time-too-large-for-a-float": (
        "levy-sim", lambda o: _with_shocks(levy_config(o), (10**400, 0.1)), "schedule.shocks[0]"),
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
    "stable-zero-aversion": (  # abar = 0: kappa' has no value at the argument 0
        "levy-sim", lambda o: stable_config(o, agents={"gamma": 0.0, "c": 1.0}), "agents.gamma"),
    "stable-zero-loading": (
        "levy-sim", lambda o: stable_config(o, loading=0.0), "schedule.initial_value"),
    "stable-shock-to-a-zero-argument": (
        "levy-sim", lambda o: _with_shocks(stable_config(o), (0.5, -0.5)), "schedule.shocks[0]"),
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
    "brownian-sigma-squared-overflows": (
        "levy-sim",
        lambda o: levy_config(o, model={"family": "brownian", "b": 0.0, "sigma": 1e200}),
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
    "order-371-markov-fields": (  # finite nodes, but its weights sum to 0: it exited 3
        "markov-fields", lambda o: dict(markov_config(o), order=371), "order"),
    "order-not-computable-convergence": (
        "convergence", lambda o: dict(convergence_config(o), order=384), "order"),
    "order-lt-2": ("markov-fields", lambda o: dict(markov_config(o), order=1), "order"),
    "buy_and_hold-not-proportional": (
        "dp-value", lambda o: _with_model(dp_config(o), **_NOT_PROPORTIONAL), "buy_and_hold"),
}


def _without_model_fields(data, *names, **model):
    data["model"] = {k: v for k, v in dict(data["model"], **model).items() if k not in names}
    return data


_BS = {"kind": "black-scholes", "zeta": -1.0, "sigma": "x", "alpha": 1.0}

# configs with two faults each: the one read first is reported, with this message
MULTI_FAULT = {
    # case: (mode, config builder for the output directory, expected field, message)
    "unknown-key-beside-a-wrong-version": (
        "levy-sim", lambda o: levy_config(o, schema_version=2, colour="red"),
        "schema_version", "must be 1, got 2"),
    "unknown-key-beside-a-wrong-mode": (
        "dp-value", lambda o: dp_config(o, mode="convergence", colour="red"),
        "mode", "config declares 'convergence' but subcommand is 'dp-value'"),
    "unknown-key-beside-a-bad-lattice_n": (
        "dp-value", lambda o: dp_config(o, colour="red", lattice_n="x"),
        "colour", "unknown field"),
    "gamma-extra-sigma-beside-a-bad-alpha": (
        "levy-sim",
        lambda o: levy_config(o, model={"family": "gamma", "alpha": "x", "beta": 1.0,
                                        "sigma": 1.0}),
        "model.sigma", "unknown field"),
    "no-family-beside-an-unknown-key": (
        "levy-sim", lambda o: levy_config(o, model={"alpha": "x", "colour": 1}),
        "model.family", "required field is missing"),
    "quadratic-no-sigma-beside-a-bad-g_load": (
        "dp-value", lambda o: _without_model_fields(dp_config(o), "sigma", g_load="x"),
        "model.g_load", "must be a number"),
    "quadratic-no-sigma-beside-a-later-bad-a_lin": (
        "markov-fields", lambda o: _without_model_fields(markov_config(o), "sigma", a_lin="x"),
        "model.sigma", "required field is missing"),
    "shockwave-mode-kind-quadratic": (
        "shockwave", lambda o: _with_model(shockwave_config(o), kind="quadratic", colour=1),
        "model.kind", "must be 'shockwave' in shockwave mode"),
    "shockwave-mode-kind-not-a-string": (
        "shockwave", lambda o: _with_model(shockwave_config(o), kind=3, colour=1),
        "model.kind", "must be a string"),
    "shockwave-no-w_c-beside-a-bad-offset": (
        "shockwave",
        lambda o: dict(shockwave_config(o), model={"mu": 0.0, "sigma": 1.0, "offset": "x"}),
        "model.w_c", "required field is missing"),
    "markov-fields-wave-no-w_c-beside-a-bad-offset": (
        "markov-fields",
        lambda o: dict(markov_config(o), model={"kind": "shockwave", "mu": 0.0, "sigma": 1.0,
                                                "offset": "x"}),
        "model.w_c", "required field is missing"),
    "markov-fields-kind-black-scholes": (
        "markov-fields", lambda o: dict(markov_config(o), model=dict(_BS, colour=1)),
        "model.kind", "must be one of quadratic, shockwave"),
    "dp-value-kind-gamma": (
        "dp-value", lambda o: _with_model(dp_config(o), kind="gamma", colour=1),
        "model.kind", "must be one of black-scholes, quadratic, shockwave"),
    "convergence-no-kind-beside-an-unknown-key": (
        "convergence", lambda o: dict(convergence_config(o), model={"sigma": 1.0, "colour": 1}),
        "model.kind", "required field is missing"),
    "black-scholes-zeta-le-0-beside-a-bad-sigma": (
        "dp-value", lambda o: dp_config(o, model=_BS, buy_and_hold=False),
        "model.zeta", "must be > 0"),
    "black-scholes-unknown-key-beside-a-bad-zeta": (
        "dp-value", lambda o: dp_config(o, model=dict(_BS, beta=1.0), buy_and_hold=False),
        "model.beta", "unknown field"),
    "dp-value-unknown-model-key-beside-lattice_n-over-budget": (
        "dp-value",
        lambda o: _with_model(dp_config(o, lattice_n=10_000, y_resolution=1.0), colour=1.0),
        "lattice_n", "the recursion at n=10000 on 2 grid points would hold about 3.75 GiB, "
                     "over the 2 GiB budget"),
    "markov-fields-bad-model-beside-w.count-over-budget": (
        "markov-fields",
        lambda o: dict(markov_config(o), w={"min": -1.0, "max": 1.0, "count": 10**12},
                       model={"kind": "quadratic", "colour": 1}),
        "w.count", "a w grid of 1000000000000 points would hold about 7.45e+03 GiB, "
                   "over the 2 GiB budget"),
    "levy-sim-bad-out-beside-grid-over-budget": (
        "levy-sim", lambda o: dict(levy_config(o, grid=10**10), out="o\0ut"),
        "grid", "a path grid of 10000000000 steps would hold about 2.79e+03 GiB, "
                "over the 2 GiB budget"),
    "negative-seed-beside-zero-paths": (
        "levy-sim", lambda o: levy_config(o, seed=-1, paths=0), "seed", "must be >= 0"),
}
REFUSALS.update((case, spec[:3]) for case, spec in MULTI_FAULT.items())


@pytest.mark.parametrize("case", sorted(MULTI_FAULT))
def test_the_first_of_two_faults_is_reported_with_its_message(tmp_path, capsys, case):
    mode, config, field, message = MULTI_FAULT[case]
    cfg = write_config(tmp_path, config(tmp_path / "o"))
    assert main([mode, "--config", cfg]) == 2
    assert stderr_record(capsys) == {"error": "ConfigError", "field": field,
                                     "message": f"{field}: {message}"}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_library_rules_are_refused_naming_the_field(tmp_path, capsys, case):
    mode, config, field = REFUSALS[case]
    out = tmp_path / "o"
    cfg = write_config(tmp_path, config(out))
    assert main([mode, "--config", cfg]) == 2
    assert stderr_record(capsys)["field"] == field
    assert not out.exists()


def _json_text(data):
    """``data`` as JSON text, or None if it holds a NaN or an infinity."""
    try:
        return json.dumps(data, allow_nan=False)
    except ValueError:
        return None


@pytest.mark.parametrize("case", [case for case in sorted(REFUSALS)
                                  if _json_text(REFUSALS[case][1](Path("o"))) is not None])
def test_a_refusal_reads_the_same_from_json_and_yaml(tmp_path, capsys, case):
    mode, config, _ = REFUSALS[case]
    out = tmp_path / "o"
    records = []
    texts = {"c.json": _json_text(config(out)), "c.yaml": yaml.safe_dump(config(out))}
    for name, text in texts.items():
        (tmp_path / name).write_text(text, encoding="utf-8")
        records.append((main([mode, "--config", str(tmp_path / name)]), stderr_record(capsys)))
    assert records[0] == records[1]
    assert records[0][0] == 2
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


def test_markov_fields_refuses_a_w_grid_over_the_memory_budget(tmp_path, capsys, monkeypatch):
    def never(*args, **kwargs):
        raise AssertionError("the w grid must not be built")

    monkeypatch.setattr(cli.np, "linspace", never)
    out = tmp_path / "o"
    data = markov_config(out)
    count = 10**12
    assert 8 * count > cli._DP_MEMORY_BUDGET
    data["w"]["count"] = count
    assert main(["markov-fields", "--config", write_config(tmp_path, data)]) == 2
    record = stderr_record(capsys)
    assert record["field"] == "w.count" and "GiB" in record["message"]
    assert not out.exists()


@pytest.mark.parametrize("mode", ["levy-sim", "shockwave"])
def test_path_modes_refuse_a_grid_over_the_memory_budget(tmp_path, capsys, monkeypatch, mode):
    def never(*args, **kwargs):
        raise AssertionError("no path array may be allocated")

    monkeypatch.setattr(cli.paths, "simulate_batch", never)
    monkeypatch.setattr(cli.paths.ShockSchedule, "series", never)
    out = tmp_path / "o"
    data = levy_config(out) if mode == "levy-sim" else shockwave_config(out)
    steps = 10**10
    assert cli._PATH_BYTES_PER_POINT * (steps + 1) > cli._DP_MEMORY_BUDGET
    data["grid"] = steps
    assert main([mode, "--config", write_config(tmp_path, data)]) == 2
    record = stderr_record(capsys)
    assert record["field"] == "grid" and "GiB" in record["message"]
    assert not out.exists()


def test_path_grid_budget_accepts_millions_of_steps():
    assert cli._path_grid(cli.Section({"grid": 2_000_000}), 256).n_steps == 2_000_000
    assert cli._path_grid(cli.Section({"grid": 7_000_000}), 256).n_steps == 7_000_000
    with pytest.raises(cli.ConfigError):
        cli._path_grid(cli.Section({"grid": 7_200_000}), 256)


# ---------------------------------------------------------------------------
# verify and plumbing


def test_verify_exits_zero(capsys):
    assert main(["verify", "--quiet"]) == 0


@pytest.mark.parametrize("argv", [
    ["dp-value", "--seed", "5"], ["convergence", "--grid", "8"], ["verify", "--config", "x"],
    ["levy-sim", "--seed", "5"], ["levy-sim", "--paths", "2"], ["levy-sim", "--grid", "8"],
    ["shockwave", "--seed", "5"], ["shockwave", "--paths", "2"], ["shockwave", "--grid", "8"],
    ["markov-fields", "--grid", "8"], ["dp-value", "--grid", "8"],
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
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_src_env(), timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [[], [], [], []]


# the impactlab modules whose code each benchmarked mode runs
MODE_LAYERS = {
    "convergence": ["dp", "errors", "markov", "utility"],
    "dp-value": ["dp", "errors", "markov", "utility"],
    "levy-sim": ["cumulants", "efficient", "errors", "paths", "utility"],
    "markov-fields": ["errors", "markov", "utility"],
    "shockwave": ["cumulants", "errors", "markov", "paths", "utility"],
}
# the modes that build a Hermite rule, the one use of numpy.polynomial
RULE_MODES = ("convergence", "markov-fields")


def test_each_mode_runs_only_its_layers_and_the_tracer_reads_every_layer(tmp_path):
    """``python -m impactlab.cli <mode>`` runs the code of the layers its mode uses
    and no other: a layer it never reads from stays a pending lazy module, which
    is not a plain ``types.ModuleType``.  Only a mode that builds a Hermite rule
    imports ``numpy.polynomial``.  After ``import impactlab.cli``, ``vars()``
    of each layer the benchmark's tracer reads gives that layer's public functions
    and classes."""
    spec = importlib.util.spec_from_file_location(
        "tracer", Path(__file__).resolve().parents[1] / "bench" / "tracer.py"
    )
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    assert sorted(MODE_LAYERS) == sorted(tracer.CLI_MODES)
    makers = {"levy-sim": levy_config, "shockwave": shockwave_config,
              "markov-fields": markov_config, "dp-value": dp_config,
              "convergence": convergence_config}
    ran = "sorted(n[len('impactlab.'):] for n, m in sys.modules.items()" \
          " if n.startswith('impactlab.') and type(m) is types.ModuleType)"
    for mode, layers in MODE_LAYERS.items():
        config = tmp_path / f"{mode}.json"
        config.write_text(json.dumps(makers[mode](tmp_path / mode)), encoding="utf-8")
        code = "\n".join([
            "import json, runpy, sys, types",
            f"sys.argv = ['impactlab', {mode!r}, '--config', {str(config)!r}, '--quiet']",
            "try:",
            "    runpy.run_module('impactlab.cli', run_name='__main__', alter_sys=True)",
            "except SystemExit as exit:",
            f"    print(json.dumps([exit.code, {ran}, 'numpy.polynomial' in sys.modules]))",
        ])
        proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                              env=_src_env(), timeout=120)
        assert proc.returncode == 0, proc.stderr
        assert json.loads(proc.stdout) == [0, layers, mode in RULE_MODES], mode
        assert any((tmp_path / mode).iterdir())

    code = "\n".join([
        "import inspect, json, sys",
        "import impactlab.cli",
        f"modules = [sys.modules['impactlab.' + layer] for layer in {tracer.LAYERS!r}]",
        "print(json.dumps([sorted(a for a, v in vars(m).items() if not a.startswith('_')",
        "                         and (inspect.isfunction(v) or inspect.isclass(v))",
        "                         and v.__module__ == m.__name__)",
        "                  for m in modules]))",
    ])
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_src_env(), timeout=120)
    assert proc.returncode == 0, proc.stderr
    for layer, names in zip(tracer.LAYERS, json.loads(proc.stdout)):
        module = importlib.import_module(f"impactlab.{layer}")
        assert names and names == sorted(
            a for a, v in vars(module).items() if not a.startswith("_")
            and (inspect.isfunction(v) or inspect.isclass(v))
            and v.__module__ == module.__name__), layer


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
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_src_env(), timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    model = QuadraticModel(0.4, 0.1, 1.3, 0.7, 0.5, AgentPair(1.0, 2.0))
    assert float(proc.stdout.splitlines()[-1]) == pytest.approx(quadratic_closed_forms(model, 0.3, 0.2).y_star, abs=1e-10)
    for mode in configs:
        assert any((tmp_path / mode).iterdir())


def test_a_huge_quadrature_order_is_refused_before_the_rule_is_built(tmp_path, capsys, monkeypatch):
    def no_rule(order):
        raise AssertionError(f"hermegauss called for order {order}")

    monkeypatch.setattr("numpy.polynomial.hermite_e.hermegauss", no_rule)
    out = tmp_path / "o"
    cfg = write_config(tmp_path, dict(markov_config(out), order=100000))
    assert main(["markov-fields", "--config", cfg]) == 2
    assert stderr_record(capsys)["field"] == "order"
    assert not out.exists()


# ---------------------------------------------------------------------------
# the process entry


def _src_env():
    """The environment with the tested package's source first on PYTHONPATH."""
    src = str(Path(cli.__file__).resolve().parents[1])
    return dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])))


def _script_target():
    """(module, function) of the ``impactlab`` console script in pyproject.toml."""
    text = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text(encoding="utf-8")
    return re.search(r'^impactlab = "([\w.]+):(\w+)"$', text, re.MULTILINE).groups()


# each way a command line reaches the package: ``python -m impactlab.cli``, and
# the wrapper pip writes for the console script
ENTRIES = ("module", "script")


def _run_entry(entry, *argv):
    """A child that registers an atexit handler, then runs ``entry`` on ``argv``;
    the handler's line on stderr says whether the collector was frozen."""
    if entry == "module":
        call = 'import runpy; runpy.run_module("impactlab.cli", run_name="__main__", alter_sys=True)'
    else:
        module, function = _script_target()
        call = f"import importlib; sys.exit(importlib.import_module({module!r}).{function}())"
    code = "\n".join([
        "import atexit, gc, sys",
        "atexit.register(lambda: print('atexit frozen', gc.get_freeze_count() > 0, file=sys.stderr))",
        f"sys.argv = ['impactlab', *{list(argv)!r}]",
        call,
    ])
    return subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=_src_env(), timeout=120)


@pytest.mark.parametrize("entry", ENTRIES)
def test_the_process_entry_freezes_the_collector_and_keeps_the_output(tmp_path, entry):
    out = tmp_path / "o"
    cfg = write_config(tmp_path, _recorded_run_config("levy-sim", out))
    proc = _run_entry(entry, "levy-sim", "--config", cfg, "--quiet")
    assert proc.returncode == 0, proc.stderr
    assert proc.stderr.splitlines() == ["atexit frozen True"]
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest() for p in out.iterdir()}
    assert digests == RECORDED_SHA256["levy-sim"]


@pytest.mark.parametrize("entry", ENTRIES)
def test_the_process_entry_exits_2_after_the_error_record(tmp_path, entry):
    out = tmp_path / "o"
    cfg = write_config(tmp_path, levy_config(out, schema_version=2))
    proc = _run_entry(entry, "levy-sim", "--config", cfg)
    assert proc.returncode == 2
    record, handler = proc.stderr.splitlines()
    assert json.loads(record)["field"] == "schema_version"
    assert handler == "atexit frozen True"
    assert not out.exists()


@pytest.mark.parametrize("entry", ENTRIES)
def test_the_process_entry_freezes_when_argparse_exits(entry):
    proc = _run_entry(entry, "--version")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == f"impactlab {cli.__version__}\n"
    assert proc.stderr.splitlines() == ["atexit frozen True"]


def test_main_in_process_does_not_freeze_the_collector(tmp_path):
    cfg = write_config(tmp_path, levy_config(tmp_path / "o"))
    before = gc.get_freeze_count()
    assert main(["levy-sim", "--config", cfg, "--quiet"]) == 0
    assert gc.get_freeze_count() == before


# ---------------------------------------------------------------------------
# config text: JSON read by json, anything else by PyYAML


def _same(a, b) -> bool:
    """Equal data of the same types, key order included; signed zeros told apart."""
    if type(a) is not type(b):
        return False
    if isinstance(a, dict):
        return list(a) == list(b) and all(_same(a[k], b[k]) for k in a)
    if isinstance(a, list):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, float):
        return a == b and math.copysign(1.0, a) == math.copysign(1.0, b)
    return a == b


class _Raw(str):
    """A number token written into the JSON text as it is (json.dumps has no form for it)."""


# number forms json.dumps never writes: past the float range, a capital E, an
# unsigned or signed exponent without a point, underflow to a signed zero
_RAW_NUMBERS = ["1e400", "-1e400", "1E+5", "2.5E-3", "1E5", "1e-400", "-1e-400", "0e0", "-0.0",
                "5e-324", "-0", "1.0e+308"]
_BMP_TEXT = st.text(st.characters(max_codepoint=0xFFFF, exclude_categories=("Cs",)), max_size=12)
_JSON_LEAVES = (
    st.none() | st.booleans() | st.integers()
    | st.integers(2**53 - 2, 2**1100) | st.integers(-(2**1100), -(2**53))
    | st.floats(allow_nan=False, allow_infinity=False)  # -0.0 and subnormals among them
    | _BMP_TEXT | st.sampled_from(_RAW_NUMBERS).map(_Raw)
)
_JSON_DOCUMENTS = st.dictionaries(_BMP_TEXT, st.recursive(
    _JSON_LEAVES,
    lambda inner: st.lists(inner, max_size=4) | st.dictionaries(_BMP_TEXT, inner, max_size=4),
    max_leaves=16,
), max_size=5)


def _json_document_text(document, indent, sort_keys) -> str:
    """``document`` written by json.dumps, each _Raw leaf as its bare token."""
    def raw(value):
        if isinstance(value, _Raw):
            return f"\x00{value}\x00"
        if isinstance(value, dict):
            return {k: raw(v) for k, v in value.items()}
        if isinstance(value, list):
            return [raw(v) for v in value]
        return value

    text = json.dumps(raw(document), indent=indent, sort_keys=sort_keys)
    return re.sub(r'"\\u0000([-+.0-9eE]+)\\u0000"', r"\1", text)


@settings(deadline=None, max_examples=300)
@given(_JSON_DOCUMENTS, st.none() | st.integers(0, 4) | st.just("  "), st.booleans())
def test_json_text_reads_as_pyyaml_reads_it(document, indent, sort_keys):
    """What json makes of JSON text is what the YAML loader made of it, to the
    type and the sign of zero."""
    text = _json_document_text(document, indent, sort_keys)
    want = yaml.load(text, Loader=cli._config_loader())
    with mock.patch.object(cli, "_config_loader", side_effect=AssertionError("YAML was read")):
        got = cli._parse_config(text)
    assert _same(got, want), text


@pytest.mark.parametrize("text, got, pyyaml", [
    # tab indentation: PyYAML refuses a tab where it looks for the next token
    ('{\n\t"a": 1\n}', {"a": 1}, yaml.YAMLError),
    # a key longer than 1,024 characters is no simple key to PyYAML
    (json.dumps({"k" * 1025: 1}), {"k" * 1025: 1}, yaml.YAMLError),
    # a surrogate-pair escape: one character, where PyYAML reads two lone surrogates
    ('{"a": "\\ud83d\\ude00"}', {"a": "\U0001F600"}, {"a": "\ud83d\ude00"}),
    # a raw U+0085 (NEL) is a line break to YAML 1.1, folded into a space
    ('{"a": "x\u0085y"}', {"a": "x\x85y"}, {"a": "x y"}),
])
def test_json_text_pyyaml_reads_otherwise_is_read_as_json(text, got, pyyaml):
    assert _same(cli._parse_config(text), got)
    if isinstance(pyyaml, dict):
        assert _same(yaml.load(text, Loader=cli._config_loader()), pyyaml)
    else:
        with pytest.raises(pyyaml):
            yaml.load(text, Loader=cli._config_loader())


def test_json_constants_outside_json_are_read_by_yaml():
    """NaN and Infinity are not JSON: the text goes to YAML, which reads them as
    strings, as it always has (and an infinity field takes "Infinity")."""
    assert cli._parse_config('{"a": NaN, "b": [Infinity, -Infinity]}') == {
        "a": "NaN", "b": ["Infinity", "-Infinity"]}


def test_json_configs_load_no_yaml_and_yaml_configs_write_the_same_bytes(tmp_path):
    """In a fresh process, importing the CLI and a JSON-config run of every
    writing mode load no yaml; a YAML config loads it, and writes the bytes of
    the JSON one."""
    makers = {"levy-sim": levy_config, "shockwave": shockwave_config, "dp-value": dp_config,
              "convergence": lambda out: dict(convergence_config(out), n_list=[1, 2]),
              "markov-fields": lambda out: _recorded_run_config("markov-fields", out)}
    runs = []
    for mode, make in makers.items():
        cfg = tmp_path / f"{mode}.json"
        cfg.write_text(json.dumps(make(tmp_path / "json" / mode)), encoding="utf-8")
        runs.append(f"assert cli.main([{mode!r}, '--config', {str(cfg)!r}, '--quiet']) == 0")
    yaml_cfg = write_config(tmp_path, _recorded_run_config("markov-fields", tmp_path / "yaml"))
    code = "\n".join([
        "import json, sys",
        "import impactlab.cli as cli",
        "seen = ['yaml' in sys.modules]",
        *runs,
        "seen.append('yaml' in sys.modules)",
        f"assert cli.main(['markov-fields', '--config', {yaml_cfg!r}, '--quiet']) == 0",
        "seen.append('yaml' in sys.modules)",
        "print(json.dumps(seen))",
    ])
    proc = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=_src_env(), timeout=120
    )
    assert proc.returncode == 0, proc.stderr
    assert json.loads(proc.stdout) == [False, False, True]
    for mode in makers:
        assert any((tmp_path / "json" / mode).iterdir())
    digests = {p.name: hashlib.sha256(p.read_bytes()).hexdigest()
               for p in (tmp_path / "json" / "markov-fields").iterdir()}
    assert digests == RECORDED_SHA256["markov-fields"]
    assert (tmp_path / "yaml" / "markov_fields.csv").read_bytes() == (
        tmp_path / "json" / "markov-fields" / "markov_fields.csv").read_bytes()
