"""Every constructor refusal names the argument at fault, as the caller spells it."""

import dataclasses
import math
import re

import numpy as np
import pytest

from impactlab.cumulants import Brownian, GammaProcess, OneSidedStable
from impactlab.dp import DpScenario, Lattice, convergence_study
from impactlab.efficient import LevyScenario
from impactlab.errors import (
    ArgumentError,
    DomainError,
    ParameterError,
    QuadratureError,
    ScheduleError,
)
from impactlab.markov import MAX_ORDER, QuadraticModel, ShockWaveModel, _rules
from impactlab.paths import PathGrid, ShockSchedule, simulate_batch, simulate_path
from impactlab.utility import AgentPair, SampleSet

AGENTS = AgentPair(1.0, 1.0)
GAMMA = GammaProcess(alpha=1.0, beta=1.0)  # domain u > -1; abar = 0.5 with AGENTS
PAYOFFS = QuadraticModel(0.0, 0.0, 1.0, 1.0, 0.0, AGENTS).payoffs()


def _levy(a=0.0, schedule=ShockSchedule(), n_steps=4):
    return LevyScenario(GAMMA, AGENTS, a, schedule, PathGrid(n_steps))


def _quadratic(sigma=1.0, b_quad=0.0, agents=AGENTS):
    return QuadraticModel(g_load=0.0, mu=0.0, sigma=sigma, a_lin=0.0, b_quad=b_quad,
                          agents=agents)


# case: (the class whose constructor refuses, or None for markov._rules; the call;
#        the exception type; the argument it must name)
REFUSALS = {
    "agents-gamma-negative": (AgentPair, lambda: AgentPair(-1.0, 1.0), ParameterError, "gamma"),
    "agents-gamma-inf": (AgentPair, lambda: AgentPair(math.inf, 1.0), ParameterError, "gamma"),
    "agents-c-zero": (AgentPair, lambda: AgentPair(1.0, 0.0), ParameterError, "c"),
    "agents-c-nan": (AgentPair, lambda: AgentPair(1.0, math.nan), ParameterError, "c"),
    "brownian-b-nan": (Brownian, lambda: Brownian(b=math.nan), ParameterError, "b"),
    "brownian-sigma-inf": (Brownian, lambda: Brownian(sigma=math.inf), ParameterError, "sigma"),
    "brownian-sigma-negative": (Brownian, lambda: Brownian(sigma=-1.0), ParameterError, "sigma"),
    "gamma-alpha-zero": (
        GammaProcess, lambda: GammaProcess(alpha=0.0, beta=1.0), ParameterError, "alpha"),
    "gamma-beta-negative": (
        GammaProcess, lambda: GammaProcess(alpha=1.0, beta=-1.0), ParameterError, "beta"),
    "stable-r-zero": (
        OneSidedStable, lambda: OneSidedStable(r=0.0, alpha=0.5), ParameterError, "r"),
    "stable-alpha-one": (
        OneSidedStable, lambda: OneSidedStable(r=1.0, alpha=1.0), ParameterError, "alpha"),
    "shock-not-a-pair": (
        ShockSchedule, lambda: ShockSchedule(shocks=((0.5,),)), ScheduleError, "shocks[0]"),
    "shock-a-number": (
        ShockSchedule, lambda: ShockSchedule(shocks=((0.25, 0.1), 0.5)), ScheduleError,
        "shocks[1]"),
    "shock-time-a-string": (
        ShockSchedule, lambda: ShockSchedule(shocks=(("a", 0.1),)), ScheduleError, "shocks[0]"),
    "shock-time-none": (
        ShockSchedule, lambda: ShockSchedule(shocks=((None, 0.1),)), ScheduleError, "shocks[0]"),
    "shock-jump-a-bool": (
        ShockSchedule, lambda: ShockSchedule(shocks=((0.5, True),)), ScheduleError, "shocks[0]"),
    "shock-time-outside-0-1": (
        ShockSchedule, lambda: ShockSchedule(shocks=((1.5, 0.1),)), ScheduleError, "shocks[0]"),
    "shocks-out-of-order": (
        ShockSchedule, lambda: ShockSchedule(shocks=((0.5, 0.1), (0.4, 0.1))), ScheduleError,
        "shocks[1]"),
    "shock-jump-inf": (
        ShockSchedule, lambda: ShockSchedule(shocks=((0.5, math.inf),)), ScheduleError,
        "shocks[0]"),
    "schedule-initial-nan": (
        ShockSchedule, lambda: ShockSchedule(initial_value=math.nan), ScheduleError,
        "initial_value"),
    "schedule-h-inf": (ShockSchedule, lambda: ShockSchedule(h=math.inf), ScheduleError, "h"),
    "levy-loading-inf": (LevyScenario, lambda: _levy(a=math.inf), ParameterError, "a"),
    "levy-loading-outside-domain": (LevyScenario, lambda: _levy(a=-1.5), DomainError, "a"),
    "levy-initial-level-outside-domain": (
        LevyScenario, lambda: _levy(schedule=ShockSchedule(initial_value=-2.5)), DomainError,
        "schedule.initial_value"),
    "levy-shocked-level-outside-domain": (
        LevyScenario,
        lambda: _levy(schedule=ShockSchedule(shocks=((0.25, 0.5), (0.5, -3.0)))), DomainError,
        "schedule.shocks[1]"),
    "levy-shocks-snap-off-the-grid": (
        LevyScenario, lambda: _levy(schedule=ShockSchedule(shocks=((0.5, 0.1),)), n_steps=1),
        ScheduleError, "schedule.shocks"),
    "levy-shocks-snap-to-one-index": (
        LevyScenario,
        lambda: _levy(schedule=ShockSchedule(shocks=((0.49, 0.1), (0.51, 0.1))), n_steps=2),
        ScheduleError, "schedule.shocks"),
    "quadratic-sigma-zero": (QuadraticModel, lambda: _quadratic(sigma=0.0), ParameterError,
                             "sigma"),
    "quadratic-curvature": (
        QuadraticModel, lambda: _quadratic(b_quad=-0.6, agents=AgentPair(4.0, 4.0)),
        ParameterError, "b_quad"),
    "shockwave-sigma-zero": (
        ShockWaveModel, lambda: ShockWaveModel(mu=0.0, sigma=0.0, w_c=0.0, agents=AGENTS),
        ParameterError, "sigma"),
    "shockwave-zero-aversion": (
        ShockWaveModel,
        lambda: ShockWaveModel(mu=0.0, sigma=1.0, w_c=0.0, agents=AgentPair(0.0, 1.0)),
        ParameterError, "agents.gamma"),
    "dp-lo-not-finite": (
        DpScenario, lambda: DpScenario(Lattice(2), PAYOFFS, (-math.inf, 1.0)), ParameterError,
        "admissible[0]"),
    "dp-lo-above-hi": (
        DpScenario, lambda: DpScenario(Lattice(2), PAYOFFS, (1.0, -1.0)), ParameterError,
        "admissible[1]"),
    "dp-interval-without-0": (
        DpScenario, lambda: DpScenario(Lattice(2), PAYOFFS, (0.5, 2.0)), ParameterError,
        "admissible[0]"),
    "dp-resolution-too-coarse": (
        DpScenario, lambda: DpScenario(Lattice(2), PAYOFFS, (-1.0, 1.0), 3.0), ParameterError,
        "y_resolution"),
    "lattice-zero": (Lattice, lambda: Lattice(0), ParameterError, "n"),
    "lattice-a-float": (Lattice, lambda: Lattice(2.5), ParameterError, "n"),
    "lattice-a-bool": (Lattice, lambda: Lattice(True), ParameterError, "n"),
    "lattice-a-numpy-bool": (Lattice, lambda: Lattice(np.True_), ParameterError, "n"),
    "grid-zero": (PathGrid, lambda: PathGrid(0), ParameterError, "n_steps"),
    "grid-a-bool": (PathGrid, lambda: PathGrid(True), ParameterError, "n_steps"),
    "samples-none": (SampleSet, lambda: SampleSet.uniform([]), ParameterError, "values"),
    "samples-not-finite": (
        SampleSet, lambda: SampleSet.uniform([1.0, math.nan]), ParameterError, "values"),
    "samples-weights-of-another-length": (
        SampleSet, lambda: SampleSet(np.ones(2), np.ones(3) / 3), ParameterError, "weights"),
    "samples-weight-negative": (
        SampleSet, lambda: SampleSet(np.ones(2), np.array([2.0, -1.0])), ParameterError,
        "weights"),
    "samples-weights-sum": (
        SampleSet, lambda: SampleSet(np.ones(2), np.array([0.5, 0.6])), ParameterError,
        "weights"),
    "order-below-2": (None, lambda: _rules(1), ParameterError, "order"),
    "order-not-computable": (None, lambda: _rules(MAX_ORDER + 1), QuadratureError, "order"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_every_constructor_refusal_names_its_argument(case):
    cls, call, error, argument = REFUSALS[case]
    with pytest.raises(error) as refused:
        call()
    assert isinstance(refused.value, ArgumentError)
    assert refused.value.argument == argument
    head = re.split(r"[.\[]", argument)[0]
    assert head in ({f.name for f in dataclasses.fields(cls)} if cls else {"order"})


def test_integer_arguments_take_what_operator_index_takes():
    assert Lattice(np.int64(3)) == Lattice(3) and type(Lattice(np.int64(3)).n) is int
    assert PathGrid(np.int64(4)) == PathGrid(4) and type(PathGrid(np.int64(4)).n_steps) is int
    batch = simulate_batch(Brownian(), PathGrid(4), ShockSchedule(), np.int64(5), np.int64(2))
    assert np.array_equal(batch.x, simulate_batch(Brownian(), PathGrid(4), ShockSchedule(), 5, 2).x)
    for seed in (True, 1.0):
        with pytest.raises(ParameterError) as refused:
            simulate_path(Brownian(), PathGrid(4), ShockSchedule(), seed)
        assert refused.value.argument == "seed"
    scenario = DpScenario(Lattice(2), PAYOFFS, (-1.0, 1.0), 0.5)
    rows = convergence_study(scenario, np.array([1, 2]), limit=0.0)
    assert [row.n for row in rows] == [1, 2] and all(type(row.n) is int for row in rows)


def test_a_schedule_of_lists_and_arrays_reads_as_float_pairs():
    schedule = ShockSchedule(shocks=([0.25, 1], np.array([0.5, -2.0])))
    assert schedule.shocks == ((0.25, 1.0), (0.5, -2.0))
    assert all(type(v) is float for shock in schedule.shocks for v in shock)
