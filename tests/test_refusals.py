"""Every constructor or function refusal names the argument at fault, as the caller spells it."""

import dataclasses
import inspect
import math
import re
import warnings
from unittest import mock

import numpy as np
import pytest

from impactlab.cumulants import Brownian, GammaProcess, OneSidedStable
from impactlab.dp import DpScenario, Lattice, convergence_study
from impactlab.efficient import LevyScenario
from impactlab import markov
from impactlab.errors import (
    ArgumentError,
    DomainError,
    NoRootError,
    ParameterError,
    QuadratureError,
    ScheduleError,
)
from impactlab.markov import (
    MAX_ORDER,
    QuadraticModel,
    ShockWaveModel,
    _rules,
    _state_fields,
    completeness_invert,
    field_p,
    field_q,
    field_u,
    field_v,
    optimal_strategy_markov,
    replication_price,
)
from impactlab.paths import (
    PathBatch,
    PathGrid,
    PathSample,
    ShockSchedule,
    simulate_batch,
    simulate_path,
)
from impactlab.utility import AgentPair, SampleSet

AGENTS = AgentPair(1.0, 1.0)
GAMMA = GammaProcess(alpha=1.0, beta=1.0)  # domain u > -1; abar = 0.5 with AGENTS
PAYOFFS = QuadraticModel(0.0, 0.0, 1.0, 1.0, 0.0, AGENTS).payoffs()


def _levy(a=0.0, schedule=ShockSchedule(), n_steps=4):
    return LevyScenario(GAMMA, AGENTS, a, schedule, PathGrid(n_steps))


def _quadratic(sigma=1.0, b_quad=0.0, agents=AGENTS):
    return QuadraticModel(g_load=0.0, mu=0.0, sigma=sigma, a_lin=0.0, b_quad=b_quad,
                          agents=agents)


# case: (the class whose constructor refuses, or the function that refuses; the call;
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
    "schedule-initial-value-a-string": (
        ShockSchedule, lambda: ShockSchedule(initial_value="x"), ScheduleError, "initial_value"),
    "schedule-initial-value-a-bool": (
        ShockSchedule, lambda: ShockSchedule(initial_value=True), ScheduleError, "initial_value"),
    "schedule-h-none": (ShockSchedule, lambda: ShockSchedule(h=None), ScheduleError, "h"),
    "schedule-h-a-bool": (ShockSchedule, lambda: ShockSchedule(h=False), ScheduleError, "h"),
    "shock-time-outside-0-1": (
        ShockSchedule, lambda: ShockSchedule(shocks=((1.5, 0.1),)), ScheduleError, "shocks[0]"),
    "shocks-out-of-order": (
        ShockSchedule, lambda: ShockSchedule(shocks=((0.5, 0.1), (0.4, 0.1))), ScheduleError,
        "shocks[1]"),
    "shock-jump-inf": (
        ShockSchedule, lambda: ShockSchedule(shocks=((0.5, math.inf),)), ScheduleError,
        "shocks[0]"),
    "shock-time-too-large-for-a-float": (
        ShockSchedule, lambda: ShockSchedule(shocks=((10**400, 0.1),)), ScheduleError,
        "shocks[0]"),
    "shock-jump-too-large-for-a-float": (
        ShockSchedule, lambda: ShockSchedule(shocks=((0.25, 0.1), (0.5, -10**400))),
        ScheduleError, "shocks[1]"),
    "schedule-initial-too-large-for-a-float": (
        ShockSchedule, lambda: ShockSchedule(initial_value=10**400), ScheduleError,
        "initial_value"),
    "schedule-h-too-large-for-a-float": (
        ShockSchedule, lambda: ShockSchedule(h=-10**400), ScheduleError, "h"),
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
    "order-below-2": (_rules, lambda: _rules(1), ParameterError, "order"),
    "order-not-computable": (_rules, lambda: _rules(MAX_ORDER + 1), QuadratureError, "order"),
    "order-a-float": (_rules, lambda: _rules(2.5), ParameterError, "order"),
    "order-a-whole-float": (_rules, lambda: _rules(128.0), ParameterError, "order"),  # 128 cached
    "order-371": (field_v, lambda: field_v(PAYOFFS, 0.5, 0.1, order=371), QuadratureError, "order"),
    "order-a-float-at-the-end-value": (
        field_v, lambda: field_v(PAYOFFS, 1.0, 0.1, order=2.5), ParameterError, "order"),
    "order-below-2-at-the-end-value": (
        field_v, lambda: field_v(PAYOFFS, 1.0, 0.1, order=1), ParameterError, "order"),
    "order-a-float-at-the-end-book": (
        field_p, lambda: field_p(PAYOFFS, 1.0, 0.1, 0.2, order=2.5), ParameterError, "order"),
    "order-below-2-at-the-end-book": (
        field_p, lambda: field_p(PAYOFFS, 1.0, 0.1, 0.2, order=1), ParameterError, "order"),
    "order-a-float-at-the-end-replication": (
        replication_price, lambda: replication_price(PAYOFFS, 1.0, 0.1, order=2.5), ParameterError,
        "order"),
    "order-below-2-at-the-end-replication": (
        replication_price, lambda: replication_price(PAYOFFS, 1.0, 0.1, order=1), ParameterError,
        "order"),
    "order-huge-at-the-end-replication": (
        replication_price, lambda: replication_price(PAYOFFS, 1.0, 0.1, order=10**6),
        QuadratureError, "order"),
    "order-a-float-in-a-root": (
        optimal_strategy_markov, lambda: optimal_strategy_markov(PAYOFFS, 0.5, 0.1, order=2.5),
        ParameterError, "order"),
    "bracket-infinite-ends": (
        optimal_strategy_markov,
        lambda: optimal_strategy_markov(PAYOFFS, 0.5, 0.1, bracket=(-math.inf, math.inf)),
        ParameterError, "bracket"),
    "bracket-infinite-width": (
        optimal_strategy_markov,
        lambda: optimal_strategy_markov(PAYOFFS, 0.5, 0.1, bracket=(-1e308, 1e308)),
        ParameterError, "bracket"),
    "bracket-an-infinite-end": (
        completeness_invert, lambda: completeness_invert(PAYOFFS, 0.5, 0.1, 0.2, bracket=(0.0, math.inf)),
        ParameterError, "bracket"),
    "bracket-a-nan-end": (
        completeness_invert, lambda: completeness_invert(PAYOFFS, 0.5, 0.1, 0.2, bracket=(math.nan, 1.0)),
        ParameterError, "bracket"),
    "bracket-empty": (
        completeness_invert, lambda: completeness_invert(PAYOFFS, 0.5, 0.1, 0.2, bracket=(1.0, 1.0)),
        ParameterError, "bracket"),
    "w-nan-value": (field_v, lambda: field_v(PAYOFFS, 0.5, math.nan), ParameterError, "w"),
    "w-inf-value-at-the-end": (field_v, lambda: field_v(PAYOFFS, 1.0, math.inf), ParameterError, "w"),
    "w-nan-book": (field_p, lambda: field_p(PAYOFFS, 0.5, math.nan, 0.1), ParameterError, "w"),
    "w-inf-gradient": (field_u, lambda: field_u(PAYOFFS, 0.5, -math.inf), ParameterError, "w"),
    "w-nan-book-gradient": (field_q, lambda: field_q(PAYOFFS, 0.5, math.nan, 0.1), ParameterError, "w"),
    "w-inf-replication": (
        replication_price, lambda: replication_price(PAYOFFS, 0.5, math.inf), ParameterError, "w"),
    "w-nan-inversion": (
        completeness_invert, lambda: completeness_invert(PAYOFFS, 0.5, math.nan, 0.2), ParameterError,
        "w"),
    "w-nan-table": (
        _state_fields, lambda: _state_fields(PAYOFFS, 0.5, np.array([0.1, math.nan]), 0.2),
        ParameterError, "w"),
    "w-inf-table": (
        _state_fields, lambda: _state_fields(PAYOFFS, 0.5, np.array([-math.inf, 0.1]), 0.2),
        ParameterError, "w"),
    "y-nan-book": (field_p, lambda: field_p(PAYOFFS, 0.5, 0.1, math.nan), ParameterError, "y"),
    "y-inf-book": (field_p, lambda: field_p(PAYOFFS, 0.5, 0.1, math.inf), ParameterError, "y"),
    "y-nan-book-at-the-end": (
        field_p, lambda: field_p(PAYOFFS, 1.0, 0.1, math.nan), ParameterError, "y"),
    "y-inf-book-at-the-end": (
        field_p, lambda: field_p(PAYOFFS, 1.0, 0.1, -math.inf), ParameterError, "y"),
    "y-nan-book-gradient": (
        field_q, lambda: field_q(PAYOFFS, 0.5, 0.1, math.nan), ParameterError, "y"),
    "y-inf-book-gradient": (
        field_q, lambda: field_q(PAYOFFS, 0.5, 0.1, math.inf), ParameterError, "y"),
    "y-nan-table": (
        _state_fields, lambda: _state_fields(PAYOFFS, 0.5, np.array([0.1]), math.nan),
        ParameterError, "y"),
    "w-inf-strategy": (
        optimal_strategy_markov, lambda: optimal_strategy_markov(PAYOFFS, 0.5, math.inf),
        ParameterError, "w"),
    "t-one-gradient": (field_u, lambda: field_u(PAYOFFS, 1.0, 0.1), ParameterError, "t"),
    "t-one-book-gradient": (
        field_q, lambda: field_q(PAYOFFS, 1.0, 0.1, 0.2), ParameterError, "t"),
    "t-one-inversion": (
        completeness_invert, lambda: completeness_invert(PAYOFFS, 1.0, 0.1, 0.2), ParameterError,
        "t"),
    "t-one-strategy": (
        optimal_strategy_markov, lambda: optimal_strategy_markov(PAYOFFS, 1.0, 0.1),
        ParameterError, "t"),
    "t-one-table": (
        _state_fields, lambda: _state_fields(PAYOFFS, 1.0, np.array([0.1]), 0.2), ParameterError,
        "t"),
    "path-start-nonzero": (
        PathSample, lambda: PathSample(np.array([0.5, 1.0]), np.zeros(1), np.zeros(2)),
        ParameterError, "x"),
    "path-start-nan": (
        PathSample, lambda: PathSample(np.array([math.nan, 1.0]), np.zeros(1), np.zeros(2)),
        ParameterError, "x"),
    "path-levels-a-matrix": (
        PathSample, lambda: PathSample(np.zeros((1, 2)), np.zeros(1), np.zeros(2)),
        ParameterError, "x"),
    "path-increments-of-another-length": (
        PathSample, lambda: PathSample(np.zeros(3), np.zeros(3), np.zeros(3)), ParameterError,
        "increments"),
    "path-h-prime-of-another-length": (
        PathSample, lambda: PathSample(np.zeros(3), np.zeros(2), np.zeros(2)), ParameterError,
        "h_prime"),
    "batch-start-nonzero": (
        PathBatch, lambda: PathBatch(np.array([[0.0, 1.0], [0.5, 1.0]]), np.zeros((2, 1)),
                                     np.zeros(2)),
        ParameterError, "x"),
    "batch-levels-a-row": (
        PathBatch, lambda: PathBatch(np.zeros(2), np.zeros(1), np.zeros(2)), ParameterError, "x"),
    "batch-increments-of-another-length": (
        PathBatch, lambda: PathBatch(np.zeros((2, 3)), np.zeros((2, 3)), np.zeros(3)),
        ParameterError, "increments"),
    "batch-increments-of-another-count": (
        PathBatch, lambda: PathBatch(np.zeros((2, 3)), np.zeros((3, 2)), np.zeros(3)),
        ParameterError, "increments"),
    "batch-h-prime-of-another-length": (
        PathBatch, lambda: PathBatch(np.zeros((2, 3)), np.zeros((2, 2)), np.zeros(2)),
        ParameterError, "h_prime"),
}


@pytest.mark.parametrize("case", sorted(REFUSALS))
def test_every_constructor_refusal_names_its_argument(case):
    cls, call, error, argument = REFUSALS[case]
    with pytest.raises(error) as refused:
        call()
    assert isinstance(refused.value, ArgumentError)
    assert refused.value.argument == argument
    head = re.split(r"[.\[]", argument)[0]
    names = ({f.name for f in dataclasses.fields(cls)} if dataclasses.is_dataclass(cls)
             else set(inspect.signature(cls).parameters))
    assert head in names


@pytest.mark.parametrize("bracket", [(-math.inf, math.inf), (-1e308, 1e308), (0.0, math.nan)])
def test_a_non_finite_bracket_is_refused_before_any_probe(bracket):
    # the probes of such a bracket were infinite or NaN: numpy warned, and the
    # refusal came late, as "no sign change among the probes of [-inf, inf]"
    with warnings.catch_warnings(), \
            mock.patch.object(markov, "_probe_grid", side_effect=AssertionError("probed")):
        warnings.simplefilter("error")
        for call in (lambda: optimal_strategy_markov(PAYOFFS, 0.5, 0.1, bracket=bracket),
                     lambda: completeness_invert(PAYOFFS, 0.5, 0.1, 0.2, bracket=bracket)):
            with pytest.raises(ParameterError) as refused:
                call()
            assert refused.value.argument == "bracket"


def test_the_lo_hi_refusal_keeps_its_message():
    with pytest.raises(ParameterError, match=r"^bracket must satisfy lo < hi$") as refused:
        completeness_invert(PAYOFFS, 0.5, 0.1, 0.2, bracket=(2.0, -2.0))
    assert refused.value.argument == "bracket"


def test_an_expansion_that_would_leave_the_float_range_stops_without_a_warning():
    # a constant security never changes the residual's sign; from [1e300, 2e300]
    # the 28th doubling would pass the largest float, before the 30 allowed
    flat = dataclasses.replace(PAYOFFS, s_fn=lambda w: np.zeros_like(w))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NoRootError, match="after 27 expansions: the next leaves the float range"):
            completeness_invert(flat, 0.5, 0.1, 0.2, bracket=(1e300, 2e300))
        with pytest.raises(NoRootError, match="after 30 expansions"):
            completeness_invert(flat, 0.5, 0.1, 0.2, bracket=(-1.0, 1.0))


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


def test_a_schedule_stores_its_numbers_as_floats():
    schedule = ShockSchedule(initial_value=1, shocks=((0.5, 2),), h=np.float32(0.5))
    assert (schedule.initial_value, schedule.h) == (1.0, 0.5)
    assert type(schedule.initial_value) is float and type(schedule.h) is float
    # an int initial_value, stored as a float, gives a float series that takes float jumps
    assert schedule.series(PathGrid(4)).tolist() == [1.0, 1.0, 3.0, 3.0, 3.0]
    for name in ("initial_value", "h"):
        with pytest.raises(ScheduleError, match=f"^{name} must be a number$"):
            ShockSchedule(**{name: "1.0"})
