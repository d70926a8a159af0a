"""Acceptance gate: ten criteria, one pass/fail line each.

Each test prints a single `[PASS]`/`[FAIL]` line with its runtime so the
whole gate can be read off a plain `pytest -s tests/test_acceptance.py` run.
Tolerances and budgets are asserted, not just reported.
"""

import itertools
import math
import time

import numpy as np
import yaml

from impactlab.cli import main
from impactlab.cumulants import Brownian, GammaProcess, OneSidedStable
from impactlab.dp import (
    DpScenario,
    Lattice,
    convergence_study,
    emm_eipu,
    no_rebalance_check,
    value_recursion,
)
from impactlab.efficient import (
    LevyScenario,
    allocation_value,
    efficient_batch_record,
    efficient_convexity,
    efficient_price,
    eipu,
)
from impactlab.markov import (
    MarkovPayoffs,
    QuadraticModel,
    ShockWaveModel,
    crash_events,
    field_p,
    field_u,
    field_v,
    quadratic_p,
    quadratic_v,
    shockwave_path,
    tanh_field,
)
from impactlab.paths import PathGrid, ShockSchedule, simulate_batch
from impactlab.utility import AgentPair, levy_pi


def _finish(num: int, label: str, started: float, budget: float, ok: bool, detail: str = ""):
    elapsed = time.perf_counter() - started
    status = "PASS" if ok and elapsed < budget else "FAIL"
    print(f"[{status}] criterion {num:02d}: {label} ({elapsed:.2f}s / budget {budget:.0f}s)")
    assert ok, f"criterion {num} failed: {label} {detail}"
    assert elapsed < budget, f"criterion {num} exceeded budget: {elapsed:.2f}s >= {budget}s"


def test_criterion_01_cumulant_derivatives():
    started = time.perf_counter()
    rng = np.random.default_rng(1001)
    cases = [
        (Brownian(b=0.3, sigma=1.2), lambda: rng.uniform(-3.0, 3.0)),
        (GammaProcess(alpha=2.5, beta=1.5), lambda: rng.uniform(-2.4, 5.0)),
        (OneSidedStable(r=1.2, alpha=0.6), lambda: rng.uniform(0.05, 5.0)),
    ]
    worst = 0.0
    for model, draw in cases:
        for _ in range(100):
            u = draw()
            h1 = 1e-6 * max(1.0, abs(u))
            h2 = 1e-4 * max(1.0, abs(u))
            fd1 = (model.kappa(u + h1) - model.kappa(u - h1)) / (2 * h1)
            fd2 = (model.kappa(u + h2) - 2 * model.kappa(u) + model.kappa(u - h2)) / h2**2
            r1 = abs(model.kappa_prime(u) - fd1) / max(1.0, abs(fd1))
            r2 = abs(model.kappa_double_prime(u) - fd2) / max(1.0, abs(fd2))
            worst = max(worst, r1, r2)
    _finish(1, "cumulant derivatives vs finite differences", started, 1.0,
            worst < 1e-5, f"(worst rel {worst:.2e})")


def test_criterion_02_levy_pricing_identity():
    started = time.perf_counter()
    draws = 10**6
    cases = []
    for i, (b, sig, gamma, z) in enumerate(
        [(0.0, 1.0, 1.0, 1.0), (0.5, 0.7, 0.5, -1.2), (-0.3, 1.5, 2.0, 0.4),
         (1.0, 0.2, 0.8, 2.0), (0.1, 2.0, 1.5, -0.5)]
    ):
        cases.append((Brownian(b, sig), gamma, z, 2001 + i))
    for i, (al, be, gamma, z) in enumerate(
        [(2.0, 1.0, 1.0, 0.5), (4.0, 0.8, 0.5, -1.5), (1.5, 2.0, 2.0, 0.6),
         (3.0, 1.2, 1.0, -1.0), (2.5, 0.5, 0.25, 3.0)]
    ):
        cases.append((GammaProcess(al, be), gamma, z, 2101 + i))
    for i, (r, al, gamma, z) in enumerate(
        [(1.0, 0.5, 1.0, 0.5), (0.7, 0.3, 2.0, 1.0), (1.5, 0.8, 0.5, 2.0),
         (2.0, 0.6, 1.0, 0.2), (0.4, 0.45, 1.5, 3.0)]
    ):
        cases.append((OneSidedStable(r, al), gamma, z, 2201 + i))

    ok = True
    detail = ""
    for model, gamma, z, seed in cases:
        rng = np.random.default_rng(seed)
        x1 = model.sample_increments(rng, 1.0, draws)
        exps = np.exp(-gamma * z * x1)
        mean = exps.mean()
        mc = -math.log(mean) / gamma
        se = exps.std(ddof=1) / math.sqrt(draws) / (gamma * mean)
        gap = abs(mc - levy_pi(model, gamma, z, 0.0, 0.0))
        if gap > 3 * se:
            ok = False
            detail = f"({type(model).__name__} gamma={gamma} z={z}: {gap:.2e} > 3*{se:.2e})"
            break
    _finish(2, "indifference value vs Monte Carlo (1e6 draws x 15 cases)", started, 30.0, ok, detail)


def test_criterion_03_price_curve_derivatives():
    started = time.perf_counter()
    rng = np.random.default_rng(3003)
    grid = PathGrid(8)
    scenarios = [
        LevyScenario(Brownian(0.2, 1.1), AgentPair(1.3, 0.9), 0.6, ShockSchedule(), grid),
        LevyScenario(GammaProcess(5.0, 1.2), AgentPair(0.8, 1.7), 0.4, ShockSchedule(), grid),
    ]
    worst_slope = worst_curv = 0.0
    for scn in scenarios:
        for _ in range(100):
            t = rng.uniform(0.0, 0.999)
            x = rng.uniform(-1.0, 1.0)
            hp = rng.uniform(-0.3, 0.8)
            eps = 1e-5
            slope = (
                efficient_price(scn, x, hp, t, eps) - efficient_price(scn, x, hp, t, -eps)
            ) / (2 * eps)
            worst_slope = max(
                worst_slope,
                abs(slope - eipu(scn, x, hp, t)) / max(1.0, abs(slope)),
            )
            eps = 5e-4
            curv = (
                efficient_price(scn, x, hp, t, eps)
                - 2 * efficient_price(scn, x, hp, t, 0.0)
                + efficient_price(scn, x, hp, t, -eps)
            ) / eps**2
            worst_curv = max(
                worst_curv,
                abs(curv - efficient_convexity(scn, hp, t)) / max(1.0, abs(curv)),
            )
    _finish(3, "price-curve slope/curvature vs finite differences (200 states)", started, 1.0,
            worst_slope < 1e-6 and worst_curv < 1e-5,
            f"(slope {worst_slope:.2e}, curvature {worst_curv:.2e})")


def test_criterion_04_allocation_identity():
    started = time.perf_counter()
    scn = LevyScenario(
        GammaProcess(3.0, 0.8), AgentPair(0.9, 1.6), 0.7,
        ShockSchedule(initial_value=0.4, shocks=((0.5, -0.9),), h=0.2), PathGrid(16),
    )
    n_paths = 100_000
    batch = simulate_batch(scn.model, scn.grid, scn.schedule, seed=404, n_paths=n_paths)
    rec = efficient_batch_record(scn, batch)
    endowment, optimal, x1 = rec.endowment_payoff, rec.terminal_wealth, batch.x[:, -1]

    c, gamma, a = scn.agents.c, scn.agents.gamma, scn.a
    alloc = allocation_value(scn)

    def ce_and_se(wealth):
        exps = np.exp(-c * wealth)
        mean = exps.mean()
        return -math.log(mean) / c, exps.std(ddof=1) / math.sqrt(exps.size) / (c * mean)

    ce_opt, se_opt = ce_and_se(optimal)
    ok = abs(ce_opt - alloc) < 3 * se_opt
    detail = f"(optimal gap {abs(ce_opt - alloc):.2e} vs 3*{se_opt:.2e})"

    # constant strategies collapse to y*x_1 plus a deterministic fee leg
    rng = np.random.default_rng(405)
    for y in rng.uniform(-1.5, 1.5, size=20):
        fee = (scn.model.kappa(gamma * (a - y)) - scn.model.kappa(gamma * a)) / gamma
        ce_y, se_y = ce_and_se(endowment + y * x1 + fee)
        if not alloc > ce_y - 3 * se_y:
            ok = False
            detail = f"(constant y={y:.3f} reached {ce_y:.6f} +- {se_y:.1e} vs {alloc:.6f})"
            break
    _finish(4, "allocation value vs Monte Carlo and 20 constant strategies", started, 60.0, ok, detail)


def test_criterion_05_quadratic_gaussian_fields():
    started = time.perf_counter()
    model = QuadraticModel(
        g_load=0.3, mu=0.1, sigma=1.1, a_lin=0.6, b_quad=0.4,
        agents=AgentPair(gamma=1.2, c=0.9), h_const=0.25,
    )
    pay = model.payoffs()
    rng = np.random.default_rng(505)
    worst = 0.0
    for _ in range(100):
        t = rng.uniform(0.0, 0.999)
        w = rng.uniform(-1.5, 1.5)
        y = rng.uniform(-2.0, 2.0)
        worst = max(worst, abs(field_v(pay, t, w) - quadratic_v(model, t, w)))
        worst = max(worst, abs(field_p(pay, t, w, y) - quadratic_p(model, t, w, y)))
    fields_ok = worst < 1e-8

    # realized quadratic variation of the efficient price vs the stated density
    agents = model.agents
    abar = agents.aggregate_aversion
    n_steps, n_paths = 10_000, 1_000
    grid = PathGrid(n_steps)
    times = grid.times
    lin = model.g_load * model.sigma + model.a_lin
    denom = 1.0 + abar * model.b_quad * (1.0 - times)
    driver = Brownian(0.0, 1.0)
    qv = np.empty(n_paths)
    for first in range(0, n_paths, 100):  # paths 0..999 of seed 506, 100 at a time
        w_paths = simulate_batch(driver, grid, ShockSchedule(), seed=506, n_paths=100,
                                 first=first).x
        s_star = model.mu + model.sigma * (w_paths - lin * abar * (1.0 - times)) / denom
        qv[first:first + 100] = np.sum(np.diff(s_star) ** 2, axis=1)
    # sigma^2 (c+gamma)^2 / (c+gamma+c*gamma*b(1-t))^2, averaged over [0, 1]
    target = model.sigma**2 / (1.0 + abar * model.b_quad)
    qv_ok = abs(qv.mean() - target) < 0.02 * target
    _finish(5, "quadratic-Gaussian closed forms and realized price variance", started, 60.0,
            fields_ok and qv_ok,
            f"(worst field gap {worst:.2e}; QV {qv.mean():.6f} vs {target:.6f})")


def test_criterion_06_shock_wave():
    started = time.perf_counter()
    model = ShockWaveModel(mu=0.0, sigma=1.0, w_c=-0.6, agents=AgentPair(gamma=4.0, c=4.0))
    a = model.wave_aversion
    assert a == 2.0

    ts = np.linspace(0.005, 0.995, 100)
    ws = np.linspace(-2.5, 2.5, 100)
    tt, ww = np.meshgrid(ts, ws, indexing="ij")
    eps = 1e-4
    u = tanh_field(model, tt, ww)
    u_t = (tanh_field(model, tt + eps, ww) - tanh_field(model, tt - eps, ww)) / (2 * eps)
    u_w = (tanh_field(model, tt, ww + eps) - tanh_field(model, tt, ww - eps)) / (2 * eps)
    u_ww = (tanh_field(model, tt, ww + eps) - 2 * u + tanh_field(model, tt, ww - eps)) / eps**2
    pde_residual = float(np.max(np.abs(u_t + 0.5 * u_ww - a * u * u_w)))

    pay = model.payoffs()
    field_gap = 0.0
    for t in np.linspace(0.0, 0.95, 8):
        for w in np.linspace(-1.8, 1.8, 8):
            field_gap = max(
                field_gap,
                abs(field_u(pay, float(t), float(w), order=160) - float(tanh_field(model, t, w))),
            )

    grid = PathGrid(2000)
    driver = Brownian(0.0, 1.0)
    crossing_paths = 0
    events_checked = 0
    all_satisfied = True
    # paths 0..599 of seed 606, simulated a block of 100 at a time until enough cross
    blocks = (simulate_batch(driver, grid, ShockSchedule(), seed=606, n_paths=100, first=first)
              for first in range(0, 600, 100))
    for path in itertools.chain.from_iterable(blocks):
        events = crash_events(model, shockwave_path(model, path, grid))
        if events:
            crossing_paths += 1
            events_checked += len(events)
            all_satisfied = all_satisfied and all(ev.satisfied for ev in events)
        if crossing_paths >= 100:
            break
    crash_ok = crossing_paths >= 100 and all_satisfied
    _finish(6, "Burgers residual, tanh gradient field, crash bound on 100 crossing paths",
            started, 30.0, pde_residual < 1e-6 and field_gap < 1e-7 and crash_ok,
            f"(pde {pde_residual:.2e}, field {field_gap:.2e}, "
            f"paths {crossing_paths}, events {events_checked})")


def _wrap(f):
    return lambda w: np.asarray(f(np.asarray(w, dtype=float)), dtype=float)


def _scenario(n, s, g, h, gamma, c, admissible, res):
    pay = MarkovPayoffs(s_fn=_wrap(s), g_fn=_wrap(g), h_fn=_wrap(h),
                        agents=AgentPair(gamma=gamma, c=c))
    return DpScenario(Lattice(n), pay, admissible, res)


def _ce_flip(up, dn, aversion):
    return -(np.logaddexp(-aversion * up, -aversion * dn) - math.log(2.0)) / aversion


def _direct_root_value(scenario):
    lat, grid = scenario.lattice, scenario.y_grid()
    gamma, c = scenario.agents.gamma, scenario.agents.c
    from scipy.special import logsumexp

    pi_cache = {}

    def pi_node(level, m, y):
        key = (level, m, float(y))
        if key not in pi_cache:
            leaves = lat.leaf_values_from(level, m)
            logw = lat.leaf_log_weights_from(level)
            vals = scenario.payoffs.g_fn(leaves) - y * scenario.payoffs.s_fn(leaves)
            pi_cache[key] = float(-logsumexp(logw - gamma * vals) / gamma)
        return pi_cache[key]

    memo = {}

    def best(level, m, yi):
        key = (level, m, yi)
        if key in memo:
            return memo[key]
        hold = pi_node(level, m, grid[yi])
        out = -math.inf
        for yj, y_new in enumerate(grid):
            if level + 1 == lat.n:
                pt = np.asarray([lat.node_value(lat.n, m + 1)]), np.asarray([lat.node_value(lat.n, m)])
                up = float(scenario.payoffs.h_fn(pt[0])[0] + y_new * scenario.payoffs.s_fn(pt[0])[0])
                dn = float(scenario.payoffs.h_fn(pt[1])[0] + y_new * scenario.payoffs.s_fn(pt[1])[0])
            else:
                up, dn = best(level + 1, m + 1, yj), best(level + 1, m, yj)
            out = max(out, pi_node(level, m, y_new) - hold + _ce_flip(up, dn, c))
        memo[key] = out
        return out

    zero = int(np.argmin(np.abs(grid)))
    return best(0, 0, zero)


def test_criterion_07_dp_engine_exactness():
    started = time.perf_counter()
    # one-period scenarios against brute-force scans over the trade size
    rng = np.random.default_rng(707)
    worst = 0.0
    configs = [(1.0, 1.0, 0.0, 1.0)] + [
        tuple(rng.uniform(0.3, 1.5, size=4)) for _ in range(4)
    ]
    anchor = None
    for gamma, c, g_slope, h_slope in configs:
        scn = _scenario(
            1, lambda w: w, lambda w, b=g_slope: b * w, lambda w, a=h_slope: a * w,
            gamma, c, (-2.0, 2.0), 1e-3,
        )
        value = value_recursion(scn).value

        def objective(y):
            pi_up, pi_dn = g_slope - y, -(g_slope - y)
            ce_d = _ce_flip(h_slope + g_slope - pi_up, -(h_slope + g_slope) - pi_dn, c)
            return ce_d + _ce_flip(pi_up, pi_dn, gamma) - _ce_flip(g_slope, -g_slope, gamma)

        ys = np.arange(-2.0, 2.0 + 1e-12, 1e-5)
        brute = float(np.max(objective(ys)))
        worst = max(worst, abs(value - brute))
        if (gamma, c, g_slope, h_slope) == (1.0, 1.0, 0.0, 1.0):
            anchor = value
    anchored = abs(anchor + 2.0 * math.log(math.cosh(0.5))) < 1e-8

    scn = _scenario(
        4, lambda w: 1.0 + 0.4 * w, lambda w: 0.2 * w, lambda w: 0.8 * w - 0.3 * w**2,
        1.1, 0.7, (-1.5, 1.5), 0.25,
    )
    composed = value_recursion(scn, refine=False).value
    direct_gap = abs(composed - _direct_root_value(scn))
    _finish(7, "two-leaf brute force and composed-vs-direct recursion", started, 5.0,
            worst < 1e-8 and anchored and direct_gap < 1e-10,
            f"(brute {worst:.2e}, direct {direct_gap:.2e})")


def test_criterion_08_buy_and_hold_recovery():
    started = time.perf_counter()
    mu, sigma, alpha, beta = 0.1, 0.9, 0.7, 0.4
    gamma, c = 1.0, 2.0

    def s(w):
        return mu + sigma * w

    scn = _scenario(16, s, lambda w: beta * s(w), lambda w: alpha * s(w),
                    gamma, c, (-2.0, 2.0), 1e-3)
    report = no_rebalance_check(scn)
    weight = c / (c + gamma)
    y_expected = beta - weight * (alpha + beta)
    policy_ok = report.is_buy_and_hold and abs(report.y_star - y_expected) < 1e-12
    gap_ok = abs(report.value_gap) < 1e-8

    target = mu - (c / (c + gamma)) * (alpha + beta) * sigma**2
    errors = {}
    for n in (64, 1024):
        sub = _scenario(n, s, lambda w: beta * s(w), lambda w: alpha * s(w),
                        gamma, c, (-2.0, 2.0), 1e-3)
        errors[n] = abs(emm_eipu(sub, 0, 0) - target)
    emm_ok = errors[1024] < errors[64]
    _finish(8, "buy-and-hold policy, value identity, root-price bias decay", started, 60.0,
            policy_ok and gap_ok and emm_ok,
            f"(y* {report.y_star:.4f}, gap {report.value_gap:.2e}, "
            f"err64 {errors[64]:.2e}, err1024 {errors[1024]:.2e})")


def test_criterion_09_lattice_convergence():
    started = time.perf_counter()
    model = QuadraticModel(
        g_load=0.2, mu=0.0, sigma=1.0, a_lin=0.5, b_quad=0.3,
        agents=AgentPair(gamma=1.0, c=1.0),
    )
    limit = quadratic_v(model, 0.0, 0.0) - quadratic_p(model, 0.0, 0.0, 0.0)
    scn = DpScenario(Lattice(2), model.payoffs(), (-2.0, 2.0), 1e-3)
    rows = convergence_study(scn, [2, 32], limit=limit)
    ok = rows[1].error < rows[0].error
    _finish(9, "lattice value converges toward the closed-form limit", started, 120.0,
            ok, f"(err n=2 {rows[0].error:.2e}, err n=32 {rows[1].error:.2e})")


def test_criterion_10_byte_identical_reruns(tmp_path):
    started = time.perf_counter()
    ok = True
    detail = ""
    jobs = {
        "levy-sim": {
            "schema_version": 1, "mode": "levy-sim", "seed": 11, "paths": 3, "grid": 64,
            "agents": {"gamma": 1.0, "c": 2.0}, "loading": 0.5,
            "model": {"family": "gamma", "alpha": 3.0, "beta": 1.0},
            "schedule": {"initial_value": 0.2, "h": 0.1, "shocks": [[0.25, 0.4], [0.75, -0.3]]},
        },
        "shockwave": {
            "schema_version": 1, "mode": "shockwave", "seed": 12, "paths": 3, "grid": 500,
            "agents": {"gamma": 4.0, "c": 4.0},
            "model": {"mu": 0.0, "sigma": 1.0, "w_c": -0.6},
        },
    }
    for mode, data in jobs.items():
        cfg = tmp_path / f"{mode}.yaml"
        cfg.write_text(yaml.safe_dump(data), encoding="utf-8")
        dir_a, dir_b = tmp_path / f"{mode}-a", tmp_path / f"{mode}-b"
        for target in (dir_a, dir_b):
            code = main([mode, "--config", str(cfg), "--quiet", "--out", str(target)])
            if code != 0:
                ok, detail = False, f"({mode} exited {code})"
        if not ok:
            break
        names_a = sorted(p.name for p in dir_a.iterdir())
        names_b = sorted(p.name for p in dir_b.iterdir())
        if names_a != names_b or not names_a:
            ok, detail = False, f"({mode} file sets differ)"
            break
        for name in names_a:
            if (dir_a / name).read_bytes() != (dir_b / name).read_bytes():
                ok, detail = False, f"({mode}/{name} differs between reruns)"
                break
    _finish(10, "stochastic commands rerun byte-identically", started, 30.0, ok, detail)
