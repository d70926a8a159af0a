"""The three benchmark workloads: their inputs, CLI invocations and library pass.

A workload's parameter values come from its seed; its sizes do not, so
every seed asks for the same amount of work.

* ``lattice``     binomial-lattice DP (``impactlab.dp``).  A refine-heavy
                  ``convergence`` over small lattices beside a menu-heavy
                  ``dp-value`` on a larger one, so a change to the
                  certainty-equivalent kernel and a change to menu building
                  each show on their own command.
* ``fields``      Gauss-Hermite fields (``impactlab.markov``) used two ways:
                  a large (t, w) table evaluates many states once each, and
                  strategy recovery evaluates one state at many y while
                  root-finding.
* ``montecarlo``  path simulation, the efficient market and CSV emission
                  (``impactlab.paths``, ``efficient``, ``cli``); no DP or
                  quadrature.  Few long CSV-heavy paths beside many short
                  paths whose cost is per-path overhead.
"""

from __future__ import annotations

import random

import numpy as np

from checks import (
    black_scholes_payoffs,
    check_allocation_identity,
    check_convergence,
    check_dp_value_dir,
    check_levy_dir,
    check_markov_table,
    check_shockwave_dir,
    close,
    digest,
    direct_root_value,
    lattice_buy_and_hold,
    quadratic_fields,
    require,
    shockwave_fields,
)


class CliOp:
    """One CLI invocation: mode, config (without ``out``) and its output check."""

    def __init__(self, mode, config, check_values, deterministic=False):
        self.mode = mode
        self.config = dict(config, schema_version=1, mode=mode)
        self.check_values = check_values
        self.deterministic = deterministic
        self.first_digest = None

    def check(self, out_dir):
        """Value checks, then (for seeded modes) bytes equal to the first run's."""
        self.check_values(out_dir)
        if self.deterministic:
            found = digest(out_dir)
            if self.first_digest is None:
                self.first_digest = found
            require(
                found == self.first_digest,
                f"{self.mode}: rerun with the same seed is not byte-identical",
            )


def _agents(m):
    return {"gamma": m["gamma"], "c": m["c"]}


QUADRATIC_KEYS = ("g_load", "mu", "sigma", "a_lin", "b_quad", "h_const")


def _quadratic_model_config(m):
    return dict({k: m[k] for k in QUADRATIC_KEYS}, kind="quadratic")


def _polynomial_payoffs(p):
    """s = s0 + s1 w, g = g1 w + g2 w^2, h = h1 w + h2 w^2 on numpy arrays."""
    (s0, s1), (g1, g2), (h1, h2) = p["s"], p["g"], p["h"]
    return (
        lambda w: s0 + s1 * w,
        lambda w: g1 * w + g2 * w**2,
        lambda w: h1 * w + h2 * w**2,
    )


# ---------------------------------------------------------------------------


class Lattice:
    name = "lattice"
    N_LIST = [2, 4, 8, 16]
    DP_N = 20
    API_N = 8
    ADMISSIBLE = (-1.0, 1.0)
    RESOLUTION = 1e-3
    SMALL_N = [2, 3, 3, 4, 4, 4]
    SMALL_RESOLUTION = 0.125

    def __init__(self, seed):
        self.seed = seed
        rng = random.Random(f"lattice:{seed}")
        # ranges where the O(1/n) lattice error stays well away from a sign
        # change, so that |error| falls at every doubling of n
        self.quad = {
            "gamma": rng.uniform(1.0, 1.2),
            "c": rng.uniform(1.0, 1.2),
            "g_load": rng.uniform(0.25, 0.35),
            "mu": rng.uniform(-0.1, 0.1),
            "sigma": rng.uniform(1.0, 1.2),
            "a_lin": rng.uniform(0.5, 0.6),
            "b_quad": rng.uniform(0.15, 0.25),
            "h_const": rng.uniform(-0.2, 0.2),
        }
        self.bs = self._black_scholes(rng)
        self.api_bs = self._black_scholes(rng)
        # small lattices with random polynomial payoffs for the direct recursion
        self.small = []
        for n in self.SMALL_N:
            self.small.append(
                {
                    "n": n,
                    "gamma": rng.uniform(0.5, 1.5),
                    "c": rng.uniform(0.5, 1.5),
                    "s": (rng.uniform(0.8, 1.2), rng.uniform(0.2, 0.5)),
                    "g": (rng.uniform(-0.3, 0.3), rng.uniform(-0.2, 0.2)),
                    "h": (rng.uniform(-0.8, 0.8), rng.uniform(-0.3, 0.3)),
                }
            )

    def _black_scholes(self, rng):
        m = {
            "gamma": rng.uniform(0.8, 1.5),
            "c": rng.uniform(0.8, 1.5),
            "zeta": rng.uniform(0.8, 1.2),
            "sigma": rng.uniform(0.3, 0.6),
            "alpha": rng.uniform(0.6, 1.2),
        }
        # y* = mu/(c+gamma) = k*resolution sits on the scan grid, so the
        # lattice recovers buy-and-hold exactly with refinement off
        m["mu"] = rng.randint(50, 250) * self.RESOLUTION * (m["c"] + m["gamma"])
        return m

    def _admissible(self):
        return {"lo": self.ADMISSIBLE[0], "hi": self.ADMISSIBLE[1]}

    def cli_ops(self):
        quad, bs = self.quad, self.bs
        convergence = {
            "agents": _agents(quad),
            "model": _quadratic_model_config(quad),
            "n_list": self.N_LIST,
            "admissible": self._admissible(),
            "y_resolution": self.RESOLUTION,
            "refine": True,
            "order": 128,
        }
        dp_value = {
            "agents": _agents(bs),
            "model": {"kind": "black-scholes", **{k: bs[k] for k in ("zeta", "sigma", "alpha", "mu")}},
            "lattice_n": self.DP_N,
            "admissible": self._admissible(),
            "y_resolution": self.RESOLUTION,
            "refine": False,
            "buy_and_hold": True,
            "emm_root": True,
        }
        return [
            CliOp(
                "convergence",
                convergence,
                lambda out: check_convergence(out / "convergence.csv", quad, self.N_LIST),
            ),
            CliOp("dp-value", dp_value, lambda out: check_dp_value_dir(out, bs, self.DP_N)),
        ]

    def build(self):
        from impactlab import AgentPair, DpScenario, Lattice as Lat, MarkovPayoffs

        def scenario(n, s, g, h, gamma, c, resolution):
            payoffs = MarkovPayoffs(s_fn=s, g_fn=g, h_fn=h, agents=AgentPair(gamma, c))
            return DpScenario(Lat(n), payoffs, self.ADMISSIBLE, resolution)

        self.small_scenarios = [
            scenario(p["n"], *_polynomial_payoffs(p), p["gamma"], p["c"], self.SMALL_RESOLUTION)
            for p in self.small
        ]
        s, g, h = black_scholes_payoffs(self.api_bs)
        self.api_scenario = scenario(
            self.API_N, s, g, h, self.api_bs["gamma"], self.api_bs["c"], self.RESOLUTION
        )

    def references(self):
        lo, hi = self.ADMISSIBLE
        refs = [
            direct_root_value(
                p["n"],
                *_polynomial_payoffs(p),
                p["gamma"],
                p["c"],
                np.linspace(lo, hi, int(round((hi - lo) / self.SMALL_RESOLUTION)) + 1),
            )
            for p in self.small
        ]
        return refs, lattice_buy_and_hold(self.api_bs, self.API_N)

    def api_pass(self):
        from impactlab import no_rebalance_check, value_recursion

        small = [value_recursion(scn, refine=False).value for scn in self.small_scenarios]
        return small, no_rebalance_check(self.api_scenario, refine=True)

    def check_api(self, result, refs):
        (small, report), (direct, bh) = result, refs
        close(small, direct, 1e-10, "value_recursion (refine off) vs direct recursion")
        close(report.y_star, bh["y_star"], 1e-12, "no_rebalance_check: y* vs mu/(c+gamma)")
        require(report.is_buy_and_hold, "no_rebalance_check: not buy-and-hold")
        require(abs(report.value_gap) <= 1e-8, f"no_rebalance_check: value gap {report.value_gap:.3e}")


# ---------------------------------------------------------------------------


class Fields:
    name = "fields"
    TIMES = [k / 16 for k in range(16)]
    W_RANGE = (-2.0, 2.0, 301)
    API_TIMES = [k / 16 for k in range(16)]
    API_W = np.linspace(-1.5, 1.5, 41)

    def __init__(self, seed):
        self.seed = seed
        rng = random.Random(f"fields:{seed}")
        self.quad = {
            "gamma": rng.uniform(0.8, 1.2),
            "c": rng.uniform(0.8, 1.2),
            "g_load": rng.uniform(0.1, 0.3),
            "mu": rng.uniform(-0.1, 0.1),
            "sigma": rng.uniform(0.8, 1.2),
            "a_lin": rng.uniform(0.3, 0.6),
            "b_quad": rng.uniform(0.1, 0.4),
            "h_const": rng.uniform(-0.2, 0.2),
        }
        self.inventory = rng.uniform(-0.5, 0.5)
        self.wave = {
            "gamma": rng.uniform(1.5, 3.0),
            "c": rng.uniform(1.5, 3.0),
            "mu": rng.uniform(-0.2, 0.2),
            "sigma": rng.uniform(0.8, 1.2),
            "w_c": rng.uniform(-1.0, -0.3),
        }

    def cli_ops(self):
        lo, hi, count = self.W_RANGE
        config = {
            "agents": _agents(self.quad),
            "model": _quadratic_model_config(self.quad),
            "times": self.TIMES,
            "w": {"min": lo, "max": hi, "count": count},
            "order": 128,
            "inventory": self.inventory,
        }
        w_grid = np.linspace(lo, hi, count)
        return [
            CliOp(
                "markov-fields",
                config,
                lambda out: check_markov_table(
                    out / "markov_fields.csv", self.quad, self.TIMES, w_grid, self.inventory
                ),
            )
        ]

    def build(self):
        from impactlab import AgentPair, QuadraticModel, ShockWaveModel

        quad, wave = self.quad, self.wave
        self.models = [
            QuadraticModel(
                agents=AgentPair(quad["gamma"], quad["c"]), **{k: quad[k] for k in QUADRATIC_KEYS}
            ).payoffs(),
            ShockWaveModel(
                mu=wave["mu"], sigma=wave["sigma"], w_c=wave["w_c"],
                agents=AgentPair(wave["gamma"], wave["c"]),
            ).payoffs(),
        ]

    def references(self):
        t = np.repeat(self.API_TIMES, self.API_W.size)
        w = np.tile(self.API_W, len(self.API_TIMES))
        return (
            quadratic_fields(self.quad, t, w, 0.0)["y_star"],
            shockwave_fields(self.wave, t, w)["y_star"],
        )

    def api_pass(self):
        from impactlab import optimal_strategy_markov

        return [
            [optimal_strategy_markov(payoffs, t, float(w)) for t in self.API_TIMES for w in self.API_W]
            for payoffs in self.models
        ]

    def check_api(self, result, refs):
        quad, wave = result
        close(quad, refs[0], 1e-8, "optimal_strategy_markov (quadratic) vs closed-form y*")
        close(wave, refs[1], 1e-8, "optimal_strategy_markov (shock wave) vs tanh y*")


# ---------------------------------------------------------------------------


class MonteCarlo:
    name = "montecarlo"
    CLI_PATHS = 120
    CLI_GRID = 1000
    API_PATHS = 4000
    API_GRID = 16
    CONSTANTS = 12

    def __init__(self, seed):
        self.seed = seed
        rng = random.Random(f"montecarlo:{seed}")
        self.levy = {
            "seed": rng.randrange(2**31),
            "gamma": rng.uniform(0.6, 1.2),
            "c": rng.uniform(1.0, 1.5),
            "alpha": rng.uniform(6.0, 10.0),
            "beta": rng.uniform(0.5, 1.5),
            "loading": rng.uniform(0.2, 0.8),
            "initial_value": rng.uniform(0.0, 0.3),
            "h": rng.uniform(-0.2, 0.2),
            "shocks": [
                [rng.uniform(0.2, 0.3), rng.uniform(-0.3, 0.3)],
                [rng.uniform(0.7, 0.8), rng.uniform(-0.3, 0.3)],
            ],
        }
        self.api_seed = rng.randrange(2**31)
        self.constants = [rng.uniform(-0.5, 0.5) for _ in range(self.CONSTANTS)]
        self.wave = {
            "seed": rng.randrange(2**31),
            "gamma": rng.uniform(2.0, 5.0),
            "c": rng.uniform(2.0, 5.0),
            "mu": rng.uniform(-0.2, 0.2),
            "sigma": rng.uniform(0.8, 1.2),
            "w_c": rng.uniform(-1.0, -0.3),
        }

    def cli_ops(self):
        levy, wave = self.levy, self.wave
        levy_config = {
            "seed": levy["seed"],
            "paths": self.CLI_PATHS,
            "grid": self.CLI_GRID,
            "agents": _agents(levy),
            "loading": levy["loading"],
            "model": {"family": "gamma", "alpha": levy["alpha"], "beta": levy["beta"]},
            "schedule": {
                "initial_value": levy["initial_value"],
                "h": levy["h"],
                "shocks": levy["shocks"],
            },
        }
        wave_config = {
            "seed": wave["seed"],
            "paths": self.CLI_PATHS,
            "grid": self.CLI_GRID,
            "agents": _agents(wave),
            "model": {"mu": wave["mu"], "sigma": wave["sigma"], "w_c": wave["w_c"]},
        }
        return [
            CliOp(
                "levy-sim",
                levy_config,
                lambda out: check_levy_dir(out, levy, self.CLI_PATHS, self.CLI_GRID),
                deterministic=True,
            ),
            CliOp(
                "shockwave",
                wave_config,
                lambda out: check_shockwave_dir(out, wave, self.CLI_PATHS, self.CLI_GRID),
                deterministic=True,
            ),
        ]

    def build(self):
        from impactlab import AgentPair, GammaProcess, LevyScenario, PathGrid, ShockSchedule

        m = self.levy
        self.scenario = LevyScenario(
            GammaProcess(m["alpha"], m["beta"]),
            AgentPair(m["gamma"], m["c"]),
            m["loading"],
            ShockSchedule(m["initial_value"], tuple(map(tuple, m["shocks"])), m["h"]),
            PathGrid(self.API_GRID),
        )

    def references(self):
        return None

    def api_pass(self):
        from impactlab import SampleSet, certainty_equivalent, efficient_path_record, simulate_batch

        scn = self.scenario
        batch = simulate_batch(scn.model, scn.grid, scn.schedule, self.api_seed, self.API_PATHS)
        records = [efficient_path_record(scn, path) for path in batch]
        terminal = np.array([r.terminal_wealth for r in records])
        ce = certainty_equivalent(SampleSet.uniform(terminal), scn.agents.c)
        endowment = np.array([r.endowment_payoff for r in records])
        x1 = np.array([path.x[-1] for path in batch])
        return ce, endowment, terminal, x1

    def check_api(self, result, refs):
        ce, endowment, terminal, x1 = result
        check_allocation_identity(
            self.levy, self.API_GRID, ce, endowment, terminal, x1, self.constants
        )


WORKLOADS = {w.name: w for w in (Lattice, Fields, MonteCarlo)}
