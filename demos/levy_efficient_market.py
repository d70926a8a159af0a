"""Walk through the frictionless-benchmark market driven by a Gamma process.

The story: a demander holds a lump-sum claim plus a flow exposure to the
driving process, a supplier quotes exponential-utility indifference prices,
and the market clears at the aggregate-tilted forward curve.  We price the
claim, trade the optimal position, and check the realized numbers against
the closed-form allocation value.
"""

import numpy as np

from impactlab.cumulants import GammaProcess
from impactlab.efficient import (
    LevyScenario,
    allocation_value,
    efficient_batch_record,
    efficient_path_record,
    eipu,
    optimal_position,
    realized_pnl,
    risk_premium,
)
from impactlab.paths import PathGrid, ShockSchedule, simulate_batch
from impactlab.utility import AgentPair


def main():
    agents = AgentPair(gamma=1.0, c=2.0)
    model = GammaProcess(alpha=3.0, beta=1.0)
    # flow exposure jumps once mid-horizon; terminal lump is h
    schedule = ShockSchedule(initial_value=0.15, shocks=((0.5, -0.8),), h=0.25)
    scenario = LevyScenario(model, agents, a=0.6, schedule=schedule, grid=PathGrid(32))

    print("== setup ==")
    print(f"agents: supplier gamma={agents.gamma}, demander c={agents.c}, "
          f"aggregate {agents.aggregate_aversion:.4f}")
    print(f"driver mean rate {model.kappa_prime(0.0):.4f}")

    print("\n== static quantities at t=0 ==")
    h0 = schedule.initial_value
    print(f"optimal position Y* = {optimal_position(agents, 0.6, h0):+.4f}")
    print(f"unit indifference price = {eipu(scenario, 0.0, h0, 0.0):+.4f}")
    print(f"risk premium vs the plain forward = {risk_premium(scenario, h0, 0.0):+.4f}")
    print(f"allocation value of the whole book = {allocation_value(scenario):+.4f}")

    print("\n== simulated outcomes (2000 paths, seed 7) ==")
    batch = simulate_batch(model, scenario.grid, schedule, seed=7, n_paths=2000)
    wealth = efficient_batch_record(scenario, batch).terminal_wealth
    exps = np.exp(-agents.c * wealth)
    ce = -np.log(exps.mean()) / agents.c
    print(f"Monte Carlo certainty equivalent {ce:+.4f} "
          f"(closed form {allocation_value(scenario):+.4f})")

    # a do-nothing demander keeps the endowment only; the gap is the gain from trade
    idle = np.array(
        [
            efficient_path_record(scenario, p).endowment_payoff
            + realized_pnl(scenario, p, np.zeros(scenario.grid.n_steps))
            for p in batch[:500]
        ]
    )
    ce_idle = -np.log(np.exp(-agents.c * idle).mean()) / agents.c
    print(f"no-trade certainty equivalent  {ce_idle:+.4f}")
    print(f"gain from trading              {ce - ce_idle:+.4f}")


if __name__ == "__main__":
    main()
