"""Flash-crash mechanics in the tanh shock-wave market.

With a tanh-shaped endowment gradient the optimal-trade field solves a
Burgers equation, so the demand front travels like a shock wave.  When the
driving path overtakes the moving front from below, the price must absorb
the whole front at once: a crash with a computable minimum size.
"""

import numpy as np

from impactlab.cumulants import Brownian
from impactlab.markov import (
    ShockWaveModel,
    crash_events,
    shockwave_path,
    tanh_field,
    wave_position,
)
from impactlab.paths import PathGrid, ShockSchedule, simulate_batch
from impactlab.utility import AgentPair


def main():
    model = ShockWaveModel(mu=0.0, sigma=1.0, w_c=-0.6, agents=AgentPair(gamma=4.0, c=4.0))
    a = model.wave_aversion
    print(f"wave steepness a = {a}, critical level w_c = {model.w_c}")

    print("\n== the travelling front ==")
    print(f"{'t':>5} {'front at':>9} {'field at front':>15}")
    for t in (0.0, 0.25, 0.5, 0.75, 1.0):
        pos = wave_position(model, t)
        print(f"{t:5.2f} {pos:9.4f} {float(tanh_field(model, t, -pos)):15.4f}")

    print("\n== hunting for crashes (seed 606) ==")
    grid = PathGrid(4000)
    driver = Brownian(0.0, 1.0)
    shown = 0
    for k, path in enumerate(simulate_batch(driver, grid, ShockSchedule(), 606, 200)):
        record = shockwave_path(model, path, grid)
        events = crash_events(model, record)
        if not events:
            continue
        ev = max(events, key=lambda e: e.drawdown)
        print(f"path {k:3d}: crossing at t={ev.time:.3f}, "
              f"drawdown {ev.drawdown:.4f} >= bound {ev.bound:.4f} "
              f"({'ok' if ev.satisfied else 'VIOLATED'})")
        shown += 1
        if shown == 8:
            break

    # the bound shrinks linearly in remaining time: late crossings crash less
    print("\nminimum crash size sigma*a*(1-t)*tanh(1):")
    for t in (0.1, 0.5, 0.9):
        print(f"  t={t:.1f}: {model.sigma * a * (1 - t) * np.tanh(1.0):.4f}")


if __name__ == "__main__":
    main()
