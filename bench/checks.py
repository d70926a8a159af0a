"""Output checks for the benchmark, written independently of impactlab.

Every reference here is computed from the model formulas themselves
(closed forms, binomial-leaf enumeration, a brute-force direct recursion,
the tanh wave) or is a property the method must have (error decay in n,
wealth identities, standard-error bands, byte-identical reruns).  Nothing
is compared against a stored copy of an earlier run.  A failed check
raises :class:`CheckFailed` naming the file and the value.
"""

from __future__ import annotations

import hashlib
import math
from pathlib import Path

import numpy as np


class CheckFailed(AssertionError):
    """An output of the program disagrees with the benchmark's reference."""


def require(ok, message):
    if not ok:
        raise CheckFailed(message)


def close(actual, expected, tol, what):
    """All |actual - expected| <= tol (absolute), NaN never passes."""
    actual = np.asarray(actual, dtype=float)
    expected = np.asarray(expected, dtype=float)
    gap = np.abs(actual - expected)
    require(
        actual.shape == expected.shape and bool(np.all(gap <= tol)),
        f"{what}: worst gap {np.nanmax(gap) if gap.size else math.nan:.3e} > {tol:.1e}",
    )


def read_csv(path):
    """(header, float rows) of a CSV the program wrote; 'true'/'false' read as 1/0."""
    path = Path(path)
    with open(path, encoding="utf-8") as fh:
        header = fh.readline().rstrip("\n").split(",")
        text = fh.read().replace("true", "1").replace("false", "0")
    try:
        rows = np.array(
            [[float(v) for v in line.split(",")] for line in text.splitlines()], dtype=float
        ).reshape(-1, len(header))
    except ValueError as exc:
        raise CheckFailed(f"{path.name}: malformed CSV: {exc}") from exc
    return header, rows


def columns(path, expected_header):
    header, rows = read_csv(path)
    require(header == list(expected_header), f"{Path(path).name}: header {header}")
    return {name: rows[:, i] for i, name in enumerate(header)}


def digest(directory):
    """sha256 of every file in an output directory, by file name."""
    return {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(Path(directory).iterdir())
        if p.is_file() and p.suffix == ".csv"
    }


# ---------------------------------------------------------------------------
# exponential certainty equivalents on a finite weighted support


def ce(values, probs, aversion):
    """-(1/a) log sum p exp(-a v), max-shifted; a = 0 gives the mean."""
    values = np.asarray(values, dtype=float)
    probs = np.asarray(probs, dtype=float)
    if aversion == 0.0:
        return float(probs @ values)
    z = -aversion * values
    top = z.max()
    return float(-(top + math.log(probs @ np.exp(z - top))) / aversion)


def binomial_leaves(n):
    """Leaf levels (2k - n)/sqrt(n) and probabilities C(n, k)/2^n of an n-step walk."""
    k = np.arange(n + 1)
    probs = np.array([math.comb(n, int(j)) for j in k], dtype=float) / 2.0**n
    return (2 * k - n) / math.sqrt(n), probs


def aggregate_aversion(gamma, c):
    return c * gamma / (c + gamma)


# ---------------------------------------------------------------------------
# quadratic-Gaussian family: s = mu + sigma*w, g = g_load*s,
# h = h_const + a_lin*w + b_quad*w^2/2, W_1 | W_t = w ~ N(w, 1 - t)


def quadratic_fields(m, t, w, inventory):
    """v, u, p, q, y*, s* of the quadratic family from its Gaussian integrals.

    v is the aggregate CE of G + H: completing the square in the Gaussian
    density gives the log(D)/(2 abar) and -abar L^2 tau/(2D) terms with
    D = 1 + abar*b*tau; u = dv/dw = L/D.  p is the CE of (g - y)(mu + sigma W_1)
    at aversion gamma, q = dp/dw.  The tilted mean of W_1 under
    exp(-abar (G + H)) is (w - abar*L0*tau)/D, which gives s*; y* solves
    -q(y) = -(c/(c+gamma)) u.
    """
    gamma, c = m["gamma"], m["c"]
    abar = aggregate_aversion(gamma, c)
    weight = c / (c + gamma)
    tau = 1.0 - t
    b = m["b_quad"]
    lin0 = m["g_load"] * m["sigma"] + m["a_lin"]
    lin = lin0 + b * w
    denom = 1.0 + abar * b * tau
    v = (
        m["h_const"]
        + m["g_load"] * m["mu"]
        + lin0 * w
        + 0.5 * b * w**2
        - 0.5 * abar * lin**2 * tau / denom
        + 0.5 * np.log(denom) / abar
    )
    q_load = m["g_load"] - inventory
    p = q_load * (m["mu"] + m["sigma"] * w) - 0.5 * gamma * q_load**2 * m["sigma"] ** 2 * tau
    u = lin / denom
    q = q_load * m["sigma"] + 0.0 * w
    y_star = m["g_load"] - weight * u / m["sigma"]
    s_star = m["mu"] + m["sigma"] * (w - abar * lin0 * tau) / denom
    return {"v": v, "u": u, "p": p, "q": q, "y_star": y_star, "s_star": s_star}


def quadratic_limit(m):
    """Continuum value of the lattice game at the root: v(0, 0) - p(0, 0, 0)."""
    f = quadratic_fields(m, 0.0, 0.0, 0.0)
    return float(f["v"] - f["p"])


def check_convergence(path, m, n_list):
    """Rows for every n, errors against the closed-form limit that fall with n."""
    cols = columns(path, ("n", "value", "error"))
    require(list(cols["n"]) == list(n_list), f"convergence.csv: n column {cols['n']}")
    limit = quadratic_limit(m)
    errors = np.abs(cols["value"] - limit)
    close(cols["error"], errors, 1e-9, "convergence.csv: error vs closed-form limit")
    require(
        bool(np.all(np.diff(errors) < 0.0)),
        f"convergence.csv: errors {errors} do not fall as n grows",
    )
    # first-order convergence: doubling n must at least remove a quarter of the error
    require(
        bool(np.all(errors[1:] <= 0.75 * errors[:-1])),
        f"convergence.csv: errors {errors} fall slower than first order",
    )


def check_markov_table(path, m, times, w_grid, inventory):
    cols = columns(path, ("t", "w", "v", "u", "p", "q", "y_star", "s_star"))
    t = np.repeat(np.asarray(times, dtype=float), len(w_grid))
    w = np.tile(np.asarray(w_grid, dtype=float), len(times))
    close(cols["t"], t, 0.0, "markov_fields.csv: t")
    close(cols["w"], w, 1e-15, "markov_fields.csv: w")
    ref = quadratic_fields(m, t, w, inventory)
    for name in ("v", "p"):
        close(cols[name], ref[name], 1e-9, f"markov_fields.csv: {name} vs closed form")
    for name in ("u", "q"):
        close(cols[name], ref[name], 1e-8, f"markov_fields.csv: {name} vs d/dw closed form")
    for name in ("y_star", "s_star"):
        close(cols[name], ref[name], 1e-12, f"markov_fields.csv: {name} vs closed form")


# ---------------------------------------------------------------------------
# tanh shock wave: s = mu - sigma*w, g = 0, h = w - log cosh(a(w - w_c))/a + offset


def shockwave_fields(m, t, w):
    """u, y*, s* and the front position of the travelling wave, a = abar."""
    gamma, c = m["gamma"], m["c"]
    a = aggregate_aversion(gamma, c)
    u = 1.0 - np.tanh(a * (w - m["w_c"]) - a**2 * (1.0 - t))
    return {
        "y_star": c / (c + gamma) * u / m["sigma"],
        "s_star": m["mu"] - m["sigma"] * w + m["sigma"] * (1.0 - t) * a * u,
        "wave_position": -m["w_c"] - a * (1.0 - t) + 0.0 * w,
    }


def check_shockwave_dir(directory, m, n_paths, grid):
    directory = Path(directory)
    files = sorted(directory.glob("shockwave_path_*.csv"))
    require(len(files) == n_paths, f"shockwave: {len(files)} path files, expected {n_paths}")
    t = np.arange(grid + 1) / grid
    for f in files:
        cols = columns(f, ("t", "W", "S_star", "Y_star", "wave_position"))
        require(cols["t"].size == grid + 1, f"{f.name}: {cols['t'].size} rows, expected {grid + 1}")
        require(cols["W"][0] == 0.0, f"{f.name}: W[0] = {cols['W'][0]}")
        close(cols["t"], t, 0.0, f"{f.name}: t")
        ref = shockwave_fields(m, t, cols["W"])
        close(cols["S_star"], ref["s_star"], 1e-12, f"{f.name}: S_star vs tanh formula")
        close(cols["Y_star"], ref["y_star"], 1e-12, f"{f.name}: Y_star vs tanh formula")
        close(cols["wave_position"], ref["wave_position"], 1e-12, f"{f.name}: wave_position")


# ---------------------------------------------------------------------------
# gamma-subordinator efficient market: kappa(u) = beta*log(1 + u/alpha)


def gamma_kappa(m, u, order=0):
    al, be = m["alpha"], m["beta"]
    u = np.asarray(u, dtype=float)
    if order == 0:
        return be * np.log1p(u / al)
    if order == 1:
        return be / (al + u)
    return -be / (al + u) ** 2


def snapped_schedule(m, grid):
    """H' at every grid time with each shock moved to its nearest grid index."""
    out = np.full(grid + 1, m["initial_value"])
    for time, jump in m["shocks"]:
        out[int(round(time * grid)):] += jump
    return out


def allocation_value(m, grid):
    """h + ((c+gamma)/(c gamma)) sum_i kappa(abar(a + H'_i)) dt - kappa(gamma a)/gamma."""
    gamma, c, a = m["gamma"], m["c"], m["loading"]
    abar = aggregate_aversion(gamma, c)
    h_series = snapped_schedule(m, grid)[:-1]
    body = float(np.sum(gamma_kappa(m, abar * (a + h_series)))) / grid
    return m["h"] + (c + gamma) / (c * gamma) * body - float(gamma_kappa(m, gamma * a)) / gamma


def check_levy_dir(directory, m, n_paths, grid):
    directory = Path(directory)
    files = sorted(directory.glob("levy_path_*.csv"))
    require(len(files) == n_paths, f"levy-sim: {len(files)} path files, expected {n_paths}")
    gamma, c, a = m["gamma"], m["c"], m["loading"]
    abar = aggregate_aversion(gamma, c)
    weight = c / (c + gamma)
    t = np.arange(grid + 1) / grid
    h_ref = snapped_schedule(m, grid)
    alloc = allocation_value(m, grid)
    wealth = []
    for f in files:
        cols = columns(
            f, ("t", "x", "h_prime", "y_star", "s_star", "risk_premium", "convexity")
        )
        require(cols["t"].size == grid + 1, f"{f.name}: {cols['t'].size} rows, expected {grid + 1}")
        require(cols["x"][0] == 0.0, f"{f.name}: x[0] = {cols['x'][0]}")
        require(bool(np.all(np.diff(cols["x"]) >= 0.0)), f"{f.name}: subordinator path decreases")
        close(cols["t"], t, 0.0, f"{f.name}: t")
        close(cols["h_prime"], h_ref, 1e-15, f"{f.name}: h_prime vs snapped schedule")
        h = cols["h_prime"]
        u = abar * (a + h)
        close(cols["y_star"], (1.0 - weight) * a - weight * h, 1e-14, f"{f.name}: y_star")
        close(cols["s_star"], cols["x"] + (1.0 - t) * gamma_kappa(m, u, 1), 1e-12, f"{f.name}: s_star")
        close(
            cols["risk_premium"],
            (1.0 - t) * (gamma_kappa(m, 0.0, 1) - gamma_kappa(m, u, 1)),
            1e-12,
            f"{f.name}: risk_premium",
        )
        close(cols["convexity"], -gamma * (1.0 - t) * gamma_kappa(m, u, 2), 1e-12, f"{f.name}: convexity")
        dx = np.diff(cols["x"])
        y = cols["y_star"][:-1]
        endowment = m["h"] + float(h[:-1] @ dx)
        fee = np.sum(gamma_kappa(m, gamma * (a - y)) - gamma_kappa(m, gamma * a)) / (grid * gamma)
        wealth.append((endowment, float(y @ dx) + float(fee)))
    summary = columns(
        directory / "levy_summary.csv",
        ("path", "endowment_payoff", "trading_pnl", "terminal_wealth", "allocation_value"),
    )
    wealth = np.array(wealth)
    close(summary["path"], np.arange(n_paths), 0.0, "levy_summary.csv: path")
    close(summary["endowment_payoff"], wealth[:, 0], 1e-9, "levy_summary.csv: endowment payoff")
    close(summary["trading_pnl"], wealth[:, 1], 1e-9, "levy_summary.csv: trading P&L")
    close(
        summary["terminal_wealth"],
        summary["endowment_payoff"] + summary["trading_pnl"],
        1e-12,
        "levy_summary.csv: terminal wealth = endowment + P&L",
    )
    close(summary["allocation_value"], np.full(n_paths, alloc), 1e-12, "levy_summary.csv: allocation value")


def ce_with_se(wealth, aversion):
    """Monte Carlo CE of wealth and its delta-method standard error."""
    exps = np.exp(-aversion * np.asarray(wealth, dtype=float))
    mean = float(exps.mean())
    se = float(exps.std(ddof=1)) / math.sqrt(exps.size) / (aversion * mean)
    return -math.log(mean) / aversion, se


def check_allocation_identity(m, grid, ce_reported, endowment, terminal, x1, constants, band=6.0):
    """CE of optimal terminal wealth within a band of the closed-form allocation
    value; no constant position beats that value beyond the band."""
    gamma, c, a = m["gamma"], m["c"], m["loading"]
    alloc = allocation_value(m, grid)
    ce_opt, se_opt = ce_with_se(terminal, c)
    require(
        abs(ce_reported - ce_opt) <= 1e-12 * max(1.0, abs(ce_opt)),
        f"certainty_equivalent {ce_reported!r} vs direct {ce_opt!r}",
    )
    require(
        abs(ce_opt - alloc) <= band * se_opt,
        f"allocation: CE {ce_opt:.6f} vs closed form {alloc:.6f} beyond {band}*{se_opt:.1e}",
    )
    for y in constants:
        fee = float(gamma_kappa(m, gamma * (a - y)) - gamma_kappa(m, gamma * a)) / gamma
        ce_y, se_y = ce_with_se(endowment + y * x1 + fee, c)
        require(
            ce_y - band * se_y < alloc,
            f"allocation: constant y={y:.4f} reaches {ce_y:.6f} +- {se_y:.1e} above {alloc:.6f}",
        )


# ---------------------------------------------------------------------------
# binomial lattice


def black_scholes_payoffs(m):
    """s, g, h of the proportional Black-Scholes lattice scenario as numpy callables."""
    gamma, c = m["gamma"], m["c"]
    frac, lever = gamma / (c + gamma), m["mu"] / (c + gamma)
    s = lambda w: m["zeta"] * np.exp(m["sigma"] * w)
    h = lambda w: frac * m["alpha"] * m["sigma"] * w - lever * s(w)
    g = lambda w: m["alpha"] * m["sigma"] * w - h(w)
    return s, g, h


def lattice_buy_and_hold(m, n):
    """Leaf enumeration at the root: y*, value CE_abar(G+H) - CE_gamma(G),
    CE_gamma(G), and the tilted price E[S e^{-abar(G+H)}] / E[e^{-abar(G+H)}]."""
    gamma, c = m["gamma"], m["c"]
    abar = aggregate_aversion(gamma, c)
    s, g, h = black_scholes_payoffs(m)
    leaves, probs = binomial_leaves(n)
    total = g(leaves) + h(leaves)
    pi0_g = ce(g(leaves), probs, gamma)
    tilt = probs * np.exp(-abar * (total - total.min()))
    return {
        "y_star": m["mu"] / (c + gamma),
        "value": ce(total, probs, abar) - pi0_g,
        "pi0_g": pi0_g,
        "s_star_root": float(s(leaves) @ tilt / tilt.sum()),
    }


def check_dp_value_dir(directory, m, n):
    directory = Path(directory)
    ref = lattice_buy_and_hold(m, n)
    dp = columns(directory / "dp_value.csv", ("n", "value", "root_policy", "pi0_g"))
    require(list(dp["n"]) == [n], f"dp_value.csv: n = {dp['n']}")
    close(dp["value"], [ref["value"]], 1e-9, "dp_value.csv: root value vs leaf enumeration")
    close(dp["pi0_g"], [ref["pi0_g"]], 1e-10, "dp_value.csv: Pi_0(G) vs leaf enumeration")
    close(dp["root_policy"], [ref["y_star"]], 1e-12, "dp_value.csv: root policy vs mu/(c+gamma)")
    bh = columns(
        directory / "dp_buy_and_hold.csv",
        ("y_star", "is_buy_and_hold", "value_gap", "max_policy_deviation"),
    )
    close(bh["y_star"], [ref["y_star"]], 1e-12, "dp_buy_and_hold.csv: y* vs mu/(c+gamma)")
    require(list(bh["is_buy_and_hold"]) == [1.0], "dp_buy_and_hold.csv: not buy-and-hold")
    require(abs(bh["value_gap"][0]) <= 1e-8, f"dp_buy_and_hold.csv: value gap {bh['value_gap'][0]:.3e}")
    require(
        0.0 <= bh["max_policy_deviation"][0] <= 1e-12,
        f"dp_buy_and_hold.csv: policy deviation {bh['max_policy_deviation'][0]:.3e}",
    )
    emm = columns(directory / "dp_emm.csv", ("n", "s_star_root"))
    require(list(emm["n"]) == [n], f"dp_emm.csv: n = {emm['n']}")
    close(emm["s_star_root"], [ref["s_star_root"]], 1e-12, "dp_emm.csv: s_star_root vs leaf enumeration")


def direct_root_value(n, s, g, h, gamma, c, y_grid):
    """Demander value at the root by direct dynamic programming over (node, held y).

    At each node the demander moves from held inventory y to y', receiving the
    supplier's indifference charge CE_gamma(G - y'S) - CE_gamma(G - yS) over the
    node's leaves, then faces a fair coin flip valued at aversion c.  At the
    leaves the demander holds H + y'S.  Starts from y = 0 at the root.
    """
    sq = math.sqrt(n)
    pi = {}
    for level in range(n):
        leaves_rel, probs = binomial_leaves(n - level)
        for m in range(level + 1):
            leaves = (2 * m - level) / sq + leaves_rel * math.sqrt(n - level) / sq
            pi[level, m] = np.array([ce(g(leaves) - y * s(leaves), probs, gamma) for y in y_grid])

    def flip(up, dn):
        return -(np.logaddexp(-c * up, -c * dn) - math.log(2.0)) / c

    # cont[m, j]: value at node (level + 1, m) holding y_grid[j], before trading
    top = np.arange(n + 1)
    leaf_w = (2 * top - n) / sq
    cont = h(leaf_w)[:, None] + np.outer(s(leaf_w), y_grid)
    for level in range(n - 1, -1, -1):
        nxt = np.empty((level + 1, len(y_grid)))
        for m in range(level + 1):
            gain = pi[level, m] + flip(cont[m + 1], cont[m])
            nxt[m] = gain.max() - pi[level, m]
        cont = nxt
    zero = int(np.argmin(np.abs(y_grid)))
    return float(cont[0, zero])
