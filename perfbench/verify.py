"""Checks of each command's output against computations made apart from it.

The references are the program's fixed-point oracle ``solve_f_picard``
run on market curves the benchmark computes itself with numpy, closed
forms, and properties the method must have.  Each function returns a
list of problems; an empty list means the output is correct.
"""

from __future__ import annotations

import csv
import io
import math

import numpy as np

from mvs_robust.errors import DegenerateDenominator
from mvs_robust.market import Preferences, TimeGrid, build_market
from mvs_robust.solver import ModelVariant, solve_f_picard, solve_system

U_STAR_REL_TOL = 1e-6
Q_STAR_TOL = 1e-12
INVARIANCE_REL_TOL = 1e-12
PICARD_SUP_TOL = 1e-6
ONE_ASSET_SUP_TOL = 1e-9
MC_BAND = 3.0
CHECK_NAMES = (
    "terminal_conditions", "oracle_equivalence", "closed_form_consistency",
    "h2_equals_k1", "lognormal_moments", "value_verification",
    "delta3_positivity", "moment_bound", "determinism",
)
# variant -> (enum, keeps phi0, keeps xi)
VARIANTS = {
    "full": (ModelVariant.FULL, True, True),
    "neutral": (ModelVariant.AMBIGUITY_NEUTRAL, True, False),
    "noskew": (ModelVariant.NO_SKEW, False, True),
    "basic": (ModelVariant.BASIC, False, False),
}


class ConstantCurves:
    """Constant r and theta, the only market inputs of the backward systems."""

    def __init__(self, r: float, theta: float):
        self.r, self.theta = r, theta

    def risk_free_at(self, t):
        return np.full(np.shape(t), self.r)

    def theta_at(self, t):
        return np.full(np.shape(t), self.theta)


def three_asset_theta(mu, sigma, r: float) -> float:
    """beta' Sigma^-1 beta with Sigma = sigma' sigma, as ``market.py`` defines it."""
    s = np.asarray(sigma, dtype=float)
    beta = np.asarray(mu, dtype=float) - r
    return float(beta @ np.linalg.solve(s.T @ s, beta))


def _rows(text: str) -> list[dict[str, str]]:
    return list(csv.DictReader(io.StringIO(text)))


def _picard(cfg, r: float, theta: float, gamma0: float, phi0: float, xi: float) -> np.ndarray:
    s = cfg.solver
    return solve_f_picard(
        ConstantCurves(r, theta), Preferences(gamma0, phi0, xi),
        TimeGrid(cfg.market.T, s.num_steps),
        tol=s.picard_tol, max_iter=s.picard_max_iter, eps_den=s.eps_den,
    )


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


# -- sweep ------------------------------------------------------------------

def verify_sweep(cfg, text: str) -> list[str]:
    sw = cfg.sweep
    axes = [(sw.param, np.linspace(sw.min, sw.max, sw.count))]
    if sw.param2 is not None:
        axes.append((sw.param2, np.linspace(sw.min2, sw.max2, sw.count2)))
    rows = _rows(text)
    problems = []
    want = [tuple(float(v) for v in cell) for cell in np.array(
        np.meshgrid(*[vals for _, vals in axes], indexing="ij")).reshape(len(axes), -1).T]
    got = [tuple(float(row[name]) for name, _ in axes) for row in rows]
    if got != want:
        return [f"sweep cells {got[:3]}... differ from the grid {want[:3]}..."]

    m, p = cfg.market, cfg.preferences
    base = {"w0": cfg.simulation.start_wealth, "xi": p.xi, "gamma0": p.gamma0,
            "phi0": p.phi0, "mu": m.mu[0], "sigma": m.sigma[0][0], "r": m.r}
    oracle: dict[tuple, object] = {}

    def picard_or_error(r, theta, gamma0, phi0, xi):
        key = (r, theta, gamma0, phi0, xi)
        if key not in oracle:
            try:
                oracle[key] = _picard(cfg, r, theta, gamma0, phi0, xi)
            except DegenerateDenominator as exc:
                oracle[key] = exc
        return oracle[key]

    cells = []
    for row, values in zip(rows, got):
        c = dict(base, **dict(zip([n for n, _ in axes], values)))
        cells.append((row, c))
        theta = ((c["mu"] - c["r"]) / c["sigma"]) ** 2
        neutral = picard_or_error(c["r"], theta, c["gamma0"], c["phi0"], 0.0)
        degenerate = isinstance(neutral, DegenerateDenominator)
        want_status = "DegenerateDenominator" if degenerate else "ok"
        if row["status"] != want_status:
            problems.append(f"cell {values}: status {row['status']}, oracle says {want_status}")
            continue
        if degenerate:
            continue
        full = picard_or_error(c["r"], theta, c["gamma0"], c["phi0"], c["xi"])
        if isinstance(full, DegenerateDenominator):
            problems.append(f"cell {values}: oracle degenerates in the full model")
            continue
        xi, excess = c["xi"], c["mu"] - c["r"]
        u_want = c["w0"] / (xi + 1.0) * excess / c["sigma"] ** 2 * full[0]
        if not _close(float(row["u_star"]), u_want, U_STAR_REL_TOL):
            problems.append(f"cell {values}: u_star {row['u_star']} != {u_want!r}")
        q_want = -xi / (xi + 1.0) * excess / c["sigma"]
        if abs(float(row["q_star"]) - q_want) > Q_STAR_TOL:
            problems.append(f"cell {values}: q_star {row['q_star']} != {q_want!r}")

    ok = [(row, c) for row, c in cells if row["status"] == "ok"]
    swept = [name for name, _ in axes]
    if "w0" in swept:
        # every value is a coefficient times w0 and the losses are wealth-free
        fields = ("L1", "L2", "L3", "V", "V_hat", "V_tilde", "V_bar", "V1", "V2")
        problems += _invariant(ok, "w0", fields, swept)
    if "xi" in swept:
        # the ambiguity-neutral and basic models do not see xi
        problems += _invariant(ok, "xi", ("V_tilde", "V_bar"), swept)
    return problems


def _invariant(cells, axis: str, fields, swept) -> list[str]:
    """Each field (over w0 for values) equal along ``axis`` at fixed other axes."""
    groups: dict[tuple, list] = {}
    for row, c in cells:
        groups.setdefault(tuple(c[n] for n in swept if n != axis), []).append((row, c))
    problems = []
    for key, members in groups.items():
        for name in fields:
            vals = [float(row[name]) / (c["w0"] if name.startswith("V") else 1.0)
                    for row, c in members]
            if not all(_close(v, vals[0], INVARIANCE_REL_TOL) for v in vals):
                problems.append(f"{name} varies along {axis} at {key}: {vals}")
    return problems


# -- point workload -----------------------------------------------------------

def verify_solve(cfg, files: dict[str, str]) -> list[str]:
    m, s = cfg.market, cfg.solver
    nodes = np.linspace(0.0, m.T, s.num_steps + 1)
    theta = three_asset_theta(m.mu, m.sigma, m.r)
    # the same theta from a one-asset market: excess sqrt(theta), volatility 1
    one = build_market(m.T, m.r, m.r + math.sqrt(theta), 1.0, num_steps=s.num_steps)
    p = cfg.build_preferences()
    problems = []
    for name, (variant, keeps_phi0, keeps_xi) in VARIANTS.items():
        rows = _rows(files[f"coefficients_{name}.csv"])
        if len(rows) != len(nodes):
            problems.append(f"{name}: {len(rows)} rows, want {len(nodes)}")
            continue
        col = {k: np.array([float(r[k]) for r in rows]) for k in rows[0]}
        if not np.array_equal(col["t"], nodes):
            problems.append(f"{name}: time column differs from the grid")
        g0, p0, xi = p.gamma0, p.phi0 if keeps_phi0 else 0.0, p.xi if keeps_xi else 0.0
        last = {k: v[-1] for k, v in col.items()}
        want_last = {"f": 1.0 / g0, "h1": 1.0, "h2": 1.0, "h3": 1.0, "g1": 1.0,
                     "k1": 1.0, "delta3": g0}
        bad = {k: last[k] for k, v in want_last.items() if last[k] != v}
        if bad:
            problems.append(f"{name}: terminal row not exact: {bad}")
        sup = float(np.max(np.abs(col["f"] - _picard(cfg, m.r, theta, g0, p0, xi))))
        if not sup < PICARD_SUP_TOL:
            problems.append(f"{name}: f differs from the Picard oracle by {sup:.3g}")
        f_one = solve_system(one, Preferences(p.gamma0, p.phi0, p.xi), one.grid, variant,
                             s.eps_den).f
        sup = float(np.max(np.abs(col["f"] - f_one)))
        if not sup < ONE_ASSET_SUP_TOL * float(np.max(np.abs(f_one))):
            problems.append(f"{name}: f differs from the one-asset market by {sup:.3g}")
    return problems


def verify_simulate(cfg, sim_text: str, full_text: str) -> list[str]:
    sim = {row["quantity"]: row for row in _rows(sim_text)}
    first = _rows(full_text)[0]
    w0 = cfg.simulation.start_wealth
    targets = (float(first["g1"]) * w0, float(first["h2"]) * w0 ** 2,
               float(first["h3"]) * w0 ** 3)
    problems = []
    for order, target in enumerate(targets, start=1):
        row = sim.get(f"moment_{order}")
        if row is None:
            problems.append(f"simulation.csv has no moment_{order}")
            continue
        est, se = float(row["estimate"]), float(row["std_error"])
        if not abs(est - target) <= MC_BAND * se:
            problems.append(f"moment_{order}: {est!r} is {abs(est - target) / se:.2f} "
                            f"standard errors from {target!r}")
    return problems


def verify_check(stdout: str) -> list[str]:
    status = {}
    for line in stdout.splitlines():
        fields = dict(part.split("=", 1) for part in line.split() if "=" in part)
        if "check" in fields:
            status[fields["check"]] = fields.get("status")
    problems = [f"check {n}: {status.get(n, 'missing')}" for n in CHECK_NAMES
                if status.get(n) != "pass"]
    problems += [f"check {n}: {st}" for n, st in status.items()
                 if n not in CHECK_NAMES and st != "pass"]
    return problems


def verify_workload(workload, outputs: dict) -> list[str]:
    """``outputs`` maps op labels to the first successful (files, stdout)."""
    problems = []
    for op in workload.ops:
        if op.label not in outputs:
            continue  # failed in every round: counted as failed, not checked
        try:
            found = _verify_op(workload, op, outputs)
        except (ValueError, KeyError, IndexError, TypeError) as exc:
            found = [f"malformed output: {type(exc).__name__}: {exc}"]
        problems += [f"{op.label}: {p}" for p in found]
    return problems


def _verify_op(workload, op, outputs: dict) -> list[str]:
    files, stdout = outputs[op.label]
    cfg = workload.configs[op.config]
    if op.command == "sweep":
        return verify_sweep(cfg, files["sweep.csv"])
    if op.command == "solve":
        return verify_solve(cfg, files)
    if op.command == "check":
        return verify_check(stdout)
    if op.command == "simulate":
        if "solve" not in outputs:
            return ["no solve output to compare with"]
        return verify_simulate(cfg, files["simulation.csv"],
                               outputs["solve"][0]["coefficients_full.csv"])
    return [f"no check for command {op.command}"]
