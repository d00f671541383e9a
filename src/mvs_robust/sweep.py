"""Parameter sweep engine.

A sweep solves the full model stack at every point of a one- or
two-parameter grid and reports, per cell: the equilibrium allocation
and distortion at (t = 0, w = w0), all six values, the three loss
ratios, and the grid minimum of the positivity quantity delta3.  Cells
where the solver degenerates are recorded with the error name in the
status column instead of aborting the sweep; a cell outside a
parameter's domain is a ``ConfigError``, at load as at run.

Load expands the cells and builds every distinct market once
(``RunConfig.cells``).  Every distinct backward system (market,
effective weights, misspecified kind) becomes one lane, and all lanes
are integrated in a single ``integrate_lanes`` call that keeps node-0
values only.  Output bytes do not depend on which other cells share the
batch.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .config import RunConfig, SweepCell
from .errors import MvsRobustError
from .market import MarketCurves
from .policy import bracket, policy_point, value_report
# bound here for the per-layer benchmark (perfbench/tracing.py), which wraps them
from .policy import equilibrium_policy, value_at  # noqa: F401
from .solver import LanePlan, LaneResult, integrate_lanes
from .solver import solve_all  # noqa: F401


@dataclass(frozen=True)
class SweepRow:
    values: dict[str, float]
    status: str
    fields: dict[str, float] | None  # None when the cell failed


RESULT_FIELDS = (
    "u_star", "q_star", "V", "V_hat", "V_tilde", "V_bar",
    "V1", "V2", "L1", "L2", "L3", "min_delta3",
)


def _cell_row(cell: SweepCell, market: MarketCurves, ids: tuple[int, ...], plan: LanePlan,
              results: list[LaneResult]) -> SweepRow:
    """A cell's row from its lanes' node-0 values, or its first failed lane's error class."""
    res = [results[i] for i in ids]
    failed = next((r.error for r in res if r.error is not None), None)
    if failed is not None:
        return SweepRow(values=cell.values, status=failed.__name__, fields=None)
    lanes = [plan.lanes[i] for i in ids]
    # (h1, h2, h3, g1) of a coefficient lane, (a1, a2, a3, b1) of a misspecified one
    brackets = tuple(
        bracket(lane.gamma0, lane.phi0, *r.state0) for lane, r in zip(lanes, res)
    )
    full, lane = res[0], lanes[0]
    try:
        pol = policy_point(
            market, 0.0, cell.w0, lane.gamma0, lane.phi0, lane.xi,
            (full.ratio0, *full.state0),
        )
        rep = value_report(0.0, cell.w0, brackets)
    except MvsRobustError as exc:
        return SweepRow(values=cell.values, status=type(exc).__name__, fields=None)
    fields = {
        "u_star": float(pol.allocation[0]) if market.num_assets == 1
        else float(np.linalg.norm(pol.allocation)),
        "q_star": float(pol.distortion[0]) if market.num_assets == 1
        else float(np.linalg.norm(pol.distortion)),
        "V": rep.value_full,
        "V_hat": rep.value_noskew,
        "V_tilde": rep.value_neutral,
        "V_bar": rep.value_basic,
        "V1": rep.value_mispec_u,
        "V2": rep.value_mispec_both,
        "L1": rep.loss_skew,
        "L2": rep.loss_uncertainty,
        "L3": rep.loss_both,
        "min_delta3": full.den_min,
    }
    return SweepRow(values=cell.values, status="ok", fields=fields)


def run_sweep(config: RunConfig) -> tuple[list[str], list[SweepRow]]:
    """Evaluate every cell; returns (header, rows) in deterministic order.
    Raises ``ConfigError`` for a cell outside a parameter's domain."""
    markets, cells = config.cells
    sw = config.sweep
    params = [sw.param] + ([sw.param2] if sw.param2 else [])
    header = params + list(RESULT_FIELDS) + ["status"]

    plan = LanePlan()
    lanes = [plan.add_model(cell.market, cell.prefs) for cell in cells]
    results = integrate_lanes(plan.lanes, markets, config.market_curves.grid,
                              config.solver.eps_den)
    rows = [_cell_row(cell, markets[cell.market], ids, plan, results)
            for cell, ids in zip(cells, lanes)]
    return header, rows


def rows_to_csv(header: list[str], rows: list[SweepRow]) -> str:
    """Render rows as locale-independent CSV with 17 significant digits."""
    lines = [",".join(header)]
    param_names = [h for h in header if h not in RESULT_FIELDS and h != "status"]
    for row in rows:
        cells = [f"{row.values[p]:.17g}" for p in param_names]
        if row.fields is None:
            cells += ["" for _ in RESULT_FIELDS]
        else:
            cells += [f"{row.fields[k]:.17g}" for k in RESULT_FIELDS]
        cells.append(row.status)
        lines.append(",".join(cells))
    return "\n".join(lines) + "\n"
