"""Per-layer spans and counters, recorded from outside the program.

Nothing under ``src/`` is edited.  For a traced round, :meth:`Tracer.install`
replaces the names each calling module binds (``sweep.solve_all``,
``cli.solve_system``, the functions in ``checks.ALL_CHECKS``,
``config.build_market``, ``MarketCurves.theta_at``, ...) with wrappers
that record a span around the original call; :meth:`Tracer.remove` puts
the originals back.  Spans stay in memory and are reduced to the layer
metrics by :func:`layer_metrics` when the round ends.
"""

from __future__ import annotations

import functools
import hashlib
import inspect
import time
from collections import Counter, defaultdict
from dataclasses import dataclass, field

import numpy as np

import mvs_robust.checks as checks
import mvs_robust.cli as cli
import mvs_robust.config as config
import mvs_robust.policy as policy
import mvs_robust.solver as solver
import mvs_robust.sweep as sweep
from mvs_robust.errors import DegenerateDenominator
from mvs_robust.market import MarketCurves

CHECK_NAMES = tuple(fn.__name__.removeprefix("check_") for fn in checks.ALL_CHECKS)
COMMANDS = ("solve", "sweep", "check", "simulate")

# name -> unit, in output order; BENCHMARK.json lists the same names.
PER_LAYER = {
    "config.load_s": "s",
    "market.build_s": "s",
    "market.build_calls": "count",
    "market.theta_s": "s",
    "market.theta_points": "count",
    "solver.solve_all_s": "s",
    "solver.solve_system_s": "s",
    "solver.solve_system_calls": "count",
    "solver.solve_system_unique_ratio": "ratio",
    "solver.rk4_steps": "count",
    "solver.mispec_s": "s",
    "solver.mispec_calls": "count",
    "solver.mispec_unique_ratio": "ratio",
    "solver.degenerate_calls": "count",
    "solver.picard_s": "s",
    "solver.picard_calls": "count",
    "solver.picard_evals": "count",
    "policy.value_at_s": "s",
    "policy.value_at_calls": "count",
    "policy.coefficients_at_s": "s",
    "policy.coefficients_at_calls": "count",
    "policy.equilibrium_policy_s": "s",
    "simulate.simulate_s": "s",
    "simulate.verify_value_s": "s",
    "simulate.moment_bound_s": "s",
    "simulate.lognormal_moments_s": "s",
    "simulate.path_steps": "count",
    "simulate.path_steps_per_s": "1/s",
    **{f"checks.{name}_s": "s" for name in CHECK_NAMES},
    "sweep.run_s": "s",
    "sweep.self_s": "s",
    "sweep.cells": "count",
    "sweep.cells_ok": "count",
    **{f"cli.{cmd}_s": "s" for cmd in COMMANDS},
    **{f"cli.{cmd}_self_s": "s" for cmd in COMMANDS},
    "trace.overhead_pct": "%",
}

# Counters that repeat exactly for given inputs.
EXACT_COUNTERS = (
    "solver.rk4_steps",
    "solver.solve_system_unique_ratio",
    "solver.mispec_unique_ratio",
    "solver.picard_evals",
    "simulate.path_steps",
)


@dataclass(eq=False)
class Span:
    name: str
    start: float
    end: float = 0.0
    children: list[Span] = field(default_factory=list)

    @property
    def seconds(self) -> float:
        return self.end - self.start

    def self_seconds(self) -> float:
        """Duration less the part of it that child spans cover."""
        covered, reach = 0.0, self.start
        for child in sorted(self.children, key=lambda s: s.start):
            lo, hi = max(child.start, reach), min(child.end, self.end)
            if hi > lo:
                covered += hi - lo
                reach = hi
        return self.seconds - covered


class Tracer:
    """Spans, counters and input keys of one traced round.

    The benchmark runs sweeps with one worker, so every call happens on
    the main thread and spans nest on one stack.
    """

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.counts: Counter[str] = Counter()
        self.keys: defaultdict[str, set] = defaultdict(set)
        self._stack: list[Span] = []
        self._patched: list[tuple[object, str, object]] = []

    def wrap(self, fn, name: str, hook=None):
        """``fn`` timed as span ``name``; ``hook(tracer, args, result)`` runs after.

        ``args`` maps parameter names to the call's arguments; ``result``
        is None when the call raised.
        """
        signature = inspect.signature(fn) if hook else None

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            parent = self._stack[-1] if self._stack else None
            span = Span(name, time.perf_counter())
            self._stack.append(span)
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception as exc:
                self.counts[f"{name}.raised.{type(exc).__name__}"] += 1
                raise
            finally:
                span.end = time.perf_counter()
                self._stack.pop()
                self.spans.append(span)
                if parent is not None:
                    parent.children.append(span)
                if hook:
                    bound = signature.bind(*args, **kwargs)
                    bound.apply_defaults()
                    hook(self, bound.arguments, result)

        return wrapper

    def patch(self, owner, attr: str, name: str, hook=None) -> None:
        self._replace(owner, attr, self.wrap(getattr(owner, attr), name, hook))

    def _replace(self, owner, attr: str, value) -> None:
        self._patched.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, value)

    def install(self) -> None:
        p = self.patch
        p(cli, "load_config", "config.load")
        p(config, "build_market", "market.build")
        p(MarketCurves, "theta_at", "market.theta", _count_theta_points)
        for owner in (solver, cli, checks):
            p(owner, "solve_system", "solver.solve_system", _key_solve_system)
        p(solver, "solve_mispec_system", "solver.mispec", _key_mispec)
        p(sweep, "solve_all", "solver.solve_all")
        self._replace(checks, "solve_f_picard",
                      self.wrap(self._picard_with_info(checks.solve_f_picard), "solver.picard"))
        p(policy, "coefficients_at", "policy.coefficients_at")
        p(sweep, "value_at", "policy.value_at")
        p(sweep, "equilibrium_policy", "policy.equilibrium_policy")
        for owner in (cli, checks):
            p(owner, "simulate_equilibrium_wealth", "simulate.simulate", _count_paths("cfg"))
            p(owner, "lognormal_moments", "simulate.lognormal_moments")
        p(checks, "verify_value", "simulate.verify_value", _count_value_paths)
        p(checks, "moment_bound_check", "simulate.moment_bound", _count_paths("cfg"))
        self._replace(checks, "ALL_CHECKS", tuple(
            self.wrap(fn, f"checks.{fn.__name__.removeprefix('check_')}")
            for fn in checks.ALL_CHECKS
        ))
        p(cli, "run_sweep", "sweep.run", _count_cells)
        for cmd in COMMANDS:
            p(cli, f"cmd_{cmd}", f"cli.{cmd}")

    def _picard_with_info(self, original):
        """``solve_f_picard`` called through its public ``full_output`` flag,
        so map evaluations are counted whatever the caller asked for."""
        signature = inspect.signature(original)

        @functools.wraps(original)
        def picard(*args, **kwargs):
            bound = signature.bind(*args, **kwargs)
            want_info = bound.arguments.pop("full_output", False)
            f, info = original(*bound.args, **bound.kwargs, full_output=True)
            self.counts["solver.picard_evals"] += info.iterations
            return (f, info) if want_info else f

        return picard

    def remove(self) -> None:
        while self._patched:
            owner, attr, original = self._patched.pop()
            setattr(owner, attr, original)


# -- hooks ----------------------------------------------------------------

def _curve_key(market) -> bytes:
    """Digest of the r and theta node curves, which fix a backward solve."""
    h = hashlib.blake2b(digest_size=16)
    h.update(np.ascontiguousarray(market.risk_free_nodes).tobytes())
    h.update(np.ascontiguousarray(market.theta_nodes).tobytes())
    return h.digest()


def _grid_key(grid) -> tuple:
    return (grid.horizon, grid.num_steps)


def _key_solve_system(tr: Tracer, a: dict, result) -> None:
    tr.keys["solver.solve_system"].add(
        (a["variant"].effective(a["prefs"]), _grid_key(a["grid"]), a["eps_den"],
         _curve_key(a["market"]))
    )
    if result is not None:
        tr.counts["solver.rk4_steps"] += a["grid"].num_steps


def _key_mispec(tr: Tracer, a: dict, result) -> None:
    prefs, kind = a["prefs"], a["kind"]
    phi0 = prefs.phi0 if kind is solver.MispecKind.IGNORE_UNCERTAINTY else 0.0
    tr.keys["solver.mispec"].add(
        (kind, prefs.gamma0, phi0, prefs.xi, _grid_key(a["grid"]), a["eps_den"],
         _curve_key(a["market"]))
    )
    if result is not None:
        tr.counts["solver.rk4_steps"] += a["grid"].num_steps


def _count_theta_points(tr: Tracer, a: dict, result) -> None:
    tr.counts["market.theta_points"] += int(np.size(a["t"]))


def _count_paths(arg: str):
    def hook(tr: Tracer, a: dict, result) -> None:
        if result is not None:
            tr.counts["simulate.path_steps"] += a[arg].num_paths * a[arg].num_steps
    return hook


def _count_value_paths(tr: Tracer, a: dict, result) -> None:
    # verify_value simulates nothing when it starts at the horizon
    if result is not None and a["t"] != a["table"].grid.horizon:
        tr.counts["simulate.path_steps"] += a["cfg"].num_paths * a["cfg"].num_steps


def _count_cells(tr: Tracer, a: dict, result) -> None:
    if result is not None:
        _, rows = result
        tr.counts["sweep.cells"] += len(rows)
        tr.counts["sweep.cells_ok"] += sum(row.status == "ok" for row in rows)


# -- reduction ------------------------------------------------------------

def layer_metrics(tr: Tracer) -> dict[str, float]:
    """Every per-layer metric the spans and counters give (not the cli.*_s
    wall times or the overhead, which the untraced rounds give)."""
    total: defaultdict[str, float] = defaultdict(float)
    calls: Counter[str] = Counter()
    self_time: defaultdict[str, float] = defaultdict(float)
    for span in tr.spans:
        total[span.name] += span.seconds
        calls[span.name] += 1
        self_time[span.name] += span.self_seconds()

    def ratio(name: str) -> float:
        return len(tr.keys[name]) / calls[name] if calls[name] else 0.0

    sim_busy = sum(total[n] for n in
                   ("simulate.simulate", "simulate.verify_value", "simulate.moment_bound"))
    out = {
        "config.load_s": total["config.load"],
        "market.build_s": total["market.build"],
        "market.build_calls": calls["market.build"],
        "market.theta_s": total["market.theta"],
        "market.theta_points": tr.counts["market.theta_points"],
        "solver.solve_all_s": total["solver.solve_all"],
        "solver.solve_system_s": total["solver.solve_system"],
        "solver.solve_system_calls": calls["solver.solve_system"],
        "solver.solve_system_unique_ratio": ratio("solver.solve_system"),
        "solver.rk4_steps": tr.counts["solver.rk4_steps"],
        "solver.mispec_s": total["solver.mispec"],
        "solver.mispec_calls": calls["solver.mispec"],
        "solver.mispec_unique_ratio": ratio("solver.mispec"),
        "solver.degenerate_calls": sum(
            tr.counts[f"{n}.raised.{DegenerateDenominator.__name__}"]
            for n in ("solver.solve_system", "solver.mispec")
        ),
        "solver.picard_s": total["solver.picard"],
        "solver.picard_calls": calls["solver.picard"],
        "solver.picard_evals": tr.counts["solver.picard_evals"],
        "policy.value_at_s": total["policy.value_at"],
        "policy.value_at_calls": calls["policy.value_at"],
        "policy.coefficients_at_s": total["policy.coefficients_at"],
        "policy.coefficients_at_calls": calls["policy.coefficients_at"],
        "policy.equilibrium_policy_s": total["policy.equilibrium_policy"],
        "simulate.simulate_s": total["simulate.simulate"],
        "simulate.verify_value_s": total["simulate.verify_value"],
        "simulate.moment_bound_s": total["simulate.moment_bound"],
        "simulate.lognormal_moments_s": total["simulate.lognormal_moments"],
        "simulate.path_steps": tr.counts["simulate.path_steps"],
        "simulate.path_steps_per_s": (
            tr.counts["simulate.path_steps"] / sim_busy if sim_busy else 0.0
        ),
        **{f"checks.{n}_s": total[f"checks.{n}"] for n in CHECK_NAMES},
        "sweep.run_s": total["sweep.run"],
        "sweep.self_s": self_time["sweep.run"],
        "sweep.cells": tr.counts["sweep.cells"],
        "sweep.cells_ok": tr.counts["sweep.cells_ok"],
        **{f"cli.{cmd}_self_s": self_time[f"cli.{cmd}"] for cmd in COMMANDS},
    }
    return out
