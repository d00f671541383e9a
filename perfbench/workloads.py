"""Workloads: the configs each one generates and the CLI commands of a round.

Every config is generated here from ``presets.preset_config`` and
``RunConfig``; none is copied from a file.  The seed picks the start
wealth ``w0`` wherever it is not a swept axis.  Nothing the seed picks
changes the amount of work, so the work counters of a traced run repeat
exactly on every seed, and the Monte Carlo stream keeps one fixed key,
so the three-standard-error bands give the same verdict on every run
(every figure the bands test scales with ``w0`` and their z-scores do
not).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field, replace

from mvs_robust.config import MarketSection, RunConfig, SimulationSection
from mvs_robust.presets import FIGURE_PRESETS, preset_config

MC_SEED = 42
THREE_ASSET_MU = (0.12, 0.15, 0.18)
THREE_ASSET_SIGMA = ((0.20, 0.0, 0.0), (0.06, 0.22, 0.0), (0.04, 0.05, 0.25))
# A start time between grid nodes (dt = 0.0025): ``check_lognormal_moments``
# compares against node round(t/dt) instead of the interpolated coefficient,
# so this check fails every time until that is mended.
OFF_NODE_START = 0.0013
OFF_NODE_PATHS = 4096
SMOKE_PATHS = 4096
ALL_VARIANTS = "full,neutral,noskew,basic"


@dataclass(frozen=True)
class Op:
    """One CLI command of a round."""

    label: str
    command: str            # solve | sweep | check | simulate
    config: str             # key into Workload.configs
    extra: tuple[str, ...] = ()
    timed: bool = True      # counted in commands_s


@dataclass(frozen=True)
class Workload:
    name: str
    configs: dict[str, RunConfig] = field(repr=False)
    ops: tuple[Op, ...]


def seed_wealth(seed: int) -> float:
    return round(random.Random(seed).uniform(2.0, 6.0), 3)


def _base(seed: int) -> RunConfig:
    return RunConfig(simulation=SimulationSection(seed=MC_SEED, start_wealth=seed_wealth(seed)))


def _preset(name: str):
    return next(p for p in FIGURE_PRESETS if p.name == name)


def _sweep_workload(name: str, preset: str, seed: int, smoke: bool) -> Workload:
    cfg = preset_config(_preset(preset), _base(seed))
    if smoke:  # the two ends of each axis
        cfg = replace(cfg, sweep=replace(cfg.sweep, count=2, count2=2))
    return Workload(name, {preset: cfg}, (Op("sweep", "sweep", preset),))


def _point_workload(seed: int, smoke: bool) -> Workload:
    base = _base(seed)
    cfg = replace(base, market=MarketSection(mu=THREE_ASSET_MU, sigma=THREE_ASSET_SIGMA))
    if smoke:
        cfg = replace(cfg, simulation=replace(cfg.simulation, num_paths=SMOKE_PATHS))
    off = replace(cfg, simulation=replace(
        cfg.simulation, start_time=OFF_NODE_START, num_paths=OFF_NODE_PATHS))
    ops = (
        Op("solve", "solve", "point", ("--variants", ALL_VARIANTS)),
        Op("check", "check", "point"),
        Op("simulate", "simulate", "point"),
        Op("check-off-node", "check", "off_node", timed=False),
    )
    return Workload("point-3asset", {"point": cfg, "off_node": off}, ops)


def make_workload(name: str, seed: int, smoke: bool = False) -> Workload:
    if name == "fig01-wealth-xi":
        return _sweep_workload(name, "fig01", seed, smoke)
    if name == "fig02-drift-gamma":
        return _sweep_workload(name, "fig02", seed, smoke)
    if name == "point-3asset":
        return _point_workload(seed, smoke)
    raise KeyError(name)


WORKLOAD_NAMES = ("fig01-wealth-xi", "fig02-drift-gamma", "point-3asset")
