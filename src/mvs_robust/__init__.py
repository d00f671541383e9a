"""Robust time-consistent mean-variance-skewness portfolio solver.

Public surface:

* market primitives: :class:`TimeGrid`, :class:`Preferences`,
  :func:`build_market`
* backward systems: :func:`solve_system`, :func:`solve_f_picard`,
  :func:`solve_mispec_system`, :func:`solve_all`, all through
  :func:`integrate_lanes`: a lone lane marches its own RK4 on Python
  floats, a batch of lanes one RK4 over numpy lane arrays in buffers
  allocated once, and both give a lane the same bits; a table carries
  the market it was solved on
* policy and values: :func:`equilibrium_policy`, :func:`value_at`,
  :func:`delta3_scan`
* simulation oracles on a table and its market:
  :func:`simulate_equilibrium_wealth`, :func:`lognormal_moments`,
  :func:`verify_value`, :func:`moment_bound_check`
"""

__version__ = "0.1.0"

from .errors import (
    ConfigError,
    DegenerateDenominator,
    MvsRobustError,
    NoConvergence,
    NonFiniteState,
    NonPositiveHorizon,
    NonPositiveWealth,
    OutOfHorizon,
    PenaltyUndefined,
    SingularGram,
    ZeroDenominatorValue,
)
from .market import MarketCurves, Preferences, TimeGrid, build_market
from .policy import (
    Delta3Report,
    PolicyPoint,
    ValueReport,
    delta3_scan,
    equilibrium_policy,
    value_at,
    value_bracket,
)
from .simulate import (
    Measure,
    MomentEstimate,
    Scheme,
    SimConfig,
    SimResult,
    lognormal_moments,
    moment_bound_check,
    simulate_equilibrium_wealth,
    verify_value,
)
from .solver import (
    CoefficientTable,
    MispecKind,
    MispecTable,
    ModelVariant,
    SolvedModel,
    integrate_lanes,
    solve_all,
    solve_f_picard,
    solve_mispec_system,
    solve_system,
)

__all__ = [
    "__version__",
    "build_market", "MarketCurves", "Preferences", "TimeGrid",
    "solve_system", "solve_f_picard", "solve_mispec_system", "solve_all",
    "integrate_lanes",
    "CoefficientTable", "MispecTable", "SolvedModel", "ModelVariant", "MispecKind",
    "equilibrium_policy", "value_at", "value_bracket", "delta3_scan",
    "PolicyPoint", "ValueReport", "Delta3Report",
    "SimConfig", "SimResult", "MomentEstimate", "Scheme", "Measure",
    "simulate_equilibrium_wealth", "lognormal_moments", "verify_value",
    "moment_bound_check",
    "MvsRobustError", "ConfigError", "NonPositiveHorizon", "SingularGram",
    "OutOfHorizon", "NonPositiveWealth", "DegenerateDenominator",
    "NonFiniteState", "NoConvergence",
    "ZeroDenominatorValue", "PenaltyUndefined",
]
