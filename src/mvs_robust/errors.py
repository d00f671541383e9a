"""Exception hierarchy for the mvs_robust package.

Configuration and input-validation problems raise :class:`ConfigError`
(or one of the market construction errors), which the CLI maps to exit
code 2.  Failures inside a numerical routine raise one of the solver
errors, mapped to exit code 3.
"""


class MvsRobustError(Exception):
    """Base class for all package errors."""


class ConfigError(MvsRobustError):
    """Invalid configuration file, key, or parameter value."""


class NonPositiveHorizon(ConfigError):
    """The investment horizon T must be strictly positive."""


class SingularGram(ConfigError):
    """The volatility Gram matrix is singular or not positive definite."""


class OutOfHorizon(MvsRobustError):
    """A time argument lies outside [0, T]."""


class NonPositiveWealth(MvsRobustError):
    """Wealth must be strictly positive for policy and value evaluation."""


class DegenerateDenominator(MvsRobustError):
    """An algebraic-ratio denominator fell below the configured guard.

    The denominator equals the risk-aversion-weighted second-moment
    coefficient; it is positive at the terminal time, so a value at or
    below the guard means the backward system has no valid solution on
    the remaining interval for these parameters.
    """


class NonFiniteState(MvsRobustError):
    """A solver state component became NaN or infinite."""


class NoConvergence(MvsRobustError):
    """An iterative scheme exhausted its budget without converging."""


class ZeroDenominatorValue(MvsRobustError):
    """A value function is zero where a loss ratio is requested."""


class PenaltyUndefined(MvsRobustError):
    """The ambiguity penalty is undefined (nonpositive preference scale)."""
