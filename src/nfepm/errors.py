"""Exception types raised across the package.

All inherit from NfepmError so callers can catch the package's failures
with a single except clause. Each sits under exactly one of two
categories, which the CLI maps to its exit codes: ConfigError (1) for
inputs outside what the model accepts, NumericalError (2) for failures
of a computation on accepted inputs.
"""


class NfepmError(Exception):
    pass


class ConfigError(NfepmError):
    """The configuration or the arguments are unusable."""


class NumericalError(NfepmError):
    """A computation on accepted inputs failed."""


class ValidityViolation(ConfigError):
    """Geometry or wavelength outside the range where a formula holds."""


class IndexOutOfRange(ConfigError):
    """Element index outside 1..N."""


class NonPositiveDistance(ConfigError):
    """A distance that must be strictly positive is not."""


class CoincidentPoints(NumericalError):
    """Two probe points coincide where distinct points are required."""


class DivisionByZero(NumericalError):
    pass


class NegativeRadicand(NumericalError):
    """Square root of a negative quantity in a real-valued path."""


class NonFinite(NumericalError):
    """A computed quantity is NaN or infinite."""


class UnsupportedRegion(ConfigError):
    """Prior box not covered by any closed-form solver regime."""


class QuadratureFailure(NumericalError):
    """Numerical integration did not converge to tolerance."""


class AttitudeSingularity(NumericalError):
    """Attitude too close to t_z = 1 where 1/t_y diverges."""


class SingularFIM(NumericalError):
    """Fisher information matrix numerically singular."""


class ParseError(ConfigError):
    """Malformed config file or override string."""


class InvariantViolation(ConfigError):
    """Internal consistency check failed."""
