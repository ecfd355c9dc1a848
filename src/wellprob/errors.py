"""Exception types shared across the package.

Each class names the ``category`` under which the command line reports it,
``error: <category>: <message>``.
"""


class WellProbError(Exception):
    """Base class for package errors."""
    category = "numerical"


class RegimeError(WellProbError, ValueError):
    """Inputs outside the supported physical regime (e.g. E <= V0)."""
    category = "regime"


class SupportError(WellProbError, ValueError):
    """A requested abscissa lies outside the support of a density."""
    category = "support"


class ResolutionError(WellProbError, ValueError):
    """A sampling grid is too coarse for the requested computation."""
    category = "resolution"


class NumericalError(WellProbError, RuntimeError):
    """A numerical procedure failed to meet its accuracy contract."""


class AiryOverflowError(WellProbError, OverflowError):
    """Bi(z) exceeds the double-precision range (z larger than ~104)."""


class ConfigError(WellProbError, ValueError):
    """Malformed or inconsistent run configuration."""
    category = "config"
