"""Exception types shared across the package."""


class ExptailError(Exception):
    """Base class for package-specific failures."""


class DimensionCapError(ExptailError, ValueError):
    """A 2^d enumeration was requested beyond the configured dimension cap."""


class ShapeMismatchError(ExptailError, ValueError):
    """Operand dimensions do not agree."""


class ParameterError(ExptailError, ValueError):
    """A constructor or operation received an invalid parameter."""


class OutsideSupportError(ExptailError, ValueError):
    """A generating function was evaluated outside its declared support."""


class UnreachableLevelError(ExptailError, ValueError):
    """A ray inversion target level cannot be bracketed along the ray."""


class InsufficientProbesError(ExptailError, RuntimeError):
    """Every probe point was discarded (e.g. all outside the trust region)."""


class MissingCertificateError(ExptailError, RuntimeError):
    """An operation requiring a structural certificate was called without one."""


class ConfigError(ExptailError, ValueError):
    """An experiment configuration failed validation.

    Carries the offending key path so the CLI can point at it.
    """

    def __init__(self, key, message):
        self.key = key
        self.message = message
        super().__init__(f"{key}: {message}")
