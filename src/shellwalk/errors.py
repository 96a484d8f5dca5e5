"""Exception types shared across the package."""


class ShellwalkError(Exception):
    """Base class for library-specific failures."""


class ConfigurationError(ShellwalkError):
    """A run configuration is infeasible or inconsistent."""


class ModelFormatError(ShellwalkError, ValueError):
    """A model, weight or trace file violates the documented format."""


class DegenerateTraceError(ShellwalkError):
    """An energy trace has no variance, so autocorrelation is undefined."""


class EnumerationBudgetError(ShellwalkError):
    """An exhaustive computation would exceed the configured budget."""


class CoherenceError(ShellwalkError):
    """A cached quantity drifted from its from-scratch recomputation."""
