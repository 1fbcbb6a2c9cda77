"""Exception and warning types shared across the package."""

__all__ = ["ConfigError", "PreconditionError", "ConvergenceError", "NearSingularWarning"]


class ConfigError(ValueError):
    """Malformed input: bad schema, bad dimensions, or parameters out of domain."""


class PreconditionError(RuntimeError):
    """A numerical precondition of the requested operation does not hold.

    ``flag`` names the specific precondition that failed (e.g. ``"is_isothermal"``,
    ``"nu_min"``), so callers can report exactly which gate rejected the input.
    """

    def __init__(self, flag: str, message: str):
        super().__init__(f"[{flag}] {message}")
        self.flag = flag


class ConvergenceError(RuntimeError):
    """An iterative routine failed to reach its tolerance."""


class NearSingularWarning(UserWarning):
    """The model point sits at (or numerically near) a purity boundary."""
