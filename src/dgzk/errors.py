"""Exception types shared across the package."""

__all__ = ["SymmetryViolationError", "BackwardHeatError", "InvalidInitialDataError",
           "DivergenceError", "InsufficientDataError", "CertificateViolationError",
           "ConfigError"]


class SymmetryViolationError(ValueError):
    """Coefficients fail the conjugate symmetry required of a real field."""


class BackwardHeatError(ValueError):
    """Damped propagation requested for negative time (semigroup only)."""


class InvalidInitialDataError(ValueError):
    """Initial data violates the mean-zero-in-x hypothesis beyond tolerance."""


class DivergenceError(RuntimeError):
    """Time stepping produced a non-finite state, or a state with a non-finite record."""

    def __init__(self, step: int, t: float):
        self.step = step
        self.t = t
        super().__init__(f"state diverged at step {step} (t = {t:.6g})")


class InsufficientDataError(ValueError):
    """Not enough recorded samples to evaluate a time-integrated estimate."""


class CertificateViolationError(ValueError):
    """Sampled derivative certificate fails the claimed lower bound."""


class ConfigError(ValueError):
    """Configuration file or override is malformed or names unknown keys."""
