"""Exception types shared across the toolkit."""


class NldpError(Exception):
    """Base class for all toolkit errors."""


class NonIntegrableNearField(NldpError):
    """Near-field integrand is not integrable for the given exponents."""


class TailDivergence(NldpError):
    """Exterior data grows too fast for the far-field integral to converge."""


class DivergentSigma(NldpError):
    """Growth exponent eta at or above the convergence threshold."""


class SelectionFailed(NldpError):
    """Bisection for (eta, kappa) exhausted without meeting the target."""


class DegenerateScaling(NldpError):
    """Normalisation requested for identically-zero data."""


class DegenerateFit(NldpError):
    """Oscillation data too close to the interpolation-error floor to fit."""


class DivergenceDetected(NldpError):
    """Cauchy test failed across successive quadrature refinements."""


class ConfigError(NldpError):
    """Malformed or inconsistent experiment configuration."""
