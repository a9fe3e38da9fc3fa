"""Exception types shared across the package."""


class WqedError(Exception):
    """Base class for all package-specific errors."""


class GeometryError(WqedError):
    """A diagram cell or field query is inconsistent with the chain geometry."""


class IllConditioned(WqedError):
    """Two distinct poles are too close to separate reliably."""


class RealAxisPole(WqedError):
    """Inverse transform requested for a function with a pole on the real axis."""


class HorizonTooLarge(WqedError):
    """Diagram enumeration would exceed the configured cap."""


class StepTooLarge(WqedError):
    """Integrator step size violates the mesh constraints."""


class OutOfRange(WqedError):
    """A history lookup falls outside the stored time range."""


class NonConvergence(WqedError):
    """An iteration failed to converge: the Halley iteration for a Lambert W
    branch, or the oracle's observed convergence order."""
