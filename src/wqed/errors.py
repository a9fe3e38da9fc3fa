"""Exception types shared across the package."""


class WqedError(Exception):
    """Base class for all package-specific errors."""


class GeometryError(WqedError):
    """A diagram or field query is inconsistent with the chain geometry."""


class IllConditioned(WqedError):
    """Rounding could cost the answer its digits: an amplitude series'
    a-priori rounding bound exceeds evaluator.ROUNDING_TOL, or, in the
    reference residue step, partial fractions fail their checks."""


class RealAxisPole(WqedError):
    """Inverse transform requested for a function with a pole on the real axis."""


class HorizonTooLarge(WqedError):
    """The horizon is out of reach: the tree walk's paths or the class
    program's expanded states would exceed diagrams.DIAGRAM_CAP, or a pole
    order would exceed 171, past which the residue coefficient's (k-1)!
    overflows float64."""


class StepTooLarge(WqedError):
    """Integrator step size violates the mesh constraints."""


class OutOfRange(WqedError):
    """A history lookup falls outside the stored time range."""


class NonConvergence(WqedError):
    """An iteration failed to converge: the Halley iteration for a Lambert W
    branch, or the oracle's observed convergence order."""
