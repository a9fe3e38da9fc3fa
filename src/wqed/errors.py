"""Exception types shared across the package."""


class WqedError(Exception):
    """Base class for all package-specific errors."""


class GeometryError(WqedError):
    """A diagram or field query is inconsistent with the chain geometry."""


class IllConditioned(WqedError):
    """Rounding could cost the answer its digits: an amplitude series'
    a-priori rounding bound exceeds evaluator.ROUNDING_TOL, a class
    coefficient of diagrams.class_rows, an exact quotient of integers, lies
    beyond float64, or, in the reference residue step, partial fractions
    fail their checks."""


class RealAxisPole(WqedError):
    """Inverse transform requested for a function with a pole on the real axis."""


class HorizonTooLarge(WqedError):
    """The horizon is out of reach: the tree walk's paths or the class
    program's expanded states would exceed diagrams.DIAGRAM_CAP, or a pole
    order k would exceed 171. Past it, at J0 = 1, the residue coefficient
    1/(k-1)! is subnormal (1/171! = 8.1e-310), and the float (k-1)! of the
    reference residue step, momentum.inverse_transform, overflows. At other
    J0 a coefficient may leave float64's normal range earlier; the rounding
    bound counts that, and IllConditioned refuses it."""


class StepTooLarge(WqedError):
    """Integrator step size violates the mesh constraints."""


class OutOfRange(WqedError):
    """A history lookup falls outside the stored time range."""


class NonConvergence(WqedError):
    """An iteration failed to converge: the Halley iteration for a Lambert W
    branch, or the oracle's observed convergence order."""
