"""Exception types shared across the package.

Every error raised on a contract violation derives from ``MovingBeliefsError``
so callers can catch the whole family at once.
"""


class MovingBeliefsError(Exception):
    """Base class for all package-specific errors."""


class EmptyInput(MovingBeliefsError):
    """An operation received an empty point set."""


class NumericalRankAmbiguity(MovingBeliefsError):
    """Singular values fall inside the rank-tolerance band; the intrinsic
    dimension cannot be decided reliably and is reported instead of guessed."""


class Infeasible(MovingBeliefsError):
    """A linear inequality system has no solution."""


class Unbounded(MovingBeliefsError):
    """A linear inequality system admits a recession direction."""


class OriginNotContained(MovingBeliefsError):
    """The origin is required to lie in the polytope but does not."""


class OriginNotRelativeInterior(MovingBeliefsError):
    """The origin is required to lie in the relative interior but does not."""


class QuadratureBudgetExceeded(MovingBeliefsError):
    """A quadrature-based estimate failed its containment certificate at the
    configured node count."""


class SolverStall(MovingBeliefsError):
    """The minimum-norm-point solver hit its iteration cap; usually a sign of
    a degenerate vertex configuration."""


class AffineHullMismatch(MovingBeliefsError):
    """Two polytopes were expected to share an affine hull but do not."""


class DegreeCapExceeded(MovingBeliefsError):
    """A polynomial integrand exceeds the configured degree cap."""


class PositivityViolation(MovingBeliefsError):
    """A density must be strictly positive on its support but was not.  The
    check is exact for affine densities, whose minimum over a polytope sits
    at a vertex; other densities are checked at the vertices and at samples."""


class ResolutionTooCoarse(MovingBeliefsError):
    """A discretization grid is too coarse to carry the requested measure."""


class DomainViolation(MovingBeliefsError):
    """A parameter lies outside the domain of a set-valued map, or an image
    outside a box declared to hold it."""


class ParameterInfeasible(DomainViolation):
    """The lower-level problem is infeasible at the requested parameter, which
    is therefore outside the domain: the x with a nonempty fiber."""


class ZeroDenominator(MovingBeliefsError):
    """A volume-ratio denominator vanished away from the anchor point."""


class DimensionDrift(MovingBeliefsError):
    """Image dimension changed across a grid that requires it constant."""


class DimensionViolation(MovingBeliefsError):
    """An image fails a full-dimensionality precondition."""


class QhullFailure(MovingBeliefsError):
    """Qhull rejected a point set, given at unit size, both as given and
    with the ``QJ`` joggle."""


class QhullJoggleWarning(RuntimeWarning):
    """Qhull rejected a degenerate input and the computation was retried with
    the ``QJ`` joggle, which perturbs the points by a tiny random amount."""
