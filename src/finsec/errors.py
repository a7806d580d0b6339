"""Exception types shared across the package."""


class FinsecError(Exception):
    """Base class for all package-specific errors."""


class ZeroNotInteriorError(FinsecError):
    """The origin is not a strict interior point of the domain."""


class UnboundedDomainError(FinsecError):
    """The facet normals do not positively span, so the domain is unbounded."""


class OpenFacetError(FinsecError):
    """An operation requiring closed facets met an open one."""


class UnboundedBandError(FinsecError):
    """Entry access outside the region covered by a truncated edge generator."""


class GeneratorBoundError(FinsecError):
    """The generator bound K is too small for the requested window."""


class SingularMatrixError(FinsecError):
    """A square matrix failed the relative invertibility test."""


class SingularSectionError(FinsecError):
    """A square finite section failed the invertibility test."""


class NonFiniteResultError(FinsecError):
    """A numeric kernel overflowed to a non-finite value."""


class SingularGramError(FinsecError):
    """The normal-equations Gram matrix failed the invertibility test."""


class HypothesisViolatedError(FinsecError):
    """The overflow norm is not below 1/||A^-1||, so the solution bound is undefined."""


class NoFeasibleMError(FinsecError):
    """Parameter selection exhausted the configured row cut-off ceiling."""


class InsufficientDataError(FinsecError):
    """A residue class was scanned fewer than the required number of times."""


class UnknownExampleError(FinsecError):
    """Unknown built-in example identifier."""
