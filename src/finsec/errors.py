"""Exception types shared across the package, each a ConfigError or a NumericError."""


class FinsecError(Exception):
    """Base class for all package-specific errors."""


class ConfigError(FinsecError):
    """The input is invalid; the CLI exits 2."""


class NumericError(FinsecError):
    """A computation failed on valid input; the CLI exits 3."""


class ZeroNotInteriorError(ConfigError):
    """The origin is not a strict interior point of the domain."""


class UnboundedDomainError(ConfigError):
    """The facet normals do not positively span, so the domain is unbounded."""


class OpenFacetError(ConfigError):
    """An operation requiring closed facets met an open one."""


class GeneratorBoundError(ConfigError):
    """The generator bound K is too small for the requested window or column."""


class SingularSectionError(NumericError):
    """A square finite section failed the invertibility test."""


class NonFiniteResultError(NumericError):
    """A numeric kernel overflowed to a non-finite value."""


class SingularGramError(NumericError):
    """The normal-equations Gram matrix failed the invertibility test."""


class HypothesisViolatedError(NumericError):
    """The overflow norm is not below 1/||A^-1||, so the solution bound is undefined."""


class NoFeasibleMError(NumericError):
    """Parameter selection exhausted the configured row cut-off ceiling."""


class InsufficientDataError(ConfigError):
    """A residue class was scanned fewer than the required number of times."""


class UnknownExampleError(ConfigError):
    """Unknown built-in example identifier."""
