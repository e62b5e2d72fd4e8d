"""Exception hierarchy.

Two families matter for the command line front end: ``ValidationError``
(bad inputs, exit code 2) and ``NumericalError`` (a computation failed or
degenerated, exit code 3).
"""


class AgresError(Exception):
    """Base class for all package errors."""


class ValidationError(AgresError):
    """Invalid argument or configuration."""


class DomainError(ValidationError):
    """Parameter outside its admissible domain (e.g. lambda not a rational in (0, 1/2))."""


class CapExceeded(ValidationError):
    """Requested depth or level beyond the configured cap."""


class GuardExceeded(ValidationError):
    """Boundary set larger than the guard for relation enumeration."""


class BadTarget(ValidationError):
    """Source vertex contained in the target set of a resistance query."""


class BadMeasure(ValidationError):
    """Vertex masses nonpositive or not normalized."""


class BadWeights(ValidationError):
    """Measure weights nonpositive or malformed."""


class MismatchedVertexSets(ValidationError):
    """Two forms do not share a vertex set."""


class UnknownVertex(ValidationError):
    """Vertex or address not present at the requested level."""


class InsufficientScales(ValidationError):
    """Scaling fit attempted over fewer than the required number of dyadic scales."""


class NumericalError(AgresError):
    """A numerical procedure failed or produced a degenerate result."""


class DepthExceeded(NumericalError):
    """Attractor membership recursion exceeded the pullback cap without resolving."""


class OrbitOverflow(NumericalError):
    """Edge-parameter doubling orbit exceeded the guard."""


class Disconnected(NumericalError):
    """Support graph of a form is disconnected."""


class SingularInterior(NumericalError):
    """Interior block of a Laplacian could not be factorized."""


class NegativeConductance(NumericalError):
    """A reduction produced a genuinely negative conductance."""


class IdentificationMismatch(NumericalError):
    """Gluing did not produce the expected single-point identifications."""


class NoConvergence(NumericalError):
    """Iteration cap reached before the fixed-point tolerance."""


class DegenerateLimit(NumericalError):
    """Iteration limit is disconnected (a nontrivial degeneration)."""


class BracketFailure(NumericalError):
    """The weight solve could not bracket the requested value."""


class ConditionWarning(UserWarning):
    """Pivot ratio of an interior factorization exceeded the conditioning threshold."""
