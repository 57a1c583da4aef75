"""Exception types shared across the library."""


class AlexlabError(Exception):
    """Base class for all library errors."""


class DomainError(AlexlabError, ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class TriangleInequalityError(DomainError):
    """Three side lengths cannot form a (nondegenerate) triangle."""


class PerimeterTooLargeError(DomainError):
    """Triangle perimeter exceeds 2*pi/sqrt(k) in a positively curved model."""


class InconsistentGluingError(AlexlabError):
    """Edge data disagrees between the two faces sharing an edge."""


class DisconnectedError(AlexlabError):
    """The face-adjacency graph of a surface is not connected."""


class UnreachableError(AlexlabError):
    """A target node cannot be reached from the source of a distance field."""


class SolverDivergedError(AlexlabError):
    """A solve failed: an iteration cap was hit before the tolerance, a
    factorization broke down, or a residual came out above the tolerance."""


class EmptyBoundaryError(AlexlabError):
    """A Dirichlet solve was requested on a region with no boundary nodes."""


class NotClosedError(AlexlabError):
    """An operation requiring a closed surface received one with boundary."""


class BallTooLargeError(DomainError):
    """A metric ball does not fit inside the requested domain."""


class MeshFormatError(AlexlabError, ValueError):
    """A mesh file violates the expected text format."""
