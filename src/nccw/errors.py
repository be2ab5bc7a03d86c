"""Exception vocabulary shared by all nccw modules.

Every error raised by the library is an ``NCCWError``; the command line
front end maps them to exit code 1 (domain errors) while file syntax
problems map to exit code 2.
"""


class NCCWError(Exception):
    """Base class for all domain errors raised by this package."""


class ShapeMismatch(NCCWError):
    """Matrix dimensions disagree with the shapes demanded by context."""


class SizeOverflow(NCCWError):
    """A multiplicity row needs more room than its target block provides."""

    def __init__(self, block: int, needed: int, available: int):
        self.block = block
        self.needed = needed
        self.available = available
        super().__init__(
            f"target block {block} holds {available} but the morphism needs {needed}"
        )


class ComplexViolation(NCCWError):
    """Two consecutive coboundaries fail to compose to zero."""

    def __init__(self, degree: int, message: str | None = None):
        self.degree = degree
        super().__init__(message or f"coboundary composition nonzero at degree {degree}")


class EndpointPairAtHigherStage(NCCWError):
    """Endpoint attaching data is only meaningful when gluing 1-cells."""


class OutOfRange(NCCWError):
    """A degree, a page index or a number falls outside the valid range."""


class NotACocycleMap(NCCWError):
    """A supplied differential is not well defined or breaks d after d = 0."""


class InvalidMorphism(NCCWError):
    """Degree-wise matrices fail the commuting-square condition."""


class UnresolvedExtension(NCCWError):
    """An assembled group is only known up to extension and cannot be reused."""


class NotSimple(NCCWError):
    """The local coefficient system was declared non-simple; refusing to compute."""


class CertificateFailed(NCCWError):
    """An exact computation failed the certificate that proves its result."""
