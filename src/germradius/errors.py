"""Exception types shared across the library."""


class GermRadiusError(Exception):
    """Base class for every error raised by this package."""


class DimensionMismatch(GermRadiusError):
    """Operands disagree on the number of variables or components."""


class CenterMismatch(GermRadiusError):
    """Operands are centred at different points."""


class TruncationError(GermRadiusError):
    """A lookup or operation reached beyond the valid truncation degree.

    ``needed_degree`` carries the degree that would make the operation
    valid, when that is known.
    """

    def __init__(self, message, needed_degree=None):
        super().__init__(message)
        self.needed_degree = needed_degree


class CompositionError(GermRadiusError):
    """The series and map germ handed to a composition do not fit together."""


class SingularJacobianError(GermRadiusError):
    """The Jacobian determinant vanishes identically to the working degree."""


class InsufficientShellsError(GermRadiusError):
    """Too few nonzero coefficient shells for a root-test estimate."""


class DegenerateFamilyError(GermRadiusError):
    """A scaling fit was attempted on a constant or unusable family."""


class ParseError(GermRadiusError):
    """Expression syntax error; ``position`` is the 0-based offset."""

    def __init__(self, message, position):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class JobError(GermRadiusError):
    """A job file is malformed or inconsistent."""
