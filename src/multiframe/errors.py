"""Exception hierarchy shared by all multiframe modules."""


class MultiframeError(Exception):
    """Base class for every error raised by this package."""


class InputError(MultiframeError, ValueError):
    """A caller supplied an argument that violates a precondition."""


class DegenerateGeometry(MultiframeError):
    """A geometric construction is undefined for the given configuration."""


class DegenerateProjection(DegenerateGeometry):
    """Point at or behind the focal plane; projection undefined.

    ``index`` is the row of that point in the projected batch.
    """

    def __init__(self, message: str, index: int = 0):
        super().__init__(message)
        self.index = index


class DegenerateTriangulation(DegenerateGeometry):
    """Rays too close to parallel for a stable intersection."""


class GenerationError(MultiframeError):
    """Synthetic scene rendering failed (names frame and label)."""


class ParseError(MultiframeError, ValueError):
    """A serialized dataset could not be decoded; message carries location."""


class SolverError(MultiframeError):
    """A reconstruction procedure failed on admissible input."""


class RankDeficientError(SolverError):
    """Linear stage of a solver lost rank (degenerate motion/configuration)."""


class NoSolutionError(SolverError):
    """No admissible candidate survived the solver's filters."""


class AmbiguityError(SolverError):
    """Multiple indistinguishable candidates survived where one was required."""


class NotEssentialError(SolverError):
    """Composite matrix violates the essential-structure invariant."""


class InconsistentDataError(SolverError):
    """Measurements contradict each other beyond tolerance."""
