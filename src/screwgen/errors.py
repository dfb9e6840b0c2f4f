"""Exception hierarchy. Every error carries keyword ``details`` that
describe the failure; its class names the kind."""


class ScrewgenError(Exception):
    """Base class for all errors raised by this package."""

    def __init__(self, message, **details):
        super().__init__(message)
        self.details = details


class DomainError(ScrewgenError):
    """Parametric argument outside [0, 1] or outside the knot range."""


class InvalidRefinementError(ScrewgenError):
    """Knot insertion would exceed the allowed interior multiplicity."""


class InvalidGeometryError(ScrewgenError):
    """Screw parameters describe an impossible geometry."""


class ProfileParseError(ScrewgenError):
    """Malformed profile point-cloud file."""


class FitError(ScrewgenError):
    """Least-squares fit produced a singular or unusable system, or was
    asked for a fit threshold that is not a positive finite length."""


class FitConvergenceError(ScrewgenError):
    """Adaptive fitting hit the span cap before reaching the threshold.

    Carries the best fit obtained so far in ``best_fit``.
    """

    def __init__(self, message, best_fit=None, **details):
        super().__init__(message, **details)
        self.best_fit = best_fit


class MatchingError(ScrewgenError):
    """Two boundaries cannot bound a fold-free patch: the point-cloud
    matching failed (oppositely oriented or non-finite clouds, or
    breakpoints that do not increase), or a boundary curve reverses
    direction about its center (backtracking), which no interior map can
    repair."""


class BasisMismatchError(ScrewgenError):
    """Boundary curves are incompatible with the requested tensor basis."""


class TopologyError(ScrewgenError):
    """Patch boundaries do not connect within tolerance."""


class StructureError(ScrewgenError):
    """A spline space lacks required structure (e.g. the 0.5 macro split)."""


class NonconvergenceError(ScrewgenError):
    """Newton iteration stopped short of its tolerance: it exhausted its
    step cap, its line search failed to reduce the residual, or a Newton
    matrix was singular.

    Carries the last iterate (``last_map``) and the residual norm history
    (``history``).
    """

    def __init__(self, message, last_map=None, history=None, **details):
        super().__init__(message, **details)
        self.last_map = last_map
        self.history = history or []


class FoldingError(ScrewgenError):
    """A patch map is not certified fold-free on the knot-span boxes
    ``cells`` that ``check_folding`` returns; ``build_c_grid`` raises it
    for a C-grid, with its ``side``."""

    def __init__(self, message, cells=None, **details):
        super().__init__(message, **details)
        self.cells = cells or []


class FoldingUnrepairedError(FoldingError):
    """Folding persisted after the maximum number of repair rounds."""


class ConstraintError(ScrewgenError):
    """A constrained optimization's start or result violates its
    constraints."""
