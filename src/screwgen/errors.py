"""Exception hierarchy. Every error carries a short machine-readable
``code`` and keyword ``details`` that describe the failure."""


class ScrewgenError(Exception):
    """Base class for all errors raised by this package."""

    code = "error"

    def __init__(self, message, **details):
        super().__init__(message)
        self.details = details


class DomainError(ScrewgenError):
    """Parametric argument outside [0, 1] or outside the knot range."""

    code = "domain"


class InvalidRefinementError(ScrewgenError):
    """Knot insertion would exceed the allowed interior multiplicity."""

    code = "invalid-refinement"


class InvalidGeometryError(ScrewgenError):
    """Screw parameters describe an impossible geometry."""

    code = "invalid-geometry"


class ProfileParseError(ScrewgenError):
    """Malformed profile point-cloud file."""

    code = "profile-parse"


class FitError(ScrewgenError):
    """Least-squares fit produced a singular or unusable system."""

    code = "fit"


class FitConvergenceError(ScrewgenError):
    """Adaptive fitting hit the span cap before reaching the threshold.

    Carries the best fit obtained so far in ``best_fit``.
    """

    code = "fit-convergence"

    def __init__(self, message, best_fit=None, **details):
        super().__init__(message, **details)
        self.best_fit = best_fit


class MatchingError(ScrewgenError):
    """Two boundaries cannot bound a fold-free patch: the point-cloud
    matching failed (orientation mismatch), a ruled map between two curves
    folds, or a boundary curve reverses direction about its center
    (backtracking), which no interior map can repair."""

    code = "matching"


class BasisMismatchError(ScrewgenError):
    """Boundary curves are incompatible with the requested tensor basis."""

    code = "basis-mismatch"


class TopologyError(ScrewgenError):
    """Patch boundaries do not connect within tolerance."""

    code = "topology"


class StructureError(ScrewgenError):
    """A spline space lacks required structure (e.g. the 0.5 macro split)."""

    code = "structure"


class NonconvergenceError(ScrewgenError):
    """Newton iteration stopped short of its tolerance: it exhausted its
    step cap, its line search failed to reduce the residual, or a Newton
    matrix was singular.

    Carries the last iterate (``last_map``) and the residual norm history
    (``history``).
    """

    code = "nonconvergence"

    def __init__(self, message, last_map=None, history=None, **details):
        super().__init__(message, **details)
        self.last_map = last_map
        self.history = history or []


class FoldingError(ScrewgenError):
    """A parameterization is not certified fold-free on the boxes ``cells``."""

    code = "folding"

    def __init__(self, message, cells=None, **details):
        super().__init__(message, **details)
        self.cells = cells or []


class FoldingUnrepairedError(FoldingError):
    """Folding persisted after the maximum number of repair rounds."""

    code = "folding-unrepaired"


class ConstraintError(ScrewgenError):
    """Infeasible starting point for a constrained optimization."""

    code = "constraint"
