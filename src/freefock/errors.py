"""Exception and warning types shared across the package."""


class FreefockError(Exception):
    """Base class for all errors raised by this package."""


# --- index space / model construction ---

class DuplicateLabel(FreefockError):
    """A base label appears more than once in the label list."""


class InvalidComponentCount(FreefockError):
    """Vector component count A must be a positive integer."""


class GridTooSmall(FreefockError):
    """Time grid too short for a second-difference stencil (T >= 3)."""


class ShapeError(FreefockError):
    """Array shapes inconsistent with the declared index space."""


class MissingGreen(FreefockError):
    """Operation requires a Green's function for K, none available."""


# --- Fock space ---

class LevelOutOfRange(FreefockError):
    """Requested grading level exceeds the truncation level L."""


class BudgetExceeded(FreefockError):
    """A stage would allocate more dense entries than the budget allows.

    Raised only by :func:`freefock.fock.check_budget`, with the stage that
    asked (its public function's name first), the entries it needed and
    the budget it was given.
    """

    def __init__(self, message, stage=None, entries=None, budget=None):
        super().__init__(message)
        self.stage = stage
        self.entries = entries
        self.budget = budget


# --- inverses ---

class NotNilpotent(FreefockError):
    """Neumann inversion needs a strictly raising (nilpotent) remainder."""


class DivisionByZeroSource(FreefockError):
    """The source kernel G vanishes on every label: it has no left inverse."""


class SingularInteraction(FreefockError):
    """Effective interaction weight lam*M(y) vanishes somewhere."""


class ResonantDeformation(FreefockError):
    """1 + O(z) = 0 at some z: the deformed right inverse does not exist."""

    def __init__(self, message, labels=()):
        super().__init__(message)
        self.labels = tuple(labels)


# --- solvers ---

class SeriesDiverging(FreefockError):
    """Perturbation increments grew over several consecutive orders.

    Carries the partial result on ``self.partial``.
    """

    def __init__(self, message, partial=None):
        super().__init__(message)
        self.partial = partial


class SingularClosure(FreefockError):
    """A diagonal block of the closed equation is singular."""

    def __init__(self, message, level=None, null_dim=None):
        super().__init__(message)
        self.level = level
        self.null_dim = null_dim


class SingularRationalForm(FreefockError):
    """The interaction has no right inverse, so the rational form's auxiliary Y is undefined."""


# --- oracle ---

class TrajectoryDiverged(FreefockError):
    """A sampled trajectory exceeded the blow-up threshold."""

    def __init__(self, message, sample_index=None):
        super().__init__(message)
        self.sample_index = sample_index


class NotADistribution(FreefockError):
    """Marginalization input has negative entries or does not sum to 1."""


# --- configuration ---

class ConfigError(FreefockError):
    """Experiment configuration failed schema validation."""


class ConditioningWarning(UserWarning):
    """Polynomial degree fit is ill conditioned; result may be unreliable."""
