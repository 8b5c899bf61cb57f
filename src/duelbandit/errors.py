"""Exception types shared across the package."""


class DuelBanditError(Exception):
    """Base class for all package errors."""


class SkewSymmetryViolation(DuelBanditError):
    """Matrix entry pair (i, j) breaks entries[i][j] == -entries[j][i]."""

    def __init__(self, i, j, value_ij, value_ji):
        self.pair = (i, j)
        super().__init__(
            f"skew-symmetry violated at ({i}, {j}): "
            f"{value_ij!r} vs {value_ji!r}"
        )


class DiagonalViolation(DuelBanditError):
    """Nonzero diagonal entry in a preference matrix."""

    def __init__(self, i, value):
        self.index = i
        super().__init__(f"diagonal entry ({i}, {i}) = {value!r}, expected 0")


class RangeViolation(DuelBanditError):
    """Value outside its admissible range (typically [-1, 1])."""


class DimensionMismatch(DuelBanditError):
    """Input dimensions disagree with the state they are used against."""


class NotConverged(DuelBanditError):
    """A solver exhausted its iteration budget above tolerance, or reported
    a NaN violation.

    For CCE and the inverse-gap program this signals a solver bug or a
    budget (`games.MAX_ITERATIONS`) too small, never a property of the
    input: both problems are provably feasible.
    """

    def __init__(self, message, max_violation=None, iterations=None):
        self.max_violation = max_violation
        self.iterations = iterations
        super().__init__(message)


class DiagnosticFailure(AssertionError):
    """A per-round inequality that should always hold was violated."""


class GammaTooSmall(DuelBanditError):
    """Exploration rate not finite, or below the 2K threshold the feasibility
    proof needs."""


class HorizonTooShort(DuelBanditError):
    """T < 4K * RegSq(T): outside the regime of the main regret guarantee."""


class UnsupportedOracle(DuelBanditError):
    """Requested regression oracle kind is out of scope."""


class UnknownContext(DuelBanditError):
    """Context was not produced by (or is not resolvable in) this environment."""
