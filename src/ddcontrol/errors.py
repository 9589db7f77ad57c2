"""Exception types shared across the package."""


class PersistencyError(ValueError):
    """Input data is not persistently exciting of the required order."""


class FeasibilityError(RuntimeError):
    """A trajectory-coefficient system that should be solvable is not.

    Raised when the residual of the coefficient solve exceeds tolerance,
    which signals corrupted controller state, a prediction horizon that is
    too short for the plant, or offline data that violates the excitation
    requirements.
    """


class NonConvergenceError(RuntimeError):
    """The regret oracle cannot solve a cost in floating point."""
