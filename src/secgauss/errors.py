"""Exception types shared across the package."""

__all__ = ["InfeasibleError", "SolverError"]


class InfeasibleError(ValueError):
    """A requested operating point violates a feasibility precondition.

    Raised, for example, when a scheme needs a positive or unit key rate
    and the supplied rate pair does not provide one.
    """


class SolverError(RuntimeError):
    """A numerical routine failed to converge or produced an invalid state."""
