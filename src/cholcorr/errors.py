"""Exception types shared across the library."""


class NotPositiveDefinite(ValueError):
    """A factorization pivot fell at or below the acceptance tolerance
    (``TOL_PD`` times its diagonal entry).

    The offending pivot is the Schur complement of the leading block at
    ``pivot_index`` (1-based), i.e. the square of the diagonal entry the
    factorization was about to produce. It may be negative.
    """

    def __init__(self, pivot_index: int, pivot_value: float):
        self.pivot_index = int(pivot_index)
        self.pivot_value = float(pivot_value)
        super().__init__(
            f"matrix is not positive-definite: pivot {self.pivot_index} "
            f"is {self.pivot_value:.6e}"
        )


class DegenerateColumn(ValueError):
    """A data column has (numerically) zero sample variance."""

    def __init__(self, index: int):
        self.index = int(index)
        super().__init__(f"column {self.index} has no sample variance")


class NearSingular(ValueError):
    """An estimated correlation matrix failed positive-definite construction."""
