"""Typed errors shared across the package."""


class ConfigurationError(ValueError):
    """Invalid configuration or precondition violation (CLI exit code 2)."""


class NearResonanceError(ArithmeticError):
    """Wave operator is numerically singular at the requested frequency.

    Raised when the smallest pivot of a band LU relative to the largest,
    min|U_ii| / max|U_ii|, reported as `pivot_ratio`, marks the operator
    singular.  For m != 0 it is the ratio of the mixed band K and the mark
    is a ratio below `operator.PIVOT_RTOL`, which happens when the temporal
    frequency sits near an inertial-mode resonance.  For m = 0 it is the
    ratio of G = gamma delta_0 + i omega (of the pinned delta_0 at
    omega = 0), and only a zero or NaN ratio (a non-finite band) marks it.
    """

    def __init__(self, omega_freq: float, m: int, pivot_ratio: float):
        self.omega_freq = omega_freq
        self.m = m
        self.pivot_ratio = pivot_ratio
        super().__init__(
            f"wave operator near-singular at omega={omega_freq:g}, m={m} "
            f"(pivot ratio {pivot_ratio:.3e})"
        )
