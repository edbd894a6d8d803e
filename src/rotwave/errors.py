"""Typed errors shared across the package."""


class ConfigurationError(ValueError):
    """Invalid configuration or precondition violation (CLI exit code 2)."""


class NearResonanceError(ArithmeticError):
    """Wave operator is numerically singular at the requested frequency.

    Raised when the smallest pivot of the band LU of the mixed-form
    operator relative to the largest, min|U_ii| / max|U_ii|, falls below the
    singularity threshold `operator.PIVOT_RTOL`, which happens when the
    temporal frequency sits near an inertial-mode resonance.  That ratio is
    reported as `pivot_ratio`.
    """

    def __init__(self, omega_freq: float, m: int, pivot_ratio: float):
        self.omega_freq = omega_freq
        self.m = m
        self.pivot_ratio = pivot_ratio
        super().__init__(
            f"wave operator near-singular at omega={omega_freq:g}, m={m} "
            f"(pivot ratio {pivot_ratio:.3e})"
        )
