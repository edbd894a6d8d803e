"""Polynomial truth catalogue against the symbolic construction it replaced,
and the shared catalogue truths against truths built directly.

The reference below differentiates the closed-form shapes in theta with
sympy, exactly as the catalogue did before it moved to polynomial algebra
in cos(theta); both must give the same fields to roundoff.  The reference is
evaluated in 30-digit arithmetic: its expressions in theta cancel near the
poles, and in double precision they lose up to ~1e-7 relative at the first
node of an n = 1600 grid (|m| = 1), where the polynomial form loses nothing.
"""

import mpmath
import numpy as np
import pytest
import sympy as sp
from numpy.polynomial import Polynomial

from rotwave import build_grid, experiments, manufacture_truth

TH = sp.symbols("theta", positive=True)


def _ratio(value):
    return sp.Rational(value).limit_denominator(10**6)


def _ref_shape(name, m, coeffs):
    b = _ratio(coeffs.get("b", 0))
    if name == "sin_power":
        return sp.sin(TH) ** abs(m) * (1 + b * sp.cos(TH))
    if name == "clamped_sin2":
        return sp.sin(TH) ** 2 * (1 + b * sp.cos(TH))
    assert name == "cos_poly"
    return _ratio(coeffs.get("a", 1)) * sp.cos(TH) + b * sp.cos(TH) ** 2


def _ref_omega(name, coeffs):
    if name == "constant":
        return _ratio(coeffs.get("a", 1)) * sp.Integer(1)
    if name == "solar_like":
        b = _ratio(coeffs.get("b", 1))
        a = -b / 3 if coeffs.get("a") is None else _ratio(coeffs["a"])
        return a + b * sp.cos(TH) ** 2
    assert name == "odd_poly"
    return (
        _ratio(coeffs.get("a", 0))
        + _ratio(coeffs.get("b", 1)) * sp.cos(TH)
        + _ratio(coeffs.get("c", sp.Rational(-1, 2))) * sp.cos(TH) ** 3
    )


def _ref_delta_m(expr, m, r):
    return (
        sp.diff(sp.sin(TH) * sp.diff(expr, TH), TH) / sp.sin(TH)
        - m * m * expr / sp.sin(TH) ** 2
    ) / r**2


def _evaluator(expr, factor=1.0):
    """Vectorized 30-digit evaluation of a theta expression, times factor."""
    fn = sp.lambdify(TH, expr, "mpmath", cse=True)

    def at(nodes):
        with mpmath.workdps(30):
            return factor * np.array([complex(fn(mpmath.mpf(float(t)))) for t in nodes])

    return at


def _reference(t):
    """(psi, Omega, source) callables of theta, amplitude included."""
    shape = _ref_shape(t.psi_name, t.m, t.psi_coeffs)
    omega = _ref_omega(t.omega_name, t.omega_coeffs)
    r = _ratio(t.r)
    gamma = sp.Rational(t.gamma_true).limit_denominator(10**9)
    omf = sp.Rational(t.omega_freq).limit_denominator(10**9)
    oref = sp.Rational(t.omega_ref).limit_denominator(10**9)
    lap = _ref_delta_m(shape, t.m, r)
    bilap = _ref_delta_m(lap, t.m, r)
    alpha = sp.diff(sp.diff(omega * sp.sin(TH) ** 2, TH) / sp.sin(TH), TH) / (
        r**2 * sp.sin(TH)
    )
    source = (
        gamma * bilap
        + sp.I * omf * lap
        - sp.I * t.m * (omega - oref) * lap
        + sp.I * t.m * alpha * shape
    )
    amp = t.amplitude * np.exp(1j * t.phase)
    return _evaluator(shape, amp), _evaluator(omega), _evaluator(source, amp)


# every state shape and rotation profile, m in {-1, 0, 1, 2, 3}, the
# sin^2 = sin^0 (1 - x^2) shape at m = 0, b != 0, omega_ref != 0 and r != 1
CASES = [
    ("m0_default", dict(psi_name="cos_poly", psi_coeffs={"a": 0.7, "b": 0.3},
                        omega_name="odd_poly", omega_coeffs={"a": 0.2, "b": 1.1, "c": -0.4})),
    ("m0_default", dict(psi_name="clamped_sin2", psi_coeffs={"b": 0.25},
                        omega_name="solar_like", omega_coeffs={"b": 0.9})),
    ("m2_default", dict(psi_name="sin_power", psi_coeffs={"b": -0.4}, m=1,
                        omega_name="constant", omega_coeffs={"a": 0.6})),
    ("m2_default", dict(psi_name="sin_power", psi_coeffs={"b": 0.35}, m=-1,
                        omega_name="odd_poly", omega_coeffs={})),
    ("m2_default", dict(psi_name="clamped_sin2", psi_coeffs={"b": 0.5},
                        omega_name="solar_like", omega_coeffs={"a": 0.1, "b": 0.8})),
    ("m3_default", dict(psi_name="sin_power", psi_coeffs={"b": 0.2},
                        omega_name="solar_like", omega_coeffs={})),
]


@pytest.mark.parametrize("preset,overrides", CASES)
def test_polynomial_truth_matches_sympy_reference(preset, overrides):
    truth = manufacture_truth(
        preset,
        {**overrides, "omega_ref": 0.15, "r": 0.8, "amplitude": 1.3, "phase": 0.7},
    )
    psi_ref, omega_ref, source_ref = _reference(truth)
    for n in (64, 400, 1600):
        grid = build_grid(n, truth.r)
        # every node within 8 of a pole, where the theta form cancels, and
        # about 32 interior nodes: the 30-digit reference costs about 0.5 ms
        # per node and field
        nodes = np.r_[0:8, 8 : n - 8 : max(1, (n - 16) // 32), n - 8 : n]
        th = grid.nodes[nodes]
        for got, want in (
            (truth.source(grid).values[nodes], source_ref(th)),
            (truth.psi_exact(grid).values[nodes], psi_ref(th)),
            (truth.omega_exact(grid).values[nodes], omega_ref(th)),
        ):
            rel = np.max(np.abs(got - want)) / np.max(np.abs(want))
            assert rel <= 1e-13, (preset, overrides, n, rel)



@pytest.mark.parametrize(
    "preset,overrides", [(name, {}) for name in ("m0_default", "m2_default", "m3_default")] + CASES
)
def test_poly_catalogue_is_bitwise_numpy_polynomial(preset, overrides):
    # the catalogue is numpy.polynomial's power basis, and the shared truth,
    # rebuilt from its canonical JSON overrides, gives bit for bit what a
    # GroundTruth built here from the same settings gives: the truth cache
    # hands back one object per settings, so only a direct build compares
    overrides = {**overrides, "omega_ref": 0.15, "r": 0.8} if overrides else {}
    shared = manufacture_truth(preset, overrides)
    reference = experiments.GroundTruth(**{**experiments.TRUTH_PRESETS[preset], **overrides})
    assert isinstance(experiments._X, Polynomial)
    for n in (100, 1600):
        grid = build_grid(n, shared.r)
        for field in ("source", "psi_exact", "omega_exact"):
            got = getattr(shared, field)(grid).values
            want = getattr(reference, field)(grid).values
            assert np.array_equal(got, want), (preset, overrides, n, field)
