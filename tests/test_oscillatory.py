"""Shell-localized oscillatory integrals, the cutoff, and the derivative test."""
import math

import numpy as np
import pytest

from dgzk.errors import CertificateViolationError
from dgzk.estimates.bump import psi1
from dgzk.estimates.oscillatory import (
    complex_oscillatory_quad,
    oscillatory_integral,
    vandercorput_check,
)


# --------------------------------------------------------------------- cutoff

def test_cutoff_plateau_and_support_are_exact():
    # the ramp construction pins these values exactly, not approximately
    for r in (0.5, 1.0, 1.7, 2.0, -1.0):
        assert psi1(r) == 1.0
    for r in (0.25, 4.0, 5.0, -4.5, 0.0):
        assert psi1(r) == 0.0
    assert 0.0 < psi1(0.3) < 1.0
    assert 0.0 < psi1(3.0) < 1.0


def test_cutoff_is_even_and_bounded():
    r = np.linspace(-5.0, 5.0, 401)
    vals = psi1(r)
    assert np.array_equal(vals, psi1(-r))
    assert np.all((vals >= 0.0) & (vals <= 1.0))


def test_cutoff_divided_differences_stay_bounded():
    # crude smoothness proxy: forward differences of orders 1..4 across the
    # transition region scale like h^order, so the quotients stay bounded
    for h in (1e-2, 1e-3):
        for order, cap in ((1, 1e2), (2, 1e3), (3, 1e5), (4, 1e7)):
            x = 0.31 + h * np.arange(order + 1)
            diff = np.diff(psi1(x), n=order)[0]
            assert abs(diff) / h ** order <= cap


# ------------------------------------------------------- oscillatory integral

def test_no_oscillation_reduces_to_cutoff_mass():
    # t = 0 leaves a pure dilation: the value doubles per shell and is real
    r3 = oscillatory_integral(0.0, 0.0, 5, 0.5, 3)
    r4 = oscillatory_integral(0.0, 0.0, 5, 0.5, 4)
    assert r3.bound is None and r4.bound is None
    assert r3.converged and r4.converged
    assert abs(r3.value.imag) <= 1e-10
    assert (r4.value / r3.value).real == pytest.approx(2.0, rel=1e-8)


def test_zero_mode_has_no_reference_scale():
    res = oscillatory_integral(0.3, 1.0, 0, 0.5, 3)
    assert res.bound is None
    assert res.converged


def test_conjugate_symmetry_in_m():
    rp = oscillatory_integral(0.0, 2.0 ** -12, 64, 1.0, 6)
    rm = oscillatory_integral(0.0, 2.0 ** -12, -64, 1.0, 6)
    assert abs(rm.value - np.conj(rp.value)) <= 1e-10


def test_high_shell_case_sits_under_reference_decay():
    res = oscillatory_integral(0.0, 2.0 ** -12, 64, 1.0, 6)
    assert res.converged
    assert res.bound == pytest.approx(8.0, rel=1e-12)
    assert abs(res.value) <= 10.0 * res.bound


def test_node_doubling_has_settled():
    # oracle: the same integrand on its cutoff support at a fixed budget of
    # 2^16 nodes per side, well past where the doubling stops
    y, t, m, beta, k = 0.7, 2.0 ** -10, 16, 0.5, 5
    scale = 2.0 ** k

    def integrand(eta):
        w = psi1(eta / scale)
        return w * w * np.exp(1j * (y * eta + t * m * np.abs(eta) ** (1.0 + beta)))

    fine = (complex_oscillatory_quad(integrand, -4 * scale, -scale / 4, 2 ** 16)
            + complex_oscillatory_quad(integrand, scale / 4, 4 * scale, 2 ** 16))
    res = oscillatory_integral(y, t, m, beta, k)
    assert res.converged
    assert abs(res.value - fine) <= 1e-8


def test_integral_validation():
    with pytest.raises(ValueError, match="shell index"):
        oscillatory_integral(0.0, 1.0, 1, 0.5, 0)
    with pytest.raises(ValueError, match="beta"):
        oscillatory_integral(0.0, 1.0, 1, 0.0, 3)
    with pytest.raises(ValueError, match="beta"):
        oscillatory_integral(0.0, 1.0, 1, 1.5, 3)
    with pytest.raises(ValueError, match="sign"):
        oscillatory_integral(0.0, 1.0, 1, 0.5, 3, sign=0)


# ------------------------------------------------------------------ quadrature

def test_quadrature_closed_forms():
    v = complex_oscillatory_quad(lambda x: np.exp(1j * x), 0.0, math.pi, 4096)
    assert abs(v - 2j) <= 1e-12
    full = complex_oscillatory_quad(lambda x: np.exp(1j * x), 0.0, 2 * math.pi, 4096)
    assert abs(full) <= 1e-12


def test_quadrature_rejects_empty_interval():
    with pytest.raises(ValueError, match="a < b"):
        complex_oscillatory_quad(lambda x: x, 1.0, 1.0, 64)


# ------------------------------------------------------------- derivative test

def test_linear_phase_fails_the_certificate():
    # phase'' vanishes identically, so claiming lam = 1 at p = 2 must raise
    with pytest.raises(CertificateViolationError, match="lam"):
        vandercorput_check(lambda x: x, lambda x: np.zeros_like(np.asarray(x, float)),
                           (0.0, 1.0), 1.0, 2)


def test_zero_amplitude_gives_zero_ratio():
    zero = lambda x: np.zeros_like(np.asarray(x, float))
    rep = vandercorput_check(lambda x: 100.0 * x ** 2, lambda x: np.full_like(np.asarray(x, float), 200.0),
                             (0.0, 1.0), 200.0, 2, amplitude=zero, amplitude_deriv=zero)
    assert rep.lhs == 0.0
    assert rep.ratio == 0.0


def test_quadratic_phase_scaling():
    # |integral of e^{i lam x^2 / 2}| decays like lam^{-1/2}; the rescaled
    # size should neither blow up nor collapse as lam sweeps two decades
    for lam in (16.0, 64.0, 256.0, 1024.0):
        rep = vandercorput_check(
            lambda x, l=lam: 0.5 * l * x ** 2,
            lambda x, l=lam: np.full_like(np.asarray(x, float), l),
            (-1.0, 1.0), lam, 2)
        assert rep.converged
        scaled = rep.lhs * math.sqrt(lam)
        assert 1.0 <= scaled <= 4.0
        assert rep.ratio <= 4.0
        # the growing exponent variant differs from the bound by lam^{2/p}
        assert rep.rhs_alternate == pytest.approx(rep.rhs * lam, rel=1e-12)


def test_amplitude_requires_its_derivative():
    with pytest.raises(ValueError, match="amplitude_deriv"):
        vandercorput_check(lambda x: x ** 2, lambda x: np.full_like(np.asarray(x, float), 2.0),
                           (0.0, 1.0), 2.0, 2, amplitude=lambda x: np.cos(x))


def test_derivative_test_validation():
    quad_deriv = lambda x: np.full_like(np.asarray(x, float), 2.0)
    with pytest.raises(ValueError, match="order p"):
        vandercorput_check(lambda x: x ** 2, quad_deriv, (0.0, 1.0), 2.0, 1)
    with pytest.raises(ValueError, match="lam"):
        vandercorput_check(lambda x: x ** 2, quad_deriv, (0.0, 1.0), 0.0, 2)
    with pytest.raises(ValueError, match="interval"):
        vandercorput_check(lambda x: x ** 2, quad_deriv, (1.0, 1.0), 2.0, 2)
