"""Exact linear evolution: phases, unitarity, group laws, damping."""
import numpy as np
import pytest

from dgzk import (
    DispersionSymbol,
    Grid,
    SimulationConfig,
    SpectralField,
    damping_rate,
    dispersion_relation,
    dyadic_project,
    field_from_modes,
    hermitian_defect,
    l2_norm,
    project_mean_zero_x,
    propagate,
    simulate,
)
from dgzk.diagnostics import cubic_integral, energy
from dgzk.errors import BackwardHeatError
from dgzk.propagator import _phase_speeds, _symbol_tables
from dgzk.solver import Etdrk4Stepper, Ifrk4Stepper
from dgzk.spectral import _full_from_block

from fieldgen import real_field


def test_dispersion_relation_closed_forms():
    assert dispersion_relation(1, 1, DispersionSymbol(1, 1.0, sign=1)) == 2.0
    assert dispersion_relation(2, 1, DispersionSymbol(2, 0.5, sign=-1)) == 14.0
    sym = DispersionSymbol(3, 0.25)
    for n in range(-5, 6):
        assert dispersion_relation(0, n, sym) == 0.0


def test_dispersion_relation_is_odd():
    sym = DispersionSymbol(2, 0.75, sign=-1)
    for m, n in [(1, 2), (3, -4), (-5, 7)]:
        assert dispersion_relation(-m, -n, sym) == -dispersion_relation(m, n, sym)


def test_symbol_domain_gates():
    with pytest.raises(ValueError):
        DispersionSymbol(0, 1.0)
    with pytest.raises(ValueError):
        DispersionSymbol(4, 1.0)
    with pytest.raises(ValueError):
        DispersionSymbol(1, 0.0)
    with pytest.raises(ValueError):
        DispersionSymbol(1, 1.5)
    with pytest.raises(ValueError):
        DispersionSymbol(1, 1.0, mu=-0.1)
    with pytest.raises(ValueError):
        DispersionSymbol(1, 1.0, sign=2)


def test_single_mode_phase():
    g = Grid(16, 16)
    sym = DispersionSymbol(1, 1.0, sign=1)
    f = field_from_modes(g, {(1, 1): 1.0})
    t = 0.37
    out = propagate(f, t, sym)
    idx = (g.index_of(1, "x"), g.index_of(1, "y"))
    assert abs(out.coeffs[idx] - np.exp(2j * t)) <= 1e-14


def test_identity_at_t_zero(rng):
    g = Grid(16, 16)
    f = real_field(g, rng)
    out = propagate(f, 0.0, DispersionSymbol(2, 0.5))
    assert np.array_equal(out.coeffs, f.coeffs)


def test_group_law(rng):
    g = Grid(32, 32)
    sym = DispersionSymbol(1, 1.0)
    f = real_field(g, rng)
    t, s = 0.83, -1.91
    a = propagate(propagate(f, t, sym), s, sym)
    b = propagate(f, t + s, sym)
    assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-12 * max(1.0, np.max(np.abs(b.coeffs)))


def test_unitarity_random_sweep(rng):
    g = Grid(16, 16)
    for alpha in (1, 2, 3):
        for beta in (0.25, 0.5, 1.0):
            for sign in (1, -1):
                sym = DispersionSymbol(alpha, beta, sign=sign)
                for _ in range(5):
                    f = real_field(g, rng)
                    t = float(rng.uniform(-10, 10))
                    assert abs(l2_norm(propagate(f, t, sym)) - l2_norm(f)) <= 1e-12 * l2_norm(f)


def test_commutes_with_dyadic_projectors(rng):
    g = Grid(32, 32)
    sym = DispersionSymbol(1, 0.5, sign=-1)
    f = real_field(g, rng)
    t = 1.7
    a = dyadic_project(dyadic_project(propagate(f, t, sym), "x", 2), "y", 3)
    b = propagate(dyadic_project(dyadic_project(f, "x", 2), "y", 3), t, sym)
    # both sides apply the same coefficient masks and the same multiplier
    assert np.array_equal(a.coeffs, b.coeffs)


def test_zero_x_frequency_column_is_fixed(rng):
    g = Grid(16, 16)
    sym = DispersionSymbol(3, 1.0)
    f = real_field(g, rng)
    out = propagate(f, 2.31, sym)
    assert np.array_equal(out.coeffs[0, :], f.coeffs[0, :])


def test_mean_zero_x_preserved(rng):
    g = Grid(16, 16)
    f = project_mean_zero_x(real_field(g, rng))
    out = propagate(f, 5.0, DispersionSymbol(1, 1.0))
    assert np.max(np.abs(out.coeffs[0, :])) == 0.0


def test_quadratic_energy_invariance(rng):
    g = Grid(32, 32)
    sym = DispersionSymbol(2, 0.75, sign=1)
    f = real_field(g, rng)
    quadratic = lambda h: energy(h, sym) + cubic_integral(h) / 6.0
    e0 = quadratic(f)
    e1 = quadratic(propagate(f, 3.3, sym))
    assert abs(e1 - e0) <= 1e-10 * abs(e0)


def test_damping_rate_and_semigroup(rng):
    sym = DispersionSymbol(1, 1.0, mu=0.01)
    assert damping_rate(2, 1, sym) == 0.01 * 25.0
    assert damping_rate(0, 0, sym) == 0.0

    g = Grid(16, 16)
    f = real_field(g, rng)
    a = propagate(propagate(f, 0.4, sym), 0.6, sym)
    b = propagate(f, 1.0, sym)
    assert np.max(np.abs(a.coeffs - b.coeffs)) <= 1e-12
    assert l2_norm(b) < l2_norm(f)


def test_backward_heat_rejected(rng):
    g = Grid(16, 16)
    f = real_field(g, rng)
    sym = DispersionSymbol(1, 1.0, mu=0.5)
    with pytest.raises(BackwardHeatError):
        propagate(f, -0.1, sym)
    # mu = 0 evolves backward freely
    propagate(f, -0.1, DispersionSymbol(1, 1.0))


def test_unitarity_survives_huge_phases(rng):
    g = Grid(32, 32)
    sym = DispersionSymbol(3, 1.0)
    f = real_field(g, rng)
    out = propagate(f, 1e13, sym)
    assert abs(l2_norm(out) - l2_norm(f)) <= 1e-12 * l2_norm(f)


def test_huge_phases_match_the_exact_exponential():
    """On 32^2 with alpha 3 and beta 1 omega is an integer, and omega * t
    at t = 1e9 stays below 2^53, so the float phase is exact: each
    multiplier is e^{i omega t}, taken in 40-digit arithmetic, to 1e-15.
    Reducing the phase by the float 2 pi first would be off by up to 3e-2."""
    import mpmath
    g = Grid(32, 32)
    sym = DispersionSymbol(3, 1.0)
    t = 1e9
    omega = _symbol_tables(g, sym)[0]
    assert np.all(omega == np.round(omega)) and np.max(np.abs(omega)) * t < 2.0 ** 53
    got = propagate(SpectralField(g, np.ones(g.shape)), t, sym).coeffs
    with mpmath.workdps(40):
        want = [complex(mpmath.expj(mpmath.mpf(w) * mpmath.mpf(t))) for w in omega.ravel()]
    assert np.max(np.abs(got - np.reshape(want, g.shape))) <= 1e-15


def test_real_fields_stay_real_under_group_and_steppers():
    # real_field data carries weight on the x-Nyquist row, where omega is
    # even in n; the symbol tables must not rotate that row (propagate reads
    # it, the steppers read only the Galerkin block)
    g = Grid(16, 16)
    rng = np.random.default_rng(7)
    for alpha in (1, 2, 3):
        for beta in (0.25, 0.5, 1.0):
            for sign in (1, -1):
                sym = DispersionSymbol(alpha, beta, sign=sign)
                f = real_field(g, rng)
                assert hermitian_defect(propagate(f, 0.37, sym)) <= 1e-12
                for cls in (Etdrk4Stepper, Ifrk4Stepper):
                    block = cls(g, sym, 1e-3).step(f.coeffs)
                    stepped = SpectralField(g, _full_from_block(block, g))
                    assert hermitian_defect(stepped) <= 1e-12


@pytest.mark.parametrize("alpha, beta, sign", [(1, 1.0, 1), (2, 0.5, -1), (3, 0.25, 1)])
def test_phase_speeds_on_some_columns_have_the_bits_of_the_full_table(alpha, beta, sign):
    """strichartz_norm builds omega on its data columns alone: those columns
    of the cached full table, bit for bit, with the x-Nyquist row zero."""
    g = Grid(32, 24)
    sym = DispersionSymbol(alpha, beta, sign)
    cols = np.array([0, 3, 5, 12])
    part = _phase_speeds(g, sym, g.ky2d[:, cols])
    assert np.array_equal(part, _symbol_tables(g, sym)[0][:, cols])
    assert np.all(part[g.nx // 2] == 0.0)


def test_symbol_tables_keep_the_outputs():
    """propagate and simulate keep the bits of tables built afresh, and
    their tables are the caller's own."""
    g = Grid(16, 16)
    sym = DispersionSymbol(1, 0.5, mu=1e-3)
    f = real_field(g, np.random.default_rng(3))
    phi = project_mean_zero_x(f)
    config = SimulationConfig(grid=g, symbol=sym, dt=1e-3, t_end=0.01)
    before = simulate(config, phi).final_state.coeffs
    omega, gamma = _symbol_tables(g, sym)
    for table in (omega, gamma):
        table[1, 1] += 1.0
    fresh = (np.exp(1j * (_phase_speeds(g, sym, g.ky2d) * 0.3))
             * np.exp(-damping_rate(g.kx2d, g.ky2d, sym) * 0.3))
    assert np.array_equal(propagate(f, 0.3, sym).coeffs, f.coeffs * fresh)
    assert np.array_equal(simulate(config, phi).final_state.coeffs, before)
