"""Release gate: the quantitative behavior this package promises.

Each test pins one headline property with its tolerance.  They are slower
than the unit tests (a couple of minutes in total) and deliberately
redundant with them: the unit suite localizes failures, this file states
the contract.
"""
import math

import numpy as np
import pytest

from dgzk.diagnostics import commutator_check, energy, mass
from dgzk.estimates import (
    kernel_decay_scan,
    oscillatory_integral,
    strichartz_scan,
    weyl_scan,
)
from dgzk.grid import Grid
from dgzk.presets import initial_data, random_band_field
from dgzk.propagator import DispersionSymbol, propagate
from dgzk.solver import (
    SimulationConfig,
    l2_identity_residual,
    simulate,
    solve_regularized_family,
    temporal_order_study,
)
from dgzk.spectral import (
    dealias,
    derivative,
    dyadic_project,
    embed_in_grid,
    forward_transform,
    fractional_derivative,
    inverse_transform,
    l2_norm,
    resample_values,
    truncate_to_grid,
)

from fieldgen import real_field


def _all_symbols(mu=0.0):
    return [DispersionSymbol(alpha=a, beta=b, sign=s, mu=mu)
            for a in (1, 2, 3) for b in (0.25, 0.5, 1.0) for s in (1, -1)]


def test_criterion_01_linear_group_unitarity():
    g = Grid(16, 16)
    rng = np.random.default_rng(101)
    worst = 0.0
    for sym in _all_symbols():
        for _ in range(100):
            phi = real_field(g, rng)
            t = rng.uniform(-5.0, 5.0)
            before = l2_norm(phi)
            after = l2_norm(propagate(phi, t, sym))
            worst = max(worst, abs(after - before) / before)
    assert worst <= 1e-12
    print(f"[criterion 01] PASS  unitarity defect {worst:.3e} over 1800 draws")


def test_criterion_02_group_law_and_projector_commutation():
    g = Grid(16, 16)
    rng = np.random.default_rng(102)
    sym = DispersionSymbol(alpha=1, beta=0.5, sign=1, mu=0.0)
    worst_law = 0.0
    worst_com = 0.0
    for _ in range(20):
        phi = real_field(g, rng)
        t, s = rng.uniform(-2.0, 2.0, size=2)
        once = propagate(phi, t + s, sym)
        twice = propagate(propagate(phi, s, sym), t, sym)
        worst_law = max(worst_law, l2_norm_diff(once, twice) / l2_norm(phi))
        for shell in (1, 2, 3):
            a = dyadic_project(propagate(phi, t, sym), "x", shell)
            b = propagate(dyadic_project(phi, "x", shell), t, sym)
            worst_com = max(worst_com, l2_norm_diff(a, b) / max(l2_norm(phi), 1e-300))
    assert worst_law <= 1e-12
    assert worst_com <= 1e-12
    print(f"[criterion 02] PASS  group law {worst_law:.3e}, commutation {worst_com:.3e}")


def l2_norm_diff(a, b):
    return 2.0 * math.pi * float(np.linalg.norm(a.coeffs - b.coeffs))


def test_criterion_03_conservation_on_the_reference_run():
    g = Grid(64, 64)
    sym = DispersionSymbol(alpha=1, beta=1.0, sign=1, mu=0.0)
    cfg = SimulationConfig(grid=g, symbol=sym, dt=1e-3, t_end=1.0, record_every=100)
    traj = simulate(cfg, initial_data(g, "gaussian-bell", amplitude=1.0))
    masses = [d.mass for d in traj.diagnostics]
    energies = [d.energy for d in traj.diagnostics]
    mass_drift = max(abs(v - masses[0]) for v in masses) / abs(masses[0])
    energy_drift = max(abs(v - energies[0]) for v in energies) / abs(energies[0])
    assert mass_drift <= 1e-8
    assert energy_drift <= 1e-6
    print(f"[criterion 03] PASS  mass drift {mass_drift:.3e}, energy drift {energy_drift:.3e}")


def test_criterion_04_damped_balance_identity():
    g = Grid(32, 32)
    sym = DispersionSymbol(alpha=1, beta=1.0, sign=1, mu=0.0)
    cfg = SimulationConfig(grid=g, symbol=sym, dt=1e-3, t_end=0.5, record_every=10)
    phi = initial_data(g, "gaussian-bell", amplitude=1.0)
    family = solve_regularized_family(cfg, phi, [1e-2, 1e-3])
    assert all(r <= 1e-6 for r in family.identity_residuals)
    print(f"[criterion 04] PASS  residuals {[f'{r:.3e}' for r in family.identity_residuals]}")


def test_criterion_05_integrator_validity():
    sym = DispersionSymbol(alpha=1, beta=1.0, sign=1, mu=0.0)

    g32 = Grid(32, 32)
    study = temporal_order_study(g32, sym, initial_data(g32, "gaussian-bell", amplitude=1.0),
                                 0.1, [4e-3, 2e-3, 1e-3])
    assert study.fitted_order >= 3.8

    g = Grid(64, 64)
    phi = initial_data(g, "gaussian-bell", amplitude=1.0)
    finals = {}
    for integrator in ("etdrk4", "ifrk4"):
        cfg = SimulationConfig(grid=g, symbol=sym, dt=1e-3, t_end=1.0,
                               integrator=integrator, record_every=1000)
        finals[integrator] = simulate(cfg, phi).final_state
    gap = l2_norm_diff(finals["etdrk4"], finals["ifrk4"])
    assert gap <= 1e-7
    print(f"[criterion 05] PASS  order {study.fitted_order:.3f}, cross-integrator gap {gap:.3e}")


def test_criterion_06_group_decay_exponents():
    sym1 = DispersionSymbol(alpha=1, beta=1.0, sign=1, mu=0.0)
    # two workers take the cells costliest first; the cells do not depend on it
    rep = strichartz_scan(sym1, range(3, 8), range(3, 8), trials=20, seed=0, workers=2)
    assert rep.slope_j <= -1.0 / 8.0 + 0.1
    assert rep.slope_k <= -1.0 / 4.0 + 0.1
    assert 0.0 < rep.max_ratio <= 10.0     # one uniform constant covers all cells
    summary = [f"a1 j {rep.slope_j:.3f} k {rep.slope_k:.3f} C {rep.max_ratio:.3f}"]

    # higher alpha: only the j-exponent is constrained; a short k-range keeps
    # the per-alpha runtime low without touching the fitted j-slope
    for alpha, cap in ((2, -1.0 / 16.0 + 0.1), (3, -1.0 / 32.0 + 0.1)):
        sym = DispersionSymbol(alpha=alpha, beta=1.0, sign=1, mu=0.0)
        r = strichartz_scan(sym, range(3, 8), range(3, 5), trials=20, seed=0, workers=2)
        assert r.slope_j <= cap
        summary.append(f"a{alpha} j {r.slope_j:.3f}")
    print(f"[criterion 06] PASS  {'; '.join(summary)}")


def test_criterion_07_kernel_decay_exponents():
    sym = DispersionSymbol(alpha=1, beta=1.0, sign=1, mu=0.0)
    rep = kernel_decay_scan(sym, range(4, 9), range(4, 9), samples_per_cell=8, seed=0)
    assert rep.slope_j <= -1.0 / 4.0 + 0.1
    assert rep.slope_k <= -1.0 / 2.0 + 0.1
    print(f"[criterion 07] PASS  slope_j {rep.slope_j:.3f}, slope_k {rep.slope_k:.3f}, "
          f"C {rep.max_ratio:.3f}")


def test_criterion_08_exponential_sum_bound():
    rep = weyl_scan(3, [64, 128, 256, 512, 1024, 2048], trials=1700, delta=0.01, seed=0)
    assert len(rep.rows) == 10200
    assert rep.dirichlet_ok
    assert rep.max_ratio <= 10.0
    print(f"[criterion 08] PASS  {len(rep.rows)} instances, max ratio {rep.max_ratio:.4f}")


def test_criterion_09_oscillatory_integral_bound():
    rng = np.random.default_rng(7)
    worst = 0.0
    for _ in range(100):
        k = int(rng.integers(1, 7))
        m = int(rng.integers(1, 65)) * (1 if rng.uniform() < 0.5 else -1)
        t = 2.0 ** -rng.uniform(4.0, 14.0) * (1 if rng.uniform() < 0.5 else -1)
        beta = float(rng.choice([0.25, 0.5, 1.0]))
        y_prime = rng.uniform(0.0, 2.0 * math.pi)
        res = oscillatory_integral(y_prime, t, m, beta, k)
        assert res.converged
        assert res.bound is not None
        worst = max(worst, abs(res.value) / res.bound)
    assert worst <= 10.0
    print(f"[criterion 09] PASS  max |integral|/bound {worst:.4f} over 100 draws")


def test_criterion_10_product_rule_commutator_envelope():
    g = Grid(64, 64)
    worst = 0.0
    for si, s in enumerate((1.0, 1.5, 2.0)):
        for trial in range(200):
            rng = np.random.default_rng([0, si, trial])
            f = random_band_field(g, 8, rng, mean_zero_x=False)
            h = random_band_field(g, 8, rng, mean_zero_x=False)
            lhs, rhs = commutator_check(f, h, s)
            assert lhs <= 100.0 * rhs
            if rhs:
                worst = max(worst, lhs / rhs)
    const = forward_transform(g, np.full(g.shape, 2.5))
    rng = np.random.default_rng(11)
    lhs0, _ = commutator_check(const, random_band_field(g, 8, rng, mean_zero_x=False), 1.5)
    assert lhs0 == 0.0
    print(f"[criterion 10] PASS  max ratio {worst:.4f} over 600 pairs, constant case exact")


def test_criterion_11_oracle_equivalences():
    # transform vs direct summation
    g = Grid(16, 16)
    rng = np.random.default_rng(111)
    u = rng.standard_normal(g.shape)
    f = forward_transform(g, u)
    phase_x = np.exp(-1j * np.outer(g.kx, g.x))
    phase_y = np.exp(-1j * np.outer(g.ky, g.y))
    direct = phase_x @ u @ phase_y.T / (g.nx * g.ny)
    dft_gap = float(np.max(np.abs(f.coeffs - direct)))
    assert dft_gap <= 1e-10

    # dealiased product vs exact product formed on a doubled grid
    g2 = Grid(32, 32)
    a = random_band_field(g2, 10, np.random.default_rng(1), mean_zero_x=False)
    b = random_band_field(g2, 10, np.random.default_rng(2), mean_zero_x=False)
    prod = dealias(forward_transform(g2, inverse_transform(a) * inverse_transform(b)))
    big = Grid(64, 64)
    ab = inverse_transform(embed_in_grid(a, big)) * inverse_transform(embed_in_grid(b, big))
    exact = dealias(truncate_to_grid(forward_transform(big, ab), g2))
    prod_gap = float(np.max(np.abs(prod.coeffs - exact.coeffs)))
    assert prod_gap <= 1e-10

    # spectral vs grid quadrature for the conserved functionals
    sym = DispersionSymbol(alpha=1, beta=0.5, sign=1, mu=0.0)
    w = random_band_field(g2, 10, np.random.default_rng(3), mean_zero_x=True)
    m_spec = mass(w)
    m_grid = g2.cell_area * float(np.sum(inverse_transform(w) ** 2))
    assert abs(m_spec - m_grid) / m_spec <= 1e-9

    e_spec = energy(w, sym)
    dx = derivative(w, axis="x")
    dyb = fractional_derivative(w, "y", 0.75)
    quad = 0.5 * g2.cell_area * (float(np.sum(inverse_transform(dx) ** 2))
                                 + float(np.sum(inverse_transform(dyb) ** 2)))
    cubic_vals = resample_values(w, 4).real
    cubic = (2.0 * math.pi) ** 2 * float(np.mean(cubic_vals ** 3))
    e_grid = quad - cubic / 6.0
    assert abs(e_spec - e_grid) / max(abs(e_spec), 1e-300) <= 1e-9
    print(f"[criterion 11] PASS  dft {dft_gap:.2e}, product {prod_gap:.2e}, "
          f"quadrature {abs(e_spec - e_grid) / abs(e_spec):.2e}")
