"""Conserved quantities against hand-computed single-mode values.

For u = a cos(kx) and xi = sin(kx) e1 + cos(kx) e2 on the symplectic
backend the brackets collapse to constants,

  [xi', xi] = k nil,   [xi'', xi'] = k^3 nil,   [xi''', xi''] = k^5 nil,

which makes every quantity integrable by hand; those values are asserted
exactly below.  The modified-system density is checked against its
reduced form through the substitution u = v' + v^2 - L[eta, eta'], and
against h written out by hand with field arithmetic
(reference_hamiltonian_density).
"""

import numpy as np
import pytest

from superkdv.algebra import AlgebraDescriptor
from superkdv.dynamics import SystemState, integrate
from superkdv.fields import (EvenField, OddField, PeriodicGrid,
                             build_initial_condition, quadrature)
from superkdv.invariants import (conserved_quantities, drift_report, hamiltonian_density,
                                 reduced_hamiltonian_density)
from superkdv.transforms import miura


def cos_mode_state(L=20.0, N=256, a=0.7, m=3, lam=1.1):
    grid = PeriodicGrid(L, N)
    desc = AlgebraDescriptor.from_string("symplectic:1")
    k = 2 * np.pi * m / L
    u = EvenField.zeros(grid, desc)
    u.data[0] = a * np.cos(k * grid.x)
    xi = OddField.zeros(grid, desc)
    xi.data[0] = np.sin(k * grid.x)
    xi.data[1] = np.cos(k * grid.x)
    return grid, u, xi, k


def test_h_values_on_constant_field():
    grid = PeriodicGrid(20.0, 64)
    desc = AlgebraDescriptor.from_string("scalar")
    u = EvenField.zeros(grid, desc)
    u.data[0] = -0.3
    xi = OddField.zeros(grid, desc)
    vals = conserved_quantities(u, xi, lam=0.0)
    L, c = grid.L, -0.3
    assert vals["H0"].coords[0] == pytest.approx(c * L)
    assert vals["H2"].coords[0] == pytest.approx(c ** 2 * L)
    assert vals["H4"].coords[0] == pytest.approx(2 * c ** 3 * L)
    assert vals["H6"].coords[0] == pytest.approx(5 * c ** 4 * L)


def test_h_values_on_single_mode_with_odd_pair():
    L, a, lam = 20.0, 0.7, 1.1
    grid, u, xi, k = cos_mode_state(L=L, a=a, lam=lam)
    vals = conserved_quantities(u, xi, lam=lam)
    unit, nil = 0, 1
    assert vals["H0"].coords[unit] == pytest.approx(0.0, abs=1e-12)
    assert vals["H0"].coords[nil] == 0.0
    assert vals["H2"].coords[unit] == pytest.approx(a ** 2 * L / 2)
    assert vals["H2"].coords[nil] == pytest.approx(lam * k * L)
    assert vals["H4"].coords[unit] == pytest.approx(a ** 2 * k ** 2 * L / 2)
    assert vals["H4"].coords[nil] == pytest.approx(lam * k ** 3 * L)
    assert vals["H6"].coords[unit] == pytest.approx(
        15 * a ** 4 * L / 8 + a ** 2 * k ** 4 * L / 2)
    assert vals["H6"].coords[nil] == pytest.approx(
        15 * lam * k * a ** 2 * L / 2 + lam * k ** 5 * L)


def test_h2_on_grassmann_pair():
    grid = PeriodicGrid(20.0, 128)
    desc = AlgebraDescriptor.from_string("grassmann:2")
    k = 2 * np.pi * 2 / grid.L
    u = EvenField.zeros(grid, desc)
    xi = OddField.zeros(grid, desc)
    xi.data[0] = np.sin(k * grid.x)
    xi.data[1] = np.cos(k * grid.x)
    lam = 0.9
    vals = conserved_quantities(u, xi, lam=lam)
    # [xi', xi] = 2 xi' xi = 2k t1t2
    t1t2 = desc.even_labels.index("t1t2")
    assert vals["H2"].coords[t1t2] == pytest.approx(2 * lam * k * grid.L)
    assert vals["H2"].coords[0] == pytest.approx(0.0, abs=1e-12)


def test_bracket_square_term_contributes_nothing():
    # products of brackets sharing an argument vanish in every admissible
    # realization, so the lam^2 term in H6 must not move the value
    grid = PeriodicGrid(20.0, 128)
    desc = AlgebraDescriptor.from_string("grassmann:4")
    u, xi = build_initial_condition(
        "random_bandlimited(max_mode=4,amplitude=0.5,seed=11)", grid, desc)
    xip = xi.derivative(1)
    c10 = xip.commutator(xi)
    sq = quadrature(c10 * c10)
    assert sq.norm() < 1e-12


def handwritten_densities(u, xi, lam):
    """H0-H6 written out in field arithmetic, as an independent reference
    for the symbolic densities conserved_quantities evaluates."""
    up, upp = u.derivative(1), u.derivative(2)
    xip, xipp, xippp = xi.derivative(1), xi.derivative(2), xi.derivative(3)
    c10, c21 = xip.commutator(xi), xipp.commutator(xip)
    u2 = u * u
    return {
        "H0": u,
        "H2": u2 + lam * c10,
        "H4": (2.0 * (u2 * u) + up * up + (4.0 * lam) * (u * c10) + lam * c21),
        "H6": (5.0 * (u2 * u2) + 10.0 * (u * (up * up)) + upp * upp
               + (15.0 * lam) * (u2 * c10) + (-2.0 * lam) * (u * c21)
               + (-8.0 * lam) * (u * xippp.commutator(xi))
               + (3.0 * lam * lam) * (c10 * c10)
               + lam * xippp.commutator(xipp)),
    }


@pytest.mark.parametrize("desc_str", ["grassmann:4", "symplectic:2"])
def test_conserved_quantities_match_handwritten_densities(desc_str):
    grid = PeriodicGrid(20.0, 128)
    desc = AlgebraDescriptor.from_string(desc_str)
    u, xi = build_initial_condition(
        "random_bandlimited(max_mode=5,amplitude=0.5,seed=17)", grid, desc)
    lam = -1.3
    vals = conserved_quantities(u, xi, lam)
    for label, density in handwritten_densities(u, xi, lam).items():
        ref = quadrature(density)
        assert ref.norm() > 1e-3
        assert (vals[label] - ref).norm() <= 1e-12 * ref.norm()


def reference_hamiltonian_density(v, eta, lam):
    vp = v.derivative(1)
    v2 = v * v
    h = 0.5 * (vp * vp) + 0.5 * (v2 * v2)
    if eta.data.shape[0] and lam != 0.0:
        etap = eta.derivative(1)
        c = eta.commutator(etap)
        h = (h + (0.5 * lam * lam) * (c * c)
             + (0.5 * lam) * eta.derivative(2).commutator(etap)
             + (1.5 * lam) * (v2 * etap.commutator(eta)))
    return h


@pytest.mark.parametrize("desc_str", ["scalar", "grassmann:3", "grassmann:6",
                                      "symplectic:2"])
@pytest.mark.parametrize("lam", [0.0, 1.2])
def test_hamiltonian_density_matches_handwritten_terms(desc_str, lam):
    grid = PeriodicGrid(20.0, 128)
    desc = AlgebraDescriptor.from_string(desc_str)
    v, eta = build_initial_condition(
        "random_bandlimited(max_mode=4,amplitude=0.4,seed=6)", grid, desc)
    got = hamiltonian_density(v, eta, lam)
    want = reference_hamiltonian_density(v, eta, lam)
    assert type(got) is type(want)
    assert np.max(np.abs(got.data - want.data)) <= 1e-12 * want.norm()


@pytest.mark.parametrize("desc_str", ["grassmann:3", "symplectic:1"])
def test_hamiltonian_reduces_through_miura(desc_str):
    grid = PeriodicGrid(20.0, 256)
    desc = AlgebraDescriptor.from_string(desc_str)
    lam = 1.2
    v, eta = build_initial_condition(
        "random_bandlimited(max_mode=4,amplitude=0.4,seed=2)", grid, desc)
    lhs = quadrature(hamiltonian_density(v, eta, lam))
    u, xi = miura(v, eta, lam)
    rhs = quadrature(reduced_hamiltonian_density(u, xi, lam))
    assert np.max(np.abs(lhs.coords - rhs.coords)) < 1e-10


def test_drift_report_extended_flow():
    grid = PeriodicGrid(40.0, 128)
    desc = AlgebraDescriptor.from_string("grassmann:3")
    even, odd = build_initial_condition(
        "random_bandlimited(max_mode=4,amplitude=0.4,seed=7)", grid, desc)
    st = SystemState("extended", even, odd, lam=1.0)
    traj = integrate(st, dt=5e-4, steps=200, scheme="ifrk4", record_every=40)
    rep = drift_report(traj)
    assert rep.drift["H0"] < 1e-10
    assert rep.drift["H2"] < 1e-6
    assert rep.drift["H4"] < 1e-6
    assert rep.drift["H6"] < 1e-6
    assert rep.max_drift == max(rep.drift.values())
    assert "relative drift" in str(rep)


def test_drift_report_modified_flow_tracks_hamiltonian():
    grid = PeriodicGrid(40.0, 128)
    desc = AlgebraDescriptor.from_string("symplectic:1")
    even, odd = build_initial_condition(
        "random_bandlimited(max_mode=4,amplitude=0.3,seed=9)", grid, desc)
    st = SystemState("modified", even, odd, lam=1.0)
    traj = integrate(st, dt=5e-4, steps=200, scheme="ifrk4", record_every=40)
    rep = drift_report(traj)
    assert rep.labels == ("H",)
    assert rep.drift["H"] < 1e-6


def test_drift_report_gardner_tracks_mapped_quantities():
    grid = PeriodicGrid(40.0, 128)
    desc = AlgebraDescriptor.from_string("symplectic:1")
    even, odd = build_initial_condition(
        "random_bandlimited(max_mode=4,amplitude=0.3,seed=12)", grid, desc)
    st = SystemState("gardner", even, odd, lam=1.0, epsilon=0.1)
    traj = integrate(st, dt=5e-4, steps=120, scheme="ifrk4", record_every=40)
    rep = drift_report(traj)
    assert rep.drift["H0"] < 1e-9
    assert rep.drift["H2"] < 1e-6


def test_report_header_and_rows_layout():
    grid = PeriodicGrid(20.0, 64)
    desc = AlgebraDescriptor.from_string("symplectic:1")
    even, odd = build_initial_condition(
        "random_bandlimited(max_mode=3,amplitude=0.3,seed=4)", grid, desc)
    st = SystemState("extended", even, odd, lam=0.5)
    traj = integrate(st, dt=2e-4, steps=8, record_every=4)
    rep = drift_report(traj)
    assert rep.header() == ["time", "H0[unit]", "H0[nil]", "H2[unit]", "H2[nil]",
                            "H4[unit]", "H4[nil]", "H6[unit]", "H6[nil]"]
    rows = list(rep.rows())
    assert len(rows) == len(traj)
    assert len(rows[0]) == 9
    assert rows[0][0] == 0.0
