"""Substitution maps and the supersymmetry generator.

The load-bearing oracle: if (v, eta) obeys the modified system then its
Miura image must obey the extended system, so the chain rule applied to
the image (using only modified right-hand sides) has to reproduce
rhs_extended exactly.  The same idea, with a centered time difference in
place of the chain rule, validates mapped trajectories.  The Miura and
gardner maps are also compared with the maps written out by hand with
field arithmetic (reference_miura, reference_gardner_map).
"""

import numpy as np
import pytest

from superkdv.algebra import AlgebraDescriptor, OddValue
from superkdv.dynamics import (SystemState, Trajectory, integrate, rhs_extended,
                               rhs_modified)
from superkdv.errors import SuperKdVError
from superkdv.fields import OddField, PeriodicGrid, build_initial_condition
from superkdv.symbolic import gardner_coefficients
from superkdv import transforms
from superkdv.transforms import (_series_program, fd_flow_residual, flow_commutation_defect,
                                 gardner_map, inverse_gardner_series, miura,
                                 susy_variation, to_extended,
                                 to_extended_trajectory)


def random_fields(desc_str, seed=3, N=128, L=2 * np.pi, amplitude=0.3, max_mode=3):
    grid = PeriodicGrid(L, N)
    desc = AlgebraDescriptor.from_string(desc_str)
    return build_initial_condition(
        f"random_bandlimited(max_mode={max_mode},amplitude={amplitude},seed={seed})",
        grid, desc)


@pytest.mark.parametrize("desc_str", ["grassmann:4", "symplectic:2"])
def test_miura_intertwines_the_flows(desc_str):
    lam = 1.3
    v, eta = random_fields(desc_str)
    vt, etat = rhs_modified(v, eta, lam)
    etap = eta.derivative(1)
    u, xi = miura(v, eta, lam)
    ut_chain = (vt.derivative(1) + 2.0 * (v * vt)
                + (-lam) * (etat.commutator(etap)
                            + eta.commutator(etat.derivative(1))))
    xit_chain = etat.derivative(1) + vt * eta + v * etat
    ut, xit = rhs_extended(u, xi, lam)
    scale = max(ut.norm(), xit.norm(), 1.0)
    assert np.max(np.abs(ut_chain.data - ut.data)) < 1e-9 * scale
    assert np.max(np.abs(xit_chain.data - xit.data)) < 1e-9 * scale


def reference_miura(v, eta, lam):
    etap = eta.derivative(1)
    u = v.derivative(1) + v * v + (-lam) * eta.commutator(etap)
    xi = etap + v * eta
    return u, xi


def reference_gardner_map(z, sigma, lam, eps):
    sp = sigma.derivative(1)
    u = z + eps * z.derivative(1) + (eps * eps) * (z * z)
    if sigma.data.shape[0] and lam != 0.0:
        u = u + (eps * eps * lam) * sp.commutator(sigma)
    xi = sigma + eps * sp + (eps * eps) * (z * sigma)
    return u, xi


@pytest.mark.parametrize("desc_str", ["scalar", "grassmann:3", "grassmann:6",
                                      "symplectic:2"])
@pytest.mark.parametrize("lam", [0.0, -1.3])
@pytest.mark.parametrize("name,eps", [("miura", 0.0), ("gardner", 0.0), ("gardner", 0.3)])
def test_maps_match_handwritten_terms(name, eps, lam, desc_str):
    even, odd = random_fields(desc_str, seed=4)
    if name == "miura":
        got, want = miura(even, odd, lam), reference_miura(even, odd, lam)
    else:
        got = gardner_map(even, odd, lam, eps)
        want = reference_gardner_map(even, odd, lam, eps)
    scale = max(want[0].norm(), want[1].norm())
    for g, w in zip(got, want):
        assert type(g) is type(w)
        assert np.max(np.abs(g.data - w.data), initial=0.0) <= 1e-12 * scale


def test_gardner_map_at_zero_eps_is_identity():
    z, sigma = random_fields("grassmann:2")
    u, xi = gardner_map(z, sigma, lam=1.0, eps=0.0)
    assert np.array_equal(u.data, z.data)
    assert np.array_equal(xi.data, sigma.data)


def roundtrip_residual(u, xi, lam, eps, order):
    z, sigma = inverse_gardner_series(u, xi, lam, eps, order=order)
    ru, rxi = gardner_map(z, sigma, lam, eps)
    return max(np.max(np.abs(ru.data - u.data)),
               np.max(np.abs(rxi.data - xi.data)))


@pytest.mark.parametrize("desc_str", ["grassmann:3", "symplectic:1"])
def test_inverse_gardner_series_converges_in_order(desc_str):
    lam, eps = 1.1, 0.1
    u, xi = random_fields(desc_str, seed=5)
    prev = None
    for order in range(1, 7):
        res = roundtrip_residual(u, xi, lam, eps, order)
        if prev is not None:
            assert res < 0.6 * prev
        prev = res
    # truncation at order m leaves O(eps^(m+1)): halving eps at order 4
    # should shrink the residual by about 2^5
    full = roundtrip_residual(u, xi, lam, 0.1, order=4)
    half = roundtrip_residual(u, xi, lam, 0.05, order=4)
    assert 20.0 < full / half < 60.0


def test_inverse_gardner_first_terms():
    # z = u - e u' + e^2 (u'' - u^2 - L [xi', xi]) + O(e^3)
    lam, eps = 0.7, 1.0  # eps enters only as bookkeeping for the term test
    u, xi = random_fields("grassmann:2", seed=8)
    z1_expected = -u.derivative(1)
    z2_expected = (u.derivative(2) - u * u
                   + (-lam) * xi.derivative(1).commutator(xi))
    z_0 = inverse_gardner_series(u, xi, lam, 0.0, order=2)[0]
    assert np.array_equal(z_0.data, u.data)
    za = inverse_gardner_series(u, xi, lam, eps, order=1)[0]
    assert np.max(np.abs(za.data - (u + z1_expected).data)) < 1e-12
    zb = inverse_gardner_series(u, xi, lam, eps, order=2)[0]
    assert np.max(np.abs(zb.data - (u + z1_expected + z2_expected).data)) < 1e-11


@pytest.mark.parametrize("desc_str", ["grassmann:3", "symplectic:2"])
def test_susy_variation_is_nilpotent(desc_str):
    lam = 1.4
    u, xi = random_fields(desc_str, seed=4)
    desc = u.descriptor
    rng = np.random.default_rng(0)
    param = OddValue(desc, rng.normal(size=desc.odd_dim))
    du, dxi = susy_variation(u, xi, param, lam)
    d2u, d2xi = susy_variation(du, dxi, param, lam)
    scale = max(du.norm(), dxi.norm(), 1.0)
    assert d2u.norm() < 1e-13 * scale
    assert d2xi.norm() < 1e-13 * scale


def test_flow_and_susy_commute():
    grid_fields = random_fields("grassmann:3", seed=2, N=64, L=20.0)
    even, odd = grid_fields
    st = SystemState("extended", even, odd, lam=1.0)
    desc = even.descriptor
    param = OddValue(desc, 0.1 * np.arange(1.0, 1.0 + desc.odd_dim))
    for scheme in ("rk4", "ifrk4"):
        defect = flow_commutation_defect(st, param, dt=1e-3, steps=30,
                                         scheme=scheme)
        assert defect < 1e-10


def test_mapped_modified_trajectory_solves_extended():
    grid = PeriodicGrid(40.0, 128)
    desc = AlgebraDescriptor.from_string("grassmann:3")
    even, odd = build_initial_condition(
        "random_bandlimited(max_mode=4,amplitude=0.3,seed=3)", grid, desc)
    st = SystemState("modified", even, odd, lam=1.0)
    traj = integrate(st, dt=1e-3, steps=80, scheme="ifrk4", record_every=10)
    mapped = to_extended_trajectory(traj)
    assert mapped[0].kind == "extended"
    assert fd_flow_residual(mapped) < 1e-5


def test_mapped_gardner_trajectory_solves_extended():
    grid = PeriodicGrid(40.0, 128)
    desc = AlgebraDescriptor.from_string("symplectic:1")
    even, odd = build_initial_condition(
        "random_bandlimited(max_mode=4,amplitude=0.3,seed=10)", grid, desc)
    st = SystemState("gardner", even, odd, lam=1.0, epsilon=0.1)
    traj = integrate(st, dt=1e-3, steps=80, scheme="ifrk4", record_every=10)
    mapped = to_extended_trajectory(traj)
    assert fd_flow_residual(mapped) < 1e-5


def test_mapped_residual_ignores_modes_above_the_dealiased_band():
    # the `check miura --seed 5` configuration: the quadratic Miura image
    # carries modes above the 2/3 band, which read 5.8e-5 against the 1e-5
    # bound until each record is projected onto the retained band; a map
    # with the sign of lambda flipped must still be flagged
    grid = PeriodicGrid(40.0, 128)
    desc = AlgebraDescriptor.from_string("grassmann:4")
    v, eta = build_initial_condition(
        "random_bandlimited(max_mode=4,amplitude=0.4,seed=5)", grid, desc)
    lam = 1.0
    traj = integrate(SystemState("modified", v, eta, lam=lam), 1e-3, 500,
                     scheme="ifrk4", record_every=5)
    assert fd_flow_residual(to_extended_trajectory(traj)) <= 1e-5
    flipped = Trajectory([SystemState("extended", *miura(s.even, s.odd, -lam),
                                      s.time, lam) for s in traj])
    assert fd_flow_residual(flipped) > 1e-2


def test_fd_flow_residual_flags_wrong_dynamics():
    grid = PeriodicGrid(40.0, 128)
    desc = AlgebraDescriptor.from_string("scalar")
    even, odd = build_initial_condition(
        "random_bandlimited(max_mode=4,amplitude=0.3,seed=3)", grid, desc)
    st = SystemState("extended", even, odd, lam=0.0)
    traj = integrate(st, dt=1e-3, steps=40, scheme="ifrk4", record_every=5)
    assert fd_flow_residual(traj) < 1e-6
    middle = traj[4]
    altered = traj.replaced(4, middle.replace_fields(1.05 * middle.even, middle.odd))
    assert fd_flow_residual(altered) > 1e-3
    assert fd_flow_residual(traj) < 1e-6  # the original is untouched
    with pytest.raises(TypeError):
        traj.states[4] = altered[4]
    # the replacement goes through the one-run check
    with pytest.raises(SuperKdVError, match="strictly increase"):
        traj.replaced(4, traj[3])
    with pytest.raises(SuperKdVError, match="not one run"):
        traj.replaced(4, SystemState("extended", middle.even, middle.odd,
                                     time=middle.time, lam=1.0))


def test_fd_flow_residual_input_validation():
    grid = PeriodicGrid(40.0, 64)
    desc = AlgebraDescriptor.from_string("scalar")
    even, odd = build_initial_condition("soliton(kappa=1)", grid, desc)
    st = SystemState("extended", even, odd, lam=0.0)
    traj = integrate(st, dt=1e-4, steps=3)
    with pytest.raises(SuperKdVError):
        fd_flow_residual(traj)
    # six records of one state are 0 apart, where the difference would be
    # 0/0, NaN, which max() dropped, reading a perfect 0.0: no Trajectory
    # holds them
    with pytest.raises(SuperKdVError, match="strictly increase"):
        fd_flow_residual(Trajectory([st] * 6))


def test_fd_flow_residual_lets_a_nan_deviation_through(monkeypatch):
    # a NaN right-hand side is a NaN residual, not the worst finite one
    even, odd = random_fields("grassmann:2", seed=1, N=64, L=20.0)
    traj = integrate(SystemState("extended", even, odd, lam=0.7), dt=1e-4, steps=6)
    rhs_states = transforms.rhs_states

    def nan_first(records):
        values = rhs_states(records)
        values[0][0].data[...] = np.nan
        return values

    monkeypatch.setattr(transforms, "rhs_states", nan_first)
    assert np.isnan(fd_flow_residual(traj))


def test_to_extended_passthrough_keeps_fields():
    even, odd = random_fields("grassmann:2", seed=1)
    st = SystemState("extended", even, odd, lam=0.7, time=2.5)
    out = to_extended(st)
    assert out.kind == "extended"
    assert out.time == 2.5
    assert np.array_equal(out.even.data, even.data)


def test_inverse_series_compiles_one_mixed_op_per_odd_order():
    # the odd image's terms with a bare odd factor are grouped by it: one
    # mixed_mul op per odd order, multiplying one combined operand.  With a
    # block per term the stack held 792 rows.  The 9 lone brackets of the
    # even image that other terms multiply read those products, where each
    # took an op and a block of 4 rows: 62 ops and 364 rows.
    terms = tuple(enumerate(gardner_coefficients(8)))
    program = _series_program(terms, PeriodicGrid(20.0, 256),
                              AlgebraDescriptor.from_string("grassmann:3"), 1.3, 0.1)
    odd_orders = {odd for _, (_, image) in terms for (even, comms, odd, _) in image.terms
                  if odd is not None and even + comms}
    assert len([op for op in program.ops if op[0] == "mixed_mul"]) == len(odd_orders)
    assert program.stack.shape == (328, 256)
    assert len(program.ops) == 53
