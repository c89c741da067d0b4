"""Evolution right-hand sides and integrators.

Oracles used here:
  - the analytic one-soliton of the xi = 0 sector, whose time derivative
    is approximated by a centered difference and compared to the computed
    right-hand side;
  - a single low Fourier mode of tiny amplitude, which the integrating
    factor scheme must transport exactly up to roundoff;
  - Richardson ratios between runs at dt and dt/2 for the RK4 order;
  - the extended, gardner and modified fluxes and sources written out
    by hand with field arithmetic (reference_extended, reference_gardner,
    reference_modified), against the flux-and-source texts the
    right-hand sides evaluate;
  - one RK4 or Lawson RK4 step assembled by hand from the public
    nonlinear_rhs and the dispersion, against the integrator's fused
    stages;
  - the same hand-written fluxes and sources on a stage's own samples,
    against the values its compiled product program makes;
  - the RK4 loop written with a fresh array for every stage product and
    sum, against integrate's in-place stages, bit for bit.
"""

import math

import numpy as np
import pytest

from superkdv.algebra import (Algebra, AlgebraDescriptor, ProductTable, get_algebra, run_calls,
                              value_norm)
from superkdv.dynamics import (SYSTEM_KINDS, _RK4Step, _SpectralRHS, SystemState,
                               Trajectory, integrate, nonlinear_rhs, rhs_extended, rhs_gardner,
                               rhs_modified, rhs_skdv_grassmann, rhs_state,
                               rhs_states, soliton_profile, stability_limit)
from superkdv.errors import (GradingError, NonFiniteFieldError, NumericalBlowup, StabilityError,
                             SuperKdVError)
from superkdv.fields import (EvenField, OddField, PeriodicGrid,
                             build_initial_condition, quadrature)
from superkdv.invariants import conserved_quantities, drift_report
from superkdv import symbolic
from superkdv.symbolic import _Program, density_poly, gardner_coefficients, map_terms
from superkdv.transforms import _series_program, miura


def random_state(kind, desc_str, lam, N=128, L=40.0, seed=3, eps=0.0, wide=False):
    """Seeded random fields of modes up to 5, well inside the 2/3 band, or
    with wide up to N//2 - 1, past it."""
    grid = PeriodicGrid(L, N)
    desc = AlgebraDescriptor.from_string(desc_str)
    max_mode = N // 2 - 1 if wide else 5
    even, odd = build_initial_condition(
        f"random_bandlimited(max_mode={max_mode},amplitude=0.4,seed={seed})", grid, desc)
    return SystemState(kind, even, odd, lam=lam, epsilon=eps)


# Each reference returns the system's ((even flux, odd flux), (even source,
# odd source)), written by hand with field arithmetic; its nonlinear term
# per field is D(flux) + source.

def reference_extended(u, xi, lam, eps):
    source = EvenField.zeros(u.grid, u.descriptor)
    if xi.data.shape[0] and lam != 0.0:
        source = (3.0 * lam) * xi.derivative(2).commutator(xi)
    return ((3.0 * (u * u), 3.0 * (u * xi)),
            (source, OddField.zeros(u.grid, u.descriptor)))


def reference_gardner(z, sigma, lam, eps):
    zp = z.derivative(1)
    z2 = z * z
    flux = 3.0 * z2
    odd_dim = sigma.data.shape[0]
    if odd_dim and lam != 0.0:
        comm = sigma.derivative(1).commutator(sigma)
        flux = flux + (3.0 * lam) * comm
    source = OddField.zeros(z.grid, z.descriptor)
    if eps != 0.0:
        cubic = 2.0 * (z2 * z)
        if odd_dim and lam != 0.0:
            cubic = cubic + (3.0 * lam) * (z * comm)
        flux = flux + (eps * eps) * cubic
        sp = sigma.derivative(1)
        extra = (z2 * sp) + ((z * zp) * sigma)
        if odd_dim and lam != 0.0:
            extra = extra + lam * (comm * sp)
        source = (3.0 * eps * eps) * extra
    return ((flux, 3.0 * (z * sigma)),
            (EvenField.zeros(z.grid, z.descriptor), source))


def reference_modified(v, eta, lam, eps):
    vp, etap = v.derivative(1), eta.derivative(1)
    vv = v * v
    flux = 2.0 * (vv * v)
    source = 3.0 * (vv * etap) + 3.0 * ((v * vp) * eta)
    if eta.data.shape[0] and lam != 0.0:
        flux = flux + 3.0 * lam * (v * etap.commutator(eta))
        source = (source + (-lam) * (eta.commutator(etap) * etap)
                  + (-0.5 * lam) * (eta.commutator(eta.derivative(2)) * eta))
    return ((flux, OddField.zeros(v.grid, v.descriptor)),
            (EvenField.zeros(v.grid, v.descriptor), source))


@pytest.mark.parametrize("desc_str", ["scalar", "grassmann:3", "grassmann:6",
                                      "symplectic:2"])
@pytest.mark.parametrize("lam", [0.0, -1.3])
@pytest.mark.parametrize("kind,eps,reference", [
    ("extended", 0.0, reference_extended),
    ("gardner", 0.0, reference_gardner),
    ("gardner", 0.3, reference_gardner),
    ("modified", 0.0, reference_modified),
])
@pytest.mark.parametrize("wide", [False, True], ids=["band", "wide"])
def test_nonlinear_rhs_matches_handwritten_terms(kind, eps, reference, lam, desc_str, wide):
    # the right-hand side is the hand-written terms with the modes past the
    # 2/3 band cut; on wide data the products reach every mode, on band
    # data the cut changes nothing
    st = random_state(kind, desc_str, lam, eps=eps, wide=wide)
    got = nonlinear_rhs(kind, st.even, st.odd, lam, eps)
    fluxes, sources = reference(st.even, st.odd, lam, eps)
    want = [(flux.derivative(1) + source).dealiased()
            for flux, source in zip(fluxes, sources)]
    scale = max(want[0].norm(), want[1].norm())
    for g, w in zip(got, want):
        assert type(g) is type(w)
        assert np.max(np.abs(g.data - w.data), initial=0.0) <= 1e-12 * scale


def test_zero_state_is_a_fixed_point():
    grid = PeriodicGrid(20.0, 64)
    desc = AlgebraDescriptor.from_string("grassmann:2")
    even = EvenField.zeros(grid, desc)
    odd = OddField.zeros(grid, desc)
    for kind, eps in [("modified", 0.0), ("extended", 0.0), ("gardner", 0.3)]:
        st = SystemState(kind, even, odd, lam=1.0, epsilon=eps)
        re, ro = rhs_state(st)
        assert re.norm() == 0.0
        assert ro.norm() == 0.0


def test_constant_even_field_is_steady_for_extended():
    grid = PeriodicGrid(20.0, 64)
    desc = AlgebraDescriptor.from_string("scalar")
    even = EvenField.zeros(grid, desc)
    even.data[0] = 0.7
    odd = OddField.zeros(grid, desc)
    re, _ = rhs_extended(even, odd, lam=0.0)
    assert re.norm() < 1e-13


def test_soliton_rhs_matches_centered_time_difference():
    grid = PeriodicGrid(40.0, 512)
    desc = AlgebraDescriptor.from_string("scalar")
    kappa, x0 = 1.0, 20.0
    even = EvenField.zeros(grid, desc)
    even.data[0] = soliton_profile(grid, kappa, x0, t=0.0)
    odd = OddField.zeros(grid, desc)
    re, _ = rhs_extended(even, odd, lam=0.0)
    delta = 1e-4
    fd = (soliton_profile(grid, kappa, x0, t=delta)
          - soliton_profile(grid, kappa, x0, t=-delta)) / (2 * delta)
    assert np.max(np.abs(re.data[0] - fd)) < 1e-6


@pytest.mark.parametrize("kind,desc_str,eps", [
    ("modified", "grassmann:3", 0.0),
    ("extended", "grassmann:3", 0.0),
    ("extended", "symplectic:2", 0.0),
    ("gardner", "symplectic:1", 0.25),
])
def test_rhs_commutes_with_grid_translation(kind, desc_str, eps):
    st = random_state(kind, desc_str, lam=0.8, eps=eps)
    shift = 17
    re, ro = rhs_state(st)
    shifted = st.replace_fields(st.even.rolled(shift), st.odd.rolled(shift))
    re_s, ro_s = rhs_state(shifted)
    scale = max(re.norm(), ro.norm(), 1.0)
    assert np.max(np.abs(re_s.data - re.rolled(shift).data)) < 1e-12 * scale
    assert np.max(np.abs(ro_s.data - ro.rolled(shift).data)) < 1e-12 * scale


@pytest.mark.parametrize("kind,desc_str,eps", [
    ("modified", "grassmann:4", 0.0),
    ("extended", "grassmann:4", 0.0),
    ("extended", "symplectic:2", 0.0),
    ("gardner", "grassmann:3", 0.3),
    ("gardner", "symplectic:1", 0.3),
])
def test_even_rhs_integrates_to_zero(kind, desc_str, eps):
    # the mean of the even field is the first conserved quantity, so the
    # spatial quadrature of its rhs must vanish to roundoff
    st = random_state(kind, desc_str, lam=1.3, eps=eps)
    re, _ = rhs_state(st)
    assert quadrature(re).norm() < 1e-11


def test_lambda_zero_decouples_even_sector():
    st = random_state("extended", "grassmann:3", lam=0.0)
    re_with, _ = rhs_state(st)
    bare = st.replace_fields(st.even, OddField.zeros(st.grid, st.descriptor))
    re_without, _ = rhs_state(bare)
    assert np.array_equal(re_with.data, re_without.data)


def test_extended_and_skdv_agree_on_grassmann():
    # the compiled extended right-hand side against the N=1 super KdV one
    # written with the odd product by field arithmetic; the odd parts are
    # extended's own, which reads no lam
    st = random_state("extended", "grassmann:4", lam=0.9)
    re_a, ro_a = rhs_extended(st.even, st.odd, lam=0.9)
    re_b, ro_b = rhs_skdv_grassmann(st.even, st.odd, lam=0.9)
    scale = max(re_a.norm(), 1.0)
    assert np.max(np.abs(re_a.data - re_b.data)) < 1e-13 * scale
    assert np.array_equal(ro_a.data, ro_b.data)


@pytest.mark.parametrize("desc_str", ["grassmann:1", "grassmann:2", "grassmann:3",
                                      "grassmann:5", "grassmann:6"])
def test_n1_super_kdv_rhs_is_extended_on_every_grassmann_order(desc_str):
    # as above on the other orders and at other lam, lam = 0 included: on
    # grassmann:1 xi xi'' vanishes, and so must extended's bracket term
    st = random_state("extended", desc_str, lam=1.0, N=64, L=20.0)
    for lam in (0.0, -0.7, 2.5):
        re_a, ro_a = rhs_extended(st.even, st.odd, lam=lam)
        re_b, ro_b = rhs_skdv_grassmann(st.even, st.odd, lam=lam)
        scale = max(re_a.norm(), 1.0)
        assert np.max(np.abs(re_a.data - re_b.data)) < 1e-13 * scale
        assert np.array_equal(ro_a.data, ro_b.data)


def test_skdv_rejects_non_grassmann_backend():
    # only grassmann has the odd product, at any lam; and the N=1 super KdV
    # is extended on grassmann, not a system kind of its own
    st = random_state("extended", "symplectic:1", lam=1.0)
    for lam in (1.0, 0.0):
        with pytest.raises(GradingError):
            rhs_skdv_grassmann(st.even, st.odd, lam=lam)
    st = random_state("extended", "grassmann:3", lam=1.0)
    with pytest.raises(SuperKdVError, match="unknown system kind"):
        SystemState("skdv_grassmann", st.even, st.odd, lam=1.0)


def test_modified_bracket_terms_drop_on_two_generators():
    # on grassmann:2 the bracket [eta, eta'] has no unit component, and a
    # degree-2 even element times an odd field is degree 3 = 0, so the odd
    # rhs must coincide with its lambda = 0 form
    st = random_state("modified", "grassmann:2", lam=1.7)
    _, ro = rhs_modified(st.even, st.odd, lam=1.7)
    _, ro0 = rhs_modified(st.even, st.odd, lam=0.0)
    assert np.max(np.abs(ro.data - ro0.data)) < 1e-12 * max(ro.norm(), 1.0)


def test_single_generator_bracket_vanishes_in_extended():
    st = random_state("extended", "grassmann:1", lam=2.0)
    re, _ = rhs_state(st)
    bare = st.replace_fields(st.even, OddField.zeros(st.grid, st.descriptor))
    re0, _ = rhs_state(bare)
    assert np.max(np.abs(re.data - re0.data)) < 1e-12 * max(re.norm(), 1.0)


def test_gardner_eps_zero_even_rhs_is_conservative_extended():
    st = random_state("gardner", "grassmann:3", lam=0.7)
    re_g, _ = rhs_state(st)
    # (-z'' + 3 z^2 + 3 L [s', s])' = -z''' + 6 z z' + 3 L [s'', s] + 3 L [s', s']
    # and [s', s'] = 0, so the even sectors agree up to aliasing-free roundoff
    re_e, _ = rhs_extended(st.even, st.odd, lam=0.7)
    assert np.max(np.abs(re_g.data - re_e.data)) < 1e-10 * max(re_e.norm(), 1.0)


def test_stability_guard_rejects_and_force_overrides():
    st = random_state("extended", "scalar", lam=0.0, N=128, L=40.0)
    limit = stability_limit(st.grid, "rk4")
    with pytest.raises(StabilityError) as info:
        integrate(st, dt=2.0 * limit, steps=4)
    assert info.value.suggested_dt == pytest.approx(limit)
    traj = integrate(st, dt=1.5 * limit, steps=1, force=True)
    assert len(traj) == 2


def test_ifrk4_guard_is_ten_times_looser():
    # the guard reads the largest wavenumber the 2/3 rule keeps
    grid = PeriodicGrid(40.0, 128)
    assert stability_limit(grid, "ifrk4") == pytest.approx(
        10.0 * stability_limit(grid, "rk4"))
    assert stability_limit(grid, "rk4") == 0.5 / grid.k_max_active ** 3


def test_ifrk4_transports_linear_mode_exactly():
    # with u = 0 and one odd generator every nonlinear term vanishes
    # identically, so ifrk4 must reproduce xi_t = -xi''' to roundoff
    grid = PeriodicGrid(2 * np.pi, 64)
    desc = AlgebraDescriptor.from_string("grassmann:1")
    k = 3.0
    even = EvenField.zeros(grid, desc)
    odd = OddField.zeros(grid, desc)
    odd.data[0] = np.cos(k * grid.x)
    st = SystemState("extended", even, odd, lam=1.0)
    dt, steps = 4e-4, 250
    traj = integrate(st, dt=dt, steps=steps, scheme="ifrk4", record_every=steps)
    t = traj.final.time
    exact = np.cos(k * grid.x + k ** 3 * t)
    assert traj.final.even.norm() == 0.0
    assert np.max(np.abs(traj.final.odd.data[0] - exact)) < 1e-11


def test_rk4_is_fourth_order_on_soliton():
    grid = PeriodicGrid(40.0, 64)
    desc = AlgebraDescriptor.from_string("scalar")
    even = EvenField.zeros(grid, desc)
    even.data[0] = soliton_profile(grid, 1.0, 20.0)
    odd = OddField.zeros(grid, desc)
    st = SystemState("extended", even, odd, lam=0.0)
    t_end = 0.4
    errs = []
    ref = integrate(st, dt=t_end / 800, steps=800,
                    record_every=800).final.even.data[0]
    for steps in (100, 200, 400):
        out = integrate(st, dt=t_end / steps, steps=steps,
                        record_every=steps).final.even.data[0]
        errs.append(np.max(np.abs(out - ref)))
    for coarse, fine in zip(errs, errs[1:]):
        assert 12.0 < coarse / fine < 20.0


def test_trajectory_recording():
    st = random_state("extended", "grassmann:2", lam=1.0, N=64, L=20.0)
    traj = integrate(st, dt=2e-4, steps=10, record_every=4)
    assert [len(traj), traj[0].time] == [4, 0.0]
    assert traj.times == pytest.approx([0.0, 8e-4, 16e-4, 20e-4])
    assert traj.final.time == pytest.approx(20e-4)


def test_trajectory_refuses_records_that_are_not_one_run():
    # times that do not strictly increase, or a kind, grid, backend, lam or
    # eps other than the first record's, are refused: six copies of one
    # state would be a 0/0 time difference, an extended pair of identical
    # fields at lam 1 and 2 a drift of 0.0, and a modified record in an
    # extended run would be evaluated as extended
    st = random_state("extended", "grassmann:2", lam=1.0, N=64, L=20.0)

    def later(kind="extended", desc_str="grassmann:2", N=64, lam=1.0, eps=0.0):
        state = random_state(kind, desc_str, lam, N=N, L=20.0, eps=eps)
        return state.replace_fields(state.even, state.odd, 1.0)

    for records in ([st] * 6, [later(), st]):
        with pytest.raises(SuperKdVError, match="strictly increase"):
            Trajectory(records)
    gardner = random_state("gardner", "grassmann:2", 1.0, N=64, L=20.0, eps=0.1)
    for first, other in [(st, later(lam=2.0)), (st, later("modified")), (st, later(N=32)),
                         (st, later(desc_str="grassmann:3")),
                         (gardner, later("gardner", eps=0.2))]:
        with pytest.raises(SuperKdVError, match="one run"):
            Trajectory([first, other])
    assert Trajectory([st, later()]).times.tolist() == [0.0, 1.0]


def test_integrate_refuses_a_start_time_dt_does_not_advance():
    # at t = 1e20, t + dt == t.  At t = 2**40 a dt of 0.6 ulp gives t + dt
    # = t + 2 dt = t + 1 ulp, so steps 1 and 2 would record one time; with
    # a record every second step the recorded times still increase
    st = random_state("extended", "scalar", lam=0.0, N=64, L=20.0)
    dt = 0.6 * math.ulp(2.0 ** 40)
    for time, step in ((1e20, 1e-4), (2.0 ** 40, dt)):
        with pytest.raises(SuperKdVError, match="does not advance"):
            integrate(st.replace_fields(st.even, st.odd, time), dt=step, steps=5)
    traj = integrate(st.replace_fields(st.even, st.odd, 2.0 ** 40), dt=dt, steps=4,
                     record_every=2)
    assert len(traj) == 3


def test_blowup_raises_with_last_finite_state():
    st = random_state("extended", "scalar", lam=0.0, N=128, L=40.0, seed=1)
    with pytest.raises(NumericalBlowup) as info:
        integrate(st, dt=0.05, steps=50, force=True)
    err = info.value
    assert np.all(np.isfinite(err.last_state.even.data))
    assert err.step >= 1
    assert err.time == pytest.approx(err.step * 0.05)


def test_integrate_argument_validation():
    st = random_state("extended", "scalar", lam=0.0, N=64, L=20.0)
    with pytest.raises(SuperKdVError):
        integrate(st, dt=-1e-4, steps=5)
    with pytest.raises(SuperKdVError):
        integrate(st, dt=1e-4, steps=0)
    for record_every in (0, -3):
        with pytest.raises(SuperKdVError):
            integrate(st, dt=1e-4, steps=5, record_every=record_every)
    with pytest.raises(SuperKdVError):
        integrate(st, dt=1e-4, steps=5, scheme="euler")
    with pytest.raises(SuperKdVError):
        SystemState("extended", st.even, st.odd, epsilon=0.5)
    with pytest.raises(SuperKdVError):
        SystemState("breather", st.even, st.odd)
    for bad in ({"lam": float("nan")}, {"lam": float("inf")}, {"time": float("nan")},
                {"epsilon": float("nan")}, {"epsilon": float("-inf")}):
        with pytest.raises(SuperKdVError):
            SystemState("gardner", st.even, st.odd, **bad)
    with pytest.raises(SuperKdVError):
        nonlinear_rhs("breather", st.even, st.odd, 0.0)
    # each of these was run, or failed with a bare TypeError, before the check
    for dt in (float("nan"), float("inf")):
        for force in (False, True):
            with pytest.raises(SuperKdVError, match="finite") as info:
                integrate(st, dt=dt, steps=5, force=force)
            assert not isinstance(info.value, (NumericalBlowup, StabilityError))
    with pytest.raises(SuperKdVError, match="steps must be a whole number"):
        integrate(st, dt=1e-4, steps=2.5)
    with pytest.raises(SuperKdVError, match="record_every must be a whole number"):
        integrate(st, dt=1e-4, steps=5, record_every=1.5)
    # integral floats are whole numbers, and run as their ints
    traj = integrate(st, dt=1e-4, steps=4.0, record_every=2.0)
    want = integrate(st, dt=1e-4, steps=4, record_every=2)
    assert [s.time for s in traj.states] == [s.time for s in want.states]
    assert np.array_equal(traj.final.even.data, want.final.even.data)


@pytest.mark.parametrize("kind,eps", [("modified", 0.0), ("extended", 0.0),
                                      ("gardner", 0.3)])
def test_ifrk4_matches_rk4_closely_on_smooth_data(kind, eps):
    st = random_state(kind, "grassmann:2", lam=1.0, N=128, L=40.0, eps=eps)
    dt, steps = 2.5e-4, 128
    a = integrate(st, dt=dt, steps=steps, record_every=steps).final
    b = integrate(st, dt=dt, steps=steps, scheme="ifrk4", record_every=steps).final
    scale = max(a.even.norm(), 1.0)
    assert np.max(np.abs(a.even.data - b.even.data)) < 1e-8 * scale
    assert np.max(np.abs(a.odd.data - b.odd.data)) < 1e-8 * scale
    keep = st.grid.dealias_keep
    for field in (a.even, a.odd, b.even, b.odd):
        spec = np.abs(np.fft.rfft(field.data, axis=-1))
        assert np.max(spec[:, keep + 1:]) < 1e-12 * max(spec.max(), 1.0)


def test_nonlinear_rhs_is_dealiased():
    # the hand-written flux, by field arithmetic with no mask, spills over
    # the retained band; the right-hand side does not
    grid = PeriodicGrid(20.0, 64)
    desc = AlgebraDescriptor.from_string("scalar")
    even, odd = build_initial_condition(
        "random_bandlimited(max_mode=15,amplitude=0.4,seed=5)", grid, desc)
    keep = grid.dealias_keep
    (flux, _), (source, _) = reference_extended(even, odd, 0.0, 0.0)
    spec_raw = np.fft.rfft((flux.derivative(1) + source).data[0])
    assert np.max(np.abs(spec_raw[keep + 1:])) > 1e-3  # products really spill over
    filtered, _ = nonlinear_rhs("extended", even, odd, 0.0)
    spec = np.fft.rfft(filtered.data[0])
    assert np.max(np.abs(spec[keep + 1:])) < 1e-12 * max(np.abs(spec).max(), 1.0)


STEP_SYSTEMS = [("extended", "scalar", 0.0, 0.0), ("extended", "grassmann:3", 1.0, 0.0),
                ("modified", "grassmann:6", 1.0, 0.0), ("gardner", "symplectic:1", 0.8, 0.3)]


@pytest.mark.parametrize("scheme", ["rk4", "ifrk4"])
@pytest.mark.parametrize("kind,desc_str,lam,eps", STEP_SYSTEMS)
def test_integrate_makes_one_transform_each_way_per_stage(kind, desc_str, lam, eps, scheme):
    st = random_state(kind, desc_str, lam, N=64, L=20.0, eps=eps)
    grid = st.grid

    def transforms(steps):
        before = grid.rfft_calls, grid.irfft_calls
        integrate(st, dt=1e-4, steps=steps, scheme=scheme)
        return grid.rfft_calls - before[0], grid.irfft_calls - before[1]

    # the difference leaves out the transforms of the initial state
    one, three = transforms(1), transforms(3)
    assert (three[0] - one[0], three[1] - one[1]) == (2 * 4, 2 * 4)


def _hand_rk4_step(st, dt, scheme, full_rhs=None):
    """One RK4 step assembled from the public nonlinear_rhs and the
    dispersion, in physical space; ifrk4 is the Lawson form with the exact
    dispersion propagator exp(-h (ik)^3) applied to whole fields.  It starts
    from st with the modes past the 2/3 band cut, as integrate does.  A
    given full_rhs(even, odd) replaces both: its nonlinear part is it less
    the dispersion."""
    grid, desc = st.grid, st.descriptor
    n_even = desc.even_dim

    def join(even, odd):
        return np.concatenate((even.data, odd.data))

    def split(data):
        return EvenField(grid, desc, data[:n_even]), OddField(grid, desc, data[n_even:])

    def dispersion(y):
        return -join(*(f.derivative(3) for f in split(y)))

    def nonlinear(y):
        if full_rhs is not None:
            return join(*full_rhs(*split(y))) - dispersion(y)
        return join(*nonlinear_rhs(st.kind, *split(y), st.lam, st.epsilon))

    def propagate(y, h):
        spec = np.fft.rfft(y, axis=-1) * np.exp(-h * grid.derivative_symbol(3))
        return np.fft.irfft(spec, n=grid.N, axis=-1)

    y = join(st.even.dealiased(), st.odd.dealiased())
    if scheme == "rk4":
        def f(z):
            if full_rhs is not None:
                return join(*full_rhs(*split(z)))
            return nonlinear(z) + dispersion(z)
        k1 = f(y)
        k2 = f(y + 0.5 * dt * k1)
        k3 = f(y + 0.5 * dt * k2)
        k4 = f(y + dt * k3)
        return split(y + dt / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
    half = 0.5 * dt
    k1 = nonlinear(y)
    k2 = nonlinear(propagate(y + half * k1, half))
    k3 = nonlinear(propagate(y, half) + half * k2)
    k4 = nonlinear(propagate(y, dt) + dt * propagate(k3, half))
    return split(propagate(y, dt) + dt / 6.0 * (propagate(k1, dt) + 2.0 * propagate(k2, half)
                                                + 2.0 * propagate(k3, half) + k4))


@pytest.mark.parametrize("wide", [False, True], ids=["band", "wide"])
@pytest.mark.parametrize("scheme", ["rk4", "ifrk4"])
@pytest.mark.parametrize("kind,desc_str,lam,eps", STEP_SYSTEMS[1:])
def test_integrate_step_matches_rk4_from_public_rhs(kind, desc_str, lam, eps, scheme, wide):
    # on band data the initial 2/3 mask changes nothing; on wide data it
    # cuts the modes past the band, as the hand step does
    st = random_state(kind, desc_str, lam, N=64, L=20.0, eps=eps, wide=wide)
    dt = 0.5 * stability_limit(st.grid, scheme)
    got = integrate(st, dt=dt, steps=1, scheme=scheme).final
    want = _hand_rk4_step(st, dt, scheme)
    for g, w in zip((got.even, got.odd), want):
        assert np.max(np.abs(g.data - w.data)) <= 1e-13 * max(w.norm(), 1.0)
        assert g.data.base is None  # a record does not hold the derivative rows


@pytest.mark.parametrize("wide", [False, True], ids=["band", "wide"])
@pytest.mark.parametrize("scheme", ["rk4", "ifrk4"])
@pytest.mark.parametrize("desc_str", ["grassmann:2", "grassmann:3", "grassmann:4"])
def test_n1_super_kdv_step_matches_rk4_from_the_odd_product(desc_str, scheme, wide):
    # the N=1 super KdV is extended on grassmann: one integrator step of it
    # against one assembled from rhs_skdv_grassmann, whose bracket term is
    # -6 L xi xi'' by field arithmetic, not a compiled bracket
    st = random_state("extended", desc_str, 1.0, N=64, L=20.0, wide=wide)
    dt = 0.5 * stability_limit(st.grid, scheme)
    got = integrate(st, dt=dt, steps=1, scheme=scheme).final
    want = _hand_rk4_step(st, dt, scheme, full_rhs=lambda u, xi: rhs_skdv_grassmann(
        u, xi, st.lam))
    for g, w in zip((got.even, got.odd), want):
        assert np.max(np.abs(g.data - w.data)) <= 1e-13 * max(w.norm(), 1.0)


def _unbuffered_steps(st, dt, steps, scheme):
    """integrate's RK4 loop on the same _SpectralRHS, with a fresh array for
    every product and sum of the stage formulas; returns the final samples
    of [even; odd]."""
    grid, desc = st.grid, st.descriptor
    nonlinear = _SpectralRHS(st.kind, grid, desc, st.lam, st.epsilon)
    dispersion = -grid.derivative_symbol(3)
    if scheme == "ifrk4":
        e_half, linear = np.exp(0.5 * dt * dispersion), None
    else:
        e_half, linear = 1.0, dispersion
    e_full = e_half * e_half

    def rhs(spec):
        k = np.empty_like(spec)
        run_calls(nonlinear.physical_calls(spec) + nonlinear.calls_into(k, True))
        if linear is not None:
            k += linear * spec
        return k

    spec = np.fft.rfft(np.concatenate((st.even.data, st.odd.data)), axis=-1)
    spec[:, grid.dealias_keep + 1:] = 0.0
    for _ in range(steps):
        k1 = rhs(spec)
        k2 = rhs(e_half * (spec + (0.5 * dt) * k1))
        k3 = rhs(e_half * spec + (0.5 * dt) * k2)
        e_half_k3 = e_half * k3
        k4 = rhs(e_full * spec + dt * e_half_k3)
        spec = e_full * spec + (dt / 6.0) * (e_full * k1 + 2.0 * (e_half * k2)
                                             + 2.0 * e_half_k3 + k4)
    run_calls(nonlinear.physical_calls(spec))
    return nonlinear.head[:desc.even_dim + desc.odd_dim]


@pytest.mark.parametrize("data", ["random", "wide", "zero"])
@pytest.mark.parametrize("scheme", ["rk4", "ifrk4"])
@pytest.mark.parametrize("kind,desc_str,lam,eps", STEP_SYSTEMS)
def test_integrate_equals_the_unbuffered_loop(kind, desc_str, lam, eps, scheme, data):
    # the stages are formed in place with the same operations in the same
    # order, so the fields agree bit for bit, and so does the sign of each
    # zero of a zero state: the bytes are compared.  Wide data has modes
    # past the 2/3 band, which both cut from the initial spectrum
    st = random_state(kind, desc_str, lam, N=64, L=20.0, eps=eps, wide=data == "wide")
    if data == "zero":
        st = st.replace_fields(EvenField.zeros(st.grid, st.descriptor),
                               OddField.zeros(st.grid, st.descriptor))
    dt = 0.5 * stability_limit(st.grid, scheme)
    got = integrate(st, dt=dt, steps=3, scheme=scheme).final
    want = _unbuffered_steps(st, dt, 3, scheme)
    assert np.concatenate((got.even.data, got.odd.data)).tobytes() == want.tobytes()


@pytest.mark.parametrize("kind,desc_str", [("modified", "grassmann:3"),
                                           ("extended", "grassmann:3"),
                                           ("extended", "scalar"),
                                           ("gardner", "symplectic:1")])
def test_integrate_owns_the_four_k_arrays(kind, desc_str, monkeypatch):
    # every stage writes its k into one of four arrays integrate made once,
    # whether [flux; source] is [even; odd] (modified, scalar extended) or not;
    # the stages are bound once per call, four for each of the two step
    # lists, not once per step; and no stage checks its samples: a run that
    # stays finite checks each new state only
    st = random_state(kind, desc_str, 1.3, N=64, L=20.0, eps=0.4 if kind == "gardner" else 0.0)
    calls_into, handed, checked = _SpectralRHS.calls_into, [], []

    def recording(self, k, check, spec=None):
        handed.append(k)
        checked.append(check)
        return calls_into(self, k, check, spec)

    monkeypatch.setattr(_SpectralRHS, "calls_into", recording)
    integrate(st, dt=0.5 * stability_limit(st.grid, "ifrk4"), steps=10, scheme="ifrk4")
    assert len(handed) == 8
    assert len({id(k) for k in handed}) <= 4
    assert not any(checked)


def test_scalar_extended_ifrk4_step_is_38_calls():
    # the soliton benchmark's step, one list of bound calls: per stage the
    # program's two (u u read from the samples in place, the fold's
    # multiply by 3), the rfft and the weight into k, and one irfft (4 for
    # the stages, the last for the new state); 10 for the three stage
    # formations, 8 for the update.  The hand-written step made 48 calls
    u, xi = build_initial_condition("soliton(kappa=1)", PeriodicGrid(40.0, 512),
                                    AlgebraDescriptor.from_string("scalar"))
    nonlinear = _SpectralRHS("extended", u.grid, u.descriptor, 0.0)
    spec, new = np.zeros((2, 1, 257), complex)
    calls = _RK4Step(nonlinear, 1e-4, "ifrk4")(spec, new)
    assert len(nonlinear.calls) == 2 and len(calls) == 4 * (2 + 2 + 1) + 10 + 8 == 38


def test_non_finite_stage_surfaces_as_blowup_during_step():
    # 3 u^2 overflows in the first stage of the first step
    st = random_state("extended", "scalar", lam=0.0, N=64, L=20.0)
    huge = st.replace_fields(EvenField(st.grid, st.descriptor, 1e200 * st.even.data),
                             st.odd)
    with pytest.raises(NumericalBlowup, match="during step 1") as info:
        integrate(huge, dt=1e-4, steps=3, force=True)
    assert info.value.step == 1
    assert np.all(np.isfinite(info.value.last_state.even.data))


def test_non_finite_initial_state_is_refused_before_any_step():
    # a blow-up carries the last finite state, which a non-finite initial
    # state does not have: integrate refuses it before any transform
    st = random_state("extended", "grassmann:2", lam=1.0, N=64, L=20.0)
    for part, bad in (("even", np.nan), ("odd", np.inf), ("even", -np.inf)):
        even, odd = st.even.data.copy(), st.odd.data.copy()
        (even if part == "even" else odd)[0, 5] = bad
        state = st.replace_fields(EvenField(st.grid, st.descriptor, even),
                                  OddField(st.grid, st.descriptor, odd))
        before = st.grid.rfft_calls, st.grid.irfft_calls
        for scheme in ("rk4", "ifrk4"):
            with pytest.raises(NonFiniteFieldError, match="initial state") as info:
                integrate(state, dt=1e-4, steps=3, scheme=scheme, force=True)
            assert not isinstance(info.value, NumericalBlowup)
        assert (st.grid.rfft_calls, st.grid.irfft_calls) == before


@pytest.mark.parametrize("poisoned_calls,when,made", [
    pytest.param((7, 12), "during", 13, id="7-during"),
    pytest.param((9,), "after", 15, id="9-after")])
def test_blowup_carries_the_state_of_the_step_before(poisoned_calls, when, made, monkeypatch):
    # no state is built for a step nothing records, so a blow-up in step 2
    # rebuilds step 1's state from its spectrum: bit for bit the state a
    # one-step run records.  The samples are made by one irfft, once
    # initially, then three times for the stages and once for the new
    # state per step; a NaN written into the spectrum call 7 (step 2's
    # third stage) or 9 (step 2's new state) transforms is the blow-up.
    # The stages are not checked, so either NaN first shows in the new
    # state (call 9), and integrate replays step 2 with every stage
    # checked: its first stage's samples (call 10), then the stages (11 to
    # 13) and the new state (14).  Call 12 is the third stage again,
    # poisoned as before, and so "during", which stops the replay;
    # unpoisoned, the replay finds every stage finite, and so "after".
    # Then the last state is rebuilt (call 13 or 15)
    st = random_state("modified", "grassmann:3", 1.3, N=64, L=20.0)
    dt = 0.5 * stability_limit(st.grid, "rk4")
    want = integrate(st, dt=dt, steps=1).final
    irfft, calls = PeriodicGrid.irfft, []

    def poisoned(self, spectrum, out=None):
        calls.append(None)
        if len(calls) in poisoned_calls:
            spectrum[0, 1] = np.nan
        return irfft(self, spectrum, out)

    monkeypatch.setattr(PeriodicGrid, "irfft", poisoned)
    with pytest.raises(NumericalBlowup, match=f"{when} step 2") as info:
        integrate(st, dt=dt, steps=5, record_every=5)
    last = info.value.last_state
    assert len(calls) == made
    assert (info.value.step, last.time) == (2, want.time)
    assert np.array_equal(last.even.data, want.even.data)
    assert np.array_equal(last.odd.data, want.odd.data)


PROGRAM_SYSTEMS = [(kind, desc_str) for kind in ("modified", "extended", "gardner")
                   for desc_str in ("scalar", "grassmann:3", "grassmann:4", "symplectic:2")]


def _stage(kind, desc_str, lam=1.3, eps=0.4, wide=False):
    """A _SpectralRHS of the system with one stage run on random data."""
    st = random_state(kind, desc_str, lam, N=64, L=20.0,
                      eps=eps if kind == "gardner" else 0.0, wide=wide)
    nonlinear = _SpectralRHS(kind, st.grid, st.descriptor, st.lam, st.epsilon)
    spec = np.fft.rfft(np.concatenate((st.even.data, st.odd.data)), axis=-1)
    run_calls(nonlinear.physical_calls(spec) + nonlinear.calls_into(np.empty_like(spec), True))
    return st, nonlinear


@pytest.mark.parametrize("kind,desc_str,lam,eps", [
    (kind, desc_str, lam, eps) for kind, desc_str in PROGRAM_SYSTEMS
    # lam = 0 drops every bracket term, eps = 0 the e^2 part of gardner,
    # so groups shrink to one term and parts vanish
    for lam, eps in ((1.3, 0.4), (0.0, 0.4)) + (((1.3, 0.0),) if kind == "gardner" else ())])
@pytest.mark.parametrize("wide", [False, True], ids=["band", "wide"])
def test_stage_values_match_the_handwritten_terms(kind, desc_str, lam, eps, wide):
    # the stage runs on the samples of the spectrum it is given, unmasked,
    # so wide data puts every mode and its large derivatives into them
    _assert_stage_matches_handwritten(*_stage(kind, desc_str, lam, eps, wide))


@pytest.mark.parametrize("kind,desc_str", PROGRAM_SYSTEMS)
def test_fused_levels_keep_the_bits_of_op_by_op_evaluation(kind, desc_str, monkeypatch):
    # each level's dense ops run as one gather, multiply and fold through a
    # block-diagonal matrix, which sums each channel's own products in
    # their order between exact zeros: the stage equals op by op
    # evaluation (no fused level) bit for bit, in a stack of the same rows.
    # On scalar each level of these stages has one op, so nothing fuses
    _, fused = _stage(kind, desc_str)
    monkeypatch.setattr(symbolic, "FUSED_SAMPLES", 0)
    _, single = _stage(kind, desc_str)
    assert single.fused == [] and bool(fused.fused) == (desc_str != "scalar")
    assert fused.values.tobytes() == single.values.tobytes()
    assert fused.stack.shape == single.stack.shape


@pytest.mark.parametrize("desc_str", ["grassmann:3", "symplectic:2"])
def test_fused_compiled_programs_keep_their_bits(desc_str, monkeypatch):
    # the densities and the order-8 inverse series, whose outputs are
    # blocks of their own, laid out anew for the fused levels
    st = random_state("extended", desc_str, 1.3, N=64, L=20.0)

    def outputs():
        programs = [_Program.compile([density_poly(label) for label in ("H0", "H2", "H4", "H6")],
                                     st.grid, st.descriptor, 1.3),
                    _series_program(enumerate(gardner_coefficients(8)), st.grid,
                                    st.descriptor, 1.3, 0.4)]
        return ([[value.data.tobytes() for value in program(st.even, st.odd)]
                 for program in programs], [len(program.fused) for program in programs])

    fused, levels = outputs()
    monkeypatch.setattr(symbolic, "FUSED_SAMPLES", 0)
    single, none = outputs()
    assert min(levels) > 0 and none == [0, 0]
    assert fused == single


@pytest.mark.parametrize("desc_str,N,fuses", [
    ("grassmann:3", 64, True), ("grassmann:4", 128, True), ("symplectic:2", 64, True),
    ("grassmann:6", 16, True), ("grassmann:6", 256, False)])
def test_fused_gathers_stay_within_the_budget(desc_str, N, fuses, monkeypatch):
    # a fused level gathers at most FUSED_SAMPLES samples and FUSED_ROWS
    # rows (the widest matmul OpenBLAS sums in one block), only from
    # dense folds, into contiguous output rows; fusing moves blocks, so
    # the stack is as tall as without it.  Grassmann:6 at N = 16 fuses up
    # to the row cap; at N = 256 its folds are grouped and nothing fuses
    desc, grid = AlgebraDescriptor.from_string(desc_str), PeriodicGrid(20.0, N)

    def programs():
        return [_Program.compile([density_poly(label) for label in ("H0", "H2", "H4", "H6")],
                                 grid, desc, 1.3)] + [
            _SpectralRHS(kind, grid, desc, 1.3, 0.4 if kind == "gardner" else 0.0)
            for kind in SYSTEM_KINDS]

    fused = programs()
    assert symbolic.FUSED_ROWS <= 384
    for program in fused:
        for ops in program.fused:
            rows = sum(len(left) for _, left, *_ in ops)
            assert len(ops) > 1 and rows <= symbolic.FUSED_ROWS
            assert rows * N <= symbolic.FUSED_SAMPLES
            assert all(fold.matrix is not None for *_, fold, _ in ops)
            ends = [node + fold.out_dim for *_, fold, node in ops]
            assert [node for *_, node in ops[1:]] == ends[:-1]
    counts = [len(program.fused) for program in fused]
    assert (sum(counts) > 0) == fuses
    monkeypatch.setattr(symbolic, "FUSED_SAMPLES", 0)
    assert [p.stack.shape for p in programs()] == [p.stack.shape for p in fused]


def _assert_stage_matches_handwritten(st, nonlinear):
    """The flux and source rows of a stage run on st's data agree with the
    hand-written terms at its own samples."""
    grid, desc, n_even = st.grid, st.descriptor, st.descriptor.even_dim
    samples = nonlinear.head
    u = EvenField(grid, desc, samples[:n_even])
    xi = OddField(grid, desc, samples[n_even:nonlinear.n_rows])
    reference = {"modified": reference_modified, "gardner": reference_gardner}.get(
        st.kind, reference_extended)
    (flux_even, flux_odd), (source_even, source_odd) = reference(u, xi, st.lam, st.epsilon)
    flux = np.concatenate((flux_even.data, flux_odd.data))
    source = np.concatenate((source_even.data, source_odd.data))
    want = np.concatenate((flux[nonlinear.flux_rows], source[nonlinear.source_rows]))
    assert nonlinear.values.shape == want.shape
    assert np.max(np.abs(nonlinear.values - want)) <= 1e-14 * np.max(np.abs(want))


@pytest.mark.parametrize("kind,desc_str", [("modified", "grassmann:3"),
                                           ("gardner", "symplectic:2"),
                                           ("extended", "grassmann:4")])
def test_evaluations_make_no_algebra_product(kind, desc_str, monkeypatch):
    # integration, drift reports, conserved quantities and the Miura map
    # all run compiled programs, none an Algebra product method
    st = random_state(kind, desc_str, 1.3, N=64, L=20.0,
                      eps=0.4 if kind == "gardner" else 0.0)
    calls = []

    def counting(name, original):
        def counted(*args, **kwargs):
            calls.append(name)
            return original(*args, **kwargs)
        return counted

    for name in ("even_mul", "mixed_mul", "odd_commutator", "odd_mul"):
        monkeypatch.setattr(Algebra, name, counting(name, getattr(Algebra, name)))
    traj = integrate(st, dt=1e-4, steps=2, scheme="rk4")
    drift_report(traj)
    conserved_quantities(st.even, st.odd, st.lam)
    miura(st.even, st.odd, st.lam)
    assert calls == []


@pytest.mark.parametrize("kind,desc_str,ops", [
    ("extended", "scalar", 1), ("extended", "grassmann:3", 3),
    ("modified", "grassmann:3", 6),
    ("gardner", "symplectic:1", 7)])
def test_stage_op_count(kind, desc_str, ops):
    # modified: v v, v v', [eta', eta], then one op per group:
    # v (2 v^2 + 3 L [eta', eta]), 3 v^2 eta' and 3 v v' eta.  Its
    # L [eta', eta] eta' and 1/2 L [eta'', eta] eta vanish, as the backend
    # proves [q1, q2] q3 alternating, so [eta'', eta] is not made (7 ops
    # with the free form).
    # gardner: u u, [xi', xi], u (3 u + e^2 (2 u^2 + 3 L [xi', xi])),
    # u xi, u u', 3 e^2 u^2 xi' (its 3 e^2 L [xi', xi] xi' vanishes) and
    # 3 e^2 u u' xi; the lone 3 L [xi', xi] of the even flux reads the
    # bracket the group multiplies, where it took an op of its own (8)
    _, nonlinear = _stage(kind, desc_str)
    assert len(nonlinear.ops) == ops


def test_stage_without_the_proof_compiles_the_free_form(monkeypatch):
    # on a backend whose tables did not prove [q1, q2] q3 alternating,
    # every term of the modified odd source is compiled, [eta'', eta] and
    # its group op included, and the values still match the hand-written
    # terms, which evaluate them all
    monkeypatch.setattr(Algebra, "bracket_product_alternates", property(lambda self: False))
    st, nonlinear = _stage("modified", "grassmann:3")
    assert len(nonlinear.ops) == 7
    _assert_stage_matches_handwritten(st, nonlinear)


@pytest.mark.parametrize("kind,desc_str,rows", [
    ("modified", "grassmann:6", 1004), ("modified", "grassmann:3", 38)])
def test_stage_gathered_rows(kind, desc_str, rows):
    # grassmann:6: v v (92 rows, the square table), v v' (183), [eta', eta]
    # (182, the half table with fold 2 s), the flux v (...) (183) and the
    # odd source's two groups (182 each).  grassmann:3: 4 + 7 + 6 + 7 + 7
    # + 7.  The free form also makes [eta'', eta], one commutator table
    # more: 1186 and 44.
    _, nonlinear = _stage(kind, desc_str)
    assert sum(len(left) for _, left, *_ in nonlinear.ops) == rows


def test_stage_without_the_half_table_proof_gathers_both_halves(monkeypatch):
    # a backend whose half table has a symmetric part added at one pair
    # (a, b) and (b, a) does not prove [a, b] = 2 half(a, b), yet has the
    # same commutator, which cancels that part: the stage gathers both
    # halves of the altered table and still matches the hand-written terms
    desc = AlgebraDescriptor.from_string("grassmann:6")
    altered = Algebra(desc)
    half = altered._half
    s = half.s.copy()
    s[(half.i == half.j[5]) & (half.j == half.i[5]) & (half.k == half.k[5])] += 2.0
    s[5] += 2.0
    altered._half = ProductTable(half.i, half.j, half.k, s, half.out_dim)
    assert not altered.odd_half_antisymmetric and altered.bracket_product_alternates
    monkeypatch.setattr(symbolic, "get_algebra", lambda descriptor: (
        altered if descriptor == desc else get_algebra(descriptor)))
    st, nonlinear = _stage("modified", "grassmann:6")
    assert [len(left) for product, left, *_ in nonlinear.ops
            if product == "odd_commutator"] == [364]
    assert sum(len(left) for _, left, *_ in nonlinear.ops) == 1186
    _assert_stage_matches_handwritten(st, nonlinear)


def test_densities_make_each_bracket_once():
    # H2's L [xi', xi] and H4's L [xi'', xi'] read the brackets that H4's
    # 4 L u [xi', xi] and H6's -2 L u [xi'', xi'] multiply; only H6's lone
    # L [xi''', xi''] is an op of its own: 4 commutator ops, not 6
    program = _Program.compile([density_poly(label) for label in ("H0", "H2", "H4", "H6")],
                               PeriodicGrid(20.0, 64), AlgebraDescriptor.from_string("grassmann:3"),
                               1.3)
    brackets = [(tuple(left), tuple(right)) for product, left, right, *_ in program.ops
                if product == "odd_commutator"]
    assert len(brackets) == len(set(brackets)) == 4


def test_densities_make_each_product_once():
    # H2's u^2 and H4's u'^2 read the products u u and u' u' that H4's
    # 2 u^3 and H6's 10 u u'^2 make as prefixes, where each took a scaled
    # op of its own: 12 ops, no two gathering the same rows (14 before)
    program = _Program.compile([density_poly(label) for label in ("H0", "H2", "H4", "H6")],
                               PeriodicGrid(20.0, 64), AlgebraDescriptor.from_string("grassmann:3"),
                               1.3)
    gathers = {(product, tuple(left), tuple(right)) for product, left, right, *_ in program.ops}
    assert len(program.ops) == len(gathers) == 12


def test_recorded_step_equals_the_final_state_of_a_shorter_run():
    # check gardner reads the deviation at step 300 from its 500-step run
    st = random_state("gardner", "symplectic:1", 1.0, N=64, L=20.0, eps=0.1)
    longer = integrate(st, 1e-3, 50, scheme="ifrk4", record_every=5)
    shorter = integrate(st, 1e-3, 30, scheme="ifrk4", record_every=30).final
    assert longer[6].time == shorter.time
    assert np.array_equal(longer[6].even.data, shorter.even.data)
    assert np.array_equal(longer[6].odd.data, shorter.odd.data)


def _coefficient_tensor(out_dim, dim, left, right, k, s):
    """The dense (out, left, right) tensor of a product's coefficients,
    rebuilt from its (left, right, out, coefficient) triples."""
    tensor = np.zeros((out_dim, dim, dim))
    np.add.at(tensor, (k, left, right), s)
    return tensor


@pytest.mark.parametrize("desc_str", ["grassmann:6", "symplectic:2"])
def test_every_op_gathers_one_product_table(desc_str):
    # the right-hand sides of all three systems, the densities and the maps
    # each fold one product table per op: the product's own table, or its
    # square table when both operands are one node.  The op's gathered
    # (left, right, coefficient) triples are the table's, offset to its
    # nodes and scaled by the op's coefficient, in whatever column order
    # its fold gathers them.  So no gather is wider than the widest table,
    # and the buffers fit the widest op
    desc = AlgebraDescriptor.from_string(desc_str)
    grid, algebra = PeriodicGrid(20.0, 64), get_algebra(desc)
    dim = max(desc.even_dim, desc.odd_dim)
    programs = [_SpectralRHS(kind, grid, desc, 1.3, 0.4 if kind == "gardner" else 0.0)
                for kind in SYSTEM_KINDS]
    programs.append(_Program.compile([density_poly(label)
                                      for label in ("H0", "H2", "H4", "H6", "H")],
                                     grid, desc, 1.3))
    programs += [_series_program(terms, grid, desc, 1.3, 0.4)
                 for terms in (map_terms("miura"), map_terms("gardner"),
                               enumerate(gardner_coefficients(8)))]
    squares = 0
    for program in programs:
        for product, left, right, fold, _ in program.ops:
            (a,), (b,) = set(left - fold.i), set(right - fold.j)
            table = (algebra.square_fold if a == b else algebra.gather_fold)(product)
            squares += a == b
            got = _coefficient_tensor(table.out_dim, dim, left - a, right - b, fold.k, fold.s)
            want = _coefficient_tensor(table.out_dim, dim, table.i, table.j, table.k, table.s)
            scale = fold.s[0] / want[fold.k[0], fold.i[0], fold.j[0]]
            assert np.array_equal(got, scale * want), product
        widths = [len(left) for _, left, *_ in program.ops]
        widths += [sum(len(left) for _, left, *_ in ops) for ops in program.fused]
        assert [b.shape for b in program.buffers] == [(max(widths), 64)] * 2
    assert squares > 0  # u u, v v and the like are compiled


def _widest_reduction(program):
    """The longest sum any op's fold makes per output channel."""
    return max(coefficients.shape[-1] for *_, fold, _ in program.ops
               for _, _, coefficients in fold.groups)


@pytest.mark.parametrize("desc_str,grouped,widest", [
    ("scalar", False, 1), ("grassmann:3", False, 7), ("symplectic:1", False, 3),
    ("grassmann:6", True, 32), ("grassmann:8", True, 128)])
def test_ops_fold_per_channel_where_the_dense_fold_wastes(desc_str, grouped, widest):
    # at N = 256 the grassmann:6 and grassmann:8 tables fold per output
    # channel, each channel summing its own pairs (at most 2^(n-1) on
    # grassmann:n, against 183 and 1641 columns of one dense fold); the
    # small tables keep the one dense group
    st = random_state("modified", desc_str, 1.3, N=256)
    nonlinear = _SpectralRHS("modified", st.grid, st.descriptor, st.lam)
    assert {fold.inverse is not None for *_, fold, _ in nonlinear.ops} == {grouped}
    assert _widest_reduction(nonlinear) == widest


# sha256 prefixes of every record of a 30-step run, recorded when every op
# folded through one dense matrix; the ops of these backends still do
_DENSE_RECORDS = {("extended", "scalar", "ifrk4"): "2144ba6a24ed5c1c",
                  ("extended", "scalar", "rk4"): "afbb49a30b4549d5",
                  ("modified", "grassmann:3", "ifrk4"): "0a6a4670d91c2081",
                  ("modified", "grassmann:3", "rk4"): "aa4080f86822a1c8",
                  ("gardner", "symplectic:1", "ifrk4"): "51c3db7c7bd12e4a",
                  ("gardner", "symplectic:1", "rk4"): "3707295bf3c6430c"}


@pytest.mark.parametrize("kind,desc_str,scheme", sorted(_DENSE_RECORDS))
def test_ops_that_keep_one_group_keep_their_bits(kind, desc_str, scheme):
    import hashlib
    st = random_state(kind, desc_str, 0.0 if desc_str == "scalar" else 1.3, seed=3,
                      eps=0.4 if kind == "gardner" else 0.0)
    nonlinear = _SpectralRHS(kind, st.grid, st.descriptor, st.lam, st.epsilon)
    assert all(fold.inverse is None and len(fold.groups) == 1
               for *_, fold, _ in nonlinear.ops)
    digest = hashlib.sha256()
    for record in integrate(st, 1e-3, 30, scheme=scheme, record_every=10):
        digest.update(record.even.data.tobytes())
        digest.update(record.odd.data.tobytes())
    assert digest.hexdigest()[:16] == _DENSE_RECORDS[kind, desc_str, scheme]


@pytest.mark.parametrize("scheme", ["rk4", "ifrk4"])
@pytest.mark.parametrize("kind", ["extended", "modified", "gardner"])
def test_scalar_zero_states_keep_the_bits_of_the_1x1_matmul(kind, scheme):
    # a scalar op folds by multiplying with its coefficient, where a 1x1
    # matmul gave 0 + s p: the two differ only in the sign of a zero
    # product.  Every record of runs from a state of +0 and one of -0 keeps
    # the sha256 prefix recorded when the folds were matmuls
    import hashlib
    grid, desc = PeriodicGrid(20.0, 64), AlgebraDescriptor.from_string("scalar")
    digest = hashlib.sha256()
    for sign in (1.0, -1.0):
        st = SystemState(kind, EvenField(grid, desc, sign * np.zeros((1, 64))),
                         OddField.zeros(grid, desc), lam=1.3,
                         epsilon=0.4 if kind == "gardner" else 0.0)
        assert all(fold.s.shape == (1,) for *_, fold, _ in _SpectralRHS(
            kind, grid, desc, st.lam, st.epsilon).ops)
        for record in integrate(st, 1e-3, 30, scheme=scheme, record_every=10):
            digest.update(record.even.data.tobytes())
    assert digest.hexdigest()[:16] == "6732d53a2be7a668"


# sha256 prefixes of each system's standalone right-hand sides (rhs_states,
# rhs_state, nonlinear_rhs) and a 7-step rk4 run, on six backends at N = 64
# and 256, from data inside the 2/3 band and past it, recorded when the
# standalone right-hand side added its dispersion apart from the stages'
_RHS_DIGESTS = {"extended": "462242484ee35ac2", "modified": "7347916f1b48e21e",
                "gardner": "30f33d75c5167a26"}


@pytest.mark.parametrize("kind", SYSTEM_KINDS)
def test_right_hand_sides_keep_their_bits(kind):
    import hashlib
    digest = hashlib.sha256()
    for desc_str in ("scalar", "grassmann:3", "grassmann:4", "grassmann:6",
                     "symplectic:1", "symplectic:2"):
        for N in (64, 256):
            states = [random_state(kind, desc_str, 1.3, N=N, L=20.0, seed=seed, wide=wide,
                                   eps=0.4 if kind == "gardner" else 0.0)
                      for seed, wide in ((1, False), (2, True))]
            pairs = rhs_states(states)
            for st in states:
                pairs += [rhs_state(st), nonlinear_rhs(kind, st.even, st.odd, st.lam, st.epsilon)]
            final = integrate(states[1], 0.5 * stability_limit(states[1].grid, "rk4"), 7).final
            for even, odd in pairs + [(final.even, final.odd)]:
                digest.update(even.data.tobytes())
                digest.update(odd.data.tobytes())
    assert digest.hexdigest()[:16] == _RHS_DIGESTS[kind]


def test_rhs_states_match_rhs_state_one_at_a_time():
    # one map serves every state, so nothing one state writes into its
    # stack may leak into the next
    states = [random_state("modified", "grassmann:3", 1.3, N=64, L=20.0, seed=seed)
              for seed in (1, 2, 3)]
    for (re, ro), st in zip(rhs_states(states), states):
        want_e, want_o = rhs_state(st)
        assert np.array_equal(re.data, want_e.data)
        assert np.array_equal(ro.data, want_o.data)
    other = random_state("modified", "grassmann:3", 0.5, N=64, L=20.0)
    with pytest.raises(SuperKdVError, match="share"):
        rhs_states(states + [other])
    coarse = random_state("modified", "grassmann:3", 1.3, N=32, L=20.0)
    with pytest.raises(SuperKdVError, match="share"):
        rhs_states(states + [coarse])
    # gardner states too, and rhs_gardner is rhs_state of a gardner state
    gardner = [random_state("gardner", "grassmann:3", 1.3, N=64, L=20.0, seed=seed, eps=0.3)
               for seed in (1, 2, 3)]
    for (re, ro), st in zip(rhs_states(gardner), gardner):
        want_e, want_o = rhs_state(st)
        named_e, named_o = rhs_gardner(st.even, st.odd, st.lam, st.epsilon)
        for got, want in ((re, want_e), (ro, want_o), (named_e, want_e), (named_o, want_o)):
            assert np.array_equal(got.data, want.data)
