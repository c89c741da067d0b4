"""Grid, spectral calculus, quadrature and initial-condition tests."""

import numpy as np
import pytest

from superkdv.algebra import AlgebraDescriptor
from superkdv.errors import GradingError, SuperKdVError
from superkdv.fields import (EvenField, OddField, PeriodicGrid, GaussianIC,
                             RandomBandlimitedIC, SolitonIC,
                             build_initial_condition, parse_ic, quadrature,
                             soliton_profile, spectral_derivative)

SCALAR = AlgebraDescriptor("scalar")


def scalar_field(grid, values):
    return EvenField(grid, SCALAR, values[None, :])


def test_grid_validation():
    for L in (0.0, float("inf"), float("nan")):
        with pytest.raises(SuperKdVError):
            PeriodicGrid(L, 64)
    with pytest.raises(SuperKdVError):
        PeriodicGrid(10.0, 48)  # not a power of two
    with pytest.raises(SuperKdVError):
        PeriodicGrid(10.0, 8)  # too small
    for N in (16.9, float("nan"), float("inf"), "16"):  # was truncated or crashed
        with pytest.raises(SuperKdVError, match="whole number"):
            PeriodicGrid(40.0, N)
    g = PeriodicGrid(10.0, 64)
    assert g.dx * g.N == pytest.approx(g.L)
    g = PeriodicGrid(40.0, 16.0)  # an integral float is a whole number
    assert g.N == 16 and type(g.N) is int


@pytest.mark.parametrize("N", [16, 64, 512])
@pytest.mark.parametrize("lead", [(), (3,), (2, 5)])
@pytest.mark.parametrize("given_out", [False, True])
def test_transform_pair_matches_numpy_fft_bit_for_bit(N, lead, given_out):
    # the pair calls numpy.fft's private pocketfft kernels directly: this
    # fails loudly if a numpy release moves or changes them
    g = PeriodicGrid(10.0, N)
    samples = np.random.default_rng(N).standard_normal(lead + (N,))
    want_spec = np.fft.rfft(samples, axis=-1)
    out = np.empty_like(want_spec) if given_out else None
    spec = g.rfft(samples, out=out)
    assert spec.dtype == want_spec.dtype and spec.shape == want_spec.shape
    assert spec.tobytes() == want_spec.tobytes()
    assert not given_out or spec is out
    want = np.fft.irfft(spec, n=N, axis=-1)
    out = np.empty_like(want) if given_out else None
    back = g.irfft(spec, out=out)
    assert back.dtype == want.dtype and back.shape == want.shape
    assert back.tobytes() == want.tobytes()
    assert not given_out or back is out
    assert (g.rfft_calls, g.irfft_calls) == (1, 1)


def test_sin_derivative_bandlimited_exact():
    g = PeriodicGrid(7.0, 64)
    f = scalar_field(g, np.sin(2 * np.pi * g.x / g.L))
    df = spectral_derivative(f, 1)
    want = (2 * np.pi / g.L) * np.cos(2 * np.pi * g.x / g.L)
    assert np.max(np.abs(df.data[0] - want)) <= 1e-10


def test_constant_derivative_is_zero():
    g = PeriodicGrid(5.0, 32)
    f = scalar_field(g, np.full(g.N, 3.7))
    assert spectral_derivative(f, 1).norm() == 0.0
    assert spectral_derivative(f, 3).norm() <= 1e-13


def test_odd_field_derivative_reduces_channelwise():
    g = PeriodicGrid(2 * np.pi, 64)
    d = AlgebraDescriptor("grassmann", 2)
    f = OddField.zeros(g, d)
    f.data[0] = np.sin(g.x)
    df = f.derivative()
    assert np.max(np.abs(df.data[0] - np.cos(g.x))) <= 1e-10
    assert np.max(np.abs(df.data[1])) == 0.0


def test_derivative_twice_matches_second_order():
    g = PeriodicGrid(9.0, 128)
    f = scalar_field(g, np.sin(4 * np.pi * g.x / g.L) + 0.3 * np.cos(6 * np.pi * g.x / g.L))
    d11 = f.derivative(1).derivative(1)
    d2 = f.derivative(2)
    assert np.max(np.abs(d11.data - d2.data)) <= 1e-8


def test_nyquist_mode_zeroed_for_odd_orders():
    g = PeriodicGrid(2 * np.pi, 32)
    f = scalar_field(g, np.cos(16 * g.x))  # pure Nyquist
    assert f.derivative(1).norm() == 0.0
    assert f.derivative(2).norm() > 1.0  # even order keeps it


def test_quadrature_values():
    g = PeriodicGrid(2 * np.pi, 64)
    assert abs(quadrature(scalar_field(g, np.sin(g.x))).coords[0]) <= 1e-12
    c = quadrature(scalar_field(g, np.full(g.N, 1.5)))
    assert c.coords[0] == pytest.approx(2 * np.pi * 1.5, abs=1e-12)
    smooth = np.exp(np.sin(g.x))  # any smooth periodic g
    dg = spectral_derivative(scalar_field(g, smooth), 1)
    assert abs(quadrature(dg).coords[0]) <= 1e-10


def test_derivative_linear_and_channel_projection():
    g = PeriodicGrid(6.0, 64)
    d = AlgebraDescriptor("symplectic", 1)
    rng = np.random.default_rng(5)
    f1 = EvenField(g, d, rng.standard_normal((2, g.N)))
    f2 = EvenField(g, d, rng.standard_normal((2, g.N)))
    lin = spectral_derivative(f1 + (-2.0) * f2, 2)
    ref = spectral_derivative(f1, 2) + (-2.0) * spectral_derivative(f2, 2)
    assert np.max(np.abs(lin.data - ref.data)) <= 1e-12
    # channel projection commutes with differentiation
    one = scalar_field(g, f1.data[1])
    assert np.allclose(spectral_derivative(one, 2).data[0],
                       spectral_derivative(f1, 2).data[1])


def test_dealias_filter_removes_top_third():
    g = PeriodicGrid(2 * np.pi, 64)
    high = scalar_field(g, np.cos((g.dealias_keep + 2) * g.x))
    low = scalar_field(g, np.cos(3 * g.x))
    assert high.dealiased().norm() <= 1e-13
    assert np.max(np.abs(low.dealiased().data - low.data)) <= 1e-13


def test_soliton_ic():
    g = PeriodicGrid(40.0, 256)
    even, odd = build_initial_condition(SolitonIC(kappa=1.0), g, SCALAR)
    assert odd.norm() == 0.0
    i = np.argmin(even.data[0])
    assert g.x[i] == pytest.approx(20.0, abs=g.dx)
    assert even.data[0][i] == pytest.approx(-2.0, abs=1e-9)


def test_off_centre_soliton_ic_is_periodic():
    # the IC is soliton_profile at t = 0, which measures each point from
    # the centre's nearest periodic image: a soliton centred 115 points
    # left of mid-box is the centred one rolled by -115, with no jump
    # across the boundary, where an unwrapped profile would step by 0.13
    g = PeriodicGrid(40.0, 256)
    x0 = g.L / 2 - 115 * g.dx
    even, _ = build_initial_condition(SolitonIC(kappa=1.0, x0=x0), g, SCALAR)
    assert np.array_equal(even.data[0], soliton_profile(g, 1.0, x0, t=0.0))
    centred, _ = build_initial_condition(SolitonIC(kappa=1.0), g, SCALAR)
    assert np.max(np.abs(even.data[0] - np.roll(centred.data[0], -115))) <= 1e-15


def test_soliton_decay_warning():
    g = PeriodicGrid(8.0, 64)
    with pytest.warns(UserWarning):
        build_initial_condition(SolitonIC(kappa=0.5), g, SCALAR)


def test_gaussian_ic_channel_and_zero_amplitude():
    g = PeriodicGrid(20.0, 64)
    d = AlgebraDescriptor("grassmann", 2)
    even, odd = build_initial_condition(
        GaussianIC(amplitude=0.7, width=2.0, channel="odd:t2"), g, d)
    assert even.norm() == 0.0
    assert odd.data[1].max() == pytest.approx(0.7, rel=1e-6)
    assert odd.data[0].max() == 0.0
    even, odd = build_initial_condition(GaussianIC(amplitude=0.0), g, d)
    assert even.norm() == 0.0 and odd.norm() == 0.0


def test_random_ic_reproducible_and_bandlimited():
    g = PeriodicGrid(40.0, 128)
    d = AlgebraDescriptor("symplectic", 1)
    ic = RandomBandlimitedIC(max_mode=5, amplitude=0.5, seed=9)
    e1, o1 = build_initial_condition(ic, g, d)
    e2, o2 = build_initial_condition(ic, g, d)
    assert np.array_equal(e1.data, e2.data) and np.array_equal(o1.data, o2.data)
    assert e1.norm() == pytest.approx(0.5)
    assert o1.norm() == pytest.approx(0.5)
    spec = np.abs(np.fft.rfft(e1.data[0]))
    assert spec[6:].max() <= 1e-10 * spec.max()  # nothing above max_mode
    e3, _ = build_initial_condition(RandomBandlimitedIC(max_mode=5, amplitude=0.5, seed=10),
                                    g, d)
    assert not np.array_equal(e1.data, e3.data)
    # mode 0 present: the mean of u is an O(amplitude) invariant from the start
    assert abs(e1.data[0].mean()) > 1e-3


def test_random_ic_refuses_modes_that_alias():
    # on N = 64 a max_mode of 32 or more aliases into the band, while the
    # IC records the mode it was given; N // 2 - 1 = 31 is the highest kept
    g, d = PeriodicGrid(40.0, 64), AlgebraDescriptor("grassmann", 2)
    for max_mode in (32, 200):
        with pytest.raises(SuperKdVError, match=rf"max_mode < N // 2 = 32 .*, got {max_mode}$"):
            build_initial_condition(RandomBandlimitedIC(max_mode=max_mode), g, d)
    even, _ = build_initial_condition(RandomBandlimitedIC(max_mode=31), g, d)
    assert np.abs(np.fft.rfft(even.data[0]))[31] > 0.0


def test_parse_ic():
    ic = parse_ic("soliton(kappa=2,x0=10)")
    assert isinstance(ic, SolitonIC) and ic.kappa == 2.0 and ic.x0 == 10.0
    ic = parse_ic("random_bandlimited(max_mode=4,amplitude=0.3,seed=12)")
    assert isinstance(ic, RandomBandlimitedIC) and ic.seed == 12
    assert parse_ic("random_bandlimited(seed = 12)").seed == 12
    # no seed given stays None, so the CLI can fill in --seed, and draws seed 0
    unseeded = parse_ic("random_bandlimited")
    assert unseeded.seed is None
    g, d = PeriodicGrid(20.0, 32), AlgebraDescriptor("symplectic", 1)
    drawn = build_initial_condition(unseeded, g, d)
    zero = build_initial_condition(RandomBandlimitedIC(seed=0), g, d)
    assert all(np.array_equal(a.data, b.data) for a, b in zip(drawn, zero))
    ic = parse_ic("gaussian(amplitude=0.2,width=3,channel=odd:e1)")
    assert isinstance(ic, GaussianIC) and ic.channel == "odd:e1"
    assert parse_ic("soliton").kappa == 1.0
    with pytest.raises(SuperKdVError):
        parse_ic("vortex(q=1)")
    with pytest.raises(SuperKdVError):
        parse_ic("soliton(kappa=2")
    with pytest.raises(SuperKdVError):
        parse_ic("soliton(2)")


@pytest.mark.parametrize("text,key", [
    ("soliton(kappa=abc)", "kappa"), ("soliton(kappa=inf)", "kappa"),
    ("soliton(x0=nan)", "x0"), ("gaussian(amplitude=nan)", "amplitude"),
    ("gaussian(width=0)", "width"), ("gaussian(width=-1)", "width"),
    ("gaussian(center=-inf)", "center"), ("random_bandlimited(seed=1.5)", "seed"),
    ("random_bandlimited(seed=x)", "seed"), ("random_bandlimited(max_mode=-1)", "max_mode"),
    ("random_bandlimited(amplitude=1e999)", "amplitude")])
def test_bad_ic_arguments_are_refused_by_name(text, key):
    # each was a raw ValueError or ZeroDivisionError, a run to a blow-up,
    # or (max_mode=-1) silently zero fields; the classes refuse the text too
    with pytest.raises(SuperKdVError, match=key):
        parse_ic(text)
    name, _, rest = text.partition("(")
    _, _, value = rest[:-1].partition("=")
    cls = {"soliton": SolitonIC, "gaussian": GaussianIC,
           "random_bandlimited": RandomBandlimitedIC}[name]
    with pytest.raises(SuperKdVError, match=key):
        cls(**{key: value})


def test_ic_arguments_keep_their_values():
    # ints for the int arguments, parsed from their text without rounding
    # through a float, and finite floats for the others
    ic = parse_ic("random_bandlimited(max_mode=0,amplitude=1e-3,seed=12345678901234567891)")
    assert (ic.max_mode, ic.amplitude, ic.seed) == (0, 1e-3, 12345678901234567891)
    # an integral float reads as its int, from its text as from the number
    assert RandomBandlimitedIC(seed=7.0).seed == 7
    ic = parse_ic("random_bandlimited(seed=7.0)")
    assert ic.seed == 7 and type(ic.seed) is int
    ic = parse_ic("gaussian(amplitude=-2,width=1e-3,center=0)")
    assert (ic.amplitude, ic.width, ic.center) == (-2.0, 1e-3, 0.0)
    assert type(ic.amplitude) is float and type(ic.center) is float


def test_field_products_and_grading():
    g = PeriodicGrid(2 * np.pi, 32)
    d = AlgebraDescriptor("symplectic", 1)
    u = EvenField.zeros(g, d)
    u.data[0] = np.cos(g.x)
    q = OddField.zeros(g, d)
    q.data[0] = np.sin(g.x)
    q.data[1] = np.cos(g.x)
    uq = u * q
    assert np.allclose(uq.data[0], np.cos(g.x) * np.sin(g.x))
    comm = q.derivative().commutator(q)
    assert np.max(np.abs(comm.data[0])) == 0.0  # unit channel stays empty
    assert np.max(np.abs(comm.data[1] - 1.0)) <= 1e-10  # omega(q', q) = 1 here
    with pytest.raises(GradingError):
        q * q
    with pytest.raises(SuperKdVError):
        u + q  # grading error on mixed addition
    g2 = PeriodicGrid(2 * np.pi, 64)
    with pytest.raises(SuperKdVError):
        u * EvenField.zeros(g2, d)
