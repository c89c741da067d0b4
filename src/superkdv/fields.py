"""Periodic-grid algebra-valued fields and their x-calculus.

A field stores one coordinate channel per algebra basis element as a row
of a (dim, N) array: the graded element of an algebra value with a
trailing grid axis added.  Its sums, products, commutator and norm are the
values' own (algebra._Graded); this module adds only the rule that two
fields combine when they share grid and descriptor, and the x-calculus.
Differentiation is spectral (rfft per channel,
multiply by (ik)^order, Nyquist zeroed for odd orders), quadrature is the
periodic trapezoid dx*sum, and the 2/3-rule dealias filter zeroes every
mode above N//3.  The integrals the conserved quantities need are taken
over one period of a box chosen large enough that localized profiles
decay to machine-negligible values at the boundary.
"""

import warnings

import numpy as np
from numpy.fft import _pocketfft_umath as _pocketfft  # the kernels numpy.fft runs

from .algebra import EvenValue, OddValue, _Graded, _OddGraded
from .errors import DescriptorMismatch, NonFiniteFieldError, SuperKdVError, finite_number


class PeriodicGrid:
    """Uniform periodic grid on [0, L) with N a power of two >= 16.

    rfft and irfft are the grid's one transform pair over the last axis,
    and every transform of the package goes through them.  Each is one
    call to the pocketfft kernel np.fft.rfft or irfft ends in, with the
    same backward-normalisation factor (1 forward, 1/N back), so results
    are bit-identical to numpy.fft's, without its per-call argument
    handling.  rfft_calls and irfft_calls count the calls."""

    def __init__(self, L, N):
        L = finite_number("grid length", L)
        N = finite_number("grid size", N, int)
        if L <= 0:
            raise SuperKdVError(f"grid length must be positive, got {L}")
        if N < 16 or N & (N - 1):
            raise SuperKdVError(f"grid size must be a power of two >= 16, got {N}")
        self.L = L
        self.N = N
        self.dx = L / N
        self.x = np.arange(N) * self.dx
        self.k = 2.0 * np.pi * np.fft.rfftfreq(N, d=self.dx)  # modes 0..N/2
        self.dealias_keep = N // 3  # highest surviving mode index
        try:  # the stability guard's 0.5 / k_max_active ** 3, and the dispersion's largest k ** 3
            0.5 / self.k_max_active ** 3 + float(self.k[-1]) ** 3
        except (OverflowError, ZeroDivisionError):
            raise SuperKdVError(f"grid length {L!r} puts k_max_active ** 3 or the top "
                                f"mode's k ** 3 outside the positive floats") from None
        self._symbols = {}
        self._inverse_scale = np.reciprocal(N, dtype=float)  # as numpy.fft's irfft
        self.rfft_calls = 0
        self.irfft_calls = 0

    # The kernels are gufuncs whose core dimension is the last axis by
    # default.  N is even, so the forward kernel is rfft_n_even; the
    # inverse one reads n = N from out.
    def rfft(self, samples, out=None):
        """np.fft.rfft(samples, axis=-1, out=out) of float samples with N
        points on the last axis: the N // 2 + 1 modes, into out (a fresh
        array when out is None), which is returned."""
        if out is None:
            out = np.empty(samples.shape[:-1] + (len(self.k),), complex)
        self.rfft_calls += 1
        return _pocketfft.rfft_n_even(samples, 1, out=out)

    def irfft(self, spectrum, out=None):
        """np.fft.irfft(spectrum, n=N, axis=-1, out=out) of N // 2 + 1
        modes on the last axis: the N samples, into out (a fresh array
        when out is None), which is returned."""
        if out is None:
            out = np.empty(spectrum.shape[:-1] + (self.N,))
        self.irfft_calls += 1
        return _pocketfft.irfft(spectrum, self._inverse_scale, out=out)

    def derivative_symbol(self, order):
        """(ik)^order on the rfft modes, made once per order and read-only."""
        sym = self._symbols.get(order)
        if sym is None:
            sym = (1j * self.k) ** order
            if order % 2:
                sym[-1] = 0.0  # Nyquist has no well-defined odd derivative
            sym.flags.writeable = False
            self._symbols[order] = sym
        return sym

    @property
    def k_max_active(self):
        """Largest wavenumber the dealias filter lets survive."""
        return 2.0 * np.pi * self.dealias_keep / self.L

    def __eq__(self, other):
        return isinstance(other, PeriodicGrid) and self.L == other.L and self.N == other.N

    def __hash__(self):
        return hash((self.L, self.N))

    def __repr__(self):
        return f"PeriodicGrid(L={self.L}, N={self.N})"


class _Field(_Graded):
    """A graded element sampled on a grid."""

    __slots__ = ("grid", "descriptor", "data")

    def __init__(self, grid, descriptor, data):
        dim = self._dim(descriptor)
        data = np.asarray(data, dtype=float)
        if data.shape != (dim, grid.N):
            raise SuperKdVError(
                f"{'odd' if self._odd else 'even'} field over {descriptor} needs shape "
                f"{(dim, grid.N)}, got {data.shape}")
        self.grid = grid
        self.descriptor = descriptor
        self.data = data

    @classmethod
    def zeros(cls, grid, descriptor):
        return cls(grid, descriptor, np.zeros((cls._dim(descriptor), grid.N)))

    @property
    def _array(self):
        return self.data

    def _build(self, odd, data):
        return (OddField if odd else EvenField)(self.grid, self.descriptor, data)

    def _require_compatible(self, other):
        grid = getattr(other, "grid", None)  # a value has none
        if grid != self.grid:
            raise SuperKdVError(f"fields on different grids: {self.grid} vs {grid}")
        if other.descriptor != self.descriptor:
            raise DescriptorMismatch(f"fields over {self.descriptor} and {other.descriptor}")

    @property
    def labels(self):
        return self.descriptor.odd_labels if self._odd else self.descriptor.even_labels

    def channels(self):
        return dict(zip(self.labels, self.data))

    def derivative(self, order=1):
        if not np.all(np.isfinite(self.data)):
            raise NonFiniteFieldError("non-finite samples in spectral derivative")
        grid = self.grid
        spec = grid.rfft(self.data)
        spec *= grid.derivative_symbol(order)
        return type(self)(grid, self.descriptor, grid.irfft(spec))

    def dealiased(self):
        grid = self.grid
        spec = grid.rfft(self.data)
        spec[..., grid.dealias_keep + 1:] = 0.0
        return type(self)(grid, self.descriptor, grid.irfft(spec))

    def quadrature(self):
        coords = self.grid.dx * self.data.sum(axis=-1)
        return (OddValue if self._odd else EvenValue)(self.descriptor, coords)

    def rolled(self, points):
        """Shift by an integer number of grid points (periodic translation)."""
        return type(self)(self.grid, self.descriptor, np.roll(self.data, points, axis=-1))

    def __repr__(self):
        return (f"{type(self).__name__}({self.grid}, {self.descriptor}, "
                f"max|.|={self.norm():.3g})")


class EvenField(_Field):
    pass


class OddField(_Field, _OddGraded):
    pass


def spectral_derivative(f, order=1):
    return f.derivative(order)


def quadrature(f):
    return f.quadrature()


# ---------------------------------------------------------------------------
# initial conditions

class SolitonIC:
    """u(x) = -2 kappa^2 sech^2(kappa (x - x0)) on the unit channel, odd zero."""

    name = "soliton"

    def __init__(self, kappa=1.0, x0=None):
        self.kappa = finite_number("kappa", kappa)
        self.x0 = None if x0 is None else finite_number("x0", x0)

    def params(self):
        return {"kappa": self.kappa, "x0": self.x0}


class GaussianIC:
    """Periodic bump A*exp(-(L/(2 pi w))^2 (1-cos(2 pi (x-c)/L))) on one channel.

    Matches exp(-(x-c)^2/(2 w^2)) to second order near the center and is
    exactly periodic.  channel is "even:LABEL" or "odd:LABEL" (or an index
    in place of the label).
    """

    name = "gaussian"

    def __init__(self, amplitude=1.0, width=1.0, center=None, channel="even:unit"):
        self.amplitude = finite_number("amplitude", amplitude)
        self.width = finite_number("width", width)
        if self.width <= 0.0:
            raise SuperKdVError(f"width must be positive, got {self.width}")
        self.center = None if center is None else finite_number("center", center)
        self.channel = channel

    def params(self):
        return {"amplitude": self.amplitude, "width": self.width,
                "center": self.center, "channel": self.channel}


class ZeroIC:
    """Both fields identically zero."""

    name = "zero"

    def params(self):
        return {}


class RandomBandlimitedIC:
    """Seeded trig polynomials (modes 0..max_mode) on every channel of both
    fields, each field rescaled so its largest coordinate sample equals
    amplitude.  Mode 0 is included so the mean of u starts at O(amplitude).
    seed stays None when none is given, which draws as seed 0, so that the
    CLI can tell it apart and fill in its --seed."""

    name = "random_bandlimited"

    def __init__(self, max_mode=5, amplitude=0.5, seed=None):
        self.max_mode = finite_number("max_mode", max_mode, int)
        if self.max_mode < 0:
            raise SuperKdVError(f"max_mode must be >= 0, got {self.max_mode}")
        self.amplitude = finite_number("amplitude", amplitude)
        self.seed = None if seed is None else finite_number("seed", seed, int)

    def params(self):
        return {"max_mode": self.max_mode, "amplitude": self.amplitude,
                "seed": self.seed}


def _resolve_channel(spec, descriptor):
    part, _, label = str(spec).partition(":")
    part = part.strip()
    if part not in ("even", "odd"):
        raise SuperKdVError(f"bad channel spec {spec!r}; expected even:LABEL or odd:LABEL")
    labels = descriptor.even_labels if part == "even" else descriptor.odd_labels
    label = label.strip() or "0"
    if label in labels:
        return part, labels.index(label)
    try:
        idx = int(label)
    except ValueError:
        raise SuperKdVError(f"unknown {part} channel {label!r}; have {labels}")
    if not 0 <= idx < len(labels):
        raise SuperKdVError(f"{part} channel index {idx} out of range for {descriptor}")
    return part, idx


def soliton_profile(grid, kappa, x0, t=0.0):
    """The one-soliton -2 kappa^2 sech^2(kappa (x - x0 - 4 kappa^2 t)) of the
    xi = 0 sector, with x - x0 - 4 kappa^2 t taken at its nearest periodic
    image, so that the profile is periodic wherever x0 lies."""
    # kappa * kappa overflows to inf where kappa ** 2 raises OverflowError
    speed = 4.0 * (kappa * kappa)
    shift = np.mod(grid.x - x0 - speed * t + grid.L / 2, grid.L) - grid.L / 2
    arg = np.minimum(np.abs(kappa * shift), 350.0)
    return -2.0 * (kappa * kappa) / np.cosh(arg) ** 2


def build_initial_condition(spec, grid, descriptor):
    """Realize an IC spec (object or "name(k=v,...)" string) as field pair."""
    if isinstance(spec, str):
        spec = parse_ic(spec)
    even = EvenField.zeros(grid, descriptor)
    odd = OddField.zeros(grid, descriptor)
    x = grid.x
    if isinstance(spec, SolitonIC):
        x0 = grid.L / 2 if spec.x0 is None else spec.x0
        even.data[0] = soliton_profile(grid, spec.kappa, x0)
        tail = 1.0 / np.cosh(min(abs(spec.kappa) * grid.L / 2, 350.0)) ** 2
        if tail > 1e-10:
            warnings.warn(
                f"soliton tail sech^2(kappa L/2) = {tail:.2e} does not decay "
                "inside the periodic box; quadrature-based invariants will "
                "see the wrap-around")
    elif isinstance(spec, GaussianIC):
        c = grid.L / 2 if spec.center is None else spec.center
        part, idx = _resolve_channel(spec.channel, descriptor)
        sharp = (grid.L / (2.0 * np.pi * spec.width)) ** 2
        profile = spec.amplitude * np.exp(-sharp * (1.0 - np.cos(2.0 * np.pi * (x - c) / grid.L)))
        (even if part == "even" else odd).data[idx] = profile
    elif isinstance(spec, ZeroIC):
        pass
    elif isinstance(spec, RandomBandlimitedIC):
        seed = 0 if spec.seed is None else spec.seed
        if seed < 0:
            raise SuperKdVError(f"random_bandlimited needs a non-negative seed, "
                                f"got {seed}")
        if spec.max_mode >= grid.N // 2:
            raise SuperKdVError(f"random_bandlimited needs max_mode < N // 2 = {grid.N // 2} "
                                f"(higher modes alias), got {spec.max_mode}")
        rng = np.random.default_rng(seed)
        phase = 2.0 * np.pi * np.outer(np.arange(spec.max_mode + 1), x) / grid.L
        basis_cos, basis_sin = np.cos(phase), np.sin(phase)
        for field in (even, odd):
            for ch in range(field.data.shape[0]):
                a = rng.uniform(-1.0, 1.0, len(phase))
                b = rng.uniform(-1.0, 1.0, len(phase))
                field.data[ch] = a @ basis_cos + b @ basis_sin
            peak = field.norm()
            if peak > 0:
                field.data *= spec.amplitude / peak
    else:
        raise SuperKdVError(f"unknown IC spec {spec!r}")
    return even, odd


_IC_CLASSES = {cls.name: cls for cls in (SolitonIC, GaussianIC,
                                         RandomBandlimitedIC, ZeroIC)}


def _number(text):
    """text as the int int() reads, else the float float() reads, else text."""
    for kind in (int, float):
        try:
            return kind(text)
        except ValueError:
            pass
    return text


def parse_ic(text):
    """Parse "name(arg=value, ...)" into an IC spec (CLI surface); each
    value is read by _number, and the IC class checks it.

    Examples: soliton(kappa=1,x0=20); random_bandlimited(max_mode=5,
    amplitude=0.5,seed=7); gaussian(amplitude=0.2,width=3,channel=odd:e1).
    """
    text = text.strip()
    name, sep, rest = text.partition("(")
    name = name.strip()
    if name not in _IC_CLASSES:
        raise SuperKdVError(f"unknown IC {name!r}; have {sorted(_IC_CLASSES)}")
    kwargs = {}
    if sep:
        if not rest.endswith(")"):
            raise SuperKdVError(f"unbalanced parentheses in IC spec {text!r}")
        body = rest[:-1].strip()
        if body:
            for item in body.split(","):
                key, eq, val = (part.strip() for part in item.partition("="))
                if not eq:
                    raise SuperKdVError(f"IC arguments must be key=value, got {item!r}")
                if key in kwargs:
                    raise SuperKdVError(f"IC argument {key!r} is given twice in {text!r}")
                kwargs[key] = _number(val)
    try:
        return _IC_CLASSES[name](**kwargs)
    except TypeError as exc:
        raise SuperKdVError(f"bad arguments for IC {name}: {exc}")
