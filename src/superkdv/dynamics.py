"""Right-hand sides of the four evolution systems and fixed-step integrators.

All systems share the linear dispersion -f''' on every field; the
remaining terms are polynomial in the fields and their first two
derivatives.  They are written once, in conservative form D(flux) +
source, as symbolic.nonlinear_terms, with u and xi standing for each
system's own fields: (u, xi) for extended, (z, sigma) for gardner and
(v, eta) for modified.  Each evaluation takes D of the stacked flux rows
that some flux text writes into (only the even rows for modified) with
one transform pair.  skdv_grassmann (Grassmann only) is extended with its
3 L [xi'', xi] written as -6 L xi xi''.

Integration is one fixed-step RK4 loop that keeps the state as the rfft
coefficients of the stacked even and odd fields.  Each stage transforms
back once, evaluates the nonlinear terms in physical space, transforms the
result once and applies the 2/3-rule mask there (Orszag).  The ifrk4
scheme is the Lawson integrating-factor form: it advances the -f''' term
exactly with the factors exp(i k^3 dt/2) and exp(i k^3 dt).  Classical
rk4 is the same loop with unit factors and the dispersion folded into
each stage's right-hand side.  A stability guard rejects dt beyond
0.5/k_lim^3 (10x relaxed for ifrk4), where k_lim is the largest
wavenumber the dealias filter lets survive (the full spectrum when
dealiasing is off); the mask is applied to the initial state and to every
nonlinear evaluation, so no active mode ever exceeds k_lim.
"""

import math
from functools import lru_cache

import numpy as np

from .errors import (NonFiniteFieldError, NumericalBlowup, StabilityError,
                     SuperKdVError)
from .fields import EvenField, OddField
from .symbolic import _Evaluator, nonlinear_terms

SYSTEM_KINDS = ("modified", "skdv_grassmann", "extended", "gardner")


class SystemState:
    """One snapshot of an evolution run: fields, time and parameters."""

    __slots__ = ("kind", "even", "odd", "time", "lam", "epsilon")

    def __init__(self, kind, even, odd, time=0.0, lam=0.0, epsilon=0.0):
        if kind not in SYSTEM_KINDS:
            raise SuperKdVError(f"unknown system kind {kind!r}")
        time, lam, epsilon = float(time), float(lam), float(epsilon)
        if not all(map(math.isfinite, (time, lam, epsilon))):
            raise SuperKdVError("time, lam and epsilon must be finite")
        if even.grid != odd.grid or even.descriptor != odd.descriptor:
            raise SuperKdVError("even and odd fields must share grid and descriptor")
        if kind == "skdv_grassmann" and even.descriptor.kind != "grassmann":
            raise SuperKdVError("the skdv_grassmann system needs a grassmann backend")
        if epsilon != 0.0 and kind != "gardner":
            raise SuperKdVError("epsilon is a gardner-only parameter")
        self.kind = kind
        self.even = even
        self.odd = odd
        self.time, self.lam, self.epsilon = time, lam, epsilon

    @property
    def grid(self):
        return self.even.grid

    @property
    def descriptor(self):
        return self.even.descriptor

    def replace_fields(self, even, odd, time=None):
        return SystemState(self.kind, even, odd,
                           self.time if time is None else time,
                           self.lam, self.epsilon)

    def __repr__(self):
        return (f"SystemState({self.kind}, t={self.time:.6g}, lam={self.lam}, "
                f"eps={self.epsilon}, {self.descriptor}, {self.grid})")


@lru_cache(maxsize=None)
def _flux_rows(kind, n_even, n_rows):
    """The stacked rows some flux text of the system writes into, the only
    ones nonlinear_rhs takes D of (modified has no odd flux)."""
    terms = nonlinear_terms(kind)
    has_even, has_odd = (any(not f[part].is_zero() for _, f, _ in terms) for part in (0, 1))
    return slice(0 if has_even else n_even, n_rows if has_odd else n_even)


def nonlinear_rhs(kind, even, odd, lam, eps=0.0, dealias=True):
    """Everything except the -f''' dispersion, dealiased when requested:
    D(flux) + source from symbolic.nonlinear_terms, with one derivative
    transform pair for the stacked flux rows some flux text writes into."""
    grid, desc, n_even = even.grid, even.descriptor, even.data.shape[0]
    skdv = kind == "skdv_grassmann"
    if skdv and desc.kind != "grassmann":
        raise SuperKdVError("rhs_skdv_grassmann needs a grassmann backend")
    kind = "extended" if skdv else kind
    terms = nonlinear_terms(kind)
    evaluate = _Evaluator(even, odd, lam)
    source = np.zeros((n_even + odd.data.shape[0], grid.N))
    rows = _flux_rows(kind, n_even, len(source))
    flux = np.zeros((rows.stop - rows.start, grid.N))  # holds only those rows
    for power, fluxes, sources in terms:
        for out, split, polys in ((flux, n_even - rows.start, fluxes),
                                  (source, n_even, () if skdv else sources)):
            for part, poly in zip((out[:split], out[split:]), polys):
                evaluate.add_to(part, poly, eps ** power)
    if skdv and lam != 0.0:
        # extended's 3 L [xi'', xi] as -6 L xi xi'', a plain odd product the
        # bracket-only grammar cannot write
        source[:n_even] += (-6.0 * lam) * odd.odd_mul(odd.derivative(2)).data
    if not np.all(np.isfinite(flux)):
        raise NonFiniteFieldError("non-finite samples in spectral derivative")
    spec = np.fft.rfft(flux, axis=-1) * grid.derivative_symbol(1)
    source[rows] += np.fft.irfft(spec, n=grid.N, axis=-1)
    nl_even = EvenField(grid, desc, source[:n_even])
    nl_odd = OddField(grid, desc, source[n_even:])
    if dealias:
        return nl_even.dealiased(), nl_odd.dealiased()
    return nl_even, nl_odd


def _full_rhs(kind, even, odd, lam, eps=0.0, dealias=True):
    nl_even, nl_odd = nonlinear_rhs(kind, even, odd, lam, eps, dealias)
    return nl_even - even.derivative(3), nl_odd - odd.derivative(3)


def rhs_modified(v, eta, lam, dealias=True):
    return _full_rhs("modified", v, eta, lam, 0.0, dealias)


def rhs_extended(u, xi, lam, dealias=True):
    return _full_rhs("extended", u, xi, lam, 0.0, dealias)


def rhs_skdv_grassmann(u, xi, lam, dealias=True):
    return _full_rhs("skdv_grassmann", u, xi, lam, 0.0, dealias)


def rhs_gardner(z, sigma, lam, eps, dealias=True):
    return _full_rhs("gardner", z, sigma, lam, eps, dealias)


def rhs_state(state, dealias=True):
    return _full_rhs(state.kind, state.even, state.odd, state.lam,
                     state.epsilon, dealias)


class Trajectory:
    """Recorded states of one run, in strictly increasing time order."""

    def __init__(self, states):
        if not states:
            raise SuperKdVError("empty trajectory")
        self.states = list(states)

    @property
    def times(self):
        return np.array([s.time for s in self.states])

    @property
    def kind(self):
        return self.states[0].kind

    @property
    def lam(self):
        return self.states[0].lam

    @property
    def epsilon(self):
        return self.states[0].epsilon

    @property
    def final(self):
        return self.states[-1]

    def __len__(self):
        return len(self.states)

    def __getitem__(self, i):
        return self.states[i]

    def __iter__(self):
        return iter(self.states)


def stability_limit(grid, scheme, dealias=True):
    """Largest dt the guard accepts for the -f''' dispersion."""
    k_lim = grid.k_max_active if dealias else float(grid.k[-1])
    dt_max = 0.5 / k_lim ** 3
    if scheme == "ifrk4":
        dt_max *= 10.0  # dispersion handled exactly; guard only the nonlinearity
    return dt_max


def integrate(state, dt, steps, scheme="rk4", record_every=1, callback=None,
              force=False, dealias=True):
    """Advance `state` by `steps` fixed steps of size `dt`.

    Returns a Trajectory holding the initial state, every record_every-th
    step, and the final step.  callback(state) runs after every step.
    Raises StabilityError when dt exceeds the guard (unless force=True)
    and NumericalBlowup (carrying the last finite state) when the fields
    stop being finite.
    """
    if dt <= 0:
        raise SuperKdVError("dt must be positive")
    if steps < 1:
        raise SuperKdVError("steps must be >= 1")
    if record_every < 1:
        raise SuperKdVError("record_every must be >= 1")
    if scheme not in ("rk4", "ifrk4"):
        raise SuperKdVError(f"unknown scheme {scheme!r}")
    dt_max = stability_limit(state.grid, scheme, dealias)
    if dt > dt_max and not force:
        raise StabilityError(
            f"dt={dt:g} exceeds the {scheme} dispersion guard {dt_max:g} "
            f"for this grid; reduce dt (or pass force=True)", dt_max)

    kind, lam, eps = state.kind, state.lam, state.epsilon
    grid, desc = state.grid, state.descriptor
    n_even = desc.even_dim
    drop = ~grid.dealias_mask if dealias else np.zeros(grid.N // 2 + 1, bool)
    dispersion = -grid.derivative_symbol(3)  # f_t = -f''' in transform space
    if scheme == "ifrk4":
        # exp(+i k^3 dt/2): exact half-step of f_t = -f'''
        e_half, linear = np.exp(0.5 * dt * dispersion), 0.0
    else:
        e_half, linear = 1.0, dispersion
    e_full = e_half * e_half

    def to_fields(spec):
        data = np.fft.irfft(spec, n=grid.N, axis=-1)
        return EvenField(grid, desc, data[:n_even]), OddField(grid, desc, data[n_even:])

    def rhs(spec, even, odd):
        nl_even, nl_odd = nonlinear_rhs(kind, even, odd, lam, eps, dealias=False)
        k = np.fft.rfft(np.concatenate((nl_even.data, nl_odd.data)), axis=-1)
        k[:, drop] = 0.0
        return k + linear * spec

    # The state lives in transform space as rfft([even; odd]).  Its inverse
    # transform after each step is the record, the callback state, the
    # finite check and the input of the next step's k1.
    spec = np.fft.rfft(np.concatenate((state.even.data, state.odd.data)), axis=-1)
    current = state
    if dealias:
        spec[:, drop] = 0.0
        current = state.replace_fields(*to_fields(spec))
    records = [current]

    # overflow on the way to a detected blow-up is reported as an
    # exception by the finite check below, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for step in range(1, steps + 1):
            try:
                k1 = rhs(spec, current.even, current.odd)
                stage = e_half * (spec + (0.5 * dt) * k1)
                k2 = rhs(stage, *to_fields(stage))
                stage = e_half * spec + (0.5 * dt) * k2
                k3 = rhs(stage, *to_fields(stage))
                e_half_k3 = e_half * k3
                stage = e_full * spec + dt * e_half_k3
                k4 = rhs(stage, *to_fields(stage))
            except NonFiniteFieldError:
                raise NumericalBlowup(
                    f"non-finite values during step {step} (t={current.time + dt:g})",
                    current, step, current.time + dt)
            spec = e_full * spec + (dt / 6.0) * (e_full * k1 + 2.0 * (e_half * k2)
                                                 + 2.0 * e_half_k3 + k4)

            even, odd = to_fields(spec)
            if not (np.all(np.isfinite(even.data)) and np.all(np.isfinite(odd.data))):
                raise NumericalBlowup(
                    f"non-finite values after step {step} (t={current.time + dt:g})",
                    current, step, current.time + dt)
            current = current.replace_fields(even, odd, time=state.time + step * dt)
            if callback is not None:
                callback(current)
            if step % record_every == 0 or step == steps:
                records.append(current)
    return Trajectory(records)


def soliton_profile(grid, kappa, x0, t=0.0):
    """Analytic one-soliton of the xi = 0 sector, wrapped periodically."""
    shift = np.mod(grid.x - x0 - 4.0 * kappa ** 2 * t + grid.L / 2, grid.L) - grid.L / 2
    arg = np.minimum(np.abs(kappa * shift), 350.0)
    return -2.0 * kappa ** 2 / np.cosh(arg) ** 2
