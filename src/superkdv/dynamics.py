"""Right-hand sides of the four evolution systems and fixed-step integrators.

All systems share the linear dispersion -f''' on every field; the
remaining terms are polynomial in the fields and their first two
derivatives.  Signs follow from moving everything but the time derivative
to the right-hand side:

  modified        v_t = -v''' + 6 v^2 v' + 3 L (v [eta', eta])'
                  eta_t = -eta''' + 3 v^2 eta' + 3 v v' eta
                          - L [eta, eta'] eta' - (L/2) [eta, eta''] eta
  extended        u_t = -u''' + 6 u u' + 3 L [xi'', xi]
                  xi_t = -xi''' + 3 (u xi)'
  skdv_grassmann  u_t = -u''' + 6 u u' - 6 L xi xi''   (Grassmann only;
                  identical to extended because [xi'', xi] = -2 xi xi'')
  gardner         z_t = (-z'' + 3 z^2 + 3 L [s', s] + e^2 (2 z^3 + 3 L z [s', s]))'
                  s_t = (-s'' + 3 z s)' + 3 e^2 (z^2 s' + z z' s + L [s', s] s')

with L the coupling and e the Gardner deformation parameter.

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

import numpy as np

from .errors import (NonFiniteFieldError, NumericalBlowup, StabilityError,
                     SuperKdVError)
from .fields import EvenField, OddField

SYSTEM_KINDS = ("modified", "skdv_grassmann", "extended", "gardner")


class SystemState:
    """One snapshot of an evolution run: fields, time and parameters."""

    __slots__ = ("kind", "even", "odd", "time", "lam", "epsilon")

    def __init__(self, kind, even, odd, time=0.0, lam=0.0, epsilon=0.0):
        if kind not in SYSTEM_KINDS:
            raise SuperKdVError(f"unknown system kind {kind!r}")
        if even.grid != odd.grid or even.descriptor != odd.descriptor:
            raise SuperKdVError("even and odd fields must share grid and descriptor")
        if kind == "skdv_grassmann" and even.descriptor.kind != "grassmann":
            raise SuperKdVError("the skdv_grassmann system needs a grassmann backend")
        if epsilon != 0.0 and kind != "gardner":
            raise SuperKdVError("epsilon is a gardner-only parameter")
        self.kind = kind
        self.even = even
        self.odd = odd
        self.time = float(time)
        self.lam = float(lam)
        self.epsilon = float(epsilon)

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


def _nl_modified(v, eta, lam, eps):
    vp = v.derivative(1)
    nl_even = 6.0 * ((v * v) * vp)
    if eta.data.shape[0] and lam != 0.0:
        etap = eta.derivative(1)
        nl_even = nl_even + 3.0 * lam * (v * etap.commutator(eta)).derivative(1)
        nl_odd = (3.0 * ((v * v) * etap) + 3.0 * ((v * vp) * eta)
                  + (-lam) * (eta.commutator(etap) * etap)
                  + (-0.5 * lam) * (eta.commutator(eta.derivative(2)) * eta))
    else:
        etap = eta.derivative(1)
        nl_odd = 3.0 * ((v * v) * etap) + 3.0 * ((v * vp) * eta)
    return nl_even, nl_odd


def _nl_extended(u, xi, lam, eps):
    nl_even = 6.0 * (u * u.derivative(1))
    if xi.data.shape[0] and lam != 0.0:
        nl_even = nl_even + (3.0 * lam) * xi.derivative(2).commutator(xi)
    nl_odd = 3.0 * (u * xi).derivative(1)
    return nl_even, nl_odd


def _nl_skdv(u, xi, lam, eps):
    if u.descriptor.kind != "grassmann":
        raise SuperKdVError("rhs_skdv_grassmann needs a grassmann backend")
    nl_even = 6.0 * (u * u.derivative(1))
    if lam != 0.0:
        nl_even = nl_even + (-6.0 * lam) * xi.odd_mul(xi.derivative(2))
    nl_odd = 3.0 * (u * xi).derivative(1)
    return nl_even, nl_odd


def _nl_gardner(z, sigma, lam, eps):
    zp = z.derivative(1)
    z2 = z * z
    flux = 3.0 * z2
    odd_dim = sigma.data.shape[0]
    if odd_dim and lam != 0.0:
        comm = sigma.derivative(1).commutator(sigma)
        flux = flux + (3.0 * lam) * comm
    if eps != 0.0:
        cubic = 2.0 * (z2 * z)
        if odd_dim and lam != 0.0:
            cubic = cubic + (3.0 * lam) * (z * comm)
        flux = flux + (eps * eps) * cubic
    nl_even = flux.derivative(1)
    nl_odd = (3.0 * (z * sigma)).derivative(1)
    if eps != 0.0:
        sp = sigma.derivative(1)
        extra = (z2 * sp) + ((z * zp) * sigma)
        if odd_dim and lam != 0.0:
            extra = extra + lam * (comm * sp)
        nl_odd = nl_odd + (3.0 * eps * eps) * extra
    return nl_even, nl_odd


_NONLINEAR = {
    "modified": _nl_modified,
    "extended": _nl_extended,
    "skdv_grassmann": _nl_skdv,
    "gardner": _nl_gardner,
}


def nonlinear_rhs(kind, even, odd, lam, eps=0.0, dealias=True):
    """Everything except the -f''' dispersion, dealiased when requested."""
    nl_even, nl_odd = _NONLINEAR[kind](even, odd, lam, eps)
    if dealias:
        nl_even = nl_even.dealiased()
        nl_odd = nl_odd.dealiased()
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
