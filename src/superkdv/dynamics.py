"""Right-hand sides of the four evolution systems and fixed-step integrators.

All systems share the linear dispersion -f''' on every field; the
remaining terms are polynomial in the fields and their first two
derivatives.  They are written once, in conservative form D(flux) +
source, as symbolic.nonlinear_terms, with u and xi standing for each
system's own fields: (u, xi) for extended, (z, sigma) for gardner and
(v, eta) for modified.  skdv_grassmann (Grassmann only) is extended with
its 3 L [xi'', xi] written as -6 L xi xi'', one odd_mul op.

The terms are evaluated between spectra, one stacked transform each way
(_SpectralRHS).  One irfft gives the fields and the derivatives the terms
read, taken spectrally as (ik)^a times the field's coefficients; the flux
and source rows are evaluated on those samples; one rfft of [flux;
source], times one precomputed weight, gives ik F + S with the 2/3-rule
mask (Orszag) applied.  The terms that survive at the run's coupling,
their coefficients, derivative orders and rows, and the weight are fixed
once per integrate call, and so are the terms' products: _SpectralRHS is
a symbolic._Program, the one evaluator of polynomials, whose
straight-line steps run over one preallocated stack of sample rows.
Each flux or source part is built by the program's one rule into its
rows: its terms grouped by the factor multiplied last, one
gather-multiply-fold op per group over one product table, after one op
per distinct product inside the groups.  A square such as v v gathers
its product's square table (each unordered pair of channels once), and
on grassmann a bracket gathers one half table, [a, b] = 2ab, so the
modified stage on grassmann:6 gathers 1004 rows where both full tables
would gather 1277.  Each op folds its products as its table's cost rule
picks for the grid (algebra.ProductTable.fold): the small tables of
scalar, grassmann:3 and symplectic through one dense matrix, those of
grassmann:6 at N = 256 per output channel, so that each channel sums
only its own pairs, at most 32, where one dense matrix summed all 183
columns for each of the 32 channels.  A term [eta^(a), eta^(b)] eta^(c) with
c equal to a or b is zero on a backend that proves [q1, q2] q3 totally
antisymmetric, and is not compiled there: the modified odd source's
terms in L [eta, eta'] eta' and L [eta, eta''] eta, and the gardner odd
source's in L [sigma', sigma] sigma'.  So the modified odd source is
3 v^2 eta' + 3 v v' eta, two ops, and no stage samples eta''.

Integration is one fixed-step RK4 loop that keeps the state as the rfft
coefficients of the stacked even and odd fields, so each stage makes one
irfft and one rfft, and the irfft of each new state is also the next
step's first stage: 4 of each per step for every system.  A state is
built only for a step that is recorded or passed to the callback.  The
samples of each new state are checked finite once; the stages are not,
as a NaN in a stage's terms spreads through their rfft into the new
state.  A step that fails the check is replayed from its kept spectrum
with every stage checked, which tells a blow-up during the step from one
after it, and the last finite state is rebuilt from that spectrum.  The ifrk4
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

import numpy as np

from .errors import (NonFiniteFieldError, NumericalBlowup, StabilityError,
                     SuperKdVError, whole_number)
from .fields import EvenField, OddField
from .symbolic import _live_terms, _Program, nonlinear_terms

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
        even._require_compatible(odd)
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


class _SpectralRHS(_Program):
    """The nonlinear terms of one system on one grid and backend at fixed
    lam and eps, as a map from the spectrum y = rfft([even; odd]) to the
    spectrum of D(flux) + source, masked by the 2/3 rule when dealias is set.

    Everything static is made here, once: the terms that do not vanish at
    lam and eps or on the backend (symbolic._live_terms) with their float
    coefficients, the derivative orders they read, the rows some live flux
    or source writes into, and the program (symbolic._Program) that builds
    each live flux and source into its rows over one preallocated stack of
    sample rows.  The stack holds, from the top, the samples `physical`
    makes (one stacked irfft of [y; (ik)^a y_even for each u-order a;
    (ik)^b y_odd for each xi-order b], written into the head), the
    evaluated [flux; source] rows, and one block per product, group and
    combined operand.  A call runs the program and makes one stacked rfft
    of the [flux; source] rows into a buffer made once, which one
    precomputed (rows, modes) weight turns into [ik F; S], masked; k takes
    the flux and source rows of that.  Where [flux; source] is exactly
    [even; odd], as for modified, the rfft is written into k itself and
    weighted there.  Given its k, a call makes no spectrum or sample
    array; only the finite check, which integrate skips, builds its mask.
    """

    def __init__(self, kind, grid, desc, lam, eps=0.0, dealias=True):
        skdv = kind == "skdv_grassmann"
        if skdv and desc.kind != "grassmann":
            raise SuperKdVError("rhs_skdv_grassmann needs a grassmann backend")
        n_even, n_odd = desc.even_dim, desc.odd_dim
        n_rows = n_even + n_odd
        # (even, odd) live terms of the fluxes and of the sources
        flux, source = ([], []), ([], [])
        for power, fluxes, sources in nonlinear_terms("extended" if skdv else kind):
            for parts, polys in ((flux, fluxes), (source, () if skdv else sources)):
                for live, poly in zip(parts, polys):
                    live += _live_terms(poly, lam, desc, eps ** power)
        # extended's 3 L [xi'', xi] as -6 L xi xi'', a plain odd product the
        # bracket-only grammar cannot write
        pair = skdv and lam != 0.0

        # the rows of [even; odd] the live parts cover
        self.flux_rows = slice(0 if flux[0] else n_even, n_rows if flux[1] else n_even)
        self.source_rows = slice(0 if source[0] or pair else n_even,
                                 n_rows if source[1] else n_even)
        self.n_flux = self.flux_rows.stop - self.flux_rows.start
        n_values = self.n_flux + self.source_rows.stop - self.source_rows.start
        # the live terms of the even flux, odd flux, even source and odd
        # source, each with its rows of [flux; source]
        parts = []
        for offset, rows, (even, odd) in ((0, self.flux_rows, flux),
                                          (self.n_flux, self.source_rows, source)):
            split = offset + n_even - rows.start
            parts += [(even, offset, split), (odd, split, offset + rows.stop - rows.start)]

        super().__init__(grid, desc, [term for live, _, _ in parts for term in live],
                         {2} if pair else ())
        values = self._block(n_values)
        # skdv's pair goes into the even source
        extras = [(), (), [("odd_mul", n_even, self.xi_rows[2], -6.0 * lam)] if pair else (),
                  ()]
        for (live, start, stop), extra in zip(parts, extras):
            self._poly(live, values + start, stop - start, extra)
        self.link()
        values = self.placed[values]
        self.values = self.stack[values:values + n_values]
        self.cut = grid.dealias_keep + 1 if dealias else None
        # ik on the flux rows, 1 on the source rows, and the 2/3 mask on both
        self.weight = np.ones((n_values, grid.N // 2 + 1), complex)
        self.weight[:self.n_flux] = grid.derivative_symbol(1)
        if dealias:
            self.weight[:, self.cut:] = 0.0
        # the spectrum of [flux; source] is made in its own buffer unless
        # those rows are exactly [even; odd], when the weighted one is k
        rows = [*range(self.flux_rows.start, self.flux_rows.stop),
                *range(self.source_rows.start, self.source_rows.stop)]
        self.spec = None if rows == list(range(n_rows)) else np.empty_like(self.weight)

    def physical(self, spec):
        """Samples of the fields and of the derivatives the terms read,
        made into the head of the stack, which is returned.  They stay
        valid until the next call."""
        spectra = spec[:, None]  # the batch axis of the one trial
        if self.spectra is not None:
            spectra = self.spectra
            spectra[:self.n_rows] = spec[:, None]
            self._derive(spectra)
        np.fft.irfft(spectra, n=self.grid.N, axis=-1, out=self.samples)
        return self.head

    def __call__(self, out=None, check=True):
        """ik F + S, masked, from the samples the last `physical` call made,
        written into out (a fresh array when out is None), which is
        returned.  With check, non-finite flux or source samples raise
        NonFiniteFieldError; without, they reach the result, as a NaN
        spreads through the rfft into every mode of its rows."""
        self.run()
        if check and not np.isfinite(self.values).all():
            raise NonFiniteFieldError("non-finite samples in the nonlinear terms")
        if self.spec is None:
            k = np.fft.rfft(self.values, axis=-1, out=out)
            k *= self.weight
            return k
        spec = np.fft.rfft(self.values, axis=-1, out=self.spec)
        spec *= self.weight
        n_flux, n_rows = self.n_flux, self.n_rows
        k = np.empty((n_rows, spec.shape[-1]), complex) if out is None else out
        if n_flux == n_rows:
            k[...] = spec[:n_rows]
        else:
            k[...] = 0.0
            k[self.flux_rows] = spec[:n_flux]
        k[self.source_rows] += spec[n_flux:]
        return k


def _rhs(kind, grid, desc, lam, eps, dealias, dispersion, fields):
    """The nonlinear terms, and the dispersion when asked, at each (even,
    odd) pair of fields, as fields: one _SpectralRHS for them all, and per
    pair one stacked rfft, the map and one stacked irfft."""
    nonlinear = _SpectralRHS(kind, grid, desc, lam, eps, dealias)
    for even, odd in fields:
        spec = np.fft.rfft(np.concatenate((even.data, odd.data)), axis=-1)
        nonlinear.physical(spec)
        k = nonlinear()
        if dispersion:
            k -= grid.derivative_symbol(3) * spec
        data = np.fft.irfft(k, n=grid.N, axis=-1)
        yield (EvenField(grid, desc, data[:desc.even_dim]),
               OddField(grid, desc, data[desc.even_dim:]))


def nonlinear_rhs(kind, even, odd, lam, eps=0.0, dealias=True):
    """Everything except the -f''' dispersion, dealiased when requested:
    D(flux) + source from symbolic.nonlinear_terms, through the same
    spectral map the integrator steps with."""
    return next(_rhs(kind, even.grid, even.descriptor, lam, eps, dealias, False,
                     [(even, odd)]))


def _full_rhs(kind, even, odd, lam, eps=0.0, dealias=True):
    return next(_rhs(kind, even.grid, even.descriptor, lam, eps, dealias, True,
                     [(even, odd)]))


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


def rhs_states(states, dealias=True):
    """rhs_state of each of several states of one system, grid, backend,
    lam and eps, as a list, through one _SpectralRHS."""
    def key(s):
        return s.kind, s.grid, s.descriptor, s.lam, s.epsilon

    first = states[0]
    if any(key(s) != key(first) for s in states):
        raise SuperKdVError("states must share system, grid, backend, lam and eps")
    return list(_rhs(first.kind, first.grid, first.descriptor, first.lam,
                     first.epsilon, dealias, True, [(s.even, s.odd) for s in states]))


class Trajectory:
    """Recorded states of one run, in strictly increasing time order.

    Refuses states that are not one run: times that do not strictly
    increase, or a system kind, grid, backend, lam or eps other than the
    first state's."""

    def __init__(self, states):
        self.states = list(states)
        if not self.states:
            raise SuperKdVError("empty trajectory")
        first = self.states[0]
        for previous, state in zip(self.states, self.states[1:]):
            if not state.time > previous.time:
                raise SuperKdVError(f"record times must strictly increase: "
                                    f"{previous.time!r} then {state.time!r}")
            if any(getattr(state, name) != getattr(first, name)
                   for name in ("kind", "grid", "descriptor", "lam", "epsilon")):
                raise SuperKdVError(f"not one run: {state!r} differs from {first!r}")

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
    step, and the final step.  callback(state) runs after every step.  The
    spectra of the state, the stages and the four k's live in buffers made
    once per call, so a step makes no spectrum or sample array beyond the
    states it records.
    Raises StabilityError when dt exceeds the guard (unless force=True),
    SuperKdVError before any step when the recorded times would not
    strictly increase (t + dt rounds to t near a large start time t), and
    NumericalBlowup (carrying the last finite state) when the fields stop
    being finite.
    """
    if not 0 < dt < math.inf:
        raise SuperKdVError(f"dt must be positive and finite, got {dt!r}")
    steps = whole_number("steps", steps)
    record_every = whole_number("record_every", record_every)
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
    # the times the loop gives the recorded steps must strictly increase, as
    # the Trajectory demands; near a large start time they may round equal
    recorded = np.append(np.arange(0, steps, record_every), steps)
    if not (np.diff(state.time + recorded * dt) > 0.0).all():
        raise SuperKdVError(f"dt={dt!r} does not advance the start time {state.time!r} "
                            "from one record to the next")

    grid, desc = state.grid, state.descriptor
    n_even, n_rows = desc.even_dim, desc.even_dim + desc.odd_dim
    nonlinear = _SpectralRHS(state.kind, grid, desc, state.lam, state.epsilon, dealias)
    dispersion = -grid.derivative_symbol(3)  # f_t = -f''' in transform space
    if scheme == "ifrk4":
        # exp(+i k^3 dt/2): exact half-step of f_t = -f'''
        e_half, linear = np.exp(0.5 * dt * dispersion), None
    else:
        e_half, linear = 1.0, dispersion
    e_full = e_half * e_half

    def rhs(spec, k, check):
        # at spec, whose samples the last nonlinear.physical call made
        nonlinear(k, check)
        if linear is not None:
            np.multiply(linear, spec, out=tmp)
            k += tmp

    def advance(spec, new, check):
        # the step from spec, whose samples the last nonlinear.physical
        # call made, into new.  The stages and the step are formed in
        # place, in the stage and tmp buffers and the four k buffers, with
        # the operands of each product and the terms of each sum in the
        # order of the formulas noted beside them
        rhs(spec, k1, check)
        # stage = e_half * (spec + half * k1)
        np.multiply(half, k1, out=stage)
        np.add(spec, stage, out=stage)
        np.multiply(e_half, stage, out=stage)
        nonlinear.physical(stage)
        rhs(stage, k2, check)
        # stage = e_half * spec + half * k2
        np.multiply(e_half, spec, out=stage)
        np.multiply(half, k2, out=tmp)
        np.add(stage, tmp, out=stage)
        nonlinear.physical(stage)
        rhs(stage, k3, check)
        # k3 = e_half * k3; stage = e_full * spec + dt * k3
        np.multiply(e_half, k3, out=k3)
        np.multiply(e_full, spec, out=stage)
        np.multiply(dt, k3, out=tmp)
        np.add(stage, tmp, out=stage)
        nonlinear.physical(stage)
        rhs(stage, k4, check)
        # new = e_full * spec + sixth * (e_full * k1 + 2.0 * (e_half * k2)
        #                                + 2.0 * k3 + k4)
        np.multiply(e_full, k1, out=k1)
        np.multiply(e_half, k2, out=k2)
        np.multiply(2.0, k2, out=k2)
        np.add(k1, k2, out=k1)
        np.multiply(2.0, k3, out=k3)
        np.add(k1, k3, out=k1)
        np.add(k1, k4, out=k1)
        np.multiply(sixth, k1, out=k1)
        np.multiply(e_full, spec, out=stage)
        np.add(stage, k1, out=new)

    def at(phys, time):
        # the state whose samples are phys; copies, so that recorded states
        # do not hold the derivative rows
        return state.replace_fields(EvenField(grid, desc, phys[:n_even].copy()),
                                    OddField(grid, desc, phys[n_even:n_rows].copy()), time)

    def blowup(spec, new, step):
        # step went from spec, finite, to new, not: replay it from spec
        # into new with every stage checked, which tells a non-finite stage
        # (during the step) from a non-finite sum of finite ones (after).
        # The last finite state is the one before step, rebuilt from spec,
        # as no state is built for a step nothing reads
        nonlinear.physical(spec)
        try:
            advance(spec, new, True)
            when = "after"
        except NonFiniteFieldError:
            when = "during"
        last = at(nonlinear.physical(spec), state.time + (step - 1) * dt) if step > 1 else first
        return NumericalBlowup(f"non-finite values {when} step {step} (t={last.time + dt:g})",
                               last, step, last.time + dt)

    # The state lives in transform space as rfft([even; odd]).  The stacked
    # inverse transform after each step gives the finite check, the record
    # and the callback state, and with its derivative rows it is the
    # samples of the next step's k1.
    spec = np.fft.rfft(np.concatenate((state.even.data, state.odd.data)), axis=-1)
    if dealias:
        spec[:, nonlinear.cut:] = 0.0
    phys = nonlinear.physical(spec)
    first = at(phys, None) if dealias else state
    records = [first]

    # Each step writes the new spectrum into `previous` and swaps the two.
    stage, tmp, previous = np.empty_like(spec), np.empty_like(spec), np.empty_like(spec)
    k1, k2, k3, k4 = np.empty((4,) + spec.shape, complex)
    half, sixth = 0.5 * dt, dt / 6.0

    # The stages are not checked: a non-finite stage makes the new spectrum
    # non-finite, so the one finite check of the new state's samples sees
    # it, and blowup replays that step to tell when.  Overflow on the way to
    # a blow-up is reported by that check, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for step in range(1, steps + 1):
            advance(spec, previous, False)
            spec, previous = previous, spec
            phys = nonlinear.physical(spec)
            if not np.isfinite(phys[:n_rows]).all():
                raise blowup(previous, spec, step)
            record = step % record_every == 0 or step == steps
            if record or callback is not None:
                current = at(phys, state.time + step * dt)
                if callback is not None:
                    callback(current)
                if record:
                    records.append(current)
    return Trajectory(records)


def soliton_profile(grid, kappa, x0, t=0.0):
    """Analytic one-soliton of the xi = 0 sector, wrapped periodically."""
    shift = np.mod(grid.x - x0 - 4.0 * kappa ** 2 * t + grid.L / 2, grid.L) - grid.L / 2
    arg = np.minimum(np.abs(kappa * shift), 350.0)
    return -2.0 * kappa ** 2 / np.cosh(arg) ** 2
