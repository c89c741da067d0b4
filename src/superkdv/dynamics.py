"""Right-hand sides of the three evolution systems and fixed-step integrators.

All systems share the linear dispersion -f''' on every field; the
remaining terms are polynomial in the fields and their first two
derivatives.  They are written once, in conservative form D(flux) +
source, as symbolic.nonlinear_terms, with u and xi standing for each
system's own fields: (u, xi) for extended, (z, sigma) for gardner and
(v, eta) for modified; a system is its texts and nothing beside them.
The N=1 super KdV is extended on a grassmann backend, where
3 L [xi'', xi] = -6 L xi xi''; rhs_skdv_grassmann writes it that way, by
field arithmetic, as an independent check of the compiled one.

The terms are evaluated between spectra, one stacked transform each way
(_SpectralRHS).  One irfft gives the fields and the derivatives the terms
read, taken spectrally as (ik)^a times the field's coefficients; the flux
and source rows are evaluated on those samples; one rfft of [flux;
source], times one precomputed weight, gives ik F + S with the 2/3-rule
mask (Orszag) applied.  The terms that survive at the run's coupling,
their coefficients, derivative orders and rows, and the weight are fixed
once per integrate call, and so are the terms' products: _SpectralRHS is
a symbolic._Program, the one evaluator of polynomials, which runs as one
flat list of numpy calls bound to one preallocated stack of sample rows.
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
only its own pairs, at most 32 of the table's 183 columns.  A term
[eta^(a), eta^(b)] eta^(c) with c equal to a or b is zero on a backend
that proves [q1, q2] q3 totally antisymmetric, and is not compiled
there: the modified odd source's terms in L [eta, eta'] eta' and
L [eta, eta''] eta, and the gardner odd source's in L [sigma', sigma]
sigma'.  So the modified odd source is 3 v^2 eta' + 3 v v' eta, two ops,
and no stage samples eta''.

Integration is one fixed-step RK4 loop that keeps the state as the rfft
coefficients of the stacked even and odd fields, so each stage makes one
irfft and one rfft, and the irfft of each new state is also the next
step's first stage: 4 of each per step for every system.  A step is one
flat list of bound numpy calls, each (function, arguments), made once per
integrate call (_RK4Step) for each of the two spectrum buffers a step
writes into in turn.  Per stage it holds the stage's formation, its
samples (the copy and derivative multiplies into the program's spectra,
the irfft into its head), the program's calls, the rfft and weight into
its k and, for rk4, the dispersion term: 38 calls for scalar extended
with ifrk4.  A state is built only for a step that is recorded.  The
samples of each new state are checked finite once; the stages are not,
as a NaN in a stage's terms spreads through their rfft into the new
state.  A step that fails the check is replayed from its kept spectrum by
a list from the same builder that checks each stage, which tells a
blow-up during the step from one after it, and the last finite state is
rebuilt from that spectrum.  The dispersion is written once, as
_SpectralRHS.linear = -(ik)^3.  The ifrk4 scheme is the Lawson
integrating-factor form: it advances the -f''' term exactly with the
factors exp(i k^3 dt/2) and exp(i k^3 dt).  Classical rk4 is the same
loop with unit factors, each stage adding linear times its spectrum into
k by the calls the standalone right-hand sides make.  Every run is
dealiased by the 2/3 rule: modes above grid.dealias_keep are cut from
the initial state and from every nonlinear evaluation, so no active mode
ever exceeds k_lim = grid.k_max_active, and a stability guard rejects dt
beyond 0.5/k_lim^3 (10x relaxed for ifrk4).
"""

import numpy as np

from . import fields
from .algebra import run_calls
from .errors import (NonFiniteFieldError, NumericalBlowup, StabilityError,
                     SuperKdVError, finite_number)
from .fields import EvenField, OddField
from .symbolic import _live_terms, _Program, nonlinear_terms

# the analytic soliton the xi = 0 runs are measured against; its home is
# fields, and it is bound here too, where perfbench's tracer wraps it
soliton_profile = fields.soliton_profile

SYSTEM_KINDS = ("modified", "extended", "gardner")
_ONE_RUN = ("kind", "grid", "descriptor", "lam", "epsilon")  # what the states of a run share


class SystemState:
    """One snapshot of an evolution run: fields, time and parameters."""

    __slots__ = ("kind", "even", "odd", "time", "lam", "epsilon")

    def __init__(self, kind, even, odd, time=0.0, lam=0.0, epsilon=0.0):
        if kind not in SYSTEM_KINDS:
            raise SuperKdVError(f"unknown system kind {kind!r}")
        time, lam = finite_number("time", time), finite_number("lam", lam)
        epsilon = finite_number("epsilon", epsilon)
        even._require_compatible(odd)
        if epsilon != 0.0 and kind != "gardner":
            raise SuperKdVError("epsilon is a gardner-only parameter")
        self.kind, self.even, self.odd = kind, even, odd
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
    """The right-hand side of one system on one grid and backend at fixed
    lam and eps, as a map from the spectrum y = rfft([even; odd]) to the
    spectrum of D(flux) + source, masked by the 2/3 rule, and, when asked,
    the dispersion: the package's one numeric -f''', `linear` = -(ik)^3.

    Everything static is made here, once: the terms that do not vanish at
    lam and eps or on the backend (symbolic._live_terms) with their float
    coefficients, the derivative orders they read, the rows some live flux
    or source writes into, and the program (symbolic._Program) that builds
    each live flux and source into its rows over one preallocated stack of
    sample rows.  The stack holds, from the top, the samples
    `physical_calls` make (one stacked irfft of [y; (ik)^a y_even for each
    u-order a; (ik)^b y_odd for each xi-order b], written into the head),
    the evaluated [flux; source] rows, and one block per product, group and
    combined operand.  `calls_into` runs the program and makes one stacked
    rfft of the [flux; source] rows into a buffer made once, which one
    precomputed (rows, modes) weight turns into [ik F; S], masked; k takes
    the flux and source rows of that and, when asked, linear y made in the
    `scratch` rows.  Where [flux; source] is [even; odd], as for modified,
    the rfft is written into k itself and weighted there.  These two lists
    of calls build every right-hand side, with no array but the mask of
    the finite check.
    """

    def __init__(self, kind, grid, desc, lam, eps=0.0):
        n_even, n_rows = desc.even_dim, desc.even_dim + desc.odd_dim
        # (even, odd) live terms of the fluxes and of the sources
        flux, source = ([], []), ([], [])
        for power, fluxes, sources in nonlinear_terms(kind):
            for parts, polys in ((flux, fluxes), (source, sources)):
                for live, poly in zip(parts, polys):
                    live += _live_terms(poly, lam, desc, eps, power)

        # the rows of [even; odd] the live parts cover
        self.flux_rows = slice(0 if flux[0] else n_even, n_rows if flux[1] else n_even)
        self.source_rows = slice(0 if source[0] else n_even, n_rows if source[1] else n_even)
        self.n_flux = self.flux_rows.stop - self.flux_rows.start
        n_values = self.n_flux + self.source_rows.stop - self.source_rows.start
        # the live terms of the even flux, odd flux, even source and odd
        # source, each with its rows of [flux; source]
        parts = []
        for offset, rows, (even, odd) in ((0, self.flux_rows, flux),
                                          (self.n_flux, self.source_rows, source)):
            split = offset + n_even - rows.start
            parts += [(even, offset, split), (odd, split, offset + rows.stop - rows.start)]

        super().__init__(grid, desc, [term for live, _, _ in parts for term in live])
        values = self._block(n_values)
        for live, start, stop in parts:
            self._poly(live, values + start, stop - start)
        self.link()
        values = self.placed[values]
        self.values = self.stack[values:values + n_values]
        # ik on the flux rows, 1 on the source rows, and the 2/3 mask on both
        self.weight = np.ones((n_values, grid.N // 2 + 1), complex)
        self.weight[:self.n_flux] = grid.derivative_symbol(1)
        self.weight[:, grid.dealias_keep + 1:] = 0.0
        # the spectrum of [flux; source] is made in its own buffer unless
        # those rows are exactly [even; odd], when the weighted one is k
        rows = [*range(self.flux_rows.start, self.flux_rows.stop),
                *range(self.source_rows.start, self.source_rows.stop)]
        self.spec = None if rows == list(range(n_rows)) else np.empty_like(self.weight)
        self.linear = -grid.derivative_symbol(3)  # f_t = -f''' in transform space
        self.scratch = np.empty((n_rows, len(self.linear)), complex)

    def physical_calls(self, spec):
        """The calls that make the samples at the spectrum spec in the head:
        spec copied into the spectra, the derivative rows, one irfft."""
        if self.spectra is None:
            return [(self.grid.irfft, (spec, self.head))]
        return [(np.copyto, (self.spectra[:self.n_rows], spec)),
                *self._derivative_calls(self.spectra),
                (self.grid.irfft, (self.spectra, self.head))]

    def calls_into(self, k, check, spec=None):
        """The calls that write ik F + S, masked, plus linear spec when given
        spec, into k from the samples in the head.  With check, non-finite
        flux or source samples raise NonFiniteFieldError; without, they reach
        k, as a NaN spreads through the rfft into every mode of its rows."""
        calls = list(self.calls)
        if check:
            calls.append((_require_finite, (self.values,)))
        out = k if self.spec is None else self.spec
        calls += [(self.grid.rfft, (self.values, out)), (np.multiply, (out, self.weight, out))]
        if self.spec is not None:
            n_flux, sources = self.n_flux, k[self.source_rows]
            if n_flux < self.n_rows:
                calls.append((k.fill, (0.0,)))
            calls.append((np.copyto, (k[self.flux_rows], out[:n_flux])))
            if n_flux < len(out):
                calls.append((np.add, (sources, out[n_flux:], sources)))
        if spec is not None:
            calls += [(np.multiply, (self.linear, spec, self.scratch)),
                      (np.add, (k, self.scratch, k))]
        return calls


def _require_finite(values):
    if not np.isfinite(values).all():
        raise NonFiniteFieldError("non-finite samples in the nonlinear terms")


def _rhs(kind, grid, desc, lam, eps, dispersion, fields):
    """The nonlinear terms, and the dispersion when asked, at each (even,
    odd) pair of fields: per pair one rfft, the two lists of calls of one
    _SpectralRHS for them all, and one irfft, into fresh fields."""
    nonlinear = _SpectralRHS(kind, grid, desc, lam, eps)
    for even, odd in fields:
        spec = grid.rfft(np.concatenate((even.data, odd.data)))
        k = np.empty_like(spec)
        run_calls(nonlinear.physical_calls(spec)
                  + nonlinear.calls_into(k, True, spec if dispersion else None))
        data = grid.irfft(k)
        yield (EvenField(grid, desc, data[:desc.even_dim]),
               OddField(grid, desc, data[desc.even_dim:]))


def nonlinear_rhs(kind, even, odd, lam, eps=0.0):
    """Everything except the -f''' dispersion, dealiased by the 2/3 rule:
    D(flux) + source from symbolic.nonlinear_terms, through the same
    spectral map the integrator steps with."""
    return next(_rhs(kind, even.grid, even.descriptor, lam, eps, False, [(even, odd)]))


def _full_rhs(kind, even, odd, lam, eps=0.0):
    return next(_rhs(kind, even.grid, even.descriptor, lam, eps, True, [(even, odd)]))


def rhs_modified(v, eta, lam):
    return _full_rhs("modified", v, eta, lam)


def rhs_extended(u, xi, lam):
    return _full_rhs("extended", u, xi, lam)


def rhs_skdv_grassmann(u, xi, lam):
    """The N=1 super KdV right-hand side (Mathieu 1988) by field
    arithmetic, with no compiled program: extended's at lam = 0 plus
    -6 L xi xi'', its 3 L [xi'', xi] written with the odd product, which
    only the grassmann backend has (GradingError elsewhere), and
    dealiased by the 2/3 rule as every right-hand side is.  There
    [a, b] = 2ab, so it is the extended right-hand side."""
    pair = (-6.0 * lam) * xi.odd_mul(xi.derivative(2))
    even, odd = rhs_extended(u, xi, 0.0)
    return even + pair.dealiased(), odd


def rhs_gardner(z, sigma, lam, eps):
    return _full_rhs("gardner", z, sigma, lam, eps)


def rhs_state(state):
    return _full_rhs(state.kind, state.even, state.odd, state.lam, state.epsilon)


def rhs_states(states):
    """rhs_state of each of several states of one system, grid, backend,
    lam and eps, as a list, through one _SpectralRHS."""
    first = states[0]
    if any(getattr(s, name) != getattr(first, name) for s in states for name in _ONE_RUN):
        raise SuperKdVError("states must share system, grid, backend, lam and eps")
    return list(_rhs(first.kind, first.grid, first.descriptor, first.lam,
                     first.epsilon, True, [(s.even, s.odd) for s in states]))


class Trajectory:
    """Recorded states of one run, in strictly increasing time order.

    Refuses states that are not one run: times that do not strictly
    increase, or a system kind, grid, backend, lam or eps other than the
    first state's.  The states are a tuple; `replaced` builds an altered
    trajectory through the same check."""

    def __init__(self, states):
        self.states = tuple(states)
        if not self.states:
            raise SuperKdVError("empty trajectory")
        first = self.states[0]
        for previous, state in zip(self.states, self.states[1:]):
            if not state.time > previous.time:
                raise SuperKdVError(f"record times must strictly increase: "
                                    f"{previous.time!r} then {state.time!r}")
            if any(getattr(state, name) != getattr(first, name) for name in _ONE_RUN):
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

    def replaced(self, i, state):
        """A trajectory with record i replaced by state, refused as the
        constructor refuses records that are not one run."""
        states = list(self.states)
        states[i] = state
        return Trajectory(states)

    def __len__(self):
        return len(self.states)

    def __getitem__(self, i):
        return self.states[i]

    def __iter__(self):
        return iter(self.states)


def stability_limit(grid, scheme):
    """Largest dt the guard accepts for the -f''' dispersion on the modes
    the 2/3 rule keeps."""
    dt_max = 0.5 / grid.k_max_active ** 3
    if scheme == "ifrk4":
        dt_max *= 10.0  # dispersion handled exactly; guard only the nonlinearity
    return dt_max


def integrate(state, dt, steps, scheme="rk4", record_every=1, force=False):
    """Advance `state` by `steps` fixed steps of size `dt`, dealiased by
    the 2/3 rule.

    Returns a Trajectory holding the initial state with its modes above
    grid.dealias_keep cut, every record_every-th step, and the final step.
    The spectra of the state, the stages and the four k's live in buffers
    made once per call, so a step makes no spectrum or sample array beyond
    the states it records.
    Raises StabilityError when dt exceeds the guard (unless force=True),
    SuperKdVError before any step when the recorded times would not
    strictly increase (t + dt rounds to t near a large start time t),
    NonFiniteFieldError before any step when the initial fields are not
    finite, and NumericalBlowup (carrying the last finite state) when the
    fields stop being finite.
    """
    dt = finite_number("dt", dt)
    steps = finite_number("steps", steps, int)
    record_every = finite_number("record_every", record_every, int)
    if dt <= 0:
        raise SuperKdVError(f"dt must be positive, got {dt!r}")
    if steps < 1:
        raise SuperKdVError("steps must be >= 1")
    if record_every < 1:
        raise SuperKdVError("record_every must be >= 1")
    if scheme not in ("rk4", "ifrk4"):
        raise SuperKdVError(f"unknown scheme {scheme!r}")
    if not (np.isfinite(state.even.data).all() and np.isfinite(state.odd.data).all()):
        raise NonFiniteFieldError("the initial state is not finite")
    dt_max = stability_limit(state.grid, scheme)
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
    nonlinear = _SpectralRHS(state.kind, grid, desc, state.lam, state.epsilon)
    step_calls = _RK4Step(nonlinear, dt, scheme)
    phys = nonlinear.head

    def at(time):
        # the state whose samples the head holds; copies, so that recorded
        # states do not hold the derivative rows
        return state.replace_fields(EvenField(grid, desc, phys[:n_even].copy()),
                                    OddField(grid, desc, phys[n_even:n_rows].copy()), time)

    def blowup(spec, new, step):
        # step went from spec, finite, to new, not: replay it from spec
        # into new with every stage checked, which tells a non-finite stage
        # (during the step) from a non-finite sum of finite ones (after).
        # The last finite state is the one before step, rebuilt from spec,
        # as no state is built for a step nothing reads
        run_calls(nonlinear.physical_calls(spec))
        try:
            run_calls(step_calls(spec, new, check=True))
            when = "after"
        except NonFiniteFieldError:
            when = "during"
        run_calls(nonlinear.physical_calls(spec))
        last = at(state.time + (step - 1) * dt) if step > 1 else first
        return NumericalBlowup(f"non-finite values {when} step {step} (t={last.time + dt:g})",
                               last, step, last.time + dt)

    # The state lives in transform space as rfft([even; odd]).  The stacked
    # inverse transform after each step gives the finite check and the
    # record, and with its derivative rows it is the samples of the next
    # step's k1.
    spec = grid.rfft(np.concatenate((state.even.data, state.odd.data)))
    spec[:, grid.dealias_keep + 1:] = 0.0
    run_calls(nonlinear.physical_calls(spec))
    first = at(None)
    records = [first]

    # A step writes the new spectrum into the other of two buffers, so the
    # steps alternate between two lists of calls, each made once
    buffers = (spec, np.empty_like(spec))
    steps_calls = (step_calls(*buffers), step_calls(*buffers[::-1]))

    # The stages are not checked: a non-finite stage makes the new spectrum
    # non-finite, so the one finite check of the new state's samples sees
    # it, and blowup replays that step to tell when.  Overflow on the way to
    # a blow-up is reported by that check, not as a numpy warning
    with np.errstate(over="ignore", invalid="ignore", under="ignore"):
        for step in range(1, steps + 1):
            for function, args in steps_calls[1 - step % 2]:
                function(*args)
            if not np.isfinite(phys[:n_rows]).all():
                raise blowup(buffers[1 - step % 2], buffers[step % 2], step)
            if step % record_every == 0 or step == steps:
                records.append(at(state.time + step * dt))
    return Trajectory(records)


class _RK4Step:
    """integrate's RK4 step, made once per call: called with the spectrum
    buffers spec, whose samples the head of the _SpectralRHS `nonlinear`
    holds, and new, it gives the step from spec into new, and new's
    samples, as one flat list of bound calls.  The dispersion is the
    map's linear: ifrk4's factors are its exponentials; rk4's calls_into
    adds it.  The stages are formed in buffers made here and in the map's
    scratch rows, the operands of each product and the terms of each sum
    in the order of the formulas noted beside them.  With check, each
    stage's flux and source samples are checked finite."""

    def __init__(self, nonlinear, dt, scheme):
        self.nonlinear, self.dt, self.rk4 = nonlinear, dt, scheme == "rk4"
        # ifrk4: exp(+i k^3 dt/2), the exact half-step of f_t = -f'''
        self.e_half = 1.0 if self.rk4 else np.exp(0.5 * dt * nonlinear.linear)
        self.e_full = self.e_half * self.e_half
        # 2 (e_half k2) as one product: scaling by 2 commutes with rounding
        self.e_twice = 2.0 * self.e_half
        self.stage, self.full, *self.k = np.empty((6, *nonlinear.scratch.shape), complex)

    def __call__(self, spec, new, check=False):
        stage, tmp, full, (k1, k2, k3, k4) = self.stage, self.nonlinear.scratch, self.full, self.k
        e_half, e_full, dt = self.e_half, self.e_full, self.dt
        half, physical = 0.5 * dt, self.nonlinear.physical_calls
        multiply, add, rhs = np.multiply, np.add, self.nonlinear.calls_into
        # rk4 adds the dispersion at spec into k1 and at stage into k2 to k4
        at_spec, at_stage = (spec, stage) if self.rk4 else (None, None)
        return [
            *rhs(k1, check, at_spec),
            # stage = e_half * (spec + half * k1)
            (multiply, (half, k1, stage)), (add, (spec, stage, stage)),
            (multiply, (e_half, stage, stage)),
            *physical(stage), *rhs(k2, check, at_stage),
            # stage = e_half * spec + half * k2
            (multiply, (e_half, spec, stage)), (multiply, (half, k2, tmp)),
            (add, (stage, tmp, stage)),
            *physical(stage), *rhs(k3, check, at_stage),
            # k3 = e_half * k3; full = e_full * spec; stage = full + dt * k3
            (multiply, (e_half, k3, k3)), (multiply, (e_full, spec, full)),
            (multiply, (dt, k3, tmp)), (add, (full, tmp, stage)),
            *physical(stage), *rhs(k4, check, at_stage),
            # new = full + sixth * (e_full * k1 + e_twice * k2 + 2.0 * k3 + k4)
            (multiply, (e_full, k1, k1)), (multiply, (self.e_twice, k2, k2)),
            (add, (k1, k2, k1)), (multiply, (2.0, k3, k3)), (add, (k1, k3, k1)),
            (add, (k1, k4, k1)), (multiply, (dt / 6.0, k1, k1)), (add, (full, k1, new)),
            *physical(new)]

