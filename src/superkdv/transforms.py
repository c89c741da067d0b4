"""Maps between the evolution systems and the supersymmetry generator.

The Miura map u = v' + v^2 - L [eta, eta'], xi = eta' + v eta sends
solutions of the modified system to solutions of the extended one, and

  u  = z + e z' + e^2 (z^2 + L [s', s])
  xi = s + e s' + e^2 z s

does the same for the deformed (gardner) system at deformation e.  Both
facts are checked numerically here by comparing a centered time
difference of the mapped trajectory against the extended right-hand side.
miura and gardner_map evaluate these maps from symbolic.map_terms, where u
and xi stand for the source fields (v, eta) and (z, s), and a trajectory
is mapped through one compiled map; the inverse of the gardner map sums
the series in e of symbolic.gardner_coefficients.

The supersymmetry generator with constant odd parameter p is

  du = L [p, xi'],    dxi = u p,

a linear map on states that commutes with the extended flow.
"""

import numpy as np

from .dynamics import SystemState, Trajectory, integrate, rhs_states
from .errors import SuperKdVError, finite_number, term_coefficient
from .fields import OddField
from .symbolic import DiffPolynomial, _Program, gardner_coefficients, map_terms


def _series_program(terms, grid, descriptor, lam, eps):
    """The sums over the (power, (even poly, odd poly)) pairs of eps^power
    times each polynomial, compiled in one program."""
    images = [DiffPolynomial(), DiffPolynomial()]
    for power, polys in terms:
        weight = term_coefficient(1, 1.0, 0, eps, power)
        for k, poly in enumerate(polys):
            for c in poly.terms.values():  # c eps^power past the floats is refused
                term_coefficient(c, 1.0, 0, eps, power)
            images[k] = images[k] + (poly if weight == 1.0 else poly.scaled(weight))
    return _Program.compile(images, grid, descriptor, lam)


def _series(terms, even, odd, lam, eps):
    """The values of _series_program's sums at the fields (even, odd)."""
    u, xi = _series_program(terms, even.grid, even.descriptor, lam, eps)(even, odd)
    return u, xi


def miura(v, eta, lam):
    """Image (u, xi) of modified-system fields under the Miura substitution."""
    return _series(map_terms("miura"), v, eta, lam, 0.0)


def gardner_map(z, sigma, lam, eps):
    """Image (u, xi) of deformed-system fields at deformation eps."""
    return _series(map_terms("gardner"), z, sigma, lam, eps)


def inverse_gardner_series(u, xi, lam, eps, order=8):
    """Invert the gardner map as a power series in eps, truncated at the
    given order (at most 10): z = sum eps^n z_n and sigma = sum eps^n s_n
    over the symbolic coefficients (z_n, s_n).  The residual of the round
    trip is O(eps^(order+1))."""
    if finite_number("order", order, int) < 0:
        raise SuperKdVError("series order must be >= 0")
    return _series(enumerate(gardner_coefficients(order)), u, xi, lam, eps)


def _constant_odd_field(grid, param):
    data = np.repeat(np.asarray(param.coords, dtype=float)[:, None], grid.N, axis=1)
    return OddField(grid, param.descriptor, data)


def susy_variation(u, xi, param, lam):
    """Supersymmetry generator: du = L [p, xi'], dxi = u p.

    param is a constant odd element (an OddValue).
    """
    pf = _constant_odd_field(u.grid, param)
    return lam * pf.commutator(xi.derivative(1)), u * pf


def _to_extended(states):
    """States of one system, grid, backend, lam and eps mapped onto
    extended-system fields, through one compiled map."""
    first = states[0]
    if first.kind in ("modified", "gardner"):
        program = _series_program(map_terms("miura" if first.kind == "modified" else "gardner"),
                                  first.grid, first.descriptor, first.lam, first.epsilon)
        images = [program(s.even, s.odd) for s in states]
    else:
        images = [(s.even, s.odd) for s in states]
    return [SystemState("extended", u, xi, s.time, s.lam) for s, (u, xi) in zip(states, images)]


def to_extended(state):
    """Map one state of any system onto extended-system fields."""
    return _to_extended([state])[0]


def to_extended_trajectory(traj):
    return Trajectory(_to_extended(traj.states))


def fd_flow_residual(traj):
    """How well the recorded states solve their own system.

    Compares a fourth-order centered time difference of the records
    against the right-hand side at interior records, and returns the
    worst sample deviation relative to the largest right-hand side.
    Needs at least five uniformly spaced records.  A non-finite deviation
    makes the result NaN.

    Each record is first projected onto the band the dealiased flow
    retains: a record mapped from another system (the
    Miura and gardner maps are quadratic) carries modes above that band,
    which no dealiased flow evolves.
    """
    times = traj.times
    if len(times) < 5:
        raise SuperKdVError("need at least five records for the time difference")
    spacing = np.diff(times)
    delta = spacing[0]
    if np.max(np.abs(spacing - delta)) > 1e-9 * max(delta, 1e-12):
        raise SuperKdVError("records are not uniformly spaced in time")
    records = [s.replace_fields(s.even.dealiased(), s.odd.dealiased())
               for s in traj]
    worst = 0.0
    scale = 1e-12
    for i, (re, ro) in enumerate(rhs_states(records[2:-2]), start=2):
        scale = max(scale, re.norm(), ro.norm())
        for part in ("even", "odd"):
            f = [getattr(records[j], part).data for j in range(i - 2, i + 3)]
            fd = (-f[4] + 8.0 * f[3] - 8.0 * f[1] + f[0]) / (12.0 * delta)
            rhs = re.data if part == "even" else ro.data
            if fd.size:
                # np.maximum keeps a NaN deviation, which max() would drop
                worst = float(np.maximum(worst, np.max(np.abs(fd - rhs))))
    return worst / scale


def flow_commutation_defect(state, param, dt, steps, scheme="rk4"):
    """Norm of (flow then susy) minus (susy then flow), relative to the
    evolved fields.  Exact commutation gives pure roundoff here."""
    du, dxi = susy_variation(state.even, state.odd, param, state.lam)
    shifted = state.replace_fields(state.even + du, state.odd + dxi)
    a = integrate(shifted, dt, steps, scheme=scheme, record_every=steps).final
    b = integrate(state, dt, steps, scheme=scheme, record_every=steps).final
    du_b, dxi_b = susy_variation(b.even, b.odd, param, state.lam)
    defect = max(np.max(np.abs(a.even.data - (b.even + du_b).data), initial=0.0),
                 np.max(np.abs(a.odd.data - (b.odd + dxi_b).data), initial=0.0))
    scale = max(b.even.norm(), b.odd.norm(), 1.0)
    return float(defect) / scale
