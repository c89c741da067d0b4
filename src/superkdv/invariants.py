"""Conserved quantities of the flows and drift reports over trajectories.

For the extended system the conserved integrals are H0, H2, H4 and H6,
the quadratures of the densities symbolic.density_poly defines in u and
xi under those labels; conserved_densities evaluates them on the fields.

The modified system conserves the integral of its density h, written
once as symbolic.density_poly("H") with u and xi standing for v and eta;
hamiltonian_density evaluates it.  Under the Miura substitution h reduces
to 1/2 u^2 + L/2 [xi', xi], half the H2 density.

drift_report evaluates every conserved quantity of a trajectory's
system, a set the system fixes and no caller chooses: H0-H6 for
extended, which on a grassmann backend is the N=1 super KdV, int h ("H")
for modified, and H0-H6 of the mapped fields for gardner.  It reports
each quantity's worst relative excursion from its initial value.
"""

import numpy as np

from .algebra import value_norm
from .fields import quadrature
from .symbolic import _Program, density_poly, instantiate
from .transforms import to_extended_trajectory

H_LABELS = ("H0", "H2", "H4", "H6")
DRIFT_FLOOR = 1e-12


def conserved_densities(u, xi, lam):
    """Map label -> EvenField whose quadrature is the conserved quantity,
    for each of H_LABELS."""
    densities = _Program.compile(map(density_poly, H_LABELS), u.grid, u.descriptor, lam)
    return dict(zip(H_LABELS, densities(u, xi)))


def conserved_quantities(u, xi, lam):
    """Map label -> EvenValue, the quadrature of each conserved density."""
    return {label: quadrature(density)
            for label, density in conserved_densities(u, xi, lam).items()}


def hamiltonian_density(v, eta, lam):
    """Conserved density of the modified system."""
    return instantiate(density_poly("H"), v, eta, lam)


def reduced_hamiltonian_density(u, xi, lam):
    """What hamiltonian_density becomes in the extended variables."""
    return 0.5 * instantiate(density_poly("H2"), u, xi, lam)


class ConservedReport:
    """Time series of conserved quantities plus their relative drifts.

    values[label] has shape (records, even_dim); drift[label] is the worst
    max-abs deviation from the initial value, divided by the initial
    value's norm (floored to avoid dividing by an exact zero).
    """

    def __init__(self, kind, times, labels, channel_labels, values):
        self.kind = kind
        self.times = np.asarray(times, dtype=float)
        self.labels = tuple(labels)
        self.channel_labels = tuple(channel_labels)
        self.values = values
        self.drift = {}
        for label in self.labels:
            series = values[label]
            dev = np.max(np.abs(series - series[0]), axis=1, initial=0.0)
            self.drift[label] = float(np.max(dev)
                                      / max(value_norm(series[0]), DRIFT_FLOOR))

    @property
    def max_drift(self):
        return max(self.drift.values())

    def header(self):
        cols = ["time"]
        for label in self.labels:
            cols.extend(f"{label}[{ch}]" for ch in self.channel_labels)
        return cols

    def rows(self):
        for i, t in enumerate(self.times):
            row = [t]
            for label in self.labels:
                row.extend(self.values[label][i])
            yield row

    def __str__(self):
        lines = [f"conserved quantities for the {self.kind} system "
                 f"({len(self.times)} records, t in "
                 f"[{self.times[0]:g}, {self.times[-1]:g}])"]
        for label in self.labels:
            lines.append(f"  {label}: start {value_norm(self.values[label][0]):.6g}"
                         f"  relative drift {self.drift[label]:.3e}")
        return "\n".join(lines)


def _densities(kind, grid, descriptor, lam):
    """drift_report's labels for a run of kind and one program of their densities."""
    labels = ("H",) if kind == "modified" else H_LABELS
    return labels, _Program.compile(map(density_poly, labels), grid, descriptor, lam)


def drift_report(traj):
    """Evaluate the conserved quantities of traj's system at every record
    and report their relative drifts."""
    kind = traj.kind
    if kind == "gardner":  # its H_k are those of the mapped fields
        traj = to_extended_trajectory(traj)
    first = traj[0]
    labels, densities = _densities(kind, first.grid, first.descriptor, traj.lam)
    rows = [[quadrature(density).coords for density in densities(s.even, s.odd)]
            for s in traj]
    return ConservedReport(kind, traj.times, labels, first.descriptor.even_labels,
                           {label: np.array([row[k] for row in rows])
                            for k, label in enumerate(labels)})
