"""The benchmark's four workloads: configuration, set-up, one repetition and
the correctness gate that repetition must pass.

Each workload calls only the public API of ``superkdv`` (imported from the
checkout's ``src/``).  ``setup(seed)`` does what a user pays once before the
first step and returns the inputs; ``repetition(inputs)`` does the timed
work and returns a ``Gate``.  A repetition fails when its gate fails or when
it raises.  The benchmark runs each repetition in a fresh child process, so
every repetition repeats the same inputs cold; a gate's fingerprint says
which output bytes must then come out identical.
"""

import contextlib
import hashlib
import io
import json
import os
import shutil
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# Scratch space for run directories and trace files; listed in .gitignore.
WORK = ROOT / ".perfbench"

if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

# Functions are looked up on the package at call time, so that the tracer's
# wrappers see the benchmark's own calls too.
import superkdv as skdv  # noqa: E402
import superkdv.cli  # noqa: E402,F401  (binds skdv.cli)


class Gate:
    """Outcome of one repetition's correctness check.  ``fingerprint`` is a
    digest of the repetition's output: every repetition of a run has the same
    inputs, so it must have the same fingerprint as the first."""

    def __init__(self, ok, fingerprint=None, **values):
        self.ok = bool(ok)
        self.fingerprint = fingerprint
        self.values = values

    def __repr__(self):
        return f"Gate({'pass' if self.ok else 'FAIL'}, {self.values})"


def _build(ic, N, algebra, kind, lam):
    """Grid, initial condition, state and the first algebra table."""
    grid = skdv.PeriodicGrid(40.0, N)
    desc = skdv.AlgebraDescriptor.from_string(algebra)
    even, odd = skdv.build_initial_condition(ic, grid, desc)
    skdv.get_algebra(desc)
    return skdv.SystemState(kind, even, odd, lam=lam)


def _sha(*arrays):
    h = hashlib.sha256()
    for a in arrays:
        h.update(np.ascontiguousarray(a).tobytes())
    return h.hexdigest()


def _quiet_main(argv):
    """superkdv.cli.main with its stdout and stderr captured."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = skdv.cli.main(argv)
    return code, out.getvalue()


class SolitonScalar:
    """One-soliton transport on the scalar backend: FFTs and Field
    temporaries dominate, products are 1-term tables, no I/O."""

    name = "soliton_scalar"
    TOL = 1e-10  # measured L-infinity error: 2.0e-12 at t=0.2

    def __init__(self, steps=2000, ref_kappa=None):
        self.steps = steps
        self.kappa = 1.0
        # the gate compares against this kappa; a wrong one must fail it
        self.ref_kappa = self.kappa if ref_kappa is None else ref_kappa
        self.dt = 1e-4
        self.config = {"system": "extended", "algebra": "scalar", "N": 512,
                       "L": 40.0, "dt": self.dt, "steps": steps,
                       "scheme": "ifrk4", "lambda": 0.0,
                       "ic": "soliton(kappa=1,x0=20+U(-2,2) from seed)"}

    def setup(self, seed):
        x0 = 20.0 + float(np.random.default_rng(seed).uniform(-2.0, 2.0))
        state = _build(f"soliton(kappa={self.kappa},x0={x0!r})", 512, "scalar",
                       "extended", 0.0)
        return state, x0

    def repetition(self, inputs):
        state, x0 = inputs
        traj = skdv.integrate(state, self.dt, self.steps, scheme="ifrk4",
                              record_every=self.steps)
        final = traj.final
        ref = skdv.soliton_profile(final.grid, self.ref_kappa, x0, final.time)
        err = float(np.max(np.abs(final.even.data[0] - ref)))
        return Gate(np.isfinite(err) and err <= self.TOL, fingerprint=_sha(final.even.data),
                    linf_error=err)


def digest(directory):
    """sha256 over every file's bytes, in sorted file-name order."""
    h = hashlib.sha256()
    for name in sorted(os.listdir(directory)):
        with open(os.path.join(directory, name), "rb") as fh:
            h.update(fh.read())
    return h.hexdigest()


DRIFT_FLOOR = 1e-12


def csv_max_drift(path):
    """Worst relative drift of any tracked quantity, read back from the
    conserved-quantity CSV: max |q(t) - q(0)| over records and channels,
    divided by max |q(0)| over channels (floored at DRIFT_FLOOR)."""
    with open(path) as fh:
        header = fh.readline().strip().split(",")
        rows = np.array([[float(c) for c in line.split(",")]
                         for line in fh if line.strip()])
    worst = 0.0
    labels = sorted({h.partition("[")[0] for h in header if h != "time"})
    for label in labels:
        cols = [i for i, h in enumerate(header) if h.partition("[")[0] == label]
        series = rows[:, cols]
        dev = float(np.max(np.abs(series - series[0])))
        worst = max(worst, dev / max(float(np.max(np.abs(series[0]))), DRIFT_FLOOR))
    return worst


class ReadmeSimulate:
    """The README's simulate command, in-process, into a fresh directory."""

    name = "readme_simulate"
    # concatenated output bytes of the literal README run (--seed 7)
    SEED7_DIGEST_PREFIX = "2a0a8f7f5c31"
    TOL = 1e-8  # measured drift: 1.7e-13 at seed 7, at most 7.8e-11 over seeds 0-24

    def __init__(self):
        self.config = {"system": "extended", "algebra": "grassmann:3", "N": 256,
                       "L": 40.0, "dt": 1e-3, "steps": 1000, "scheme": "ifrk4",
                       "lambda": 1.0,
                       "ic": "random_bandlimited(max_mode=5,amplitude=0.5)",
                       "record_every": 20, "outputs": "51 snapshots, csv, manifest"}

    def argv(self, seed):
        return ["simulate", "--system", "extended", "--algebra", "grassmann:3",
                "--lambda", "1.0",
                "--ic", "random_bandlimited(max_mode=5,amplitude=0.5)",
                "--seed", str(seed), "--L", "40", "--grid", "256",
                "--dt", "1e-3", "--t-end", "1.0", "--scheme", "ifrk4"]

    def setup(self, seed):
        _build(f"random_bandlimited(max_mode=5,amplitude=0.5,seed={seed})",
               256, "grassmann:3", "extended", 1.0)
        return seed, self.argv(seed)

    def repetition(self, inputs):
        seed, argv = inputs
        WORK.mkdir(exist_ok=True)
        out = tempfile.mkdtemp(prefix="run-", dir=WORK)
        try:
            code, _ = _quiet_main(argv + ["--out", out])
            if code != 0:
                return Gate(False, exit_code=code)
            drift = csv_max_drift(os.path.join(out, "conserved.csv"))
            files = len(os.listdir(out))
            got = digest(out)
        finally:
            shutil.rmtree(out, ignore_errors=True)
        pinned = seed != 7 or got.startswith(self.SEED7_DIGEST_PREFIX)
        return Gate(drift <= self.TOL and pinned and files == 53, fingerprint=got,
                    max_drift=drift, digest=got[:12], files=files)


class WideModifiedRk4:
    """Modified system on grassmann:6 with classical rk4: the only workload
    where the algebra products dominate."""

    name = "wide_modified_rk4"
    STEPS = 60
    TOL = 1e-12  # measured H drift: at most 8.5e-16

    def __init__(self):
        self.config = {"system": "modified", "algebra": "grassmann:6", "N": 256,
                       "L": 40.0, "dt": 2e-4, "steps": self.STEPS, "scheme": "rk4",
                       "lambda": 1.0, "record_every": 10,
                       "ic": "random_bandlimited(max_mode=4,amplitude=0.4,seed=<seed>)"}

    def setup(self, seed):
        return _build(f"random_bandlimited(max_mode=4,amplitude=0.4,seed={seed})",
                      256, "grassmann:6", "modified", 1.0)

    def repetition(self, state):
        traj = skdv.integrate(state, 2e-4, self.STEPS, scheme="rk4", record_every=10)
        drift = skdv.drift_report(traj).drift["H"]
        final = traj.final
        finite = bool(np.all(np.isfinite(final.even.data)) and np.all(np.isfinite(final.odd.data)))
        return Gate(finite and drift <= self.TOL,
                    fingerprint=_sha(final.even.data, final.odd.data),
                    h_drift=drift, finite=finite)


class Checks:
    """Every `superkdv check` suite at its documented defaults, plus the
    README's symbolic conservation snippet for H2, H4, H6."""

    name = "checks"
    SUITES = ("algebra", "miura", "gardner", "susy", "densities")
    DENSITY_CONSTANTS = {"0": "1", "2": "-1", "4": "1", "6": "-1"}

    def __init__(self):
        self.config = {"suites": list(self.SUITES),
                       "suite_args": "documented defaults (no flags)",
                       "symbolic": "equal_mod_total_derivative(evolutionary_derivative("
                                   "conserved_density_poly(n)), 0, seed=<seed>), n=2,4,6",
                       "grids": "N=64 and N=128"}

    def setup(self, seed):
        _build("random_bandlimited(max_mode=4,amplitude=0.4,seed=0)", 128,
               "grassmann:4", "modified", 1.0)
        return seed

    def repetition(self, seed):
        verdicts = {}
        outputs = hashlib.sha256()
        for suite in self.SUITES:
            code, out = _quiet_main(["check", suite])
            outputs.update(out.encode())
            verdict = json.loads(out)
            verdicts[suite] = code == 0 and verdict["pass"] is True
            if suite == "densities":
                got = {str(e["n"]): e["c"] for e in verdict["results"]["entries"]}
                verdicts["density_constants"] = got == self.DENSITY_CONSTANTS
        zero = skdv.parse("0")
        for n in (2, 4, 6):
            dh = skdv.evolutionary_derivative(skdv.conserved_density_poly(n))
            verdicts[f"dH{n}/dt"] = bool(skdv.equal_mod_total_derivative(dh, zero, seed=seed))
        return Gate(all(verdicts.values()), fingerprint=outputs.hexdigest(), **verdicts)


WORKLOADS = {w.name: w for w in (SolitonScalar, ReadmeSimulate, WideModifiedRk4, Checks)}
