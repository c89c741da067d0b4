"""Command line front end: simulation runs, verification checks, plots.

Flags are the only input: each setting's default, type and allowed values
are written once, on its argument in build_parser.  Exit codes: 0 success,
1 a check failed, 2 usage error (an output that cannot be written
included), 3 numeric blow-up (the last finite state is still written).
All outputs are deterministic: rerunning with the same flags reproduces
every artifact byte for byte.
"""

import argparse
import json
import os
import pickle
import sys
from functools import partial
from inspect import signature

import numpy as np

from . import __version__, fields, invariants, snapshots
from .algebra import AlgebraDescriptor, OddValue, validate_algebra
from .dynamics import SYSTEM_KINDS, SystemState, integrate
from .errors import NumericalBlowup, StabilityError, SuperKdVError, finite_number
from .fields import PeriodicGrid, RandomBandlimitedIC, build_initial_condition, parse_ic, quadrature
from .invariants import drift_report, hamiltonian_density, reduced_hamiltonian_density
from .symbolic import reproduce_conserved_quantities
from .transforms import (fd_flow_residual, flow_commutation_defect, gardner_map,
                         inverse_gardner_series, miura, susy_variation,
                         to_extended_trajectory)

EXIT_OK = 0
EXIT_CHECK_FAILED = 1
EXIT_USAGE = 2
EXIT_NUMERIC = 3

DEFAULT_VALIDATION_SET = ("scalar", "grassmann:2", "grassmann:3", "grassmann:4",
                          "grassmann:5", "grassmann:6", "symplectic:1",
                          "symplectic:2", "symplectic:3")


class UsageError(SuperKdVError):
    """Bad flags or flag combinations; maps to exit code 2."""


# ---------------------------------------------------------------------------
# simulate

def _positive(flag, value):
    if not finite_number(flag, value) > 0:
        raise UsageError(f"{flag} must be positive, got {value}")
    return value


def cmd_simulate(args):
    if args.gardner_eps is not None and args.system != "gardner":
        raise UsageError("--gardner-eps applies to the gardner system only")
    if args.seed < 0:
        raise UsageError(f"--seed must be non-negative, got {args.seed}")
    L, N = _positive("--L", args.L), _positive("--grid", args.grid)
    dt, t_end = _positive("--dt", args.dt), _positive("--t-end", args.t_end)
    lam = finite_number("--lambda", args.lam)
    eps = 0.0 if args.gardner_eps is None else finite_number("--gardner-eps", args.gardner_eps)
    steps = max(1, round(finite_number("--t-end / --dt", t_end / dt)))
    record_every = max(1, steps // 50) if args.record_every is None else args.record_every

    ic_spec = parse_ic(args.ic)
    if isinstance(ic_spec, RandomBandlimitedIC) and ic_spec.seed is None:
        ic_spec.seed = args.seed
    grid = PeriodicGrid(L, N)
    even, odd = build_initial_condition(ic_spec, grid, AlgebraDescriptor.from_string(args.algebra))
    state = SystemState(args.system, even, odd, lam=lam, epsilon=eps)

    # refused before any step: a report density past the floats, an unwritable --out
    invariants._densities(args.system, grid, state.descriptor, lam)
    head = os.path.abspath(args.out)
    while not os.path.exists(head):
        head = os.path.dirname(head)
    if not (os.path.isdir(head) and os.access(head, os.W_OK | os.X_OK)):
        raise UsageError(f"cannot write --out {args.out}: {head} is no writable directory")
    manifest = {"command": "simulate", "system": args.system, "algebra": args.algebra,
                "lambda": lam, "gardner_eps": eps if args.system == "gardner" else None,
                "L": L, "N": N, "dt": dt, "t_end": steps * dt, "steps": steps,
                "scheme": args.scheme, "ic": {"name": ic_spec.name, "params": ic_spec.params()},
                "seed": args.seed, "record_every": record_every, "force": args.force}

    # a refused run writes nothing: the manifest follows the integration
    try:
        traj = integrate(state, dt, steps, scheme=args.scheme,
                         record_every=record_every, force=args.force)
    except StabilityError as exc:
        raise UsageError(f"{exc}; rerun with --force to override")
    except NumericalBlowup as exc:
        traj, blowup = None, exc
    os.makedirs(args.out, exist_ok=True)
    snapshots.write_manifest(manifest, os.path.join(args.out, "manifest.json"))
    if traj is None:
        snapshots.write_snapshot(blowup.last_state,
                                 os.path.join(args.out, "snapshot_last.json"))
        print(f"numeric blow-up at step {blowup.step} (t = {blowup.time:g}); "
              f"last finite state saved", file=sys.stderr)
        return EXIT_NUMERIC

    for i, recorded in enumerate(traj):
        snapshots.write_snapshot(recorded,
                                 os.path.join(args.out, f"snapshot_{i:04d}.json"))
    report = drift_report(traj)
    snapshots.write_report_csv(report, os.path.join(args.out, "conserved.csv"))
    print(f"wrote {len(traj)} snapshots over t in [0, {steps * dt:g}] "
          f"to {args.out}; max relative drift {report.max_drift:.3e}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# check suites

def _check_algebra(algebra=None):
    backends = [algebra] if algebra else list(DEFAULT_VALIDATION_SET)
    results = []
    for backend in backends:
        report = validate_algebra(AlgebraDescriptor.from_string(backend))
        results.append(report.as_dict())
    verdict = {
        "check": "algebra",
        "pass": all(r["passed"] for r in results),
        "tolerances": "exact",
        "results": results,
    }
    summary = "\n".join(f"{r['descriptor']}: {'pass' if r['passed'] else 'FAIL'}"
                        for r in results)
    return verdict, summary


def _random_fields(backend, seed, max_mode=4, amplitude=0.4, L=40.0, N=128):
    """Seeded random band-limited (even, odd) fields for a check suite."""
    return build_initial_condition(RandomBandlimitedIC(max_mode, amplitude, seed),
                                   PeriodicGrid(L, N), AlgebraDescriptor.from_string(backend))


def _in_parallel(*thunks):
    """Each thunk's value, in order.  When this process may run on two or
    more CPUs, the first thunk runs in one child forked from it while the
    rest run here; otherwise all run here, one after another.  Either way
    the error raised is the one the serial order raises first.  The child
    sends back its value or its exception, pickled, through a pipe, and
    ends with os._exit, so it runs none of this process's exit handlers."""
    if not hasattr(os, "sched_getaffinity") or len(os.sched_getaffinity(0)) < 2:
        return [thunk() for thunk in thunks]
    sys.stdout.flush()
    sys.stderr.flush()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        status = 1
        try:
            os.close(read_end)
            try:
                sent = pickle.dumps((True, thunks[0]()))
            except Exception as exc:
                sent = pickle.dumps((False, exc))
            with os.fdopen(write_end, "wb") as fh:
                fh.write(sent)
            status = 0
        finally:
            os._exit(status)
    os.close(write_end)
    try:
        rest = [thunk() for thunk in thunks[1:]]
    finally:
        first = _sent_value(pid, read_end)
    return [first, *rest]


def _sent_value(pid, read_end):
    """The value the child pid sent through read_end; its exception is
    raised here, and so is a SuperKdVError if it sent nothing."""
    with os.fdopen(read_end, "rb") as fh:
        sent = fh.read()
    code = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
    if code != 0:
        how = f"was killed by signal {-code}" if code < 0 else f"exited with status {code}"
        raise SuperKdVError(f"a check's worker process {how} before sending its result")
    ok, value = pickle.loads(sent)
    if not ok:
        raise value
    return value


def _judged(check, tolerances, rows, fmt):
    """A numeric suite's verdict and stderr summary.  rows are (residual
    name, value, tolerance name or None); the suite passes when each value
    meets its tolerance: a number is an upper bound and a [lo, hi] pair a
    closed band, so a NaN value meets neither."""
    def meets(value, bound):
        lo, hi = bound if isinstance(bound, list) else (-np.inf, bound)
        return lo <= value <= hi

    residuals = {name: value for name, value, _ in rows}
    verdict = {"check": check, "tolerances": tolerances, "residuals": residuals,
               "pass": all(meets(value, tolerances[t]) for _, value, t in rows if t is not None)}
    return verdict, "\n".join(f"{k}: {v:{fmt}}" for k, v in residuals.items())


def _miura_half(backend, lam, seed):
    """The mapped flow residual of a 500-step modified run on backend, and
    the Hamiltonian reduction's relative residual on its initial data."""
    v, eta = _random_fields(backend, seed)
    traj = integrate(SystemState("modified", v, eta, lam=lam), 1e-3, 500,
                     scheme="ifrk4", record_every=5)
    res = fd_flow_residual(to_extended_trajectory(traj))
    u, xi = miura(v, eta, lam)
    ham = quadrature(hamiltonian_density(v, eta, lam))
    red = quadrature(reduced_hamiltonian_density(u, xi, lam))
    return res, (ham - red).norm() / max(ham.norm(), 1.0)


def _check_miura(lam=1.0, seed=0):
    tolerances = {"mapped flow residual": 1e-5, "hamiltonian reduction": 1e-10}
    backends = ("grassmann:4", "symplectic:1")
    halves = _in_parallel(*(partial(_miura_half, b, lam, seed) for b in backends))
    # each half's values are those the tolerances bound, in their order
    rows = [(f"{name} [{backend}]", value, name)
            for backend, values in zip(backends, halves)
            for name, value in zip(tolerances, values)]
    return _judged("miura", tolerances, rows, ".3e")


def _gardner_mapped(z, sigma, lam, eps):
    """The mapped flow residual of a 500-step gardner run at eps from (z,
    sigma), and its even field at step 300 (record 60), where the
    deviations compare."""
    traj = integrate(SystemState("gardner", z, sigma, lam=lam, epsilon=eps), 1e-3, 500,
                     scheme="ifrk4", record_every=5)
    return fd_flow_residual(to_extended_trajectory(traj)), traj[60].even


def _gardner_references(z, sigma, lam, eps):
    """The even fields at step 300 of the extended run and the gardner run
    at eps/2 from (z, sigma)."""
    return [integrate(SystemState(kind, z, sigma, lam=lam, epsilon=e), 1e-3, 300,
                      scheme="ifrk4", record_every=300).final.even
            for kind, e in (("extended", 0.0), ("gardner", eps / 2))]


def _roundtrip_slope(lam, seed):
    """log2 of the order-6 inverse gardner series' round-trip error at eps
    0.1 over that at eps 0.05, which is 7 when the series is right."""
    u, xi = _random_fields("symplectic:1", seed, max_mode=2, amplitude=0.3)

    def roundtrip(e):
        zz, ss = inverse_gardner_series(u, xi, lam, e, order=6)
        uu, xx = gardner_map(zz, ss, lam, e)
        return max((uu - u).norm(), (xx - xi).norm())

    return float(np.log2(roundtrip(0.1) / roundtrip(0.05)))


def _check_gardner(lam=1.0, gardner_eps=0.1, seed=0):
    if gardner_eps == 0:
        raise UsageError("--gardner-eps must be nonzero: the deviation ratio compares "
                         "the gardner runs at eps and eps/2")
    tolerances = {"mapped flow residual": 1e-5, "deviation ratio band": [3.4, 4.6],
                  "slope band": [6.5, 7.5]}
    z, sigma = _random_fields("symplectic:1", seed)
    (res, reached), (extended, halved) = _in_parallel(
        partial(_gardner_mapped, z, sigma, lam, gardner_eps),
        partial(_gardner_references, z, sigma, lam, gardner_eps))
    # the gardner flow's deviation from the extended flow at eps and eps/2
    dev1, dev2 = (reached - extended).norm(), (halved - extended).norm()
    return _judged("gardner", tolerances, [
        ("mapped flow residual", res, "mapped flow residual"),
        ("flux deviation ratio under eps halving", dev1 / dev2 if dev2 else float("inf"),
         "deviation ratio band"),
        ("round-trip eps-halving slope at order 6", _roundtrip_slope(lam, seed), "slope band"),
    ], ".4g")


def _susy_half(backend, lam, seed):
    """The flow commutation defects at steps h and h/2 on backend, and the
    relative size of the supersymmetry variation applied twice."""
    u, xi = _random_fields(backend, seed, max_mode=3, amplitude=0.3, L=20.0, N=64)
    desc = u.descriptor
    state = SystemState("extended", u, xi, lam=lam)
    param_rng = np.random.default_rng(seed + 1)
    param = OddValue(desc, 0.2 * param_rng.uniform(-1.0, 1.0, desc.odd_dim))

    d1 = flow_commutation_defect(state, param, 1e-3, 40)
    d2 = flow_commutation_defect(state, param, 5e-4, 80)
    du1, dxi1 = susy_variation(u, xi, param, lam)
    du2, dxi2 = susy_variation(du1, dxi1, param, lam)
    scale = max(u.norm(), xi.norm(), 1.0)
    return d1, d2, max(du2.norm(), dxi2.norm()) / scale


def _check_susy(lam=1.0, seed=0):
    tolerances = {"noise floor": 1e-9, "defect ratio band": [3.4, 4.6],
                  "variation squared": 1e-12}
    floor = tolerances["noise floor"]
    backends = ("grassmann:4", "symplectic:1")
    halves = _in_parallel(*(partial(_susy_half, b, lam, seed) for b in backends))
    rows = []
    for backend, (d1, d2, nil) in zip(backends, halves):
        rows += [(f"commutation defect h [{backend}]", d1, None),
                 (f"commutation defect h/2 [{backend}]", d2, None)]
        # a defect saturated at roundoff has no second-order ratio to measure
        if not (d1 <= floor and d2 <= floor):
            rows.append((f"defect ratio [{backend}]", d1 / d2 if d2 else float("inf"),
                         "defect ratio band"))
        rows.append((f"variation squared [{backend}]", nil, "variation squared"))
    return _judged("susy", tolerances, rows, ".3e")


def _check_densities():
    table = reproduce_conserved_quantities(max_order=6)
    expected = {0: "1", 2: "-1", 4: "1", 6: "-1"}
    got = {e["n"]: str(e["c"]) for e in table.entries}
    ok = table.all_ok and got == expected
    verdict = {
        "check": "densities",
        "pass": ok,
        "tolerances": "exact",
        "results": table.as_dict(),
        "expected_constants": expected,
    }
    return verdict, str(table)


# each suite reads the flags its function takes, at the defaults it gives them
_CHECKS = {
    "algebra": _check_algebra,
    "miura": _check_miura,
    "gardner": _check_gardner,
    "susy": _check_susy,
    "densities": _check_densities,
}


def cmd_check(args):
    check, flags = _CHECKS[args.suite], args.suite_flags
    given = {dest: getattr(args, dest) for dest in flags if getattr(args, dest) is not None}
    unread = [flags[dest] for dest in given if dest not in signature(check).parameters]
    if unread:
        raise UsageError(f"check {args.suite} does not read {', '.join(unread)}")
    if given.get("seed", 0) < 0:
        raise UsageError(f"--seed must be non-negative, got {given['seed']}")
    # read before any suite runs or forks, under the flags' own names
    for dest in {"lam", "gardner_eps"} & set(given):
        given[dest] = finite_number(flags[dest], given[dest])
    verdict, summary = check(**given)
    text = json.dumps(verdict, sort_keys=True, indent=2, default=snapshots.json_default) + "\n"
    if args.out:
        with open(args.out, "w", newline="\n") as fh:
            fh.write(text)
    print(summary, file=sys.stderr)
    print(text, end="")
    return EXIT_OK if verdict["pass"] else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# plot

def cmd_plot(args):
    if bool(args.csv) == bool(args.snapshot):
        raise UsageError("exactly one of --csv or --snapshot is required")
    mode, other = ("--csv", "channel") if args.csv else ("--snapshot", "columns")
    if getattr(args, other) is not None:
        raise UsageError(f"plot {mode} does not read --{other}")
    if args.csv:
        try:
            header, rows = snapshots.read_csv(args.csv)
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot read {args.csv}: {exc}")
        if not rows:
            raise UsageError(f"no data rows in {args.csv}")
        if "time" not in header:
            raise UsageError(f"no time column in {args.csv}")
        columns = ([c.strip() for c in args.columns.split(",") if c.strip()]
                   if args.columns else [c for c in header if c != "time"])
        missing = [c for c in columns if c not in header]
        if missing:
            raise UsageError(f"missing columns {missing}; have {header}")
        data = np.asarray(rows, dtype=float)
        x = data[:, header.index("time")]
        series = {c: data[:, header.index(c)] for c in columns}
        snapshots.write_line_plot(args.out, x, series, title=args.title or "",
                                  xlabel="time")
    else:
        try:
            state = snapshots.read_snapshot(args.snapshot)
        except (OSError, ValueError) as exc:
            raise UsageError(f"cannot read {args.snapshot}: {exc}")
        specs = [c.strip() for c in (args.channel or "even:unit").split(",") if c.strip()]
        series = {}
        for spec in specs:
            part, row = fields._resolve_channel(spec, state.descriptor)
            series[spec] = getattr(state, part).data[row]
        snapshots.write_line_plot(args.out, state.grid.x, series,
                                  title=args.title or f"t = {state.time:g}",
                                  xlabel="x")
    print(f"wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring

def _path(text):
    """An --out path: any text but the empty one, which names no file."""
    if not text:
        raise argparse.ArgumentTypeError("must not be empty")
    return text


def build_parser():
    parser = argparse.ArgumentParser(
        prog="superkdv",
        description="Graded-algebra-valued super KdV: runs, checks, plots.")
    parser.add_argument("--version", action="version",
                        version=f"superkdv {__version__}")
    sub = parser.add_subparsers(dest="command")

    sim = sub.add_parser("simulate", help="integrate a system and write artifacts",
                         formatter_class=argparse.ArgumentDefaultsHelpFormatter)
    sim.add_argument("--system", choices=SYSTEM_KINDS, default="extended", help="evolution system")
    sim.add_argument("--algebra", default="scalar", help="scalar | grassmann:N | symplectic:n")
    sim.add_argument("--lambda", dest="lam", type=float, default=0.0,
                     help="coupling constant in front of the bracket terms")
    sim.add_argument("--gardner-eps", dest="gardner_eps", type=float,
                     help="deformation parameter; gardner system only, where unset means 0")
    sim.add_argument("--L", type=float, default=40.0, help="periodic box length")
    sim.add_argument("--grid", type=int, default=256, help="number of spatial points")
    sim.add_argument("--dt", type=float, default=1e-3, help="time step")
    sim.add_argument("--t-end", dest="t_end", type=float, default=1.0, help="final time")
    sim.add_argument("--scheme", choices=("rk4", "ifrk4"), default="ifrk4",
                     help="time integrator")
    sim.add_argument("--ic", default="zero", help='e.g. soliton(kappa=1) | zero | '
                                                  'random_bandlimited(max_mode=5,amplitude=0.5)')
    sim.add_argument("--out", type=_path, required=True, help="output directory")
    sim.add_argument("--seed", type=int, default=0,
                     help="seed for a random initial condition that gives none")
    sim.add_argument("--record-every", dest="record_every", type=int,
                     help="steps between snapshots; unset means steps // 50, at least 1")
    sim.add_argument("--force", action="store_true", help="run past the linear stability guard")
    sim.set_defaults(func=cmd_simulate)

    chk = sub.add_parser("check", help="run a verification suite")
    chk.add_argument("suite", choices=sorted(_CHECKS))
    flags = [chk.add_argument("--algebra", help="validate this one backend (algebra only)"),
             chk.add_argument("--lambda", dest="lam", type=float,
                              help="coupling constant (miura, gardner, susy)"),
             chk.add_argument("--gardner-eps", dest="gardner_eps", type=float,
                              help="deformation parameter (gardner)"),
             chk.add_argument("--seed", type=int, help="seed for random data (miura, gardner, susy)")]
    chk.add_argument("--out", type=_path, help="also write the JSON verdict, as printed, to this file")
    chk.set_defaults(func=cmd_check, suite_flags={f.dest: f.option_strings[0] for f in flags})

    plt = sub.add_parser("plot", help="render CSV columns or a snapshot as SVG")
    plt.add_argument("--csv", help="conserved-quantity table from simulate")
    plt.add_argument("--snapshot", help="state snapshot JSON from simulate")
    plt.add_argument("--columns", help="comma list of CSV columns (default: all)")
    plt.add_argument("--channel", help="comma list like even:unit,odd:t1 or odd:0 (an index)")
    plt.add_argument("--title")
    plt.add_argument("--out", type=_path, required=True, help="output SVG path")
    plt.set_defaults(func=cmd_plot)
    return parser


def main(argv=None):
    parser = build_parser()
    args = parser.parse_args(argv)
    if not getattr(args, "func", None):
        parser.print_usage(file=sys.stderr)
        return EXIT_USAGE
    try:
        return args.func(args)
    except SuperKdVError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        if exc.filename is None:
            raise
        # each input is read where its errors are refused: this is an output
        print(f"error: cannot write {exc.filename}: {exc.strerror}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
