"""Command line front end: simulation runs, verification checks, plots.

Exit codes: 0 success, 1 a check failed, 2 usage or configuration error,
3 numeric blow-up (the last finite state is still written).  All outputs
are deterministic: rerunning with the same configuration reproduces every
artifact byte for byte.
"""

import argparse
import json
import os
import pickle
import sys
from functools import partial

import numpy as np

from . import __version__, snapshots
from .algebra import AlgebraDescriptor, OddValue, validate_algebra
from .dynamics import SYSTEM_KINDS, SystemState, integrate
from .errors import NumericalBlowup, StabilityError, SuperKdVError, finite_number
from .fields import PeriodicGrid, RandomBandlimitedIC, build_initial_condition, parse_ic, quadrature
from .invariants import (drift_report, hamiltonian_density,
                         reduced_hamiltonian_density, tracked_labels)
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
# configuration plumbing

SIMULATE_DEFAULTS = {
    "system": "extended",
    "algebra": "scalar",
    "lambda": 0.0,
    "gardner_eps": None,
    "L": 40.0,
    "grid": 256,
    "dt": 1e-3,
    "t_end": 1.0,
    "scheme": "ifrk4",
    "ic": "zero",
    "track": None,
    "seed": 0,
    "record_every": None,
    "force": False,
}

_DEST = {"lambda": "lam"}


def resolve_config(args, defaults):
    """Start from defaults, overlay the JSON config file, overlay explicit
    flags (flags win)."""
    cfg = dict(defaults)
    config_path = getattr(args, "config", None)
    if config_path:
        try:
            with open(config_path) as fh:
                file_cfg = json.load(fh)
        except (OSError, json.JSONDecodeError) as exc:
            raise UsageError(f"cannot read config {config_path}: {exc}")
        if not isinstance(file_cfg, dict):
            raise UsageError("config file must hold a JSON object")
        for key, value in file_cfg.items():
            key = key.replace("-", "_")
            if key not in cfg:
                raise UsageError(f"unknown config key {key!r}")
            cfg[key] = value
    for key in cfg:
        value = getattr(args, _DEST.get(key, key), None)
        if value is not None:
            cfg[key] = value
    return cfg


def _number(cfg, key, kind=float):
    return finite_number(key, cfg[key], kind)


def _positive(cfg, key, kind=float):
    value = _number(cfg, key, kind)
    if value <= 0:
        raise UsageError(f"{key} must be positive, got {value}")
    return value


def _tracked_labels(cfg, system):
    track = cfg["track"]
    if isinstance(track, str):
        track = [t.strip() for t in track.split(",") if t.strip()]
    return tracked_labels(system, track)


def _resolve_ic(cfg, seed):
    spec = parse_ic(str(cfg["ic"]))
    if isinstance(spec, RandomBandlimitedIC) and spec.seed is None:
        spec.seed = seed
    return spec


# ---------------------------------------------------------------------------
# simulate

def cmd_simulate(args):
    cfg = resolve_config(args, SIMULATE_DEFAULTS)
    system = str(cfg["system"])
    if system not in SYSTEM_KINDS:
        raise UsageError(f"unknown system {system!r}")
    algebra = str(cfg["algebra"])
    descriptor = AlgebraDescriptor.from_string(algebra)
    if cfg["gardner_eps"] is not None and system != "gardner":
        raise UsageError("--gardner-eps applies to the gardner system only")

    L = _positive(cfg, "L")
    N = _positive(cfg, "grid", int)
    dt = _positive(cfg, "dt")
    t_end = _positive(cfg, "t_end")
    lam = _number(cfg, "lambda")
    eps = _number(cfg, "gardner_eps") if cfg["gardner_eps"] is not None else 0.0
    scheme = str(cfg["scheme"])
    if scheme not in ("rk4", "ifrk4"):
        raise UsageError(f"unknown scheme {scheme!r}")
    seed = _number(cfg, "seed", int)
    steps = max(1, round(t_end / dt))
    record_every = (_number(cfg, "record_every", int) if cfg["record_every"] is not None
                    else max(1, steps // 50))
    track = _tracked_labels(cfg, system)

    ic_spec = _resolve_ic(cfg, seed)
    grid = PeriodicGrid(L, N)
    even, odd = build_initial_condition(ic_spec, grid, descriptor)
    state = SystemState(system, even, odd, lam=lam,
                        epsilon=eps if system == "gardner" else 0.0)

    outdir = args.out
    if not outdir:
        raise UsageError("--out DIR is required")
    manifest = {
        "command": "simulate",
        "system": system,
        "algebra": algebra,
        "lambda": lam,
        "gardner_eps": eps if system == "gardner" else None,
        "L": L,
        "N": N,
        "dt": dt,
        "t_end": steps * dt,
        "steps": steps,
        "scheme": scheme,
        "ic": {"name": ic_spec.name, "params": ic_spec.params()},
        "track": list(track),
        "seed": seed,
        "record_every": record_every,
    }

    # a refused run writes nothing: the manifest follows the integration
    try:
        traj = integrate(state, dt, steps, scheme=scheme,
                         record_every=record_every, force=bool(cfg["force"]))
    except StabilityError as exc:
        raise UsageError(f"{exc}; rerun with --force to override")
    except NumericalBlowup as exc:
        traj, blowup = None, exc
    os.makedirs(outdir, exist_ok=True)
    snapshots.write_manifest(manifest, os.path.join(outdir, "manifest.json"))
    if traj is None:
        snapshots.write_snapshot(blowup.last_state,
                                 os.path.join(outdir, "snapshot_last.json"))
        print(f"numeric blow-up at step {blowup.step} (t = {blowup.time:g}); "
              f"last finite state saved", file=sys.stderr)
        return EXIT_NUMERIC

    for i, recorded in enumerate(traj):
        snapshots.write_snapshot(recorded,
                                 os.path.join(outdir, f"snapshot_{i:04d}.json"))
    report = drift_report(traj, track)
    snapshots.write_report_csv(report, os.path.join(outdir, "conserved.csv"))
    print(f"wrote {len(traj)} snapshots over t in [0, {steps * dt:g}] "
          f"to {outdir}; max relative drift {report.max_drift:.3e}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# check suites

def _band(value, lo, hi):
    return lo <= value <= hi


def _check_algebra(args):
    backends = [args.algebra] if args.algebra else list(DEFAULT_VALIDATION_SET)
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


def _check_miura(args):
    tol_map, tol_ham = 1e-5, 1e-10
    backends = ("grassmann:4", "symplectic:1")
    halves = _in_parallel(*(partial(_miura_half, b, args.lam, args.seed) for b in backends))
    residuals, ok = {}, True
    for backend, (res, hres) in zip(backends, halves):
        residuals[f"mapped flow residual [{backend}]"] = res
        residuals[f"hamiltonian reduction [{backend}]"] = hres
        ok = ok and res <= tol_map and hres <= tol_ham
    verdict = {
        "check": "miura",
        "pass": ok,
        "tolerances": {"mapped flow residual": tol_map,
                       "hamiltonian reduction": tol_ham},
        "residuals": residuals,
    }
    summary = "\n".join(f"{k}: {v:.3e}" for k, v in residuals.items())
    return verdict, summary


def _check_gardner(args):
    lam, eps, seed = args.lam, args.gardner_eps, args.seed
    z, sigma = _random_fields("symplectic:1", seed)

    def run(kind, epsilon, steps, record_every):
        return integrate(SystemState(kind, z, sigma, lam=lam, epsilon=epsilon),
                         1e-3, steps, scheme="ifrk4", record_every=record_every)

    def mapped():
        traj = run("gardner", eps, 500, 5)
        # record 60 is step 300, where the deviations compare
        return fd_flow_residual(to_extended_trajectory(traj)), traj[60].even

    def at_step_300():
        return [run(kind, e, 300, 300).final.even
                for kind, e in (("extended", 0.0), ("gardner", eps / 2))]

    (res, reached), (extended, halved) = _in_parallel(mapped, at_step_300)
    residuals = {"mapped flow residual": res}
    ok = res <= 1e-5

    # the gardner flow's deviation from the extended flow at eps and eps/2
    dev1, dev2 = (reached - extended).norm(), (halved - extended).norm()
    ratio = dev1 / dev2 if dev2 else float("inf")
    residuals["flux deviation ratio under eps halving"] = ratio
    ok = ok and _band(ratio, 3.4, 4.6)

    u, xi = _random_fields("symplectic:1", seed, max_mode=2, amplitude=0.3)

    def roundtrip(e):
        zz, ss = inverse_gardner_series(u, xi, lam, e, order=6)
        uu, xx = gardner_map(zz, ss, lam, e)
        return max((uu - u).norm(), (xx - xi).norm())

    slope = float(np.log2(roundtrip(0.1) / roundtrip(0.05)))
    residuals["round-trip eps-halving slope at order 6"] = slope
    ok = ok and _band(slope, 6.5, 7.5)

    verdict = {
        "check": "gardner",
        "pass": ok,
        "tolerances": {"mapped flow residual": 1e-5,
                       "deviation ratio band": [3.4, 4.6],
                       "slope band": [6.5, 7.5]},
        "residuals": residuals,
    }
    summary = "\n".join(f"{k}: {v:.4g}" for k, v in residuals.items())
    return verdict, summary


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


def _check_susy(args):
    noise_floor = 1e-9
    backends = ("grassmann:4", "symplectic:1")
    halves = _in_parallel(*(partial(_susy_half, b, args.lam, args.seed) for b in backends))
    residuals, ok = {}, True
    for backend, (d1, d2, nil) in zip(backends, halves):
        residuals[f"commutation defect h [{backend}]"] = d1
        residuals[f"commutation defect h/2 [{backend}]"] = d2
        if d1 <= noise_floor and d2 <= noise_floor:
            pass  # defect saturates at roundoff; second-order band not measurable
        else:
            ratio = d1 / d2 if d2 else float("inf")
            residuals[f"defect ratio [{backend}]"] = ratio
            ok = ok and _band(ratio, 3.4, 4.6)
        residuals[f"variation squared [{backend}]"] = nil
        ok = ok and nil <= 1e-12
    verdict = {
        "check": "susy",
        "pass": ok,
        "tolerances": {"noise floor": noise_floor,
                       "defect ratio band": [3.4, 4.6],
                       "variation squared": 1e-12},
        "residuals": residuals,
    }
    summary = "\n".join(f"{k}: {v:.3e}" for k, v in residuals.items())
    return verdict, summary


def _check_densities(args):
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


_CHECKS = {
    "algebra": _check_algebra,
    "miura": _check_miura,
    "gardner": _check_gardner,
    "susy": _check_susy,
    "densities": _check_densities,
}


def cmd_check(args):
    if args.seed < 0:
        raise UsageError(f"seed must be non-negative, got {args.seed}")
    if args.algebra is not None and args.suite != "algebra":
        raise UsageError("--algebra applies to check algebra only")
    verdict, summary = _CHECKS[args.suite](args)
    verdict = snapshots.jsonable(verdict)
    print(summary, file=sys.stderr)
    print(json.dumps(verdict, sort_keys=True, indent=2))
    if args.out:
        snapshots.dump_json(verdict, args.out)
    return EXIT_OK if verdict["pass"] else EXIT_CHECK_FAILED


# ---------------------------------------------------------------------------
# plot

def cmd_plot(args):
    if bool(args.csv) == bool(args.snapshot):
        raise UsageError("exactly one of --csv or --snapshot is required")
    if not args.out:
        raise UsageError("--out FILE.svg is required")
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
        specs = ([c.strip() for c in args.channel.split(",") if c.strip()]
                 if args.channel else ["even:" + state.even.labels[0]])
        series = {}
        for spec in specs:
            part, _, label = spec.partition(":")
            field = {"even": state.even, "odd": state.odd}.get(part)
            if field is None:
                raise UsageError(f"channel {spec!r} must start with even: or odd:")
            channels = field.channels()
            if label not in channels:
                raise UsageError(f"unknown channel {label!r}; have {field.labels}")
            series[spec] = channels[label]
        snapshots.write_line_plot(args.out, state.grid.x, series,
                                  title=args.title or f"t = {state.time:g}",
                                  xlabel="x")
    print(f"wrote {args.out}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# argument wiring

def build_parser():
    parser = argparse.ArgumentParser(
        prog="superkdv",
        description="Graded-algebra-valued super KdV: runs, checks, plots.")
    parser.add_argument("--version", action="version",
                        version=f"superkdv {__version__}")
    sub = parser.add_subparsers(dest="command")

    sim = sub.add_parser("simulate", help="integrate a system and write artifacts")
    sim.add_argument("--system", choices=SYSTEM_KINDS)
    sim.add_argument("--algebra", help="scalar | grassmann:N | symplectic:n")
    sim.add_argument("--lambda", dest="lam", type=float,
                     help="coupling constant in front of the bracket terms")
    sim.add_argument("--gardner-eps", dest="gardner_eps", type=float,
                     help="deformation parameter (gardner system only)")
    sim.add_argument("--L", type=float, help="periodic box length")
    sim.add_argument("--grid", type=int, help="number of spatial points")
    sim.add_argument("--dt", type=float)
    sim.add_argument("--t-end", dest="t_end", type=float)
    sim.add_argument("--scheme", choices=("rk4", "ifrk4"))
    sim.add_argument("--ic", help='e.g. soliton(kappa=1) | zero | '
                                  'random_bandlimited(max_mode=5,amplitude=0.5)')
    sim.add_argument("--track", help="comma list of conserved quantities")
    sim.add_argument("--out", required=True, help="output directory")
    sim.add_argument("--seed", type=int, help="seed for random initial data")
    sim.add_argument("--record-every", dest="record_every", type=int)
    sim.add_argument("--force", action="store_true", default=None,
                     help="run past the linear stability guard")
    sim.add_argument("--config", help="JSON file mirroring the flags; flags win")
    sim.set_defaults(func=cmd_simulate)

    chk = sub.add_parser("check", help="run a verification suite")
    chk.add_argument("suite", choices=sorted(_CHECKS))
    chk.add_argument("--algebra", help="check algebra only: validate this one backend")
    chk.add_argument("--lambda", dest="lam", type=float, default=1.0)
    chk.add_argument("--gardner-eps", dest="gardner_eps", type=float, default=0.1)
    chk.add_argument("--seed", type=int, default=0)
    chk.add_argument("--out", help="also write the JSON verdict to this file")
    chk.set_defaults(func=cmd_check)

    plt = sub.add_parser("plot", help="render CSV columns or a snapshot as SVG")
    plt.add_argument("--csv", help="conserved-quantity table from simulate")
    plt.add_argument("--snapshot", help="state snapshot JSON from simulate")
    plt.add_argument("--columns", help="comma list of CSV columns (default: all)")
    plt.add_argument("--channel", help="comma list like even:unit,odd:t1")
    plt.add_argument("--title")
    plt.add_argument("--out", required=True, help="output SVG path")
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


if __name__ == "__main__":
    sys.exit(main())
