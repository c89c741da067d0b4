"""Acceptance suite: one test per criterion, each printing a verdict line
with the measured values next to the tolerance it was judged against."""

import filecmp
import json
import os
import pathlib
import subprocess
import sys
import time

import numpy as np
import pytest

from superkdv.algebra import AlgebraDescriptor, OddValue, validate_algebra
from superkdv.cli import main as cli_main
from superkdv.dynamics import SystemState, integrate, rhs_extended, rhs_skdv_grassmann, soliton_profile
from superkdv.fields import PeriodicGrid, build_initial_condition
from superkdv.invariants import drift_report
from superkdv.symbolic import reproduce_conserved_quantities
from superkdv.transforms import (fd_flow_residual, flow_commutation_defect,
                                 gardner_map, inverse_gardner_series,
                                 to_extended_trajectory)


def verdict(n, ok, detail):
    line = f"criterion {n:2d}: {'PASS' if ok else 'FAIL'} - {detail}"
    print(line)
    assert ok, line


def random_ic(backend, grid, max_mode=5, amplitude=0.5, seed=0):
    desc = AlgebraDescriptor.from_string(backend)
    return build_initial_condition(
        f"random_bandlimited(max_mode={max_mode},amplitude={amplitude},"
        f"seed={seed})", grid, desc)


def test_criterion_01_algebra_axioms():
    start = time.perf_counter()
    passing = ["scalar"] + [f"grassmann:{n}" for n in range(2, 7)] \
        + [f"symplectic:{n}" for n in range(1, 4)]
    all_ok = all(validate_algebra(AlgebraDescriptor.from_string(b)).passed
                 for b in passing)
    degenerate = validate_algebra(AlgebraDescriptor.from_string("grassmann:1"))
    elapsed = time.perf_counter() - start
    ok = all_ok and not degenerate.passed and elapsed < 1.0
    verdict(1, ok, f"axioms pass on {len(passing)} backends, grassmann:1 "
                   f"fails nondegeneracy, runtime {elapsed:.2f}s < 1s")


def _convergence_slope(scheme):
    grid = PeriodicGrid(40.0, 64)
    desc = AlgebraDescriptor.from_string("scalar")
    u, xi = build_initial_condition("soliton(kappa=1)", grid, desc)
    t_end = 0.4

    def final(steps):
        state = SystemState("extended", u, xi)
        return integrate(state, t_end / steps, steps, scheme=scheme,
                         record_every=steps).final.even

    ref = final(3200)
    steps = np.array([100, 200, 400])
    errs = np.array([(final(int(s)) - ref).norm() for s in steps])
    slope = np.polyfit(np.log(t_end / steps), np.log(errs), 1)[0]
    return float(slope)


def test_criterion_02_soliton_benchmark():
    grid = PeriodicGrid(40.0, 512)
    desc = AlgebraDescriptor.from_string("scalar")
    u, xi = build_initial_condition("soliton(kappa=1)", grid, desc)
    traj = integrate(SystemState("extended", u, xi), 1e-4, 10000,
                     scheme="ifrk4", record_every=10000)
    ref = soliton_profile(grid, 1.0, grid.L / 2, t=1.0)
    err = float(np.max(np.abs(traj.final.even.data - ref.data)))
    slopes = {scheme: _convergence_slope(scheme) for scheme in ("rk4", "ifrk4")}
    ok = err <= 1e-4 and all(3.7 <= s <= 4.3 for s in slopes.values())
    verdict(2, ok, f"soliton Linf {err:.2e} <= 1e-4; convergence order "
                   f"rk4 {slopes['rk4']:.2f}, ifrk4 {slopes['ifrk4']:.2f} "
                   f"in [3.7, 4.3]")


def test_criterion_03_conservation_drift():
    grid = PeriodicGrid(40.0, 256)
    worst = {"H0": 0.0, "H2": 0.0, "H4": 0.0, "H6": 0.0}
    for backend in ("symplectic:1", "grassmann:4"):
        for lam in (-1.0, 1.0):
            u, xi = random_ic(backend, grid)
            traj = integrate(SystemState("extended", u, xi, lam=lam),
                             1e-3, 1000, scheme="ifrk4", record_every=50)
            drift = drift_report(traj).drift
            for label in worst:
                worst[label] = max(worst[label], drift[label])
    ok = worst["H0"] <= 1e-10 and all(worst[k] <= 1e-6
                                      for k in ("H2", "H4", "H6"))
    verdict(3, ok, "max drift over {symplectic:1, grassmann:4} x {-1, +1}: "
                   f"H0 {worst['H0']:.1e} <= 1e-10; "
                   f"H2 {worst['H2']:.1e}, H4 {worst['H4']:.1e}, "
                   f"H6 {worst['H6']:.1e} <= 1e-6")


def _mapped_run(kind, backend, lam, eps=0.0):
    """The mapped flow residual of a 500-step run, and the run."""
    grid = PeriodicGrid(40.0, 128)
    u, xi = random_ic(backend, grid, max_mode=4, amplitude=0.4)
    state = SystemState(kind, u, xi, lam=lam,
                        epsilon=eps if kind == "gardner" else 0.0)
    traj = integrate(state, 1e-3, 500, scheme="ifrk4", record_every=5)
    return fd_flow_residual(to_extended_trajectory(traj)), traj


def test_criterion_04_miura_transport():
    residuals = {backend: _mapped_run("modified", backend, 1.0)[0]
                 for backend in ("grassmann:4", "symplectic:1")}
    ok = all(r <= 1e-5 for r in residuals.values())
    verdict(4, ok, "mapped modified-flow residual under the extended dynamics: "
                   + ", ".join(f"{b} {r:.2e}" for b, r in residuals.items())
                   + " <= 1e-5 over t in [0, 0.5]")


def _gardner_deviations(epsilons, reached):
    """Deviation of the gardner flow at each eps from one extended run of
    300 steps; reached maps an eps to its gardner even field at that step
    where a longer run has recorded it already."""
    grid = PeriodicGrid(40.0, 128)
    z, sigma = random_ic("symplectic:1", grid, max_mode=4, amplitude=0.4)

    def final_even(kind, eps=0.0):
        return integrate(SystemState(kind, z, sigma, lam=1.0, epsilon=eps),
                         1e-3, 300, scheme="ifrk4", record_every=300).final.even

    extended = final_even("extended")
    return [((reached[eps] if eps in reached else final_even("gardner", eps))
             - extended).norm() for eps in epsilons]


def test_criterion_05_gardner_transport():
    runs = {backend: _mapped_run("gardner", backend, 1.0, eps=0.1)
            for backend in ("grassmann:4", "symplectic:1")}
    residuals = {backend: r for backend, (r, _) in runs.items()}
    # the symplectic:1 run recorded step 300 as record 60
    dev1, dev2 = _gardner_deviations((0.1, 0.05), {0.1: runs["symplectic:1"][1][60].even})
    ratio = dev1 / dev2
    ok = all(r <= 1e-5 for r in residuals.values()) and 3.4 <= ratio <= 4.6
    verdict(5, ok, "mapped gardner-flow residual at eps=0.1: "
                   + ", ".join(f"{b} {r:.2e}" for b, r in residuals.items())
                   + f" <= 1e-5; eps-halving deviation ratio {ratio:.2f} "
                   "in [3.4, 4.6]")


def test_criterion_06_inverse_roundtrip():
    grid = PeriodicGrid(40.0, 128)
    slopes = {}
    for backend in ("symplectic:1", "grassmann:4"):
        u, xi = random_ic(backend, grid, max_mode=2, amplitude=0.3)

        def roundtrip(e):
            z, s = inverse_gardner_series(u, xi, 1.0, e, order=6)
            uu, xx = gardner_map(z, s, 1.0, e)
            return max((uu - u).norm(), (xx - xi).norm())

        slopes[backend] = float(np.log2(roundtrip(0.1) / roundtrip(0.05)))
    ok = all(6.5 <= s <= 7.5 for s in slopes.values())
    verdict(6, ok, "order-6 round-trip eps-halving slope: "
                   + ", ".join(f"{b} {s:.2f}" for b, s in slopes.items())
                   + " in [6.5, 7.5] (= 7 +/- 0.5)")


def test_criterion_07_grassmann_equivalences():
    # the extended system on grassmann is the N=1 super KdV: its compiled
    # right-hand side against the one written with the odd product,
    # -6 L xi xi'', by field arithmetic
    grid = PeriodicGrid(20.0, 128)
    u, eta = random_ic("grassmann:4", grid)
    re1, ro1 = rhs_extended(u, eta, 1.0)
    re2, ro2 = rhs_skdv_grassmann(u, eta, 1.0)
    scale = max(re1.norm(), ro1.norm(), 1.0)
    rhs_diff = max((re1 - re2).norm(), (ro1 - ro2).norm()) / scale

    term1 = (eta.commutator(eta.derivative()) * eta.derivative()).norm()
    term2 = (eta.commutator(eta.derivative(2)) * eta).norm()
    bracket = eta.derivative().commutator(eta)
    square = (bracket * bracket).norm()
    ok = rhs_diff <= 1e-12 and max(term1, term2) <= 1e-14 and square <= 1e-14
    verdict(7, ok, f"rhs_skdv vs rhs_extended {rhs_diff:.1e} <= 1e-12; "
                   f"modified-system cubic terms {max(term1, term2):.1e} "
                   f"<= 1e-14; pointwise bracket square {square:.1e} <= 1e-14")


def test_criterion_08_susy_flow_commutation():
    noise_floor = 1e-12
    details, ok = [], True
    grid = PeriodicGrid(20.0, 64)
    for backend in ("symplectic:1", "grassmann:4"):
        desc = AlgebraDescriptor.from_string(backend)
        u, xi = random_ic(backend, grid, max_mode=3, amplitude=0.3)
        state = SystemState("extended", u, xi, lam=1.0)
        rng = np.random.default_rng(1)
        param = OddValue(desc, 0.2 * rng.uniform(-1.0, 1.0, desc.odd_dim))
        d1 = flow_commutation_defect(state, param, 1e-3, 40, scheme="ifrk4")
        d2 = flow_commutation_defect(state, param, 5e-4, 80, scheme="ifrk4")
        if d1 <= noise_floor and d2 <= noise_floor:
            details.append(f"{backend} defect {d1:.1e}/{d2:.1e} at roundoff")
        else:
            ratio = d1 / d2
            details.append(f"{backend} ratio {ratio:.2f}")
            ok = ok and 3.4 <= ratio <= 4.6
    verdict(8, ok, "; ".join(details)
            + " (commutation exact up to roundoff, so the O(h^2) band is "
              "passed at the noise floor)")


def test_criterion_09_coefficient_table():
    start = time.perf_counter()
    table = reproduce_conserved_quantities(max_order=6)
    elapsed = time.perf_counter() - start
    constants = {e["n"]: str(e["c"]) for e in table.entries}
    ok = (table.all_ok and elapsed < 60.0
          and constants == {0: "1", 2: "-1", 4: "1", 6: "-1"})
    verdict(9, ok, f"integrals match c*H_n with c = {constants}, odd orders "
                   f"vanish, all decided exactly modulo D; runtime "
                   f"{elapsed:.1f}s < 60s")


def test_criterion_10_byte_determinism(tmp_path):
    sim_args = ["simulate", "--system", "gardner", "--algebra", "symplectic:1",
                "--lambda", "1", "--gardner-eps", "0.1", "--grid", "128",
                "--dt", "1e-3", "--t-end", "0.05", "--seed", "5",
                "--ic", "random_bandlimited(max_mode=4,amplitude=0.4)"]
    dirs = [tmp_path / "a", tmp_path / "b"]
    for d in dirs:
        assert cli_main(sim_args + ["--out", str(d)]) == 0
    files = sorted(p.name for p in dirs[0].iterdir())
    sim_same = all(filecmp.cmp(dirs[0] / n, dirs[1] / n, shallow=False)
                   for n in files)

    verdicts = [tmp_path / "v1.json", tmp_path / "v2.json"]
    for v in verdicts:
        assert cli_main(["check", "algebra", "--out", str(v)]) == 0
    check_same = filecmp.cmp(*verdicts, shallow=False)

    plots = [tmp_path / "p1.svg", tmp_path / "p2.svg"]
    for p in plots:
        assert cli_main(["plot", "--csv", str(dirs[0] / "conserved.csv"),
                         "--out", str(p)]) == 0
    plot_same = filecmp.cmp(*plots, shallow=False)

    ok = sim_same and check_same and plot_same
    verdict(10, ok, f"rerun comparison over {len(files)} simulate artifacts, "
                    "check verdict, and plot: all byte-identical")


@pytest.mark.parametrize("system,algebra,grid", [
    (["modified"], "grassmann:6", "256"),
    (["gardner", "--gardner-eps", "0.1"], "grassmann:6", "256"),
    (["modified"], "grassmann:8", "64")], ids=["modified", "gardner", "modified-grassmann:8"])
def test_byte_determinism_across_blas_thread_counts(tmp_path, system, algebra, grid):
    # The algebra products reduce with a BLAS matmul, so every field value
    # passes through it.  grassmann:6 at N=256 gives the largest product
    # tables the benchmark runs, large enough for OpenBLAS to split them
    # over two threads.  Gardner's even flux and odd source have two groups
    # each, whose folds laid side by side would be wider than one table.
    # grassmann:8 is the largest backend the README says is independent of
    # the thread count: its top channels sum 128 products each
    src = str(pathlib.Path(__file__).resolve().parent.parent / "src")
    sim_args = ["simulate", "--system", *system, "--algebra", algebra,
                "--lambda", "1", "--scheme", "rk4", "--grid", grid, "--dt", "2e-4",
                "--t-end", "0.004", "--record-every", "5", "--seed", "3",
                "--ic", "random_bandlimited(max_mode=4,amplitude=0.4)"]
    dirs = {threads: tmp_path / f"threads{threads}" for threads in ("1", "2")}
    for threads, out in dirs.items():
        env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
        env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
        proc = subprocess.run([sys.executable, "-m", "superkdv.cli", *sim_args,
                               "--out", str(out)],
                              env=env, capture_output=True, text=True, timeout=300)
        assert proc.returncode == 0, proc.stderr[-2000:]
    files = sorted(p.name for p in dirs["1"].iterdir())
    assert files == sorted(p.name for p in dirs["2"].iterdir())
    assert len(files) == 7  # manifest, csv, five snapshots
    same = all(filecmp.cmp(dirs["1"] / n, dirs["2"] / n, shallow=False) for n in files)
    verdict(10, same, f"{len(files)} simulate artifacts byte-identical with one "
                      "and with two BLAS threads")


@pytest.mark.slow
def test_soliton_box_transit_benchmark():
    # one full period around the box: t = L / (4 kappa^2)
    grid = PeriodicGrid(40.0, 512)
    desc = AlgebraDescriptor.from_string("scalar")
    u, xi = build_initial_condition("soliton(kappa=1)", grid, desc)
    t_end = 10.0
    steps = 100000
    traj = integrate(SystemState("extended", u, xi), t_end / steps, steps,
                     scheme="ifrk4", record_every=steps)
    err = float(np.max(np.abs(traj.final.even.data - u.data)))
    print(f"box transit Linf after t={t_end}: {err:.3e}")
    assert err <= 1e-3
