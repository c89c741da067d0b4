"""Self-tests of the benchmark:  python3 -m pytest perfbench -q"""

import json
import shutil
import subprocess
import sys
import time
from pathlib import Path

import pytest

import run
import workloads
from tracing import Tracer

import superkdv as skdv
from superkdv import dynamics, transforms


def _traced_soliton(steps=5):
    w = workloads.SolitonScalar(steps=steps)
    inputs = w.setup(3)
    with Tracer() as tracer:
        mark = tracer.mark()
        t0 = time.perf_counter()
        assert w.repetition(inputs).ok
        return tracer.layer_metrics(mark, time.perf_counter() - t0)


def test_wrong_reference_fails_every_repetition():
    good = workloads.SolitonScalar(steps=20)
    wrong = workloads.SolitonScalar(steps=20, ref_kappa=1.05)
    for workload, expected in ((good, 0.0), (wrong, 1.0)):
        inputs = workload.setup(0)
        _, gates = run.measure(lambda: workload.repetition(inputs), 0, 2)
        assert run.failures(gates) / len(gates) == expected


def test_raising_repetition_counts_as_failed():
    def boom():
        raise skdv.SuperKdVError("injected")

    _, gates = run.measure(boom, 0, 2)
    assert gates == [None, None] and run.failures(gates) == 2


def test_repetitions_start_cold_and_must_repeat_the_first_output():
    seen = []

    def repetition():
        seen.append(1)  # reaches neither the parent nor the next repetition
        return workloads.Gate(len(seen) == 1, fingerprint="first")

    _, gates = run.measure(repetition, 0, 2)
    assert seen == [] and run.failures(gates) == 0
    gates.append(workloads.Gate(True, fingerprint="other"))
    run.require_same_output(gates)
    assert run.failures(gates) == 1 and gates[-1].values["same_as_first"] is False


def test_traced_counts_repeat_exactly():
    a, b = _traced_soliton(), _traced_soliton()
    counts = [k for k in a if not k.endswith("_s") and "ms_per" not in k]
    assert {k: a[k] for k in counts} == {k: b[k] for k in counts}
    assert a["dynamics.steps"] == 5 and a["fields.fft_calls"] > 0


def test_self_times_are_bounded_by_the_traced_wall_time():
    m = _traced_soliton()
    selfs = [v for k, v in m.items() if k.endswith(".self_s")] + [m["fields.fft_s"]]
    assert all(s >= 0 for s in selfs)
    assert sum(selfs) <= m["trace.wall_s"]
    assert m["trace.unattributed_s"] >= 0


@pytest.mark.parametrize("kind, algebra, scheme, eps, rfft", [
    ("extended", "scalar", "ifrk4", 0.0, 30),
    ("extended", "grassmann:3", "ifrk4", 0.0, 34),
    ("gardner", "symplectic:1", "ifrk4", 0.1, 42),
    ("modified", "grassmann:6", "rk4", 0.0, 32),
])
def test_exact_fft_and_rhs_counts_per_step(kind, algebra, scheme, eps, rfft):
    grid = skdv.PeriodicGrid(40.0, 64)
    desc = skdv.AlgebraDescriptor.from_string(algebra)
    u, xi = skdv.build_initial_condition("random_bandlimited(max_mode=3,amplitude=0.3)",
                                         grid, desc)
    state = skdv.SystemState(kind, u, xi, lam=1.0, epsilon=eps)
    with Tracer() as tracer:
        mark = tracer.mark()
        skdv.integrate(state, 1e-5, 3, scheme=scheme)
        m = tracer.layer_metrics(mark, 1.0)
    key = f"dynamics.{kind}_{scheme}"
    assert m[f"{key}.rfft_per_step"] == rfft
    assert m[f"{key}.irfft_per_step"] == rfft
    assert m[f"{key}.rhs_per_step"] == 4 == m["dynamics.rhs_per_step"]


def test_wrappers_reach_from_import_bindings_and_are_removed():
    original = dynamics.integrate
    with Tracer():
        assert transforms.integrate is not original
        assert skdv.cli.integrate is transforms.integrate is skdv.integrate
    assert transforms.integrate is original is skdv.cli.integrate
    assert "derivative" not in vars(skdv.EvenField)


def test_readme_seed7_reproduces_the_documented_run():
    w = workloads.ReadmeSimulate()
    gate = w.repetition(w.setup(7))
    assert gate.ok and gate.values["digest"] == w.SEED7_DIGEST_PREFIX


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(Path(run.HERE), tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run([sys.executable, "perfbench/run.py", "--workload", "checks",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0 and done.stdout == ""


def test_benchmark_json_names_every_reported_metric():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(run.WORKLOAD_NAMES) == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.UNITS
    traced = list(_traced_soliton()) + ["trace.overhead_s"]
    assert [m["name"] for m in spec["per_layer"]] == traced
    assert all(m["unit"] == run.unit_of(m["name"]) for m in spec["per_layer"])
