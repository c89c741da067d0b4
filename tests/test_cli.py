import base64
import filecmp
import hashlib
import json
import os
import pickle
import re
import subprocess
import sys

import numpy as np
import pytest

from superkdv import cli, snapshots
from superkdv.algebra import AlgebraDescriptor
from superkdv.cli import UsageError, _in_parallel, build_parser, main
from superkdv.errors import (DescriptorMismatch, ExpressionSyntaxError, GradingError,
                             NonFiniteFieldError, NumericalBlowup, StabilityError,
                             SuperKdVError)
from superkdv.dynamics import SystemState
from superkdv.fields import EvenField, OddField, PeriodicGrid
from superkdv.snapshots import dump_json, load_json, read_csv, read_snapshot, state_to_dict


def run(argv):
    return main([str(a) for a in argv])


def simulate_soliton(outdir, extra=()):
    return run(["simulate", "--system", "extended", "--algebra", "scalar",
                "--ic", "soliton(kappa=1)", "--L", 40, "--grid", 256,
                "--dt", 5e-4, "--t-end", 0.05, "--out", outdir, *extra])


FORKED, SERIAL = {0, 1}, {0}


def cpus(monkeypatch, allowed):
    """Make this process appear to run on the CPUs in allowed, which sets
    whether _in_parallel forks its child."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(allowed))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


@pytest.fixture(autouse=True)
def no_child_left_after_the_test():
    # a child that a test leaves, running or ended, fails that test; the
    # ended ones are reaped here, so that they fail no later test
    yield
    reaped = []
    try:
        while pid := os.waitpid(-1, os.WNOHANG)[0]:
            reaped.append(pid)
    except ChildProcessError:  # no child is left
        if not reaped:
            return
    pytest.fail(f"the test left child processes (reaped here: {reaped})")


def test_simulate_writes_artifacts(tmp_path):
    out = tmp_path / "run"
    assert simulate_soliton(out) == 0
    manifest = load_json(out / "manifest.json")
    assert manifest["system"] == "extended"
    assert manifest["N"] == 256
    assert manifest["ic"]["name"] == "soliton"
    assert "code_version" in manifest
    assert "dealias" not in manifest  # every run uses the 2/3 rule
    header, rows = read_csv(out / "conserved.csv")
    assert header[0] == "time"
    assert "H2[unit]" in header
    assert len(rows) >= 2
    snaps = sorted(out.glob("snapshot_*.json"))
    assert len(snaps) >= 2
    first = read_snapshot(snaps[0])
    assert first.time == 0.0
    assert first.even.data.min() == pytest.approx(-2.0, rel=1e-6)


def test_zero_ic_gives_all_zero_csv(tmp_path):
    out = tmp_path / "zero"
    assert run(["simulate", "--system", "extended", "--ic", "zero",
                "--t-end", 0.02, "--out", out]) == 0
    _, rows = read_csv(out / "conserved.csv")
    values = np.asarray(rows, dtype=float)[:, 1:]
    assert np.all(values == 0.0)


def test_same_seed_byte_identical(tmp_path):
    args = ["simulate", "--system", "extended", "--algebra", "grassmann:3",
            "--lambda", 1, "--ic", "random_bandlimited(max_mode=5,amplitude=0.5)",
            "--seed", 11, "--grid", 128, "--t-end", 0.02, "--out"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(args + [a]) == 0
    assert run(args + [b]) == 0
    assert filecmp.cmp(a / "conserved.csv", b / "conserved.csv", shallow=False)
    assert filecmp.cmp(a / "manifest.json", b / "manifest.json", shallow=False)
    for snap_a in sorted(a.glob("snapshot_*.json")):
        assert filecmp.cmp(snap_a, b / snap_a.name, shallow=False)


def test_readme_run_reproduces_its_digest(tmp_path):
    # the README's first simulate command at --seed 7: the sha256 of its 53
    # files, in sorted-name order, as perfbench/workloads.py's digest
    # computes it.  CHANGES.md records each move of this digest
    out = tmp_path / "run"
    assert main(["simulate", "--system", "extended", "--algebra", "grassmann:3",
                 "--lambda", "1.0", "--ic", "random_bandlimited(max_mode=5,amplitude=0.5)",
                 "--seed", "7", "--L", "40", "--grid", "256", "--dt", "1e-3",
                 "--t-end", "1.0", "--scheme", "ifrk4", "--out", str(out)]) == 0
    names = sorted(p.name for p in out.iterdir())
    digest = hashlib.sha256()
    for name in names:
        digest.update((out / name).read_bytes())
    assert len(names) == 53
    assert digest.hexdigest()[:12] == "d0a1ddd31348"


def assert_same_files(a, b):
    names = sorted(p.name for p in a.iterdir())
    assert names == sorted(p.name for p in b.iterdir())
    for name in names:
        assert filecmp.cmp(a / name, b / name, shallow=False), name


@pytest.mark.parametrize("flags", [
    ["--system", "gardner", "--algebra", "symplectic:1", "--gardner-eps", 0.1],
    ["--system", "modified", "--algebra", "grassmann:4"]], ids=["gardner", "modified"])
def test_simulate_starts_no_process(flags, tmp_path, monkeypatch, capsys):
    # with two CPUs in the affinity mask, a run still writes its snapshots
    # in its own process: a fork would raise here
    cpus(monkeypatch, FORKED)
    monkeypatch.setattr(os, "fork", lambda: pytest.fail("simulate forked"))
    out = tmp_path / "run"
    assert run(["simulate", *flags, "--lambda", 1,
                "--ic", "random_bandlimited(max_mode=3,amplitude=0.3)", "--grid", 64,
                "--t-end", 0.01, "--out", out]) == 0
    assert len(list(out.glob("snapshot_*.json"))) == 11
    assert capsys.readouterr().out.startswith(f"wrote 11 snapshots over t in [0, 0.01] to {out};")


def test_a_snapshot_that_cannot_be_written_exits_2(tmp_path, monkeypatch, capsys):
    # the fourth snapshot's write fails: the manifest and the first three
    # snapshots are written, no table
    write_text = snapshots.write_text

    def failing(text, path):
        if os.path.basename(path) == "snapshot_0003.json":
            raise PermissionError(13, "Permission denied", path)
        write_text(text, path)

    monkeypatch.setattr(snapshots, "write_text", failing)
    out = tmp_path / "run"
    assert simulate_soliton(out) == 2
    captured = capsys.readouterr()
    failed = out / "snapshot_0003.json"
    assert (captured.out, captured.err) == (
        "", f"error: cannot write {failed}: Permission denied\n")
    assert sorted(p.name for p in out.iterdir()) == [
        "manifest.json", "snapshot_0000.json", "snapshot_0001.json", "snapshot_0002.json"]


def assert_one_line_json(directory):
    """Every .json file in directory is one line, its document's compact
    form with sorted keys."""
    names = sorted(p.name for p in directory.glob("*.json"))
    assert names
    for name in names:
        text = (directory / name).read_text()
        canonical = json.dumps(json.loads(text), sort_keys=True, separators=(",", ":"))
        assert text == canonical + "\n", name


def test_every_json_file_of_a_run_is_one_compact_line(tmp_path):
    out = tmp_path / "run"
    assert run(["simulate", "--system", "gardner", "--algebra", "grassmann:3",
                "--gardner-eps", 0.1, "--ic", "random_bandlimited(max_mode=3,amplitude=0.3)",
                "--grid", 64, "--t-end", 0.002, "--out", out]) == 0
    assert_one_line_json(out)
    # a blow-up writes its manifest and last finite state, and no snapshot
    blow = tmp_path / "blow"
    assert run(["simulate", "--ic", "soliton(kappa=1)", "--dt", 0.05, "--scheme", "rk4",
                "--t-end", 5, "--force", "--out", blow]) == 3
    assert sorted(p.name for p in blow.iterdir()) == ["manifest.json", "snapshot_last.json"]
    assert_one_line_json(blow)


def test_seed_flag_feeds_random_ic(tmp_path):
    args = ["simulate", "--ic", "random_bandlimited(max_mode=4,amplitude=0.4)",
            "--grid", 128, "--t-end", 0.01, "--out"]
    a, b = tmp_path / "a", tmp_path / "b"
    assert run(args + [a, "--seed", 1]) == 0
    assert run(args + [b, "--seed", 2]) == 0
    assert load_json(a / "manifest.json")["ic"]["params"]["seed"] == 1
    assert not filecmp.cmp(a / "conserved.csv", b / "conserved.csv", shallow=False)


def test_ic_seed_wins_over_the_seed_flag_however_written(tmp_path):
    # the IC's own seed is read from the parsed IC, not its text, so
    # "seed = 3" is seed 3 as "seed=3" is, and --seed does not replace it
    outs = {}
    for name, ic in (("tight", "random_bandlimited(seed=3)"),
                     ("spaced", "random_bandlimited(seed = 3)")):
        outs[name] = tmp_path / name
        assert run(["simulate", "--ic", ic, "--grid", 64, "--t-end", 0.002,
                    "--seed", 5, "--out", outs[name]]) == 0
    assert load_json(outs["tight"] / "manifest.json")["ic"]["params"]["seed"] == 3
    assert_same_files(outs["tight"], outs["spaced"])


def test_invalid_combinations_exit_2(tmp_path, monkeypatch, capsys):
    refused = {
        "y": ["--system", "extended", "--gardner-eps", 0.1],
        "z": ["--system", "extended", "--dt", -1],
        "w": ["--algebra", "grassmann:99"],
        "v": ["--record-every", 0],
        "dt_nan": ["--dt", "nan"],
        "t_end_inf": ["--t-end", "inf"],
        "L_inf": ["--L", "inf"],
        "L_nan": ["--L", "nan"],
        "lam_nan": ["--lambda", "nan"],
        "lam_inf": ["--lambda", "inf"],
        "eps_nan": ["--system", "gardner", "--gardner-eps", "nan"],
    }
    # finite flags whose run overflows: a coupling or deformation past the
    # floats in a term coefficient, a step count past the floats or past
    # cli.MAX_STEPS, and a grid length whose k_max_active ** 3 or top mode's k ** 3 is no
    # positive finite float.  Each is refused before any step, naming its
    # parameter, with no numpy warning
    overflowing = {
        "lam_huge": (["--algebra", "grassmann:2", "--lambda", 1e200, "--ic",
                      "random_bandlimited", "--t-end", 0.01], "lam = 1e+200"),
        "eps_huge": (["--system", "gardner", "--algebra", "symplectic:1",
                      "--gardner-eps", 1e200, "--t-end", 0.01], "epsilon = 1e+200"),
        "dt_tiny": (["--dt", 1e-320], "--t-end / --dt"),
        "steps_huge": (["--t-end", 1e308, "--dt", 1e-10], "--t-end / --dt"),
        "steps_past_the_bound": (["--t-end", 1e300, "--dt", 1e-3], "--t-end / --dt"),
        "steps_one_past_the_bound": (["--t-end", cli.MAX_STEPS + 1, "--dt", 1],
                                     f"more than {cli.MAX_STEPS}"),
        "L_huge": (["--L", 1e300], "grid length 1e+300"),
        "L_tiny": (["--grid", 16, "--L", 1e-300], "grid length 1e-300"),
        "L_tiny_top_mode": (["--grid", 16, "--L", 6.77e-102, "--dt", 1e-306, "--t-end", 1e-305,
                             "--force", "--ic", "zero"], "grid length 6.77e-102"),
    }
    refused.update((name, flags) for name, (flags, _) in overflowing.items())
    # initial-condition arguments that do not parse, are not finite or are
    # out of range, and one given twice
    refused["ic_repeated"] = ["--ic", "soliton(kappa=1,kappa=2)"]
    for ic in ["random_bandlimited(seed=1.5)", "soliton(kappa=abc)", "gaussian(width=0)",
               "gaussian(width=-2)", "gaussian(amplitude=nan)", "soliton(x0=nan)",
               "soliton(kappa=inf)", "random_bandlimited(max_mode=-1)",
               "random_bandlimited(max_mode=2.5)", "gaussian(center=1e999)",
               "random_bandlimited(max_mode=128)"]:
        refused["ic_" + re.sub(r"\W", "_", ic)] = ["--ic", ic]
    # a step count past the bound fails here rather than running until killed
    integrate = cli.integrate

    def bounded(state, dt, steps, **settings):
        if steps > 10 ** 6:
            pytest.fail(f"simulate started a run of {steps} steps")
        return integrate(state, dt, steps, **settings)

    monkeypatch.setattr(cli, "integrate", bounded)
    for name, flags in refused.items():
        assert run(["simulate", *flags, "--out", tmp_path / name]) == 2, flags
        assert not (tmp_path / name).exists(), flags
        err = capsys.readouterr().err
        if name == "ic_repeated":
            assert "IC argument 'kappa' is given twice" in err, err
        if name in overflowing:
            assert err.startswith("error: ") and err.count("\n") == 1, err
            assert "Traceback" not in err and overflowing[name][1] in err, err


def test_system_skdv_is_refused(tmp_path, capsys):
    # the N=1 super KdV is --system extended on a grassmann algebra; skdv is
    # no system, and a snapshot of the deleted skdv_grassmann kind does not
    # plot
    with pytest.raises(SystemExit) as info:
        run(["simulate", "--system", "skdv", "--algebra", "grassmann:3",
             "--out", tmp_path / "flag"])
    assert info.value.code == 2
    assert not (tmp_path / "flag").exists()
    assert run(["simulate", "--system", "extended", "--algebra", "grassmann:3",
                "--ic", "random_bandlimited(max_mode=3,amplitude=0.3)", "--grid", 64,
                "--t-end", 0.002, "--out", tmp_path / "run"]) == 0
    doc = load_json(tmp_path / "run" / "snapshot_0000.json")
    doc["system"] = "skdv_grassmann"
    dump_json(doc, tmp_path / "skdv.json")
    capsys.readouterr()
    assert run(["plot", "--snapshot", tmp_path / "skdv.json",
                "--out", tmp_path / "u.svg"]) == 2
    assert "skdv_grassmann" in capsys.readouterr().err
    assert not (tmp_path / "u.svg").exists()


def test_non_finite_initial_state_exits_2_writing_nothing(tmp_path, capsys):
    # kappa = 1e154 is finite, but -2 kappa^2 is not: the run is refused
    # before any step, with no manifest and no snapshot_last.json
    out = tmp_path / "inf"
    assert run(["simulate", "--ic", "soliton(kappa=1e154)", "--out", out]) == 2
    assert "initial state is not finite" in capsys.readouterr().err
    assert not out.exists()


def test_stability_guard_refusal_exit_2(tmp_path, capsys):
    code = run(["simulate", "--ic", "soliton(kappa=1)", "--dt", 0.05,
                "--scheme", "rk4", "--t-end", 1, "--out", tmp_path / "g"])
    assert code == 2
    assert "dt" in capsys.readouterr().err
    assert not (tmp_path / "g").exists()


@pytest.mark.parametrize("below", [False, True], ids=["file", "under-a-file"])
def test_simulate_refuses_an_unwritable_out_before_any_step(below, tmp_path, monkeypatch,
                                                            capsys):
    # --out is a regular file, or a path under one: no directory can be
    # made there, which is known before the run integrates anything
    blocker = tmp_path / "file"
    blocker.write_text("kept\n")
    out = blocker / "run" if below else blocker
    monkeypatch.setattr(cli, "integrate", lambda *a, **k: pytest.fail("integrated"))
    assert run(["simulate", "--t-end", 0.002, "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write --out {out}: {blocker} is no writable directory\n"
    assert blocker.read_text() == "kept\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == ["file"]


def test_blowup_exit_3_saves_last_state(tmp_path):
    out = tmp_path / "blow"
    code = run(["simulate", "--ic", "soliton(kappa=1)", "--dt", 0.05,
                "--scheme", "rk4", "--t-end", 5, "--force", "--out", out])
    assert code == 3
    last = read_snapshot(out / "snapshot_last.json")
    assert np.all(np.isfinite(last.even.data))
    assert (out / "manifest.json").exists()


def test_dealiasing_cannot_be_turned_off(tmp_path):
    # every run uses the 2/3 rule: --no-dealias is no flag
    with pytest.raises(SystemExit) as info:
        run(["simulate", "--no-dealias", "--out", tmp_path / "flag"])
    assert info.value.code == 2
    assert not (tmp_path / "flag").exists()


def test_config_is_no_flag(tmp_path):
    # flags are the only input: --config is no flag, and nothing is read
    # from the file it would name
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"system": "gardner", "gardner_eps": 0.1}))
    with pytest.raises(SystemExit) as info:
        run(["simulate", "--config", cfg, "--out", tmp_path / "flag"])
    assert info.value.code == 2
    assert not (tmp_path / "flag").exists()


def test_conserved_quantities_cannot_be_chosen(tmp_path):
    # a run evaluates every conserved quantity of its system: --track is no
    # flag, and a manifest does not record it
    with pytest.raises(SystemExit) as info:
        run(["simulate", "--track", "H2", "--out", tmp_path / "flag"])
    assert info.value.code == 2
    assert not (tmp_path / "flag").exists()
    out = tmp_path / "run"
    assert run(["simulate", "--grid", 64, "--t-end", 0.002, "--out", out]) == 0
    assert "track" not in load_json(out / "manifest.json")
    header, _ = read_csv(out / "conserved.csv")
    assert header == ["time", "H0[unit]", "H2[unit]", "H4[unit]", "H6[unit]"]


def test_manifest_records_every_setting(tmp_path):
    # everything the run depended on: each simulate flag's setting but
    # --out, under its flag's name, grid as N
    out = tmp_path / "run"
    assert run(["simulate", "--t-end", 0.002, "--force", "--out", out]) == 0
    manifest = load_json(out / "manifest.json")
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    dests = {a.dest for a in sub.choices["simulate"]._actions} - {"help", "out"}
    names = {"lam": "lambda", "grid": "N"}
    assert {names.get(dest, dest) for dest in dests} <= set(manifest)
    assert manifest["force"] is True
    assert run(["simulate", "--t-end", 0.002, "--out", tmp_path / "plain"]) == 0
    assert load_json(tmp_path / "plain" / "manifest.json")["force"] is False


@pytest.mark.parametrize("flags", [
    ["--ic", "random_bandlimited(max_mode=3,amplitude=0.1)", "--seed", -1],
    ["--ic", "random_bandlimited(max_mode=3,amplitude=0.1,seed=-2)"],
    # refused up front, whether or not the initial condition reads it
    ["--ic", "zero", "--seed", -4],
    ["--ic", "random_bandlimited(seed=2)", "--seed", -4],
])
def test_negative_seed_exits_2(flags, tmp_path, capsys):
    out = tmp_path / "neg"
    assert run(["simulate", *flags, "--t-end", 0.01, "--out", out]) == 2
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


def test_check_refuses_negative_seed(capsys):
    assert run(["check", "miura", "--seed", -1]) == 2
    assert capsys.readouterr().err == "error: --seed must be non-negative, got -1\n"


def test_modified_system_tracks_hamiltonian(tmp_path):
    out = tmp_path / "mod"
    assert run(["simulate", "--system", "modified", "--algebra", "grassmann:2",
                "--lambda", 1, "--ic", "random_bandlimited(max_mode=3,amplitude=0.3)",
                "--grid", 128, "--t-end", 0.02, "--out", out]) == 0
    header, _ = read_csv(out / "conserved.csv")
    assert header[0] == "time"
    assert all(h.startswith("H[") for h in header[1:])


def test_check_algebra_pass_and_fail(tmp_path, capsys):
    assert run(["check", "algebra"]) == 0
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["pass"] is True
    assert len(verdict["results"]) == 9

    out = tmp_path / "verdict.json"
    assert run(["check", "algebra", "--algebra", "grassmann:1", "--out", out]) == 1
    verdict = json.loads(capsys.readouterr().out)
    assert verdict["pass"] is False
    assert load_json(out) == verdict
    failed = [c for c in verdict["results"][0]["checks"] if not c["passed"]]
    assert any("nondegenerate" in c["name"] for c in failed)


def test_check_densities_passes(capsys):
    assert run(["check", "densities"]) == 0
    captured = capsys.readouterr()
    verdict = json.loads(captured.out)
    assert verdict["pass"] is True
    constants = {e["n"]: e["c"] for e in verdict["results"]["entries"]}
    assert constants == {0: "1", 2: "-1", 4: "1", 6: "-1"}
    assert verdict["tolerances"] == "exact"
    assert "order" in captured.err


def test_check_verdict_shape(capsys):
    run(["check", "algebra"])
    verdict = json.loads(capsys.readouterr().out)
    assert set(verdict) >= {"check", "pass", "tolerances"}


# ---------------------------------------------------------------------------
# check suites that split their runs across two processes

# the sha256 of each suite's stdout, and its exit code, at its defaults,
# and at a coupling where check susy fails: variation squared on
# grassmann:4 reads 4.0e-11 against 1e-12
NUMERIC_SUITE_DIGESTS = {"miura": ("ff3de21553ea", 0), "gardner": ("52e888238332", 0),
                         "susy": ("c72c9d77d743", 0), "susy --lambda 1e6": ("f732c67d9ab6", 1)}


@pytest.mark.parametrize("flags", sorted(NUMERIC_SUITE_DIGESTS))
def test_numeric_check_suites_print_the_same_verdict_forked_and_serially(
        flags, monkeypatch, capsys):
    digest, code = NUMERIC_SUITE_DIGESTS[flags]
    printed = {}
    for allowed in (FORKED, SERIAL):
        cpus(monkeypatch, allowed)
        assert run(["check", *flags.split()]) == code
        assert_no_child_left()
        printed[len(allowed)] = capsys.readouterr()
    forked, serial = printed[2], printed[1]
    assert hashlib.sha256(forked.out.encode()).hexdigest()[:12] == digest
    assert (serial.out, serial.err) == (forked.out, forked.err)


@pytest.mark.parametrize("flags", [
    f"{suite} --lambda {value}" for suite in ("miura", "gardner", "susy") for value in ("nan", "inf")
] + [f"gardner --gardner-eps {value}" for value in ("nan", "inf")])
def test_check_refuses_a_non_finite_flag_before_any_run(flags, tmp_path, monkeypatch, capsys):
    # the flag is read under its own name before any suite runs, so no
    # worker is forked and no verdict written
    _, flag, value = flags.split()
    cpus(monkeypatch, FORKED)
    out = tmp_path / "verdict.json"
    assert run(["check", *flags.split(), "--out", out]) == 2
    assert_no_child_left()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: {flag} must be a finite float, got {value}\n"
    assert not out.exists()


def test_check_refuses_an_unwritable_out_printing_no_verdict(tmp_path, capsys):
    out = tmp_path / "missing" / "verdict.json"
    assert run(["check", "algebra", "--algebra", "scalar", "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {out}: No such file or directory\n"
    assert not (tmp_path / "missing").exists()


# flags, and those of them the suite does not read
UNREAD_CHECK_FLAGS = {
    "densities --lambda 5 --gardner-eps 3 --seed 9": "--lambda, --gardner-eps, --seed",
    "densities --seed 0": "--seed",
    "algebra --lambda 7": "--lambda",
    "algebra --algebra scalar --seed 1": "--seed",
    "miura --gardner-eps 0.3": "--gardner-eps",
    "susy --lambda 2 --gardner-eps 0.3": "--gardner-eps",
}


@pytest.mark.parametrize("flags", sorted(UNREAD_CHECK_FLAGS))
def test_check_refuses_a_flag_its_suite_does_not_read(flags, tmp_path, monkeypatch, capsys):
    # refused before any suite runs: no worker forked, no verdict written
    cpus(monkeypatch, FORKED)
    suite = flags.split()[0]
    out = tmp_path / "verdict.json"
    assert run(["check", *flags.split(), "--out", out]) == 2
    assert_no_child_left()
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: check {suite} does not read {UNREAD_CHECK_FLAGS[flags]}\n"
    assert not out.exists()


@pytest.mark.parametrize("suite", ["algebra", "gardner"])
def test_check_out_writes_the_printed_bytes(suite, tmp_path, capsys):
    out = tmp_path / "verdict.json"
    assert run(["check", suite, "--out", out]) == 0
    assert out.read_bytes() == capsys.readouterr().out.encode()


@pytest.mark.parametrize("eps", ["0", "-0.0"])
def test_check_gardner_refuses_eps_zero(eps, tmp_path, capsys):
    # at eps = 0 the runs at eps and eps/2 are one computation, whose
    # deviation ratio is 1 however right the map: no test, so no verdict
    out = tmp_path / "verdict.json"
    assert run(["check", "gardner", "--gardner-eps", eps, "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and "--gardner-eps" in captured.err
    assert not out.exists()


def scalar_field(value):
    return EvenField(PeriodicGrid(40.0, 16), AlgebraDescriptor.from_string("scalar"),
                     np.full((1, 16), value))


def stand_in_halves(suite, v):
    """Stand-ins for suite's halves whose rows read v[t] where tolerance t
    bounds them: the gardner deviation ratio is |v - 0| / |1 - 0|, and the
    susy defect ratio is v / 1, the h/2 defect 1 being above the noise
    floor."""
    if suite == "miura":
        return {"_miura_half": lambda backend, lam, seed: (
            v["mapped flow residual"], v["hamiltonian reduction"])}
    if suite == "gardner":
        return {"_gardner_mapped": lambda z, sigma, lam, eps: (
                    v["mapped flow residual"], scalar_field(v["deviation ratio band"])),
                "_gardner_references": lambda z, sigma, lam, eps: (
                    scalar_field(0.0), scalar_field(1.0)),
                "_roundtrip_slope": lambda lam, seed: v["slope band"]}
    return {"_susy_half": lambda backend, lam, seed: (
        v["defect ratio band"], 1.0, v["variation squared"])}


# values each suite's stand-ins pass with, by tolerance
PASSING = {"miura": {"mapped flow residual": 0.0, "hamiltonian reduction": 0.0},
           "gardner": {"mapped flow residual": 0.0, "deviation ratio band": 4.0,
                       "slope band": 7.0},
           "susy": {"defect ratio band": 4.0, "variation squared": 0.0}}


def stand_in_verdict(suite, halves, monkeypatch, capsys):
    """The verdict check suite prints with its halves replaced by halves,
    after checking that its exit code follows its pass."""
    for name, half in halves.items():
        monkeypatch.setattr(cli, name, half)
    code = run(["check", suite])
    assert_no_child_left()
    verdict = json.loads(capsys.readouterr().out)
    assert code == (0 if verdict["pass"] else 1)
    return verdict


def bound_cases(bound):
    """(value, whether it meets bound) for values just inside and just
    outside bound, and NaN: a number is an upper bound, a [lo, hi] pair a
    closed band."""
    lo, hi = bound if isinstance(bound, list) else (None, bound)
    cases = [(hi, True), (float(np.nextafter(hi, np.inf)), False), (float("nan"), False)]
    if lo is not None:
        cases += [(lo, True), (float(np.nextafter(lo, -np.inf)), False)]
    return cases


@pytest.mark.parametrize("allowed", [FORKED, SERIAL], ids=["forked", "serial"])
@pytest.mark.parametrize("suite", sorted(PASSING))
def test_numeric_verdicts_apply_their_printed_tolerances(suite, allowed, monkeypatch, capsys):
    # each row's value just inside, just outside and at NaN of the bound the
    # verdict prints for it: pass flips exactly where that bound says
    cpus(monkeypatch, allowed)
    passing = PASSING[suite]
    verdict = stand_in_verdict(suite, stand_in_halves(suite, passing), monkeypatch, capsys)
    assert verdict["pass"] is True
    tolerances = verdict["tolerances"]
    for name in passing:
        for value, meets in bound_cases(tolerances[name]):
            values = {**passing, name: value}
            verdict = stand_in_verdict(suite, stand_in_halves(suite, values), monkeypatch, capsys)
            assert verdict["pass"] is meets, (name, value)


@pytest.mark.parametrize("allowed", [FORKED, SERIAL], ids=["forked", "serial"])
def test_check_susy_judges_the_defect_ratio_above_its_noise_floor(allowed, monkeypatch,
                                                                  capsys):
    # defects d and floor / 16 have ratio 16, outside the band: unjudged, and
    # not printed, while d is at the floor; judged above it or at NaN
    cpus(monkeypatch, allowed)
    verdict = stand_in_verdict("susy", stand_in_halves("susy", PASSING["susy"]),
                               monkeypatch, capsys)
    floor = verdict["tolerances"]["noise floor"]
    for d, judged in [(floor, False), (float(np.nextafter(floor, np.inf)), True),
                      (float("nan"), True)]:
        halves = {"_susy_half": lambda backend, lam, seed: (d, floor / 16, 0.0)}
        verdict = stand_in_verdict("susy", halves, monkeypatch, capsys)
        ratios = [name for name in verdict["residuals"] if name.startswith("defect ratio")]
        assert (verdict["pass"], len(ratios)) == ((False, 2) if judged else (True, 0)), d


def test_check_error_in_a_worker_exits_2_as_serially(monkeypatch, capsys):
    # eps = 50 blows up the 500-step gardner run, which runs in the child
    for allowed in (FORKED, SERIAL):
        cpus(monkeypatch, allowed)
        assert run(["check", "gardner", "--gardner-eps", 50]) == 2
        assert_no_child_left()
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "error: non-finite values during step 4 (t=0.004)\n")


@pytest.mark.parametrize("flags,named", [(["--gardner-eps", 1e300], "epsilon = 1e+300"),
                                         (["--lambda", 1e200], "lam = 1e+200")])
def test_check_gardner_coefficient_overflow_exits_2_as_serially(flags, named, monkeypatch,
                                                                capsys):
    # a term coefficient past the floats is refused where the worker builds
    # its programs, by the same error forked and serially
    for allowed in (FORKED, SERIAL):
        cpus(monkeypatch, allowed)
        assert run(["check", "gardner", *flags]) == 2
        assert_no_child_left()
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", f"error: {named} makes a term coefficient overflow the floats\n")


@pytest.mark.parametrize("suite", ["miura", "gardner", "susy", "densities"])
def test_check_refuses_algebra_outside_check_algebra(suite, capsys):
    assert run(["check", suite, "--algebra", "grassmann:6"]) == 2
    assert "--algebra" in capsys.readouterr().err


def test_in_parallel_forks_one_child_for_the_first_thunk(monkeypatch):
    cpus(monkeypatch, FORKED)
    me = os.getpid()
    first, *rest = _in_parallel(os.getpid, os.getpid, os.getpid)
    assert first != me and rest == [me, me]
    assert_no_child_left()
    cpus(monkeypatch, SERIAL)
    assert _in_parallel(os.getpid, os.getpid) == [me, me]


def test_in_parallel_names_the_status_of_a_child_that_sent_nothing(monkeypatch):
    cpus(monkeypatch, FORKED)
    with pytest.raises(SuperKdVError, match="exited with status 3"):
        _in_parallel(lambda: os._exit(3), lambda: 1)
    assert_no_child_left()


def raise_error(error):
    raise error


@pytest.mark.parametrize("allowed", [FORKED, SERIAL], ids=["forked", "serial"])
def test_in_parallel_raises_the_first_error_in_thunk_order(allowed, monkeypatch):
    cpus(monkeypatch, allowed)
    with pytest.raises(StabilityError) as raised:
        _in_parallel(lambda: raise_error(StabilityError("dt too large", 0.5)), lambda: 1)
    assert (str(raised.value), raised.value.suggested_dt) == ("dt too large", 0.5)
    with pytest.raises(ValueError, match="child"):
        _in_parallel(lambda: raise_error(ValueError("child")),
                     lambda: raise_error(KeyError("here")))
    with pytest.raises(KeyError, match="here"):
        _in_parallel(lambda: 1, lambda: raise_error(KeyError("here")))
    assert_no_child_left()


@pytest.mark.parametrize("error", [
    SuperKdVError("plain"),
    DescriptorMismatch("grassmann:2 vs grassmann:3"),
    GradingError("odd * odd"),
    NonFiniteFieldError("nan samples"),
    UsageError("--out DIR is required"),
    StabilityError("dt too large", 1e-3),
    NumericalBlowup("non-finite values during step 4", "the last state", 4, 0.004),
    ExpressionSyntaxError("unexpected ')'", 7),
], ids=lambda error: type(error).__name__)
def test_package_errors_survive_pickling(error):
    copy = pickle.loads(pickle.dumps(error))
    assert type(copy) is type(error)
    assert (copy.args, str(copy), vars(copy)) == (error.args, str(error), vars(error))


def test_plot_csv_columns(tmp_path):
    out = tmp_path / "run"
    simulate_soliton(out)
    svg = tmp_path / "drift.svg"
    assert run(["plot", "--csv", out / "conserved.csv",
                "--columns", "H2[unit],H4[unit]", "--out", svg]) == 0
    text = svg.read_text()
    assert text.count("<polyline") == 2
    assert "H2[unit]" in text


def test_plot_refuses_an_unwritable_out(tmp_path, capsys):
    csv = tmp_path / "conserved.csv"
    csv.write_text("time,H0[unit]\n0.0,1.0\n0.1,1.0\n")
    out = tmp_path / "missing" / "h0.svg"
    assert run(["plot", "--csv", csv, "--out", out]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err == f"error: cannot write {out}: No such file or directory\n"
    assert not (tmp_path / "missing").exists()


def test_plot_missing_column_exit_2(tmp_path, capsys):
    out = tmp_path / "run"
    simulate_soliton(out)
    assert run(["plot", "--csv", out / "conserved.csv",
                "--columns", "H9[unit]", "--out", tmp_path / "x.svg"]) == 2
    assert "missing columns" in capsys.readouterr().err


def test_plot_empty_csv_exit_2(tmp_path):
    empty = tmp_path / "empty.csv"
    empty.write_text("time,H0[unit]\n")
    assert run(["plot", "--csv", empty, "--out", tmp_path / "x.svg"]) == 2


def small_snapshot_doc():
    grid = PeriodicGrid(40.0, 16)
    desc = AlgebraDescriptor.from_string("symplectic:1")
    state = SystemState("extended", EvenField.zeros(grid, desc), OddField.zeros(grid, desc))
    return state_to_dict(state)


def edit_samples(part, label, edit):
    """An edit of a snapshot document that decodes the part:label row,
    applies edit to its samples and writes the result back as its row."""
    def edited(doc):
        samples = np.frombuffer(base64.b64decode(doc[part][label]), "<f8").copy()
        doc[part][label] = base64.b64encode(edit(samples).astype("<f8").tobytes()).decode()
    return edited


def set_row(part, label, row):
    """An edit of a snapshot document that sets the part:label row to row."""
    return lambda doc: doc[part].__setitem__(label, row)


# flag, file content: None (no file), text, bytes, or an edit of a valid snapshot
UNREADABLE_PLOT_INPUTS = {
    "missing-snapshot": ("--snapshot", None),
    "non-json-snapshot": ("--snapshot", "{not json"),
    "snapshot-row-not-N-long": ("--snapshot", edit_samples("even", "unit", lambda s: s[:-1])),
    "snapshot-without-L": ("--snapshot", lambda doc: doc.pop("L")),
    # a row whose first character is outside the base64 alphabet
    "snapshot-non-numeric-sample": ("--snapshot", lambda doc: doc["odd"].__setitem__(
        "e1", "*" + doc["odd"]["e1"][1:])),
    "snapshot-not-an-object": ("--snapshot", "[1, 2]"),
    "non-utf8-snapshot": ("--snapshot", b"\xff\xfe{"),
    "csv-non-numeric-cell": ("--csv", "time,H0[unit]\n0.0,abc\n"),
    "csv-ragged-row": ("--csv", "time,H0[unit]\n0.0,1.0\n0.1\n"),
    "non-utf8-csv": ("--csv", b"time,H0\n\xff,1\n"),
}


def write_plot_input(path, content):
    """A plot input at path, given as in UNREADABLE_PLOT_INPUTS."""
    if isinstance(content, str):
        path.write_text(content)
    elif isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        doc = small_snapshot_doc()
        content(doc)
        dump_json(doc, path)


@pytest.mark.parametrize("case", sorted(UNREADABLE_PLOT_INPUTS))
def test_plot_unreadable_input_exit_2(case, tmp_path, capsys):
    flag, content = UNREADABLE_PLOT_INPUTS[case]
    path = tmp_path / "input"
    write_plot_input(path, content)
    assert run(["plot", flag, path, "--out", tmp_path / "x.svg"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "x.svg").exists()


def set_sample(value):
    """An edit of a snapshot document that sets its fourth even:unit sample."""
    return edit_samples("even", "unit", lambda samples: np.where(
        np.arange(len(samples)) == 3, value, samples))


NOT_SAMPLES = "error: snapshot channel even:unit must be the base64 text of 16 little-endian " \
              "float64 samples"


# flag, content as in UNREADABLE_PLOT_INPUTS, and the error that names the data
NON_NUMERIC_PLOT_DATA = {
    "csv-nan-cell": ("--csv", "time,H0[unit]\n0.0,1.0\n0.1,nan\n",
                     "error: series 'H0[unit]' holds a non-finite value"),
    "csv-inf-time": ("--csv", "time,H0[unit]\n0.0,1.0\ninf,2.0\n",
                     "error: the x axis 'time' holds a non-finite value"),
    # a row of samples holds NaN, or is JSON true or "1.5" (which float()
    # would take as 1.0 and 1.5) rather than base64 text
    "snapshot-nan-sample": ("--snapshot", set_sample(float("nan")),
                            "error: snapshot channel even:unit must be a finite float, got nan"),
    "snapshot-inf-sample": ("--snapshot", set_sample(-float("inf")),
                            "error: snapshot channel even:unit must be a finite float, got -inf"),
    "snapshot-true-sample": ("--snapshot", set_row("even", "unit", True), NOT_SAMPLES),
    "snapshot-text-sample": ("--snapshot", set_row("even", "unit", "1.5"), NOT_SAMPLES),
}


@pytest.mark.parametrize("case", sorted(NON_NUMERIC_PLOT_DATA))
def test_plot_refuses_data_that_is_no_finite_number(case, tmp_path, capsys):
    flag, content, message = NON_NUMERIC_PLOT_DATA[case]
    path = tmp_path / "input"
    write_plot_input(path, content)
    assert run(["plot", flag, path, "--out", tmp_path / "x.svg"]) == 2
    assert capsys.readouterr().err == message + "\n"
    assert not (tmp_path / "x.svg").exists()


@pytest.mark.parametrize("key,value", [("L", True), ("time", False), ("lambda", True),
                                       ("epsilon", True), ("lambda", "nan"), ("L", "40"),
                                       ("time", "0.5"), ("lambda", "1e0")])
def test_plot_refuses_a_snapshot_number_that_is_no_finite_number(key, value, tmp_path, capsys):
    # JSON true and false are no numbers, and neither is text, which
    # float() would read
    doc = small_snapshot_doc()
    doc[key] = value
    path = tmp_path / "snap.json"
    dump_json(doc, path)
    assert run(["plot", "--snapshot", path, "--out", tmp_path / "x.svg"]) == 2
    assert f"error: {key} must be a finite float, got {value!r}" in capsys.readouterr().err
    assert not (tmp_path / "x.svg").exists()


def test_plot_refuses_a_snapshot_channel_its_algebra_lacks(tmp_path, capsys):
    # a grassmann:3 snapshot relabelled grassmann:2 would lose its t3
    # channels in the loading; it is refused instead
    assert run(["simulate", "--algebra", "grassmann:3", "--grid", 64, "--t-end", 0.002,
                "--ic", "random_bandlimited(max_mode=3,amplitude=0.3)",
                "--out", tmp_path / "run"]) == 0
    doc = load_json(tmp_path / "run" / "snapshot_0000.json")
    doc["algebra"] = "grassmann:2"
    dump_json(doc, tmp_path / "relabelled.json")
    capsys.readouterr()
    svg = tmp_path / "u.svg"
    assert run(["plot", "--snapshot", tmp_path / "relabelled.json", "--out", svg]) == 2
    assert capsys.readouterr().err == ("error: snapshot even channels ['t1t3', 't2t3'] "
                                       "are not channels of grassmann:2\n")
    assert not svg.exists()


def test_plot_soliton_snapshot_minimum(tmp_path):
    out = tmp_path / "run"
    simulate_soliton(out)
    snap = sorted(out.glob("snapshot_*.json"))[0]
    svg = tmp_path / "sol.svg"
    assert run(["plot", "--snapshot", snap, "--out", svg]) == 0
    text = svg.read_text()
    points = re.search(r'points="([^"]+)"', text).group(1)
    pixels = [tuple(map(float, p.split(","))) for p in points.split()]
    deepest = max(i for i, (_, y) in enumerate(pixels)
                  if y == max(py for _, py in pixels))
    field = read_snapshot(snap).even.data[0]
    assert deepest == int(np.argmin(field))
    assert field[deepest] == pytest.approx(-2.0, rel=1e-6)


def test_plot_requires_exactly_one_input(tmp_path):
    assert run(["plot", "--out", tmp_path / "x.svg"]) == 2


@pytest.mark.parametrize("flags,unread", [
    (["--snapshot", "snap.json", "--columns", "H0[unit]"], "--columns"),
    (["--csv", "conserved.csv", "--channel", "even:unit"], "--channel")])
def test_plot_refuses_the_other_inputs_flag(flags, unread, tmp_path, monkeypatch, capsys):
    # --columns picks CSV columns and --channel snapshot channels; each is
    # refused with the other input, as check refuses a flag its suite does
    # not read, rather than ignored
    monkeypatch.chdir(tmp_path)
    write_plot_input(tmp_path / "snap.json", lambda doc: None)
    (tmp_path / "conserved.csv").write_text("time,H0[unit]\n0.0,1.0\n0.1,1.0\n")
    assert run(["plot", *flags, "--out", "x.svg"]) == 2
    assert capsys.readouterr().err == f"error: plot {flags[0]} does not read {unread}\n"
    assert not (tmp_path / "x.svg").exists()


def test_plot_channel_takes_an_index_as_gaussian_does(tmp_path):
    # --channel is read by the parser gaussian(channel=...) uses, so odd:0
    # is the first odd channel, t1
    assert run(["simulate", "--algebra", "grassmann:2", "--grid", 64, "--t-end", 0.002,
                "--ic", "random_bandlimited(max_mode=3,amplitude=0.3)",
                "--out", tmp_path / "run"]) == 0
    rows = {}
    for spec in ("odd:0", "odd:t1", "odd:1"):
        svg = tmp_path / f"{spec.replace(':', '_')}.svg"
        assert run(["plot", "--snapshot", tmp_path / "run" / "snapshot_0000.json",
                    "--channel", spec, "--out", svg]) == 0
        rows[spec] = re.search(r'points="([^"]+)"', svg.read_text()).group(1)
    assert rows["odd:0"] == rows["odd:t1"] != rows["odd:1"]


@pytest.mark.parametrize("command", [
    ["simulate", "--grid", 64, "--t-end", 0.002],
    ["check", "algebra", "--algebra", "scalar"],
    ["plot", "--csv", "conserved.csv"]], ids=["simulate", "check", "plot"])
def test_an_empty_out_is_refused(command, tmp_path, monkeypatch, capsys):
    # an empty --out names no file: argparse refuses it, before anything
    # runs, in each command alike
    monkeypatch.chdir(tmp_path)
    (tmp_path / "conserved.csv").write_text("time,H0[unit]\n0.0,1.0\n0.1,1.0\n")
    with pytest.raises(SystemExit) as info:
        run([*command, "--out", ""])
    assert info.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "argument --out: must not be empty" in captured.err
    assert [p.name for p in tmp_path.iterdir()] == ["conserved.csv"]


def test_no_command_exits_2(capsys):
    assert run([]) == 2
    capsys.readouterr()


def test_console_entry_point(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "superkdv.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "superkdv" in proc.stdout
