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

from superkdv.algebra import AlgebraDescriptor
from superkdv.cli import (_DEST, SIMULATE_DEFAULTS, UsageError, _in_parallel, build_parser,
                          main)
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
    out = tmp_path / "run1"
    assert main(["simulate", "--system", "extended", "--algebra", "grassmann:3",
                 "--lambda", "1.0", "--ic", "random_bandlimited(max_mode=5,amplitude=0.5)",
                 "--seed", "7", "--L", "40", "--grid", "256", "--dt", "1e-3",
                 "--t-end", "1.0", "--scheme", "ifrk4", "--out", str(out)]) == 0
    names = sorted(p.name for p in out.iterdir())
    digest = hashlib.sha256()
    for name in names:
        digest.update((out / name).read_bytes())
    assert len(names) == 53
    assert digest.hexdigest()[:12] == "775f75d47979"


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
    tight, spaced = outs["tight"], outs["spaced"]
    assert load_json(tight / "manifest.json")["ic"]["params"]["seed"] == 3
    names = sorted(p.name for p in tight.iterdir())
    assert names == sorted(p.name for p in spaced.iterdir())
    for name in names:
        assert filecmp.cmp(tight / name, spaced / name, shallow=False), name


def test_invalid_combinations_exit_2(tmp_path):
    refused = {
        "y": ["--system", "extended", "--gardner-eps", 0.1],
        "z": ["--system", "extended", "--dt", -1],
        "w": ["--algebra", "grassmann:99"],
        "v": ["--record-every", 0],
        "m": ["--system", "modified", "--track", "H2"],
        "e": ["--system", "extended", "--track", "H8"],
        "t": ["--track", ","],
        "dt_nan": ["--dt", "nan"],
        "t_end_inf": ["--t-end", "inf"],
        "L_inf": ["--L", "inf"],
        "L_nan": ["--L", "nan"],
        "lam_nan": ["--lambda", "nan"],
        "lam_inf": ["--lambda", "inf"],
        "eps_nan": ["--system", "gardner", "--gardner-eps", "nan"],
    }
    # initial-condition arguments that do not parse, are not finite or are
    # out of range
    for ic in ["random_bandlimited(seed=1.5)", "soliton(kappa=abc)", "gaussian(width=0)",
               "gaussian(width=-2)", "gaussian(amplitude=nan)", "soliton(x0=nan)",
               "soliton(kappa=inf)", "random_bandlimited(max_mode=-1)",
               "random_bandlimited(max_mode=2.5)", "gaussian(center=1e999)"]:
        refused["ic_" + re.sub(r"\W", "_", ic)] = ["--ic", ic]
    # config values that are not (finite) numbers; json writes NaN and Infinity
    for key, value in [("seed", "abc"), ("seed", float("nan")),
                       ("record_every", "x"), ("record_every", float("inf")),
                       ("lambda", "x"), ("lambda", None), ("gardner_eps", "x"),
                       ("grid", float("inf")), ("system", "skdv")]:
        cfg = tmp_path / f"cfg_{key}_{value}.json"
        cfg.write_text(json.dumps({"system": "gardner", key: value}))
        refused[cfg.stem] = ["--config", cfg]
    for name, flags in refused.items():
        assert run(["simulate", *flags, "--out", tmp_path / name]) == 2, flags
        assert not (tmp_path / name / "manifest.json").exists(), flags


def test_system_skdv_is_refused(tmp_path, capsys):
    # the N=1 super KdV is --system extended on a grassmann algebra; skdv is
    # no system, as a flag or in a config, and a snapshot of the deleted
    # skdv_grassmann kind does not plot
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


def test_check_refuses_non_finite_coupling(capsys):
    assert run(["check", "miura", "--lambda", "nan"]) == 2
    assert "finite" in capsys.readouterr().err


def test_stability_guard_refusal_exit_2(tmp_path, capsys):
    code = run(["simulate", "--ic", "soliton(kappa=1)", "--dt", 0.05,
                "--scheme", "rk4", "--t-end", 1, "--out", tmp_path / "g"])
    assert code == 2
    assert "dt" in capsys.readouterr().err
    assert not (tmp_path / "g" / "manifest.json").exists()


def test_blowup_exit_3_saves_last_state(tmp_path):
    out = tmp_path / "blow"
    code = run(["simulate", "--ic", "soliton(kappa=1)", "--dt", 0.05,
                "--scheme", "rk4", "--t-end", 5, "--force", "--out", out])
    assert code == 3
    last = read_snapshot(out / "snapshot_last.json")
    assert np.all(np.isfinite(last.even.data))
    assert (out / "manifest.json").exists()


def test_config_file_with_flag_override(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "system": "gardner", "algebra": "symplectic:1", "lambda": 1.0,
        "gardner-eps": 0.1, "grid": 128, "dt": 1e-3, "t_end": 0.02,
        "ic": "random_bandlimited(max_mode=4,amplitude=0.4,seed=3)"}))
    out = tmp_path / "run"
    assert run(["simulate", "--config", cfg, "--gardner-eps", 0.2,
                "--out", out]) == 0
    manifest = load_json(out / "manifest.json")
    assert manifest["system"] == "gardner"
    assert manifest["gardner_eps"] == 0.2


def test_config_rejects_unknown_keys(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"sytsem": "extended"}))
    assert run(["simulate", "--config", cfg, "--out", tmp_path / "x"]) == 2


def test_simulate_config_keys_are_the_flags():
    # every config key is read through its flag's dest, so a key whose
    # flag is gone would be silently config-only
    sub = next(a for a in build_parser()._actions if a.dest == "command")
    dests = {a.dest for a in sub.choices["simulate"]._actions} - {"help", "out", "config"}
    assert dests == {_DEST.get(k, k) for k in SIMULATE_DEFAULTS}


def test_dealiasing_cannot_be_turned_off(tmp_path, capsys):
    # every run uses the 2/3 rule: --no-dealias is no flag, dealias no
    # config key
    with pytest.raises(SystemExit) as info:
        run(["simulate", "--no-dealias", "--out", tmp_path / "flag"])
    assert info.value.code == 2
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"dealias": False}))
    assert run(["simulate", "--config", cfg, "--out", tmp_path / "key"]) == 2
    assert "unknown config key 'dealias'" in capsys.readouterr().err
    assert not (tmp_path / "flag").exists() and not (tmp_path / "key").exists()


def test_config_integer_settings_refuse_fractions(tmp_path, capsys):
    base = {"ic": "random_bandlimited(max_mode=3,amplitude=0.1)", "t_end": 0.01}
    for key, value in [("seed", 2.5), ("record_every", 1.7), ("grid", 64.5)]:
        cfg = tmp_path / f"{key}.json"
        cfg.write_text(json.dumps({**base, key: value}))
        assert run(["simulate", "--config", cfg, "--out", tmp_path / key]) == 2, key
        assert "integer" in capsys.readouterr().err
        assert not (tmp_path / key).exists()
    # integral floats are still integers
    cfg = tmp_path / "integral.json"
    cfg.write_text(json.dumps({**base, "seed": 3.0, "record_every": 5.0, "grid": 64.0}))
    assert run(["simulate", "--config", cfg, "--out", tmp_path / "ok"]) == 0
    manifest = load_json(tmp_path / "ok" / "manifest.json")
    assert [manifest["seed"], manifest["record_every"], manifest["N"]] == [3, 5, 64]


@pytest.mark.parametrize("flags", [
    ["--ic", "random_bandlimited(max_mode=3,amplitude=0.1)", "--seed", -1],
    ["--ic", "random_bandlimited(max_mode=3,amplitude=0.1,seed=-2)"],
])
def test_negative_seed_exits_2(flags, tmp_path, capsys):
    out = tmp_path / "neg"
    assert run(["simulate", *flags, "--t-end", 0.01, "--out", out]) == 2
    assert "seed" in capsys.readouterr().err
    assert not out.exists()


def test_check_refuses_negative_seed(capsys):
    assert run(["check", "densities", "--seed", -1]) == 2
    assert "seed" in capsys.readouterr().err


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
    # the decision is exact, so the seed changes nothing
    for seed in (1, 2, 3):
        assert run(["check", "densities", "--seed", seed]) == 0
        assert capsys.readouterr().out == captured.out


def test_check_verdict_shape(capsys):
    run(["check", "algebra"])
    verdict = json.loads(capsys.readouterr().out)
    assert set(verdict) >= {"check", "pass", "tolerances"}


# ---------------------------------------------------------------------------
# check suites that split their runs across two processes

FORKED, SERIAL = {0, 1}, {0}


def cpus(monkeypatch, allowed):
    """Make this process appear to run on the CPUs in allowed, which sets
    whether _in_parallel forks."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(allowed))


def assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


# the sha256 of each suite's stdout at its defaults
NUMERIC_SUITE_DIGESTS = {"miura": "ff3de21553ea", "gardner": "52e888238332",
                         "susy": "c72c9d77d743"}


@pytest.mark.parametrize("suite", sorted(NUMERIC_SUITE_DIGESTS))
def test_numeric_check_suites_print_the_same_verdict_forked_and_serially(
        suite, monkeypatch, capsys):
    printed = {}
    for allowed in (FORKED, SERIAL):
        cpus(monkeypatch, allowed)
        assert run(["check", suite]) == 0
        assert_no_child_left()
        printed[len(allowed)] = capsys.readouterr()
    forked, serial = printed[2], printed[1]
    assert hashlib.sha256(forked.out.encode()).hexdigest()[:12] == NUMERIC_SUITE_DIGESTS[suite]
    assert (serial.out, serial.err) == (forked.out, forked.err)


def test_check_error_in_a_worker_exits_2_as_serially(monkeypatch, capsys):
    # eps = 50 blows up the 500-step gardner run, which runs in the child
    for allowed in (FORKED, SERIAL):
        cpus(monkeypatch, allowed)
        assert run(["check", "gardner", "--gardner-eps", 50]) == 2
        assert_no_child_left()
        captured = capsys.readouterr()
        assert (captured.out, captured.err) == (
            "", "error: non-finite values during step 4 (t=0.004)\n")


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


def drop_last_sample(doc):
    doc["even"]["unit"].pop()


# flag, file content: None (no file), text, bytes, or an edit of a valid snapshot
UNREADABLE_PLOT_INPUTS = {
    "missing-snapshot": ("--snapshot", None),
    "non-json-snapshot": ("--snapshot", "{not json"),
    "snapshot-row-not-N-long": ("--snapshot", drop_last_sample),
    "snapshot-without-L": ("--snapshot", lambda doc: doc.pop("L")),
    "snapshot-non-numeric-sample": ("--snapshot", lambda doc: doc["odd"]["e1"].__setitem__(0, "x")),
    "snapshot-not-an-object": ("--snapshot", "[1, 2]"),
    "non-utf8-snapshot": ("--snapshot", b"\xff\xfe{"),
    "csv-non-numeric-cell": ("--csv", "time,H0[unit]\n0.0,abc\n"),
    "csv-ragged-row": ("--csv", "time,H0[unit]\n0.0,1.0\n0.1\n"),
    "non-utf8-csv": ("--csv", b"time,H0\n\xff,1\n"),
}


@pytest.mark.parametrize("case", sorted(UNREADABLE_PLOT_INPUTS))
def test_plot_unreadable_input_exit_2(case, tmp_path, capsys):
    flag, content = UNREADABLE_PLOT_INPUTS[case]
    path = tmp_path / "input"
    if isinstance(content, str):
        path.write_text(content)
    elif isinstance(content, bytes):
        path.write_bytes(content)
    elif content is not None:
        doc = small_snapshot_doc()
        content(doc)
        dump_json(doc, path)
    assert run(["plot", flag, path, "--out", tmp_path / "x.svg"]) == 2
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "x.svg").exists()


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


def test_no_command_exits_2(capsys):
    assert run([]) == 2
    capsys.readouterr()


def test_console_entry_point(tmp_path):
    proc = subprocess.run([sys.executable, "-m", "superkdv.cli", "--version"],
                          capture_output=True, text=True)
    assert proc.returncode == 0
    assert "superkdv" in proc.stdout
