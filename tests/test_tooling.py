"""Source hygiene checks that need no linter, only the standard library."""

import ast
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

from superkdv.cli import build_parser

PACKAGE = Path(__file__).resolve().parent.parent / "src" / "superkdv"
README = PACKAGE.parent.parent / "README.md"


def unused_imports(source):
    """The names a module's imports bind that the module never reads."""
    tree = ast.parse(source)
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            imported.update(alias.asname or alias.name.partition(".")[0]
                            for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            imported.update(alias.asname or alias.name for alias in node.names)
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(imported - read)


def test_modules_import_only_what_they_use():
    sample = ("import math\nimport os.path\nimport numpy as np\n"
              "from functools import lru_cache, reduce as fold\n"
              "def f(x):\n    return np.sqrt(os.sep + x)\n")
    assert unused_imports(sample) == ["fold", "lru_cache", "math"]
    # __init__.py imports only to re-export the public names
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
    assert {"algebra.py", "symbolic.py", "cli.py"} <= {p.name for p in modules}
    unused = {p.name: unused_imports(p.read_text(encoding="utf-8")) for p in modules}
    assert {name: names for name, names in unused.items() if names} == {}


def _source_env():
    """The environment with this checkout's src/ first on PYTHONPATH."""
    return dict(os.environ, PYTHONPATH=os.pathsep.join(
        [str(PACKAGE.parent)] + [p for p in [os.environ.get("PYTHONPATH")] if p]))


def test_package_runs_as_a_module():
    # python -m superkdv is the command line, exit code included
    run = subprocess.run([sys.executable, "-m", "superkdv", "check", "algebra",
                          "--algebra", "grassmann:2"], env=_source_env(),
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0 and json.loads(run.stdout)["pass"] is True
    run = subprocess.run([sys.executable, "-m", "superkdv"], env=_source_env(),
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 2 and run.stderr.startswith("usage:")


def test_benchmark_tracer_installs():
    # perfbench/tracing.py wraps package functions by name, so deleting or
    # renaming one of them makes its install raise
    env = _source_env()
    env["PYTHONPATH"] = os.pathsep.join([str(PACKAGE.parent.parent / "perfbench"),
                                         env["PYTHONPATH"]])
    run = subprocess.run([sys.executable, "-c",
                          "from tracing import Tracer; Tracer().install().uninstall()"],
                         env=env, capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr


def test_benchmark_tracer_counts_drift_report_records():
    # the tracer counts drift_report's records from its first argument,
    # given by position or as traj=, so that parameter keeps its name
    env = _source_env()
    env["PYTHONPATH"] = os.pathsep.join([str(PACKAGE.parent.parent / "perfbench"),
                                         env["PYTHONPATH"]])
    probe = ("from tracing import Tracer\n"
             "from superkdv import invariants\n"
             "from superkdv.dynamics import SystemState, integrate\n"
             "from superkdv.fields import build_initial_condition, PeriodicGrid\n"
             "from superkdv.algebra import AlgebraDescriptor\n"
             "u, xi = build_initial_condition('soliton(kappa=1)', PeriodicGrid(40.0, 64),\n"
             "                                AlgebraDescriptor.from_string('scalar'))\n"
             "traj = integrate(SystemState('extended', u, xi), 1e-3, 2)\n"
             "assert len(traj) == 3, len(traj)\n"
             "tracer = Tracer().install()\n"
             "try:\n"
             "    invariants.drift_report(traj)\n"
             "    invariants.drift_report(traj=traj)\n"
             "finally:\n"
             "    tracer.uninstall()\n"
             "print(tracer.counts['invariants.records'])\n")
    run = subprocess.run([sys.executable, "-c", probe], env=env,
                         capture_output=True, text=True, timeout=60)
    assert run.returncode == 0, run.stderr
    assert run.stdout == "6\n"


def test_import_builds_no_table_and_parses_no_text():
    # the set-up every run pays starts with this import: no algebra table,
    # proof or parsed formula may be made on the way.  get_algebra then
    # builds the tables every product reads, as basis triples, but no
    # proof, no commutator table (which depends on a proof), no square
    # table and no fold, dense or grouped; nor does Algebra itself
    probe = ("import superkdv, superkdv.cli\n"
             "from superkdv import algebra, symbolic\n"
             "caches = [algebra._cached_algebra, symbolic.nonlinear_terms,\n"
             "          symbolic.density_poly, symbolic.map_terms,\n"
             "          symbolic.gardner_coefficients]\n"
             "print([cache.cache_info().currsize for cache in caches])\n"
             "made = algebra.get_algebra(algebra.AlgebraDescriptor('grassmann', 6))\n"
             "print(sorted({'bracket_product_alternates', 'odd_half_antisymmetric'}\n"
             "             & set(vars(made))), sorted(made._tables), made._squares)\n"
             "for made in (made, algebra.Algebra(algebra.AlgebraDescriptor('grassmann', 8))):\n"
             "    tables = [*made._tables.values(), made._half]\n"
             "    print(sorted({'dense', 'grouped'} & {name for table in tables\n"
             "                                         for name in vars(table)}))\n")
    out = subprocess.run([sys.executable, "-c", probe], env=_source_env(), check=True,
                         capture_output=True, text=True, timeout=60).stdout
    assert out.splitlines() == ["[0, 0, 0, 0, 0]",
                                "[] ['even_mul', 'mixed_mul', 'odd_mul'] {}", "[]", "[]"]


FFT_TRANSFORMS = {f"numpy.fft.{name}" for name in ("rfft", "irfft", "fft", "ifft")}


def _imported(tree):
    """What each name a module's imports bind stands for, as a dotted name
    (a relative import's without its package)."""
    bound = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound.update((alias.asname, alias.name) if alias.asname
                         else (alias.name.partition(".")[0],) * 2 for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            bound.update((alias.asname or alias.name,
                          f"{node.module}.{alias.name}" if node.module else alias.name)
                         for alias in node.names)
    return bound


def _dotted(node, bound):
    """The dotted name a Name or Attribute node stands for, through the
    module's imports, or None."""
    if isinstance(node, ast.Name):
        return bound.get(node.id)
    if isinstance(node, ast.Attribute):
        base = _dotted(node.value, bound)
        return base and f"{base}.{node.attr}"
    return None


def fft_transform_calls(source):
    """The lines of a module's calls to a numpy.fft transform, however the
    module imports numpy, numpy.fft or the transform itself."""
    tree = ast.parse(source)
    bound = _imported(tree)
    return sorted(node.lineno for node in ast.walk(tree)
                  if isinstance(node, ast.Call) and _dotted(node.func, bound) in FFT_TRANSFORMS)


RANDOM_NAMES = {"default_rng", "RandomBandlimitedIC"}


def random_draws(source):
    """The lines of a module that import or name numpy.random, anything in
    it, default_rng or RandomBandlimitedIC, however it is imported."""
    tree = ast.parse(source)
    bound = _imported(tree)
    lines = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            names = [alias.name if isinstance(node, ast.Import) or not node.module
                     else f"{node.module}.{alias.name}" for alias in node.names]
        else:
            names = [_dotted(node, bound), getattr(node, "id", None),
                     getattr(node, "attr", None)]
        if any(name and (name.split(".")[-1] in RANDOM_NAMES or name == "numpy.random"
                         or name.startswith("numpy.random."))
               for name in names):
            lines.add(node.lineno)
    return sorted(lines)


def test_only_the_grid_calls_fft_transforms():
    # PeriodicGrid.rfft/irfft are the one place a transform is made; the
    # frequencies (rfftfreq) are no transform
    sample = ("import numpy as np\nimport numpy.fft\nimport numpy.fft as f\n"
              "from numpy.fft import irfft as back, rfftfreq\nfrom numpy import fft\n"
              "np.fft.rfft(x)\nnumpy.fft.ifft(x)\nf.fft(x)\nback(x)\nfft.irfft(x)\n"
              "np.fft.rfftfreq(8)\nrfftfreq(8)\ngrid.rfft(x)\nnp.rfft(x)\n")
    assert fft_transform_calls(sample) == [6, 7, 8, 9, 10]
    modules = sorted(p for p in PACKAGE.glob("*.py") if p.name != "fields.py")
    assert {"dynamics.py", "symbolic.py"} <= {p.name for p in modules}
    calls = {p.name: fft_transform_calls(p.read_text(encoding="utf-8")) for p in modules}
    assert {name: lines for name, lines in calls.items() if lines} == {}
    # nor does any other module name numpy's private kernels
    assert [p.name for p in modules if "_pocketfft" in p.read_text(encoding="utf-8")] == []


def test_symbolic_decisions_draw_nothing_random():
    # equality modulo total derivatives is decided exactly: the symbolic
    # module draws no random number and builds no random initial condition
    sample = ("import numpy as np\nimport numpy.random\nfrom numpy import random as r\n"
              "from numpy.random import default_rng\nfrom .fields import RandomBandlimitedIC\n"
              "np.random.default_rng(0)\nr.uniform()\ndefault_rng(1)\nrng.default_rng\n"
              "fields.RandomBandlimitedIC(3)\nnp.fft.rfft(x)\ngrid.random\n")
    assert random_draws(sample) == [2, 3, 4, 5, 6, 7, 8, 9, 10]
    assert random_draws((PACKAGE / "symbolic.py").read_text(encoding="utf-8")) == []


def readme_commands(text):
    """The arguments of each superkdv command in text's fenced code blocks,
    continuation lines joined and shell comments dropped."""
    commands = []
    for block in re.findall(r"^```[^\n]*\n(.*?)^```", text, re.M | re.S):
        for line in block.replace("\\\n", " ").splitlines():
            if line.startswith("superkdv "):
                commands.append(shlex.split(line, comments=True)[1:])
    return commands


def test_readme_commands_parse():
    # a README that still shows a deleted flag fails here, not in a reader's
    # shell
    sample = ("```\nsuperkdv check algebra   # all backends\n"
              "superkdv simulate --ic \"soliton(kappa=1)\" \\\n    --out run\n```\n"
              "superkdv plot --no-such-flag\n"
              "```python\nfrom superkdv import parse\n```\n")
    assert readme_commands(sample) == [["check", "algebra"],
                                       ["simulate", "--ic", "soliton(kappa=1)", "--out", "run"]]
    parser = build_parser()
    for deleted in ("--config run.json", "--track H2", "--no-dealias"):
        shown = readme_commands(f"```\nsuperkdv simulate {deleted} --out run\n```\n")
        with pytest.raises(SystemExit):
            parser.parse_args(shown[0])
    commands = readme_commands(README.read_text(encoding="utf-8"))
    assert {argv[0] for argv in commands} == {"simulate", "check", "plot"}
    for argv in commands:
        parser.parse_args(argv)


def readme_python_blocks(text):
    """The source of each ```python fenced block in text."""
    return re.findall(r"^```python\n(.*?)^```", text, re.M | re.S)


def test_readme_decode_reads_a_snapshot_bit_for_bit(tmp_path, monkeypatch):
    # the README's numpy one-liner is the snapshot format's documentation:
    # run against a fresh snapshot, it gives read_snapshot's samples exactly
    from superkdv.algebra import AlgebraDescriptor
    from superkdv.dynamics import SystemState
    from superkdv.fields import PeriodicGrid, build_initial_condition
    from superkdv.snapshots import read_snapshot, write_snapshot

    (block,) = [b for b in readme_python_blocks(README.read_text(encoding="utf-8"))
                if "b64decode" in b]
    path = re.search(r'"([^"]+\.json)"', block).group(1)
    u, xi = build_initial_condition("random_bandlimited(max_mode=5,amplitude=0.5,seed=7)",
                                    PeriodicGrid(40.0, 64),
                                    AlgebraDescriptor.from_string("grassmann:3"))
    u.data[0, :3] = [-0.0, 5e-324, -1.7976931348623157e308]
    monkeypatch.chdir(tmp_path)
    (tmp_path / path).parent.mkdir(parents=True)
    write_snapshot(SystemState("extended", u, xi, time=0.5, lam=1.0), path)
    namespace = {}
    exec(block, namespace)
    assert namespace["u"].tobytes() == read_snapshot(path).even.data[0].tobytes()
    assert namespace["u"].tobytes() == u.data[0].tobytes()
