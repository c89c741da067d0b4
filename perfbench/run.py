"""superkdv benchmark: time to a verified solution on four workloads, and
per-layer work counts and self times from a separate traced run.

    python3 perfbench/run.py --workload <name> --seed <n> --seconds <s> --trace <0|1>
    python3 perfbench/run.py --workload all --seed 1 --seconds 20 --trace 0

Workloads are defined in workloads.py.  Everything runs serially, with no
extra threads, as a closed loop: each repetition starts when the previous
one ends.  Each repetition runs in a child forked from this process after
set-up, so, as for a fresh CLI run, nothing one repetition caches reaches
the next.  Every repetition's output passes a correctness gate and must
match the first repetition's bytes; a repetition that fails either, or
that raises, fails.

--trace 0 reports the end-to-end metrics:
  wall_cal     median over repetitions of the wall time of one repetition
               (time to a verified solution) divided by the mean time of a
               fixed calibration kernel, run in forked children too, just
               before and just after it (several times if it is long)
  setup_s      median over fresh processes, started after the timed loop,
               of importing superkdv and building the grid, initial
               condition, state and first algebra table
  peak_rss_mb  peak resident memory of this process and its repetitions
  pass_frac    repetitions that passed their gate / repetitions attempted
--trace 1 runs untraced repetitions for half the time and traced ones for
the other half, and reports the per-layer metrics (see README.md).

The last line of stdout is one JSON object with the keys correct,
attempted, failed and metrics.  Provenance and the full result go to
.perfbench/ in the checkout; the spans of a traced run go there too.
"""

import os

# Single-threaded numerics; must be set before numpy is imported.
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
INHERITED_THREAD_VARS = {k: os.environ.get(k) for k in THREAD_VARS}
for _var in THREAD_VARS:
    os.environ[_var] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import time  # noqa: E402
import traceback  # noqa: E402
from pathlib import Path  # noqa: E402

import numpy as np  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOAD_NAMES = ("soliton_scalar", "readme_simulate", "wide_modified_rk4", "checks")
MIN_REPS = 3
# Between repetitions the calibration kernel runs for about this share of the
# last repetition's time, and at least once: the machine's speed swings by up
# to 1.7x within a fraction of a second, so one short kernel run would be far
# noisier than a long repetition.
CAL_SHARE = 0.2
SETUP_PROBES = 9
# calibration kernel: three parts of about 0.17 s each on a 2-vCPU Xeon VM
CAL_FFT_STEPS, CAL_SMALL_STEPS, CAL_PY_STEPS = 3600, 8000, 210000
UNITS = {"wall_cal": "cal", "setup_s": "s", "peak_rss_mb": "MB", "pass_frac": "ratio"}
CAL_X = np.random.default_rng(0).standard_normal((4, 512))
CAL_SYMBOL = 1e-3j * np.arange(257)
CAL_SMALL = np.random.default_rng(1).standard_normal((3, 64))


def _timed(repetition):
    t0 = time.perf_counter()
    try:
        outcome = repetition()
    except Exception:
        traceback.print_exc()
        outcome = None
    return time.perf_counter() - t0, outcome


def in_child(fn):
    """fn() in a child forked from this process; returns what it returned,
    or None if the child died first.  Whatever fn caches dies with the child."""
    sys.stdout.flush()
    sys.stderr.flush()
    read_end, write_end = os.pipe()
    pid = os.fork()
    if pid == 0:
        try:
            os.close(read_end)
            with os.fdopen(write_end, "wb") as fh:
                fh.write(pickle.dumps(fn()))
        except BaseException:
            traceback.print_exc()
        finally:
            sys.stdout.flush()
            sys.stderr.flush()
            os._exit(0)
    os.close(write_end)
    with os.fdopen(read_end, "rb") as fh:
        data = fh.read()
    os.waitpid(pid, 0)
    return pickle.loads(data) if data else None


def measure(repetition, seconds, min_reps, between=None):
    """Closed loop of repetitions, each in its own forked child.  Another
    one starts while fewer than min_reps ran, or while the slowest so far
    would still end in time.  between(t) runs untimed after each
    repetition, which took t seconds.
    Returns each repetition's wall time, as timed in its child, and what it
    returned (None when it raised)."""
    times, outcomes = [], []
    deadline = time.perf_counter() + seconds
    while True:
        t0 = time.perf_counter()
        seconds_taken, outcome = in_child(lambda: _timed(repetition)) or (
            time.perf_counter() - t0, None)
        times.append(seconds_taken)
        outcomes.append(outcome)
        if between:
            between(seconds_taken)
        if len(times) >= min_reps and time.perf_counter() + max(times) > deadline:
            return times, outcomes


def calibration_s():
    """Time of a fixed kernel with one part per kind of work the workloads
    do: small rfft/irfft pairs with elementwise updates (spectral steps),
    numpy calls on tiny arrays (the small grids of the checks) and plain
    interpreter work on dicts, tuples and strings (symbolic, CLI).  Its code
    never changes, so its time tracks only the machine's speed."""
    t0 = time.perf_counter()
    x = CAL_X.copy()
    for _ in range(CAL_FFT_STEPS):
        x = x + 1e-3 * np.fft.irfft(np.fft.rfft(x, axis=-1) * CAL_SYMBOL, n=512, axis=-1)
    y = CAL_SMALL.copy()
    for _ in range(CAL_SMALL_STEPS):
        y = 0.999 * y + 1e-3 * np.roll(y, 1, axis=-1)
        float(np.max(np.abs(y)))
    table = {}
    for i in range(CAL_PY_STEPS):
        key = (i % 97, i % 13)
        table[key] = table.get(key, 0.0) + 0.5 * i
        len(str(key))
    return time.perf_counter() - t0


def failures(gates):
    return sum(1 for g in gates if g is None or not g.ok)


def require_same_output(gates):
    """Every repetition has the same inputs: one whose output fingerprint
    differs from the first repetition's fails."""
    prints = [g.fingerprint for g in gates if g is not None and g.fingerprint]
    for g in gates:
        if g is not None and g.fingerprint and g.fingerprint != prints[0]:
            g.ok = False
            g.values["same_as_first"] = False


def setup_times(name, seed):
    """Set-up times of SETUP_PROBES fresh processes, one after another."""
    argv = [sys.executable, str(HERE / "setup_probe.py"), name, str(seed)]
    values = []
    for _ in range(SETUP_PROBES):
        done = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True,
                              timeout=120, check=True)
        values.append(float(done.stdout.split()[-1]))
    return values


def peak_rss_mb():
    """Peak resident memory of this process and of its largest child."""
    return max(resource.getrusage(who).ru_maxrss
               for who in (resource.RUSAGE_SELF, resource.RUSAGE_CHILDREN)) / 1024.0


def quartiles(values):
    if len(values) < 2:
        return values[0], values[0]
    q = statistics.quantiles(values, n=4)
    return q[0], q[2]


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or "unknown"


def provenance(args, workload):
    import superkdv
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "superkdv": superkdv.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "platform": platform.platform(),
        "thread_env": {k: os.environ[k] for k in THREAD_VARS},
        "thread_env_inherited": INHERITED_THREAD_VARS,
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "config": workload.config,
    }


def run_untraced(workload, inputs, args):
    calibration_s()  # warm-up
    # Each kernel run is a forked child, as each repetition is: right after a
    # fork, the first write to each page faults (run in this process, the
    # kernel read about 8% slower after each fork than before it).
    cal = [in_child(calibration_s)]

    def between(seconds):
        runs = max(1, round(CAL_SHARE * seconds / cal[-1]))
        cal.append(statistics.mean(in_child(calibration_s) for _ in range(runs)))

    times, gates = measure(lambda: workload.repetition(inputs), args.seconds, MIN_REPS,
                           between=between)
    require_same_output(gates)
    rss = peak_rss_mb()  # before the set-up probes, which are children too
    setups = setup_times(workload.name, args.seed)
    # each repetition against the mean of the calibrations just before and after it
    relative = [w / (0.5 * (a + b)) for w, a, b in zip(times, cal, cal[1:])]
    metrics = {
        "wall_cal": statistics.median(relative),
        "setup_s": statistics.median(setups),
        "peak_rss_mb": rss,
        "pass_frac": (len(gates) - failures(gates)) / len(gates),
    }
    detail = {"repetition_s": times, "calibration_s": cal, "setup_probe_s": setups}
    return metrics, gates, detail


def run_traced(workload, inputs, args):
    from tracing import Tracer

    times, gates = measure(lambda: workload.repetition(inputs), args.seconds / 2, 1)
    tracer = Tracer()
    spans = ROOT / ".perfbench" / f"spans-{workload.name}-seed{args.seed}.npz"
    spans.parent.mkdir(exist_ok=True)

    def traced():
        mark = tracer.mark()
        t0 = time.perf_counter()
        gate = workload.repetition(inputs)
        layers = tracer.layer_metrics(mark, time.perf_counter() - t0)
        tracer.save(spans)  # untimed; each repetition's child rewrites the file
        return gate, layers

    with tracer:
        _, outcomes = measure(traced, args.seconds / 2, 1)
    traced_gates = [o and o[0] for o in outcomes]
    per_rep = [o[1] for o in outcomes if o]
    if not per_rep:
        sys.exit("error: every traced repetition raised")
    all_gates = gates + traced_gates
    require_same_output(all_gates)
    metrics = {key: statistics.median(rep[key] for rep in per_rep) for key in per_rep[0]}
    metrics["trace.overhead_s"] = metrics["trace.wall_s"] - statistics.median(times)
    detail = {"untraced_repetition_s": times, "traced_layer_metrics": per_rep,
              "spans_file": str(spans.relative_to(ROOT))}
    return metrics, all_gates, detail


def run_one(args):
    import workloads
    import superkdv

    if Path(superkdv.__file__).resolve().parent != ROOT / "src" / "superkdv":
        sys.exit(f"error: imported superkdv from {superkdv.__file__}, not this checkout")
    workload = workloads.WORKLOADS[args.workload]()
    inputs = workload.setup(args.seed)
    run = run_traced if args.trace else run_untraced
    metrics, gates, detail = run(workload, inputs, args)
    failed = failures(gates)

    print(f"workload {workload.name}  seed {args.seed}  seconds {args.seconds}  "
          f"trace {args.trace}  repetitions {len(gates)}  failed {failed}")
    for g in gates:
        if g is None or not g.ok:
            print(f"  failed gate: {g!r}", file=sys.stderr)
    print(f"  gate of the first repetition: {gates[0]!r}")
    if not args.trace:
        times = detail["repetition_s"]
        lo, hi = quartiles(times)
        print(f"  wall time of a repetition: median {statistics.median(times)!r} s, "
              f"quartiles {lo:.6g} .. {hi:.6g} s, {len(times)} repetitions")
    for key, value in metrics.items():
        print(f"  {key:40s} {value!r} {unit_of(key)}")
    prov = provenance(args, workload)
    print("provenance " + json.dumps(prov, sort_keys=True))

    result = {"correct": failed == 0, "attempted": len(gates), "failed": failed,
              "metrics": {k: {"value": v, "unit": unit_of(k)} for k, v in metrics.items()}}
    record = dict(result, provenance=prov, detail=detail,
                  gates=[None if g is None else dict(g.values, ok=g.ok, fingerprint=g.fingerprint)
                         for g in gates])
    out = ROOT / ".perfbench" / f"result-{workload.name}-seed{args.seed}-trace{args.trace}.json"
    out.parent.mkdir(exist_ok=True)
    out.write_text(json.dumps(record, indent=1, sort_keys=True, default=str) + "\n")
    print(json.dumps(result))


def unit_of(metric):
    if metric in UNITS:
        return UNITS[metric]
    if metric.endswith("_s"):
        return "s"
    if metric.endswith("ms_per_step") or metric.endswith("ms_per_record"):
        return "ms"
    if metric.endswith("_bytes") or metric == "snapshots.bytes":
        return "B"
    return "count"


def run_all(args):
    """Every workload in its own process (so peak RSS is per workload)."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        done = subprocess.run([sys.executable, str(Path(__file__).resolve()),
                               "--workload", name, "--seed", str(args.seed),
                               "--seconds", str(args.seconds), "--trace", str(args.trace)],
                              cwd=ROOT, stdout=subprocess.PIPE, text=True, timeout=900)
        lines = done.stdout.strip().splitlines()
        if done.returncode != 0 or not lines:
            sys.exit(f"error: workload {name} exited with {done.returncode}")
        result = json.loads(lines[-1])
        combined["correct"] = combined["correct"] and result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for key, metric in result["metrics"].items():
            combined["metrics"][f"{name}.{key}"] = metric
    width = max(len(k) for k in combined["metrics"])
    for key, metric in combined["metrics"].items():
        print(f"{key:{width}s} {metric['value']!r} {metric['unit']}")
    print(json.dumps(combined))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds < 1:
        parser.error("--seed must be >= 0 and --seconds >= 1")
    if not (ROOT / "src" / "superkdv" / "__init__.py").is_file():
        sys.exit(f"error: no superkdv sources under {ROOT / 'src'}")
    if args.workload == "all":
        run_all(args)
    else:
        run_one(args)


if __name__ == "__main__":
    main()
