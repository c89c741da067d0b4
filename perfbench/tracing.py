"""Per-layer tracing of superkdv from outside the package.

``Tracer`` wraps the public entry points of every superkdv module (and
``numpy.fft.rfft``/``irfft``, which the package looks up at call time).
Each wrapped call records a span (name, parent span, start, end); spans
stay in memory and are written once, by ``save``, after the traced work.
Self times per layer are computed from the spans; counts and inclusive
group times are accumulated by the wrappers.  Wrappers return the wrapped
result unchanged, and ``Tracer.uninstall`` restores every original.

Names bound with ``from ... import`` (``integrate`` in cli and transforms,
``drift_report`` in cli, ...) are patched in every superkdv module that
holds them, so no call site escapes.
"""

import inspect
import os
import sys
import time
from array import array
from collections import Counter

import numpy as np
import numpy.fft

from superkdv import algebra, cli, dynamics, fields, invariants, snapshots, symbolic, transforms

# Layers are the package's modules; FFTs are a layer of their own so that
# fields.self_s and fields.fft_s separate Field overhead from transform work.
LAYERS = ("fields", "fft", "algebra", "dynamics", "snapshots", "invariants",
          "transforms", "symbolic", "cli")

# (system, scheme) pairs whose exact per-step FFT and RHS counts are reported
STEP_CONFIGS = ("extended.ifrk4", "extended.rk4", "modified.ifrk4",
                "modified.rk4", "gardner.ifrk4")


class _Group:
    """Inclusive time and call count of a set of functions, counting only
    outermost calls so that nested members are not counted twice."""

    __slots__ = ("depth", "calls", "seconds")

    def __init__(self):
        self.depth = 0
        self.calls = 0
        self.seconds = 0.0


class Tracer:
    def __init__(self):
        self.names = []
        self._name_ids = {}
        # one entry per span, in order of entry (a parent precedes its children)
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self.counts = Counter()
        self.groups = {}
        self._step_config = None  # "<system>.<scheme>" while integrate steps
        self._pending_config = None
        self._undo = []

    # ------------------------------------------------------------------
    # wrapping

    def _group(self, name):
        return self.groups.setdefault(name, _Group())

    def _wrap(self, fn, name, group=None, enter=None, leave=None):
        """Span-recording wrapper.  enter(args, kwargs) returns a token that
        leave(token, args, kwargs, result) receives after the call, also when
        the call raises (result is then None)."""
        nid = self._name_ids.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        group = self._group(group or name)
        sname, sparent, sstart, send = (self.span_name, self.span_parent,
                                        self.span_start, self.span_end)
        stack, clock = self._stack, time.perf_counter

        def wrapper(*args, **kwargs):
            token = enter(args, kwargs) if enter else None
            result = None
            idx = len(sname)
            sname.append(nid)
            sparent.append(stack[-1])
            send.append(0.0)
            stack.append(idx)
            group.depth += 1
            t0 = clock()
            sstart.append(t0)
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                send[idx] = t1
                stack.pop()
                group.depth -= 1
                if group.depth == 0:
                    group.calls += 1
                    group.seconds += t1 - t0
                if leave:
                    leave(token, args, kwargs, result)
            return result

        wrapper.__wrapped__ = fn
        wrapper.__name__ = getattr(fn, "__name__", name)
        wrapper.__doc__ = getattr(fn, "__doc__", None)
        return wrapper

    def _patch_attr(self, owner, attr, value):
        had_own = attr in vars(owner)
        self._undo.append((owner, attr, vars(owner).get(attr), had_own))
        setattr(owner, attr, value)

    def _patch_function(self, module, attr, name, **hooks):
        """Wrap module.attr and rebind it in every superkdv module holding it."""
        original = getattr(module, attr)
        wrapped = self._wrap(original, name, **hooks)
        holders = [m for key, m in sys.modules.items()
                   if m is not None and (key == "superkdv" or key.startswith("superkdv."))]
        if module not in holders:
            holders.append(module)
        for holder in holders:
            for key, value in list(vars(holder).items()):
                if value is original:
                    self._patch_attr(holder, key, wrapped)

    def _patch_method(self, classes, attr, name, **hooks):
        for cls in classes:
            self._patch_attr(cls, attr, self._wrap(getattr(cls, attr), name, **hooks))

    def _count_init(self, cls, key):
        original = cls.__init__
        counts = self.counts

        def __init__(self, *args, **kwargs):
            counts[key] += 1
            original(self, *args, **kwargs)

        self._patch_attr(cls, "__init__", __init__)

    def install(self):
        counts = self.counts

        def fft_leave(kind):
            def leave(token, args, kwargs, result):
                if result is None:
                    return
                counts["fields.fft_calls"] += 1
                counts["fields.fft_bytes"] += np.asarray(args[0]).nbytes + result.nbytes
                if self._step_config:
                    counts[f"{self._step_config}.{kind}"] += 1
            return leave

        for kind in ("rfft", "irfft"):
            self._patch_function(numpy.fft, kind, f"fft.{kind}", group="fft",
                                 leave=fft_leave(kind))

        # fields
        field_classes = (fields.EvenField, fields.OddField)
        self._patch_method(field_classes, "derivative", "fields.derivative")
        self._patch_method(field_classes, "dealiased", "fields.dealiased")
        self._patch_method(field_classes, "quadrature", "fields.Field.quadrature")
        for cls in field_classes:
            self._count_init(cls, "fields.field_allocs")
        for attr in ("build_initial_condition", "parse_ic", "spectral_derivative",
                     "quadrature"):
            self._patch_function(fields, attr, f"fields.{attr}")

        # algebra
        def product_leave(token, args, kwargs, result):
            if result is not None:
                counts["algebra.product_elems"] += result.size

        for attr in ("even_mul", "mixed_mul", "odd_commutator", "odd_mul"):
            self._patch_method((algebra.Algebra,), attr, f"algebra.{attr}",
                               group="algebra.product", leave=product_leave)
        self._patch_function(algebra, "validate_algebra", "algebra.validate_algebra")

        # dynamics
        integrate_sig = inspect.signature(dynamics.integrate)

        # Per-step counts start at the first right-hand side of an integrate
        # call, which leaves out the one-off dealiasing of the initial state.
        def integrate_enter(args, kwargs):
            bound = integrate_sig.bind(*args, **kwargs)
            bound.apply_defaults()
            a = bound.arguments
            config = f"{a['state'].kind}.{a['scheme']}"
            counts["dynamics.steps"] += a["steps"]
            counts[f"{config}.steps"] += a["steps"]
            outer = self._step_config, self._pending_config
            self._step_config, self._pending_config = None, config
            return outer

        def integrate_leave(outer, args, kwargs, result):
            self._step_config, self._pending_config = outer

        def rhs_enter(args, kwargs):
            if self._pending_config:
                self._step_config, self._pending_config = self._pending_config, None

        self._patch_function(dynamics, "integrate", "dynamics.integrate",
                             enter=integrate_enter, leave=integrate_leave)

        def rhs_leave(token, args, kwargs, result):
            counts["dynamics.rhs_evals"] += 1
            if self._step_config:
                counts[f"{self._step_config}.rhs"] += 1

        self._patch_function(dynamics, "nonlinear_rhs", "dynamics.nonlinear_rhs",
                             enter=rhs_enter, leave=rhs_leave)
        for attr in ("rhs_state", "rhs_modified", "rhs_extended", "rhs_skdv_grassmann",
                     "rhs_gardner", "soliton_profile", "stability_limit"):
            self._patch_function(dynamics, attr, f"dynamics.{attr}")

        # invariants
        def drift_leave(token, args, kwargs, result):
            counts["invariants.records"] += len(args[0] if args else kwargs["traj"])

        self._patch_function(invariants, "drift_report", "invariants.drift_report",
                             leave=drift_leave)
        for attr in ("conserved_quantities", "conserved_densities",
                     "hamiltonian_density", "reduced_hamiltonian_density"):
            self._patch_function(invariants, attr, f"invariants.{attr}")

        # snapshots: bytes and calls are counted at the outermost write only
        writes = self._group("snapshots.any_write")

        def write_enter(args, kwargs):
            writes.depth += 1
            return None

        def write_leave(path_index):
            def leave(token, args, kwargs, result):
                writes.depth -= 1
                if writes.depth == 0:
                    path = kwargs.get("path", args[path_index] if len(args) > path_index else None)
                    writes.calls += 1
                    counts["snapshots.bytes"] += _size(path)
            return leave

        for attr, group, path_index in (("write_snapshot", "snapshots.write", 1),
                                        ("write_manifest", "snapshots.write", 1),
                                        ("dump_json", "snapshots.write", 1),
                                        ("write_report_csv", "snapshots.csv", 1),
                                        ("write_csv", "snapshots.csv", 2),
                                        ("write_line_plot", "snapshots.plot", 0)):
            self._patch_function(snapshots, attr, f"snapshots.{attr}", group=group,
                                 enter=write_enter, leave=write_leave(path_index))
        for attr in ("read_snapshot", "read_csv", "load_json"):
            self._patch_function(snapshots, attr, f"snapshots.{attr}")

        # transforms
        for attr in ("miura", "gardner_map", "to_extended", "to_extended_trajectory"):
            self._patch_function(transforms, attr, f"transforms.{attr}",
                                 group="transforms.map")
        for attr in ("inverse_gardner_series", "susy_variation", "fd_flow_residual",
                     "flow_commutation_defect"):
            self._patch_function(transforms, attr, f"transforms.{attr}")

        # symbolic
        for attr in ("parse", "to_text", "instantiate", "equal_mod_total_derivative",
                     "gardner_coefficients", "conserved_density_poly",
                     "evolutionary_derivative", "reproduce_conserved_quantities"):
            self._patch_function(symbolic, attr, f"symbolic.{attr}")

        # cli: the subcommands are looked up when main builds its parser
        for attr in ("main", "cmd_simulate", "cmd_check", "cmd_plot"):
            self._patch_function(cli, attr, f"cli.{attr}")
        return self

    def uninstall(self):
        for owner, attr, value, had_own in reversed(self._undo):
            if had_own:
                setattr(owner, attr, value)
            else:
                delattr(owner, attr)
        self._undo.clear()

    def __enter__(self):
        return self.install()

    def __exit__(self, *exc):
        self.uninstall()

    # ------------------------------------------------------------------
    # results

    def mark(self):
        """Position to pass to layer_metrics: everything traced after it."""
        return len(self.span_name), Counter(self.counts), {
            k: (g.calls, g.seconds) for k, g in self.groups.items()}

    def self_times(self, start=0):
        """Self time per layer over the spans recorded since `start`."""
        n = len(self.span_name)
        child = [0.0] * (n - start)
        layer_of = [name.split(".", 1)[0] for name in self.names]
        totals = dict.fromkeys(LAYERS, 0.0)
        names, parents = self.span_name, self.span_parent
        starts, ends = self.span_start, self.span_end
        for i in range(n - 1, start - 1, -1):
            dur = ends[i] - starts[i]
            totals[layer_of[names[i]]] += dur - child[i - start]
            p = parents[i]
            if p >= start:
                child[p - start] += dur
        return totals

    def layer_metrics(self, mark, wall_s):
        """Per-layer metrics of the work traced since `mark`, whose
        repetition took wall_s seconds."""
        start, counts0, groups0 = mark
        c = self.counts - counts0

        def group(name):
            g = self.groups.get(name)
            if g is None:
                return 0, 0.0
            calls0, sec0 = groups0.get(name, (0, 0.0))
            return g.calls - calls0, g.seconds - sec0

        def per(num, den, scale=1.0):
            return scale * num / den if den else 0.0

        selfs = self.self_times(start)
        steps = c["dynamics.steps"]
        step_ffts = sum(c[f"{cfg}.{k}"] for cfg in STEP_CONFIGS for k in ("rfft", "irfft"))
        step_rhs = sum(c[f"{cfg}.rhs"] for cfg in STEP_CONFIGS)
        integrate_calls, integrate_s = group("dynamics.integrate")
        drift_calls, drift_s = group("invariants.drift_report")
        m = {
            "fields.fft_calls": c["fields.fft_calls"],
            "fields.fft_per_step": per(step_ffts, steps),
            "fields.fft_s": group("fft")[1],
            "fields.fft_bytes": c["fields.fft_bytes"],
            "fields.derivative_calls": group("fields.derivative")[0],
            "fields.dealias_calls": group("fields.dealiased")[0],
            "fields.field_allocs": c["fields.field_allocs"],
            "fields.self_s": selfs["fields"],
            "algebra.product_calls": group("algebra.product")[0],
            "algebra.product_elems": c["algebra.product_elems"],
            "algebra.product_s": group("algebra.product")[1],
            "algebra.validate_s": group("algebra.validate_algebra")[1],
            "algebra.self_s": selfs["algebra"],
            "dynamics.integrate_s": integrate_s,
            "dynamics.steps": steps,
            "dynamics.ms_per_step": per(integrate_s, steps, 1e3),
            "dynamics.rhs_evals": c["dynamics.rhs_evals"],
            "dynamics.rhs_per_step": per(step_rhs, steps),
            "dynamics.self_s": selfs["dynamics"],
        }
        for cfg in STEP_CONFIGS:
            n = c[f"{cfg}.steps"]
            key = "dynamics." + cfg.replace(".", "_")
            m[f"{key}.rfft_per_step"] = per(c[f"{cfg}.rfft"], n)
            m[f"{key}.irfft_per_step"] = per(c[f"{cfg}.irfft"], n)
            m[f"{key}.rhs_per_step"] = per(c[f"{cfg}.rhs"], n)
        m.update({
            "snapshots.write_calls": group("snapshots.any_write")[0],
            "snapshots.bytes": c["snapshots.bytes"],
            "snapshots.write_s": group("snapshots.write")[1],
            "snapshots.csv_s": group("snapshots.csv")[1],
            "snapshots.self_s": selfs["snapshots"],
            "invariants.drift_report_s": drift_s,
            "invariants.records": c["invariants.records"],
            "invariants.ms_per_record": per(drift_s, c["invariants.records"], 1e3),
            "invariants.self_s": selfs["invariants"],
            "transforms.map_s": group("transforms.map")[1],
            "transforms.fd_residual_s": group("transforms.fd_flow_residual")[1],
            "transforms.inverse_series_s": group("transforms.inverse_gardner_series")[1],
            "transforms.commutation_s": group("transforms.flow_commutation_defect")[1],
            "transforms.self_s": selfs["transforms"],
            "symbolic.equal_mod_calls": group("symbolic.equal_mod_total_derivative")[0],
            "symbolic.equal_mod_s": group("symbolic.equal_mod_total_derivative")[1],
            "symbolic.instantiate_calls": group("symbolic.instantiate")[0],
            "symbolic.instantiate_s": group("symbolic.instantiate")[1],
            "symbolic.reproduce_s": group("symbolic.reproduce_conserved_quantities")[1],
            "symbolic.evolutionary_s": group("symbolic.evolutionary_derivative")[1],
            "symbolic.self_s": selfs["symbolic"],
            "cli.main_s": group("cli.main")[1],
            "cli.self_s": selfs["cli"],
            "trace.wall_s": wall_s,
            "trace.spans": len(self.span_name) - start,
            "trace.unattributed_s": wall_s - sum(selfs.values()),
        })
        return m

    def save(self, path):
        """Write every span recorded so far (one call, after the traced work)."""
        np.savez_compressed(
            path, names=np.array(self.names), name=np.asarray(self.span_name),
            parent=np.asarray(self.span_parent), start=np.asarray(self.span_start),
            end=np.asarray(self.span_end))


def _size(path):
    try:
        return os.path.getsize(path)
    except (OSError, TypeError):
        return 0
