"""Deterministic on-disk formats: state snapshots, conserved-quantity
tables, run manifests, and SVG line plots.

Identical inputs produce byte-identical files.  Each JSON file is one
line from the json module's own encoder, keys sorted, with no spaces and
floats in Python repr form (shortest round-trip); `python -m json.tool
FILE` pretty-prints one.  The plot writer formats coordinates with a fixed
precision, so reruns of the same configuration compare by a byte diff.
"""

import json

import numpy as np

from .algebra import AlgebraDescriptor
from .dynamics import SystemState
from .errors import SuperKdVError, finite_number
from .fields import EvenField, OddField, PeriodicGrid


def json_default(obj):
    """json's default= hook: a numpy array as a list, a numpy scalar as the
    bool, int or float it holds; anything else refused as json refuses it."""
    if isinstance(obj, np.ndarray):
        return obj.tolist()
    for numpy_type, plain in ((np.bool_, bool), (np.integer, int), (np.floating, float)):
        if isinstance(obj, numpy_type):
            return plain(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def dump_json(obj, path):
    text = json.dumps(obj, sort_keys=True, separators=(",", ":"), default=json_default)
    with open(path, "w", newline="\n") as fh:
        fh.write(text + "\n")


def load_json(path):
    with open(path) as fh:
        return json.load(fh)


def state_to_dict(state):
    doc = {
        "system": state.kind,
        "algebra": str(state.descriptor),
        "L": state.grid.L,
        "N": state.grid.N,
        "lambda": state.lam,
        "time": state.time,
        "even": {label: row.tolist() for label, row in state.even.channels().items()},
        "odd": {label: row.tolist() for label, row in state.odd.channels().items()},
    }
    if state.kind == "gardner":
        doc["epsilon"] = state.epsilon
    return doc


def write_snapshot(state, path):
    dump_json(state_to_dict(state), path)


_SNAPSHOT_KEYS = ("system", "algebra", "L", "N", "lambda", "time", "even", "odd")


def state_from_dict(doc):
    """Rebuild a SystemState from a snapshot document.

    Malformed content raises SuperKdVError: a missing key or channel, a
    channel the declared algebra lacks, a row that is no list N long, or an
    L, N, time, lambda, epsilon or sample that errors.finite_number
    refuses (true, false, text such as "40", nan, and for N a fraction).
    """
    if not isinstance(doc, dict):
        raise SuperKdVError("a snapshot must be a JSON object")
    missing = [key for key in _SNAPSHOT_KEYS if key not in doc]
    if missing:
        raise SuperKdVError(f"snapshot lacks the keys {missing}")
    grid = PeriodicGrid(finite_number("L", doc["L"]), finite_number("N", doc["N"], int))
    desc = AlgebraDescriptor.from_string(str(doc["algebra"]))
    time, lam = finite_number("time", doc["time"]), finite_number("lambda", doc["lambda"])
    epsilon = finite_number("epsilon", doc.get("epsilon", 0.0))
    even = EvenField.zeros(grid, desc)
    odd = OddField.zeros(grid, desc)
    for field, part_name in ((even, "even"), (odd, "odd")):
        part = doc[part_name]
        if not isinstance(part, dict):
            raise SuperKdVError(f"snapshot {part_name!r} must map channel labels to rows")
        foreign = sorted(set(part) - set(field.labels))
        if foreign:
            raise SuperKdVError(f"snapshot {part_name} channels {foreign} are not "
                                f"channels of {desc}")
        for i, label in enumerate(field.labels):
            if label not in part:
                raise SuperKdVError(f"snapshot missing channel {label!r}")
            name, row = f"snapshot channel {part_name}:{label}", part[label]
            if not isinstance(row, list) or len(row) != grid.N:
                raise SuperKdVError(f"{name} must be a list of {grid.N} samples")
            field.data[i] = [finite_number(name, sample) for sample in row]
    return SystemState(doc["system"], even, odd, time=time, lam=lam, epsilon=epsilon)


def read_snapshot(path):
    return state_from_dict(load_json(path))


def format_value(v):
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    return repr(float(v))


def write_csv(header, rows, path):
    lines = [",".join(header)]
    width = len(header)
    for row in rows:
        row = list(row)
        if len(row) != width:
            raise SuperKdVError(
                f"csv row has {len(row)} cells, header has {width}")
        lines.append(",".join(format_value(v) for v in row))
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(lines) + "\n")


def read_csv(path):
    """Header and float rows of a CSV written by write_csv; blank lines are
    skipped, and a ragged row or a non-numeric cell raises SuperKdVError."""
    with open(path) as fh:
        lines = [line.rstrip("\n") for line in fh if line.strip()]
    if not lines:
        return [], []
    header = lines[0].split(",")
    rows = []
    for number, line in enumerate(lines[1:], start=1):
        cells = line.split(",")
        if len(cells) != len(header):
            raise SuperKdVError(
                f"csv data row {number} has {len(cells)} cells, header has {len(header)}")
        try:
            rows.append([float(cell) for cell in cells])
        except ValueError as exc:
            raise SuperKdVError(f"csv data row {number}: {exc}")
    return header, rows


# ---------------------------------------------------------------------------
# SVG line plots

_PALETTE = ("#1f6fb2", "#d0541e", "#2c8a4b", "#8e4fa8",
            "#b3322e", "#6b6b6b", "#b08f00", "#176f6f")

_WIDTH, _HEIGHT = 720, 440
_MARGIN_L, _MARGIN_R, _MARGIN_T, _MARGIN_B = 72, 24, 40, 48


def _fmt(x):
    return f"{x:.6g}"


def _ticks(lo, hi, count=5):
    if hi == lo:
        return [lo]
    step = (hi - lo) / (count - 1)
    return [lo + i * step for i in range(count)]


def write_line_plot(path, x, series, title="", xlabel=""):
    """Standalone SVG with one polyline per named series.

    series maps label -> sequence of y values (same length as x).  A
    non-finite x or y value raises SuperKdVError before any file is
    written.  The title, x label and series labels are escaped as XML text.
    """
    from xml.sax.saxutils import escape  # here: it imports urllib.request, 35 ms

    x = np.asarray(x, dtype=float)
    if not series:
        raise SuperKdVError("nothing to plot: no series given")
    series = {label: np.asarray(ys, dtype=float) for label, ys in series.items()}
    for label, ys in series.items():
        if len(ys) != len(x):
            raise SuperKdVError(
                f"series {label!r} has {len(ys)} points, x axis has {len(x)}")
        if not np.isfinite(ys).all():
            raise SuperKdVError(f"series {label!r} holds a non-finite value")
    if len(x) == 0:
        raise SuperKdVError("nothing to plot: empty data")
    if not np.isfinite(x).all():
        raise SuperKdVError(f"the x axis {xlabel!r} holds a non-finite value")
    ymin = min(float(np.min(ys)) for ys in series.values())
    ymax = max(float(np.max(ys)) for ys in series.values())
    if ymax == ymin:
        ymax, ymin = ymax + 1.0, ymin - 1.0
    pad = 0.05 * (ymax - ymin)
    ymin, ymax = ymin - pad, ymax + pad
    xmin, xmax = float(x[0]), float(x[-1])
    if xmax == xmin:
        xmax = xmin + 1.0

    box_w = _WIDTH - _MARGIN_L - _MARGIN_R
    box_h = _HEIGHT - _MARGIN_T - _MARGIN_B

    def px(v):
        return _MARGIN_L + (v - xmin) / (xmax - xmin) * box_w

    def py(v):
        return _MARGIN_T + (ymax - v) / (ymax - ymin) * box_h

    parts = [
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_WIDTH}" '
        f'height="{_HEIGHT}" viewBox="0 0 {_WIDTH} {_HEIGHT}">',
        f'<rect width="{_WIDTH}" height="{_HEIGHT}" fill="white"/>',
        f'<rect x="{_MARGIN_L}" y="{_MARGIN_T}" width="{box_w}" '
        f'height="{box_h}" fill="none" stroke="#333" stroke-width="1"/>',
    ]
    if title:
        parts.append(f'<text x="{_WIDTH // 2}" y="24" text-anchor="middle" '
                     f'font-family="sans-serif" font-size="15">{escape(title)}</text>')
    for tx in _ticks(xmin, xmax):
        parts.append(f'<line x1="{_fmt(px(tx))}" y1="{_MARGIN_T + box_h}" '
                     f'x2="{_fmt(px(tx))}" y2="{_MARGIN_T + box_h + 5}" stroke="#333"/>')
        parts.append(f'<text x="{_fmt(px(tx))}" y="{_MARGIN_T + box_h + 20}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="11">{_fmt(tx)}</text>')
    for ty in _ticks(ymin, ymax):
        parts.append(f'<line x1="{_MARGIN_L - 5}" y1="{_fmt(py(ty))}" '
                     f'x2="{_MARGIN_L}" y2="{_fmt(py(ty))}" stroke="#333"/>')
        parts.append(f'<text x="{_MARGIN_L - 8}" y="{_fmt(py(ty) + 4)}" '
                     f'text-anchor="end" font-family="sans-serif" '
                     f'font-size="11">{_fmt(ty)}</text>')
    if xlabel:
        parts.append(f'<text x="{_MARGIN_L + box_w // 2}" y="{_HEIGHT - 10}" '
                     f'text-anchor="middle" font-family="sans-serif" '
                     f'font-size="12">{escape(xlabel)}</text>')
    for i, (label, ys) in enumerate(series.items()):
        color = _PALETTE[i % len(_PALETTE)]
        pts = " ".join(f"{_fmt(px(float(xv)))},{_fmt(py(float(yv)))}"
                       for xv, yv in zip(x, ys))
        parts.append(f'<polyline fill="none" stroke="{color}" '
                     f'stroke-width="1.5" points="{pts}"/>')
        ly = _MARGIN_T + 16 + 16 * i
        lx = _WIDTH - _MARGIN_R - 150
        parts.append(f'<line x1="{lx}" y1="{ly - 4}" x2="{lx + 22}" '
                     f'y2="{ly - 4}" stroke="{color}" stroke-width="2"/>')
        parts.append(f'<text x="{lx + 28}" y="{ly}" font-family="sans-serif" '
                     f'font-size="12">{escape(label)}</text>')
    parts.append("</svg>")
    with open(path, "w", newline="\n") as fh:
        fh.write("\n".join(parts) + "\n")


def write_report_csv(report, path):
    write_csv(report.header(), report.rows(), path)


def write_manifest(config, path):
    """Record everything the run depended on; nothing time- or path-bound."""
    from . import __version__

    doc = dict(config)
    doc["code_version"] = __version__
    dump_json(doc, path)
