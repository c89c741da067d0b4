import base64
import filecmp
import json
import re
import xml.etree.ElementTree as ET

import numpy as np
import pytest

from superkdv.algebra import AlgebraDescriptor
from superkdv.dynamics import SystemState
from superkdv.errors import SuperKdVError
from superkdv.fields import PeriodicGrid, build_initial_condition
from superkdv.snapshots import (
    dump_json,
    json_default,
    load_json,
    read_csv,
    read_snapshot,
    state_from_dict,
    state_to_dict,
    write_csv,
    write_line_plot,
    write_manifest,
    write_snapshot,
)


def sample_state(kind="extended", backend="grassmann:3", eps=0.0):
    grid = PeriodicGrid(20.0, 64)
    desc = AlgebraDescriptor.from_string(backend)
    u, xi = build_initial_condition(
        "random_bandlimited(max_mode=4,amplitude=0.4,seed=5)", grid, desc)
    return SystemState(kind, u, xi, time=0.25, lam=1.5, epsilon=eps)


def test_snapshot_roundtrip(tmp_path):
    state = sample_state()
    path = tmp_path / "snap.json"
    write_snapshot(state, path)
    back = read_snapshot(path)
    assert back.kind == state.kind
    assert back.time == state.time
    assert back.lam == state.lam
    assert back.grid == state.grid
    assert back.descriptor == state.descriptor
    assert np.array_equal(back.even.data, state.even.data)
    assert np.array_equal(back.odd.data, state.odd.data)


def test_snapshot_rewrite_is_byte_identical(tmp_path):
    state = sample_state("gardner", "symplectic:1", eps=0.1)
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    write_snapshot(state, a)
    write_snapshot(read_snapshot(a), b)
    assert filecmp.cmp(a, b, shallow=False)
    assert load_json(a)["epsilon"] == 0.1


def test_snapshot_missing_channel_rejected(tmp_path):
    state = sample_state()
    path = tmp_path / "snap.json"
    write_snapshot(state, path)
    doc = load_json(path)
    del doc["even"]["unit"]
    dump_json(doc, path)
    with pytest.raises(SuperKdVError):
        read_snapshot(path)


def test_snapshot_channel_its_algebra_lacks_is_refused():
    # relabelled grassmann:2, a grassmann:3 snapshot holds channels its
    # declared backend lacks; loading refuses them rather than drop them
    doc = state_to_dict(sample_state())
    doc["algebra"] = "grassmann:2"
    with pytest.raises(SuperKdVError, match=re.escape(
            "snapshot even channels ['t1t3', 't2t3'] are not channels of grassmann:2")):
        state_from_dict(doc)
    doc["even"] = {label: doc["even"][label] for label in ("unit", "t1t2")}
    with pytest.raises(SuperKdVError, match=re.escape(
            "snapshot odd channels ['t1t2t3', 't3'] are not channels of grassmann:2")):
        state_from_dict(doc)
    # with only its own channels it loads
    doc["odd"] = {label: doc["odd"][label] for label in ("t1", "t2")}
    assert state_from_dict(doc).even.labels == ("unit", "t1t2")


def test_snapshot_rows_are_base64_little_endian_float64():
    state = sample_state()
    doc = state_to_dict(state)
    assert doc["samples"] == "float64 little-endian, base64"
    row = np.frombuffer(base64.b64decode(doc["odd"]["t2"], validate=True), "<f8")
    assert row.tobytes() == state.odd.data[1].astype("<f8").tobytes()


def test_snapshot_of_lists_of_numbers_is_refused_by_name():
    # the format before base64 rows: no samples key, each row a list
    doc = state_to_dict(sample_state())
    del doc["samples"]
    for part in ("even", "odd"):
        doc[part] = {label: [0.0] * 64 for label in doc[part]}
    with pytest.raises(SuperKdVError, match=re.escape("snapshot lacks the keys ['samples']")):
        state_from_dict(doc)
    doc["samples"] = "float64 big-endian, base64"
    with pytest.raises(SuperKdVError, match="snapshot samples must be 'float64 little-endian, "
                                            "base64', got 'float64 big-endian, base64'"):
        state_from_dict(doc)


def encoded(samples):
    return base64.b64encode(np.asarray(samples, "<f8").tobytes()).decode()


NOT_SAMPLES = "snapshot channel odd:t3 must be the base64 text of 64 little-endian float64 samples"


@pytest.mark.parametrize("row,message", [
    ([0.0] * 64, NOT_SAMPLES),  # a list, as the former format had
    (True, NOT_SAMPLES),
    (None, NOT_SAMPLES),
    (encoded([0.0] * 63), NOT_SAMPLES),
    (encoded([0.0] * 65), NOT_SAMPLES),
    (encoded([0.0] * 64)[:-1], NOT_SAMPLES),  # padding cut
    (encoded([0.0] * 64) + "\n", NOT_SAMPLES),  # validate=True takes no newline
    ("*" + encoded([0.0] * 64)[1:], NOT_SAMPLES),
    ("\u00e9" + encoded([0.0] * 64)[1:], NOT_SAMPLES),  # not ASCII
    (encoded([0.0] * 10 + [float("nan")] + [0.0] * 53),
     "snapshot channel odd:t3 must be a finite float, got nan"),
    (encoded([0.0] * 63 + [float("inf")]),
     "snapshot channel odd:t3 must be a finite float, got inf"),
])
def test_snapshot_row_that_is_no_finite_samples_is_refused(row, message):
    doc = state_to_dict(sample_state())
    doc["odd"]["t3"] = row
    with pytest.raises(SuperKdVError, match=re.escape(message)):
        state_from_dict(doc)


def test_snapshot_of_a_skdv_grassmann_state_is_refused(tmp_path):
    # the N=1 super KdV is the extended system on grassmann, not a kind of
    # its own; a snapshot naming the deleted kind is refused, not misread
    path = tmp_path / "snap.json"
    write_snapshot(sample_state(), path)
    doc = load_json(path)
    doc["system"] = "skdv_grassmann"
    with pytest.raises(SuperKdVError, match="unknown system kind 'skdv_grassmann'"):
        state_from_dict(doc)


def test_csv_roundtrip_and_determinism(tmp_path):
    header = ["time", "H2[unit]", "H2[nil]"]
    rows = [[0.0, 1.2345678901234567, -3e-17], [0.1, -0.5, 2.0]]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(header, rows, a)
    h, r = read_csv(a)
    assert h == header
    assert r[0][1] == 1.2345678901234567
    write_csv(h, r, b)
    assert filecmp.cmp(a, b, shallow=False)


def test_csv_row_width_checked(tmp_path):
    with pytest.raises(SuperKdVError):
        write_csv(["a", "b"], [[1.0]], tmp_path / "bad.csv")


def test_line_plot_polylines_and_determinism(tmp_path):
    t = np.linspace(0.0, 1.0, 40)
    series = {"H2[unit]": np.cos(t), "H2[nil]": np.sin(t), "H4[unit]": t ** 2}
    a, b = tmp_path / "a.svg", tmp_path / "b.svg"
    write_line_plot(a, t, series, title="drift", xlabel="time")
    write_line_plot(b, t, series, title="drift", xlabel="time")
    text = a.read_text()
    assert text.count("<polyline") == len(series)
    assert text.startswith("<svg xmlns=")
    assert "drift" in text
    assert filecmp.cmp(a, b, shallow=False)


def test_line_plot_flat_series_still_renders(tmp_path):
    t = np.linspace(0.0, 1.0, 10)
    path = tmp_path / "flat.svg"
    write_line_plot(path, t, {"H0[unit]": np.zeros(10)})
    assert "<polyline" in path.read_text()


def test_line_plot_input_validation(tmp_path):
    with pytest.raises(SuperKdVError):
        write_line_plot(tmp_path / "x.svg", [], {})
    with pytest.raises(SuperKdVError):
        write_line_plot(tmp_path / "x.svg", [0.0, 1.0], {"a": [1.0]})


@pytest.mark.parametrize("x,ys,named", [
    ([0.0, 1.0, 2.0], [1.0, np.nan, 2.0], "series 'H0[unit]'"),
    ([0.0, 1.0, 2.0], [1.0, 2.0, -np.inf], "series 'H0[unit]'"),
    ([0.0, np.inf, 2.0], [1.0, 2.0, 3.0], "the x axis 'time'"),
])
def test_line_plot_refuses_non_finite_values(x, ys, named, tmp_path):
    # a NaN would draw as the text "nan" in every point of the polyline
    path = tmp_path / "x.svg"
    with pytest.raises(SuperKdVError, match=re.escape(f"{named} holds a non-finite value")):
        write_line_plot(path, x, {"H0[unit]": ys}, xlabel="time")
    assert not path.exists()


def test_manifest_records_code_version(tmp_path):
    import superkdv

    path = tmp_path / "manifest.json"
    write_manifest({"system": "extended", "seed": 7}, path)
    doc = load_json(path)
    assert doc["code_version"] == superkdv.__version__
    assert doc["seed"] == 7


def test_json_default_writes_numpy_values_as_python_ones():
    text = json.dumps({"a": np.float64(1.5), "b": np.int64(2),
                       "c": np.bool_(True), "d": np.arange(3.0),
                       "e": [np.float32(0.5)], "f": np.arange(4).reshape(2, 2)},
                      sort_keys=True, separators=(",", ":"), default=json_default)
    assert text == '{"a":1.5,"b":2,"c":true,"d":[0.0,1.0,2.0],"e":[0.5],"f":[[0,1],[2,3]]}'
    assert isinstance(json_default(np.bool_(False)), bool)
    with pytest.raises(TypeError, match="set is not JSON serializable"):
        json_default({1, 2})


def compact(doc):
    return json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"


@pytest.mark.parametrize("kind,backend,eps", [
    ("extended", "scalar", 0.0), ("extended", "grassmann:3", 0.0),
    ("modified", "symplectic:2", 0.0), ("gardner", "grassmann:3", 0.25)])
def test_snapshot_bytes_equal_the_json_module(tmp_path, kind, backend, eps):
    state = sample_state(kind, backend, eps)
    extremes = [-0.0, 5e-324, 1.7976931348623157e308, -1.7976931348623157e308]
    state.even.data[0, :4] = extremes
    state.odd.data[..., -2:] = [-5e-324, 0.0]
    path = tmp_path / "snap.json"
    write_snapshot(state, path)
    expected = compact(state_to_dict(state))
    assert path.read_bytes() == expected.encode()
    assert expected.count("\n") == 1
    assert ('"epsilon"' in expected) == (kind == "gardner")
    # the samples come back bit for bit, the sign of -0.0 and the subnormal
    # and largest floats included
    back = read_snapshot(path)
    assert back.even.data.tobytes() == state.even.data.tobytes()
    assert back.odd.data.tobytes() == state.odd.data.tobytes()
    assert np.signbit(back.even.data[0, 0]) and back.even.data[0, :4].tolist() == extremes


# a document, and the same document with numpy values written as Python ones
@pytest.mark.parametrize("doc,plain", [
    ({"b": [1, 2.5, True, None, "x\u00e9"], "a": {"z": [], "y": {}, "x": (np.int64(3),)}},
     {"b": [1, 2.5, True, None, "x\u00e9"], "a": {"z": [], "y": {}, "x": [3]}}),
    ({"rows": np.arange(4.0).reshape(2, 2), "flags": [np.bool_(False), np.float32(0.5)]},
     {"rows": [[0.0, 1.0], [2.0, 3.0]], "flags": [False, 0.5]}),
    ({"special": [float("nan"), float("inf"), -float("inf"), 10 ** 400], "f": np.float64(-0.0)},
     {"special": [float("nan"), float("inf"), -float("inf"), 10 ** 400], "f": -0.0}),
    ({2: "int keys", 10: "sort as numbers"}, {2: "int keys", 10: "sort as numbers"}),
    ([], []),
    ("top-level string", "top-level string"),
])
def test_dump_json_bytes_equal_the_json_module(tmp_path, doc, plain):
    path = tmp_path / "doc.json"
    dump_json(doc, path)
    assert path.read_bytes() == compact(plain).encode()


def test_dump_json_refuses_what_json_refuses(tmp_path):
    with pytest.raises(TypeError):
        dump_json({"a": {1, 2}}, tmp_path / "doc.json")


def test_line_plot_escapes_its_text(tmp_path):
    # the title, x label and series labels are XML text: &, < and > in
    # them are escaped, and the parsed file gives them back unchanged
    path = tmp_path / "escaped.svg"
    texts = ["H2 & <H4>", "t < 1 & t > 0", "H2[unit] & <nil>"]
    write_line_plot(path, [0.0, 1.0], {texts[2]: [1.0, 2.0]}, title=texts[0], xlabel=texts[1])
    parsed = [element.text for element in ET.parse(path).iter("{http://www.w3.org/2000/svg}text")]
    assert all(text in parsed for text in texts)
