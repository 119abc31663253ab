"""Workspace JSON store: round trips, name resolution, validation reports."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from twinspace import (
    Measurement,
    StateVector,
    TwoStateVector,
    Workspace,
    builtin_workspace,
    errors,
)
from twinspace.errors import TwinspaceError, WorkspaceError
from twinspace.workspace import QUTRIT_FAMILY, _report, validate_workspace_file


def test_builtin_inventory():
    ws = builtin_workspace()
    assert set(QUTRIT_FAMILY) <= set(ws.measurements)
    for name in ("ket0", "ket1", "plus", "minus", "plus_i", "minus_i"):
        assert ws.state(name).dim == 2
    assert ws.vector("qubit_identity").dim == 2
    assert ws.vector("qutrit_signed").dim == 3
    mix = ws.mixture("classical_qubit")
    assert [w for w, _ in mix.components] == [0.5, 0.5]


def test_builtin_qutrit_family_shape():
    ws = builtin_workspace()
    for name in QUTRIT_FAMILY:
        m = ws.measurement(name)
        assert m.dim == 3
        assert m.num_outcomes == 2
        assert [p.rank for p in m.projectors] == [1, 2]


def test_dump_load_dump_is_byte_exact():
    ws = builtin_workspace()
    text = ws.dumps()
    again = Workspace.loads(text).dumps()
    assert again == text
    assert text.endswith("\n")


def test_file_round_trip(tmp_path):
    path = tmp_path / "ws.json"
    builtin_workspace().dump(path)
    ws = Workspace.load(path)
    assert ws.vector("qutrit_signed").dim == 3
    assert path.read_text() == ws.dumps()


def test_unknown_name_lists_known():
    ws = builtin_workspace()
    with pytest.raises(WorkspaceError) as exc:
        ws.vector("missing")
    assert "qubit_identity" in str(exc.value)


def test_mixture_or_point():
    ws = builtin_workspace()
    assert len(ws.mixture_or_point("classical_qubit").components) == 2
    point = ws.mixture_or_point("ket0_bra1")
    assert point.components[0][0] == 1.0


def test_rejects_unknown_sections():
    with pytest.raises(WorkspaceError):
        Workspace.loads('{"spam": {}}')


def test_section_not_an_object(tmp_path):
    path = tmp_path / "ws.json"
    path.write_text('{"states": []}')
    assert validate_workspace_file(path) == [
        ("states", "", False, "WorkspaceError: must be a JSON object")]
    with pytest.raises(WorkspaceError, match="states: must be a JSON object"):
        Workspace.load(path)


@pytest.mark.parametrize("content", [b"\xff\xfe{}", b"[1, 2", None],
                         ids=["not utf-8", "not json", "directory"])
def test_unreadable_file_is_one_fault(content, tmp_path):
    """A file that cannot be read, is not UTF-8 or is not JSON: one report
    row from validate, a WorkspaceError from load, and the same error
    from loads of the same bytes."""
    path = tmp_path / "ws.json"
    if content is None:
        path.mkdir()
    else:
        path.write_bytes(content)
    [row] = validate_workspace_file(path)
    assert row[:3] == ("workspace", str(path), False)
    with pytest.raises(WorkspaceError, match="cannot read workspace") as err:
        Workspace.load(path)
    if content is not None:
        with pytest.raises(WorkspaceError) as from_bytes:
            Workspace.loads(content)
        assert str(from_bytes.value) == str(err.value)


def test_loads_takes_utf8_bytes():
    text = builtin_workspace().dumps()
    assert Workspace.loads(text.encode()).dumps() == text


def test_rejects_invalid_json():
    with pytest.raises(WorkspaceError):
        Workspace.loads("{not json")


def test_rejects_dangling_mixture_reference():
    doc = {
        "vectors": {"a": TwoStateVector(np.eye(2)).to_json()},
        "mixtures": {"m": {"components": [
            {"weight": 1.0, "vector": "missing"}
        ]}},
    }
    with pytest.raises(WorkspaceError):
        Workspace.from_json_dict(doc)


def test_rejects_bad_entry_with_name_in_message():
    doc = {"states": {"broken": {"dim": 2,
                                 "amplitudes": [[0.0, 0.0], [0.0, 0.0]]}}}
    with pytest.raises(WorkspaceError) as exc:
        Workspace.from_json_dict(doc)
    assert "broken" in str(exc.value)


def test_validate_workspace_file_reports_per_entry(tmp_path):
    ws = builtin_workspace()
    doc = ws.to_json_dict()
    doc["states"]["zero"] = {"dim": 2,
                             "amplitudes": [[0.0, 0.0], [0.0, 0.0]]}
    doc["measurements"]["incomplete"] = {
        "dim": 2,
        "projectors": [[[[1.0, 0.0], [0.0, 0.0]],
                        [[0.0, 0.0], [0.0, 0.0]]]],
    }
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    rows = validate_workspace_file(path)
    status = {(section, name): ok for section, name, ok, _ in rows}
    assert status[("states", "zero")] is False
    assert status[("measurements", "incomplete")] is False
    assert status[("states", "ket0")] is True
    assert status[("mixtures", "classical_qubit")] is True


def test_validate_workspace_file_bad_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("[1, 2")
    rows = validate_workspace_file(path)
    assert len(rows) == 1
    assert rows[0][2] is False


def test_dangling_reference_messages():
    doc = {
        "vectors": {"a": TwoStateVector(np.eye(2)).to_json()},
        "mixtures": {"m": {"components": [
            {"weight": 1.0, "vector": "missing"}
        ]}},
    }
    with pytest.raises(WorkspaceError) as exc:
        Workspace.from_json_dict(doc)
    assert str(exc.value) == (
        "mixture 'm': unknown vector 'missing'; workspace has: a")


def test_load_and_validate_share_one_parse_path(tmp_path):
    """Loading fails on the first row validation reports as failing, with
    that row's cause, and the row order is the schema order."""
    doc = builtin_workspace().to_json_dict()
    doc["vectors"]["zero"] = {"dim": 1, "matrix": [[[0.0, 0.0]]]}
    doc["measurements"]["incomplete"] = {
        "dim": 2,
        "projectors": [[[[1.0, 0.0], [0.0, 0.0]],
                        [[0.0, 0.0], [0.0, 0.0]]]],
    }
    doc["mixtures"]["uses_zero"] = {"components": [
        {"weight": 1.0, "vector": "zero"}]}
    path = tmp_path / "broken.json"
    path.write_text(json.dumps(doc))
    rows = validate_workspace_file(path)
    failing = [(section, name) for section, name, ok, _ in rows if not ok]
    assert failing == [("vectors", "zero"), ("measurements", "incomplete"),
                       ("mixtures", "uses_zero")]
    messages = {(section, name): msg for section, name, _, msg in rows}
    assert messages[("vectors", "zero")].startswith("ZeroVectorError: ")
    assert messages[("mixtures", "uses_zero")].startswith("unknown vector")
    with pytest.raises(WorkspaceError) as exc:
        Workspace.load(path)
    assert str(exc.value) == (
        "vector 'zero': "
        + messages[("vectors", "zero")].removeprefix("ZeroVectorError: "))


@pytest.mark.parametrize("labels", [5, "ab"])
def test_bad_labels_are_a_failing_validate_row(tmp_path, labels):
    doc = builtin_workspace().to_json_dict()
    doc["measurements"]["computational"]["labels"] = labels
    path = tmp_path / "labels.json"
    path.write_text(json.dumps(doc))
    rows = {(section, name): (ok, msg)
            for section, name, ok, msg in validate_workspace_file(path)}
    ok, msg = rows[("measurements", "computational")]
    assert not ok
    assert msg.startswith("ShapeMismatchError: labels must be")
    with pytest.raises(WorkspaceError, match="labels must be"):
        Workspace.load(path)


# ---------------------------------------------------------------------------
# One codec: malformed entries are refused as library errors
# ---------------------------------------------------------------------------

#: A valid entry per parsed section and the key holding its array.
VALID_ENTRIES = {
    "states": (StateVector, "amplitudes",
               StateVector([0.6, 0.8j]).to_json()),
    "vectors": (TwoStateVector, "matrix",
                TwoStateVector(np.eye(2)).to_json()),
    "measurements": (Measurement, "projectors",
                     builtin_workspace().measurement("diagonal").to_json()),
}


def _first_pair_parent(nest):
    """The innermost list that holds the first [re, im] pair."""
    while isinstance(nest[0][0], list):
        nest = nest[0]
    return nest


def _with_first_pair(value):
    def bad(pairs):
        nest = pairs.tolist()
        _first_pair_parent(nest)[0] = value
        return nest
    return bad


def _first_row_short(pairs):
    nest = pairs.tolist()
    _first_pair_parent(nest).pop()
    return nest


#: Replacements for an entry's array, as functions of its (..., 2) pairs.
MALFORMED = {
    "pair of length 1": lambda a: a[..., :1].tolist(),
    "pair of length 3": lambda a: np.concatenate(
        [a, a[..., :1]], axis=-1).tolist(),
    "plain numbers": lambda a: a[..., 0].tolist(),
    "x in a pair": _with_first_pair(["x", 0.0]),
    "x as an entry": _with_first_pair("x"),
    "null as an entry": _with_first_pair(None),
    "null in a pair": _with_first_pair([None, 0.0]),
    "dict as an entry": _with_first_pair({"re": 1.0, "im": 0.0}),
    "integer beyond a double": _with_first_pair([10 ** 400, 0]),
    "empty list": lambda a: [],
    "one nesting level too many": lambda a: a[..., np.newaxis, :].tolist(),
    "ragged rows": _first_row_short,
    "non-square": lambda a: np.concatenate(
        [a, a[..., :1, :]], axis=-2).tolist(),
}


def _malformed(section, case):
    """The valid entry of ``section`` with its array replaced per ``case``,
    or without that key, or not an object at all."""
    _, key, entry = VALID_ENTRIES[section]
    entry = json.loads(json.dumps(entry))
    if case == "missing key":
        del entry[key]
        return entry
    if case == "entry not an object":
        return entry[key]
    entry[key] = MALFORMED[case](np.array(entry[key], dtype=float))
    return entry


@pytest.mark.parametrize("case",
                         [*MALFORMED, "missing key", "entry not an object"])
@pytest.mark.parametrize("section", sorted(VALID_ENTRIES))
def test_malformed_entry_is_refused_as_a_library_error(section, case,
                                                       tmp_path):
    cls = VALID_ENTRIES[section][0]
    entry = _malformed(section, case)
    with pytest.raises(TwinspaceError):
        cls.from_json(entry)
    path = tmp_path / "ws.json"
    path.write_text(json.dumps({section: {"bad": entry}}))
    [row] = validate_workspace_file(path)
    assert row[:3] == (section, "bad", False)
    kind = row[3].split(":")[0]
    assert issubclass(getattr(errors, kind), TwinspaceError)
    with pytest.raises(WorkspaceError, match=f"{section[:-1]} 'bad': "):
        Workspace.load(path)


def test_signed_zeros_survive_load_and_dump():
    """Both codecs copy every bit, so -0.0 parts round-trip byte-exactly."""
    doc = {
        "states": {"s": {"dim": 2,
                         "amplitudes": [[-0.0, -0.0], [1.0, -0.0]]}},
        "vectors": {"v": {"dim": 2, "matrix": [[[0.5, -0.0], [-0.0, 0.0]],
                                               [[0.0, -0.0], [-0.5, -0.0]]]}},
        "measurements": {"m": {"dim": 2, "projectors": [
            [[[0.5, -0.0], [0.5, 0.0]], [[0.5, -0.0], [0.5, -0.0]]],
            [[[0.5, 0.0], [-0.5, -0.0]], [[-0.5, 0.0], [0.5, -0.0]]]]}},
    }
    text = json.dumps(doc, indent=2, sort_keys=True) + "\n"
    assert Workspace.loads(text).dumps() == text


@pytest.mark.parametrize("text, section", [
    ("[1, 2]", "workspace"),
    ('{"spam": {}}', "spam"),
    ('{"states": {}, "spam": {"a": 1}}', "spam"),
])
def test_document_faults_read_alike(text, section, tmp_path):
    """Loading refuses a document fault with the message validation
    reports for it."""
    path = tmp_path / "ws.json"
    path.write_text(text)
    [row] = validate_workspace_file(path)
    assert row[:3] == (section, "", False)
    with pytest.raises(WorkspaceError) as exc:
        Workspace.loads(text)
    assert str(exc.value) == (
        f"{section}: " + row[3].removeprefix("WorkspaceError: "))


def test_every_unknown_section_is_reported(tmp_path):
    path = tmp_path / "ws.json"
    path.write_text('{"spam": {}, "eggs": {}, "states": {}}')
    assert validate_workspace_file(path) == [
        ("eggs", "", False, "WorkspaceError: unknown section"),
        ("spam", "", False, "WorkspaceError: unknown section")]


@pytest.mark.parametrize("weight", [True, "1", None, [1.0]])
def test_mixture_weight_that_is_no_real_number_is_refused(weight, tmp_path):
    """JSON true and "1" used to load as weight 1.0."""
    doc = json.loads(builtin_workspace().dumps())
    doc["mixtures"]["odd"] = {"components": [
        {"weight": weight, "vector": "ket0_bra0"}]}
    text = json.dumps(doc)
    with pytest.raises(WorkspaceError,
                       match="mixture 'odd': mixture weight must be a real"):
        Workspace.loads(text)
    path = tmp_path / "ws.json"
    path.write_text(text)
    rows = [row for row in validate_workspace_file(path) if row[1] == "odd"]
    assert [row[:3] for row in rows] == [("mixtures", "odd", False)]
    assert "real number" in rows[0][3]


def test_integer_mixture_weights_dump_as_floats():
    doc = {"vectors": {"v": TwoStateVector(np.eye(2)).to_json()},
           "mixtures": {"m": {"components": [{"weight": 1, "vector": "v"}]}}}
    ws = Workspace.from_json_dict(doc)
    assert ws.mixture_refs["m"] == ((1.0, "v"),)
    assert '"weight": 1.0' in ws.dumps()


@pytest.mark.parametrize("entry", [
    {"components": [{"weight": 1.0, "vector": ["ket0_bra0"]}]},
    {"components": [{"weight": 1.0, "vector": 5}]},
    {"components": [{"weight": 1.0}]},
    {"components": [{"vector": "ket0_bra0"}]},
    {"components": [["ket0_bra0", 1.0]]},
    {"components": {"a": 1}},
    {"components": "ket0_bra0"},
    {},
    [],
    "ket0_bra0",
])
def test_mixture_entry_of_another_shape_is_refused(entry, tmp_path):
    """One shape rule: an object with a "components" list of
    {"weight", "vector": str} objects.  A vector ref that is no string
    used to load as its str(), and other shapes failed with raw Python
    messages."""
    doc = json.loads(builtin_workspace().dumps())
    doc["vectors"]["5"] = doc["vectors"]["['ket0_bra0']"] = (
        doc["vectors"]["ket0_bra0"])
    doc["mixtures"]["odd"] = entry
    text = json.dumps(doc)
    shape = ('mixture entry must be an object with a "components" list of '
             '{"weight": w, "vector": name} objects')
    with pytest.raises(WorkspaceError) as exc:
        Workspace.loads(text)
    assert str(exc.value) == f"mixture 'odd': {shape}"
    path = tmp_path / "ws.json"
    path.write_text(text)
    rows = [row for row in validate_workspace_file(path) if row[1] == "odd"]
    assert rows == [("mixtures", "odd", False, shape)]


def test_mixture_components_may_carry_other_keys():
    doc = {"vectors": {"v": TwoStateVector(np.eye(2)).to_json()},
           "mixtures": {"m": {"components": [
               {"weight": 1.0, "vector": "v", "note": "kept out"}],
               "note": "kept out"}}}
    assert Workspace.from_json_dict(doc).mixture_refs["m"] == ((1.0, "v"),)


# ---------------------------------------------------------------------------
# The parse boundary: any JSON document gives rows, and only WorkspaceError
# ---------------------------------------------------------------------------

JSON_SCALARS = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 70) | st.integers(),
    st.floats(), st.text(max_size=4), st.sampled_from(
        ["states", "vectors", "dim", "matrix", "ket0", "ket0_bra0"]))
JSON_DOCS = st.recursive(
    JSON_SCALARS,
    lambda children: st.lists(children, max_size=4)
    | st.dictionaries(st.text(max_size=4) | st.sampled_from(
        ["states", "vectors", "measurements", "mixtures", "dim",
         "amplitudes", "matrix", "projectors", "labels", "components",
         "weight", "vector"]), children, max_size=4),
    max_leaves=12)
BUILTIN_DOC = builtin_workspace().to_json_dict()


@st.composite
def edited_builtin(draw):
    """The bundled document with up to three nodes replaced or removed:
    the other entries keep their shape, so the edits reach the value
    rules."""
    doc = json.loads(json.dumps(BUILTIN_DOC))
    for _ in range(draw(st.integers(1, 3))):
        parent, node = None, doc
        while isinstance(node, (dict, list)) and node and (
                parent is None or draw(st.booleans())):
            keys = sorted(node) if isinstance(node, dict) else range(len(node))
            parent, key = node, draw(st.sampled_from(keys))
            node = node[key]
        if draw(st.booleans()):
            parent[key] = draw(JSON_DOCS)
        else:
            del parent[key]
    return doc


@settings(max_examples=200, deadline=None)
@given(doc=JSON_DOCS | edited_builtin())
def test_any_json_document_is_refused_only_as_a_workspace_error(doc):
    """The validate rows cover any document, and loading it either works,
    when every row is ok, or raises WorkspaceError: no other exception
    leaves the one parse path."""
    rows = _report(doc)
    assert all(isinstance(s, str) and isinstance(n, str)
               and isinstance(msg, str) for s, n, _, msg in rows)
    try:
        Workspace.from_json_dict(doc)
    except WorkspaceError:
        assert not all(ok for _, _, ok, _ in rows)
    else:
        assert all(ok for _, _, ok, _ in rows)
