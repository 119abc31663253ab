"""Workspace JSON store: round trips, name resolution, validation reports."""

import json

import numpy as np
import pytest

from twinspace import TwoStateVector, Workspace, builtin_workspace
from twinspace.errors import WorkspaceError
from twinspace.workspace import QUTRIT_FAMILY, validate_workspace_file


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
