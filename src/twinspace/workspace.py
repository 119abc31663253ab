r"""Named object store for the CLI: one JSON document per workspace.

Schema (all sections optional, names unique within a section):

    {
      "states":       {name: {"dim": d, "amplitudes": [[re, im], ...]}},
      "vectors":      {name: {"dim": d, "matrix": [[[re, im], ...], ...]}},
      "measurements": {name: {"dim": d, "projectors": [matrix, ...],
                              "labels": [str, ...]?}},
      "mixtures":     {name: {"components": [{"weight": w,
                                              "vector": vector-name}, ...]}}
    }

Complex numbers are [re, im] pairs and matrices are row-major.  Dumps are
canonical (sorted keys, two-space indent, trailing newline), written by the
one canonical writer ``core._canonical_json``, so a
dump -> load -> dump round trip is byte-exact; individual floats survive
exactly because Python's repr round-trips doubles.

``builtin_workspace`` ships the demo inventory: the |±> and |±i> states,
the classical qubit mixture, the non-separable qubit and signed-qutrit
targets, and the four-measurement qutrit family.
"""

from __future__ import annotations

import json
from functools import lru_cache
from pathlib import Path

import numpy as np

from .core import StateVector, TwoStateVector, _canonical_json
from .distinguish import Mixture
from .errors import ShapeMismatchError, TwinspaceError, WorkspaceError
from .measurement import Measurement, measurement_from_basis_grouping

_SECTIONS = ("states", "vectors", "measurements", "mixtures")


class Workspace:
    """Named states, two-state vectors, measurements, and mixtures."""

    def __init__(self, states=None, vectors=None, measurements=None,
                 mixture_refs=None):
        self.states: dict[str, StateVector] = dict(states or {})
        self.vectors: dict[str, TwoStateVector] = dict(vectors or {})
        self.measurements: dict[str, Measurement] = dict(measurements or {})
        self.mixture_refs: dict[str, tuple[tuple[float, str], ...]] = {
            name: tuple(refs) for name, refs in dict(mixture_refs or {}).items()
        }
        for name, refs in self.mixture_refs.items():
            # Resolving checks refs, weights and dims; keep its float weights.
            weights = [w for w, _ in self.mixture(name).components]
            self.mixture_refs[name] = tuple(
                (w, ref) for w, (_, ref) in zip(weights, refs))

    # -- resolution ---------------------------------------------------------

    @staticmethod
    def _lookup(table: dict, name: str, kind: str):
        try:
            return table[name]
        except KeyError:
            known = ", ".join(sorted(table)) or "(none)"
            raise WorkspaceError(
                f"unknown {kind} '{name}'; workspace has: {known}"
            ) from None

    def state(self, name: str) -> StateVector:
        return self._lookup(self.states, name, "state")

    def vector(self, name: str) -> TwoStateVector:
        return self._lookup(self.vectors, name, "vector")

    def measurement(self, name: str) -> Measurement:
        return self._lookup(self.measurements, name, "measurement")

    def mixture(self, name: str) -> Mixture:
        """The named mixture; any fault, a weight that the one weight rule
        refuses included, is a WorkspaceError."""
        refs = self._lookup(self.mixture_refs, name, "mixture")
        try:
            return Mixture(tuple((w, self.vector(ref)) for w, ref in refs))
        except TwinspaceError as err:
            raise WorkspaceError(f"mixture '{name}': {err}") from err

    def mixture_or_point(self, name: str) -> Mixture:
        """A named mixture, or a named vector wrapped as a point mixture."""
        if name in self.mixture_refs:
            return self.mixture(name)
        return Mixture.point(self.vector(name))

    # -- serialization ------------------------------------------------------

    def to_json_dict(self) -> dict:
        out: dict = {}
        if self.states:
            out["states"] = {n: s.to_json() for n, s in self.states.items()}
        if self.vectors:
            out["vectors"] = {n: v.to_json() for n, v in self.vectors.items()}
        if self.measurements:
            out["measurements"] = {
                n: m.to_json() for n, m in self.measurements.items()
            }
        if self.mixture_refs:
            out["mixtures"] = {
                n: {"components": [{"weight": w, "vector": ref}
                                   for w, ref in comps]}
                for n, comps in self.mixture_refs.items()
            }
        return out

    def dumps(self) -> str:
        return _canonical_json(self.to_json_dict()) + "\n"

    def dump(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(self.dumps())

    @classmethod
    def from_json_dict(cls, obj: dict) -> "Workspace":
        tables: dict[str, dict] = {section: {} for section in _SECTIONS}
        for section, name, value, err in _parse_entries(obj):
            if err is not None:
                where = f"{section[:-1]} '{name}'" if name else section
                raise WorkspaceError(f"{where}: {err}") from err
            tables[section][name] = value
        return cls(*(tables[section] for section in _SECTIONS))

    @classmethod
    def loads(cls, text: str | bytes) -> "Workspace":
        """The workspace in ``text``: a str, or bytes read as UTF-8."""
        return cls.from_json_dict(_decoded(lambda: text))

    @classmethod
    def load(cls, path) -> "Workspace":
        return cls.from_json_dict(_read(path))


def _read(path):
    """The decoded JSON document of the workspace file at ``path``."""
    return _decoded(lambda: Path(path).read_bytes())


def _decoded(read):
    """The one workspace reader: the JSON document in what ``read()``
    returns, a str or bytes read as UTF-8.  A source that cannot be read
    (no path, no file, neither str nor bytes), is not UTF-8 or is not JSON
    is one fault, a WorkspaceError caused by the reader's own error."""
    try:
        data = read()
        return json.loads(data.decode("utf-8") if isinstance(data, bytes)
                          else data)
    except (OSError, TypeError, UnicodeDecodeError,
            json.JSONDecodeError) as err:
        raise WorkspaceError(f"cannot read workspace: {err}") from err


_PARSERS = {"states": StateVector.from_json,
            "vectors": TwoStateVector.from_json,
            "measurements": Measurement.from_json}


def _mixture_refs(entry) -> tuple[tuple[object, str], ...]:
    """The (weight, vector name) refs of a mixture entry, by the one shape
    rule: an object with a "components" list of objects, each with a
    "weight" and a string "vector".  Anything else is a
    ShapeMismatchError naming that shape; the weights are left to the one
    weight rule."""
    comps = entry.get("components") if isinstance(entry, dict) else None
    if isinstance(comps, list) and all(
            isinstance(c, dict) and "weight" in c
            and isinstance(c.get("vector"), str) for c in comps):
        return tuple((c["weight"], c["vector"]) for c in comps)
    raise ShapeMismatchError(
        'mixture entry must be an object with a "components" list of '
        '{"weight": w, "vector": name} objects')


def _parse_entries(obj):
    """Yield (section, name, value, error) rows: first the document's own
    faults (not an object; each unknown section), then one per entry,
    names sorted.  The one parse path behind loading and validating.
    Mixture values are their (weight, vector name) refs, resolved against
    the vectors that parsed."""
    if not isinstance(obj, dict):
        yield "workspace", "", None, WorkspaceError(
            "document must be a JSON object")
        return
    for section in sorted(set(obj) - set(_SECTIONS)):
        yield section, "", None, WorkspaceError("unknown section")
    vectors: dict[str, TwoStateVector] = {}
    for section in _SECTIONS:
        table = obj.get(section, {})
        if not isinstance(table, dict):
            yield section, "", None, WorkspaceError("must be a JSON object")
            continue
        for name, entry in sorted(table.items()):
            try:
                if section == "mixtures":
                    value = _mixture_refs(entry)
                    Mixture(tuple(
                        (w, Workspace._lookup(vectors, ref, "vector"))
                        for w, ref in value))
                else:
                    value = _PARSERS[section](entry)
            except TwinspaceError as err:
                yield section, name, None, err
                continue
            if section == "vectors":
                vectors[name] = value
            yield section, name, value, None


def validate_workspace_file(path) -> list[tuple[str, str, bool, str]]:
    """Per-entry validation report: (section, name, ok, message)."""
    try:
        obj = _read(path)
    except WorkspaceError as err:  # the row names the reader's own error
        return [("workspace", str(path), False, str(err.__cause__))]
    return _report(obj)


def _report(obj) -> list[tuple[str, str, bool, str]]:
    """The (section, name, ok, message) rows of a decoded document."""
    return [(section, name, err is None,
             "ok" if err is None else str(err) if section == "mixtures"
             else f"{type(err).__name__}: {err}")
            for section, name, _, err in _parse_entries(obj)]


# ---------------------------------------------------------------------------
# Bundled inventory
# ---------------------------------------------------------------------------

def builtin_workspace() -> Workspace:
    """A fresh shallow copy of the demo workspace bundled with the CLI."""
    ws = _builtin_inventory()
    return Workspace(ws.states, ws.vectors, ws.measurements, ws.mixture_refs)


@lru_cache(maxsize=1)
def _builtin_inventory() -> Workspace:
    s = 2.0 ** -0.5
    ket0 = StateVector.basis_state(2, 0)
    ket1 = StateVector.basis_state(2, 1)
    plus = StateVector([s, s])
    minus = StateVector([s, -s])
    plus_i = StateVector([s, s * 1j])
    minus_i = StateVector([s, -s * 1j])
    q0, q1, q2 = (StateVector.basis_state(3, i) for i in range(3))
    q_plus = StateVector([s, s, 0.0])
    q_minus = StateVector([s, -s, 0.0])
    q_plus_i = StateVector([s, s * 1j, 0.0])
    q_minus_i = StateVector([s, -s * 1j, 0.0])

    states = {
        "ket0": ket0, "ket1": ket1,
        "plus": plus, "minus": minus,
        "plus_i": plus_i, "minus_i": minus_i,
        "qutrit0": q0, "qutrit1": q1, "qutrit2": q2,
        "qutrit_plus": q_plus, "qutrit_minus": q_minus,
        "qutrit_plus_i": q_plus_i, "qutrit_minus_i": q_minus_i,
    }
    vectors = {
        "ket0_bra0": TwoStateVector.separable(ket0, ket0),
        "ket1_bra1": TwoStateVector.separable(ket1, ket1),
        "ket0_bra1": TwoStateVector.separable(ket0, ket1),
        "qubit_identity": TwoStateVector(np.eye(2) / np.sqrt(2.0)),
        "qutrit_signed": TwoStateVector(
            np.diag([1.0, 1.0, -1.0]) / np.sqrt(3.0)
        ),
    }
    measurements = {
        "computational": measurement_from_basis_grouping(
            [ket0, ket1], [[0], [1]], labels=["0", "1"]
        ),
        "diagonal": measurement_from_basis_grouping(
            [plus, minus], [[0], [1]], labels=["+", "-"]
        ),
        "circular": measurement_from_basis_grouping(
            [plus_i, minus_i], [[0], [1]], labels=["+i", "-i"]
        ),
        "identity_qubit": Measurement.trivial(2),
        "identity_qutrit": Measurement.trivial(3),
        "qutrit_family_1": measurement_from_basis_grouping(
            [q0, q1, q2], [[0], [1, 2]]
        ),
        "qutrit_family_2": measurement_from_basis_grouping(
            [q0, q1, q2], [[1], [0, 2]]
        ),
        "qutrit_family_3": measurement_from_basis_grouping(
            [q_plus, q_minus, q2], [[0], [1, 2]]
        ),
        "qutrit_family_4": measurement_from_basis_grouping(
            [q_plus_i, q_minus_i, q2], [[0], [1, 2]]
        ),
    }
    mixtures = {
        "classical_qubit": ((0.5, "ket0_bra0"), (0.5, "ket1_bra1")),
    }
    return Workspace(states, vectors, measurements, mixtures)


#: Names of the four bundled qutrit measurements, in pipeline order.
QUTRIT_FAMILY = ("qutrit_family_1", "qutrit_family_2",
                 "qutrit_family_3", "qutrit_family_4")
