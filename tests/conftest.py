"""Shared fixtures."""

import importlib
import pkgutil

import pytest

import twinspace
from twinspace import core
from twinspace.core import StateVector, TwoStateVector
from twinspace.measurement import OutcomeDistribution


class BuildLog(list):
    """One (kind, class) entry per construction; kind is "checked" or
    "unchecked"."""

    def of(self, cls=None, kind=None) -> int:
        """How many builds match ``cls`` and ``kind`` (None: any)."""
        return sum(1 for k, c in self
                   if cls in (None, c) and kind in (None, k))


@pytest.fixture
def builds(monkeypatch):
    """Records every construction of StateVector, TwoStateVector and
    OutcomeDistribution: "checked" through the constructor's
    ``__post_init__``, "unchecked" through ``core._unchecked``, wherever a
    twinspace module imported it."""
    log = BuildLog()
    for cls in (StateVector, TwoStateVector, OutcomeDistribution):
        def counting(self, _post_init=cls.__post_init__):
            log.append(("checked", type(self)))
            _post_init(self)

        monkeypatch.setattr(cls, "__post_init__", counting)

    build = core._unchecked

    def unchecked(cls, value, *rest):
        if cls in (StateVector, TwoStateVector, OutcomeDistribution):
            log.append(("unchecked", cls))
        return build(cls, value, *rest)

    for info in pkgutil.iter_modules(twinspace.__path__):
        module = importlib.import_module(f"twinspace.{info.name}")
        if getattr(module, "_unchecked", None) is build:
            monkeypatch.setattr(module, "_unchecked", unchecked)
    return log
