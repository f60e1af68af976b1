"""Every name a package exports must resolve.

``__all__`` lists and ``repro.core``'s lazy export table are plain strings, so
a name whose module was deleted or renamed stays listed until someone touches
it. Importing every module does not catch that: a lazy name only resolves on
attribute access, and ``from package import *`` is never run.
"""

from __future__ import annotations

import importlib

import pytest

PACKAGES = (
    "repro",
    "repro.core",
    "repro.data",
    "repro.experiments",
    "repro.gp",
    "repro.models",
    "repro.nn",
    "repro.snn",
    "repro.tensor",
    "repro.trace",
    "repro.training",
)


def _exports():
    pairs = []
    for package in PACKAGES:
        module = importlib.import_module(package)
        pairs.extend((package, name) for name in module.__all__)
    core = importlib.import_module("repro.core")
    pairs.extend(("repro.core", name) for name in core._LAZY_EXPORTS)
    return sorted(set(pairs))


@pytest.mark.parametrize("package,name", _exports())
def test_export_resolves(package, name):
    assert getattr(importlib.import_module(package), name) is not None


def test_every_lazy_export_is_public():
    core = importlib.import_module("repro.core")
    assert set(core._LAZY_EXPORTS) <= set(core.__all__)
