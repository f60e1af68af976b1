"""Every name a package exports must resolve.

``__all__`` lists and the packages' lazy export tables are plain strings, so
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
        pairs.extend((package, name) for name in module._LAZY_EXPORTS)
    return sorted(set(pairs))


@pytest.mark.parametrize("package,name", _exports())
def test_export_resolves(package, name):
    assert getattr(importlib.import_module(package), name) is not None


def test_every_lazy_export_is_public():
    for package in PACKAGES:
        module = importlib.import_module(package)
        assert set(module._LAZY_EXPORTS) <= set(module.__all__), package
