"""Lazy package exports (PEP 562): a package names its API without importing it.

Each package ``__init__`` maps every exported name to the module defining it
and installs the ``__getattr__`` and ``__dir__`` that :func:`lazy_exports`
returns.  A name's module is imported on its first access, and the value is
then cached in the package namespace, so later accesses are plain lookups.
Importing a package, or one light module inside it (``repro.tensor.blas``,
``repro.models.specs``), therefore loads none of its heavy siblings: a
process imports only the modules its code path uses.

A table entry is ``name: "module"`` for an attribute of the same name,
``name: "module:attribute"`` for one exported under another name, and
``name: "package.name"`` for the package's own submodule ``name``.
"""

from __future__ import annotations

import importlib
import sys
from typing import Callable, Dict, List, Tuple


def lazy_exports(package: str, exports: Dict[str, str]) -> Tuple[Callable[[str], object], Callable[[], List[str]]]:
    """The module ``__getattr__`` and ``__dir__`` resolving ``exports`` of ``package``."""
    namespace = sys.modules[package].__dict__

    def __getattr__(name: str):
        target = exports.get(name)
        if target is None:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module_name, _, attribute = target.partition(":")
        module = importlib.import_module(module_name)
        value = module if module_name == f"{package}.{name}" else getattr(module, attribute or name)
        namespace[name] = value
        return value

    def __dir__() -> List[str]:
        return sorted(set(namespace) | set(exports))

    return __getattr__, __dir__
