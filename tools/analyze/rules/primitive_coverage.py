"""primitive-coverage: every primitive declares its adjoint, and fused
kernels actually consume the residuals they stash.

PR 10 built training on a primitive IR (:mod:`repro.tensor.primitives`) with
hand-written adjoints, plus fused temporal kernels
(:mod:`repro.snn.fused_step`) that stage minimal residuals during the forward
sweep and replay them in a single reverse-time adjoint.  Two drift modes this
rule catches statically:

* **an undifferentiable primitive** — a ``Primitive(...)`` construction with
  no ``vjp`` (or an explicit ``vjp=None``).  The constructor raises at
  runtime, but only when the module is imported; the lint flags it at the
  definition site before anything runs, and keeps flagging a primitive that
  is built lazily or behind a feature gate;
* **write-only residuals** — a kernel class that stashes a residual with
  ``self.stash(name, ...)`` during its forward sweep while no method of the
  class reads that name back via ``self.stashed(name)``.  Residual stashes
  exist solely to feed the adjoint; one that is staged and never consumed is
  either dead memory traffic on the training hot path or, worse, an adjoint
  silently recomputing (or guessing) values the forward already saved.

The residual check runs per name and per class, not per method: forward and
adjoint are different methods by design.  A name is compared as a template —
the literal parts of a string, f-string or ``+`` concatenation, with every
computed part a wildcard — so ``self.stash(f"b{i}.xc", ...)`` pairs with
``self.stashed(f"b{cbn.index}.xc")``.  A read whose name is wholly computed
could read anything, so it satisfies every stash; a wholly computed stash
name cannot be checked and is skipped.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator, Optional, Set

from tools.analyze.core import Finding, Module, Rule, register


def _terminal_name(func: ast.expr) -> str:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


_WILDCARD = "{}"


def _name_template(node: Optional[ast.expr]) -> str:
    """A residual name's literal parts, with each computed part a wildcard."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        return node.value
    if isinstance(node, ast.JoinedStr):
        return "".join(
            part.value if isinstance(part, ast.Constant) else _WILDCARD for part in node.values
        )
    if isinstance(node, ast.BinOp) and isinstance(node.op, ast.Add):
        return _name_template(node.left) + _name_template(node.right)
    return _WILDCARD


def _is_self_method_call(node: ast.Call, method: str) -> bool:
    func = node.func
    return (
        isinstance(func, ast.Attribute)
        and func.attr == method
        and isinstance(func.value, ast.Name)
        and func.value.id == "self"
    )


@register
class PrimitiveCoverageRule(Rule):
    name = "primitive-coverage"
    description = (
        "Primitive(...) must declare a vjp, and a kernel class that stashes "
        "forward residuals must read them back in its adjoint"
    )

    def check(self, module: Module) -> Iterator[Finding]:
        for node in ast.walk(module.tree):
            if isinstance(node, ast.Call) and _terminal_name(node.func) == "Primitive":
                yield from self._check_primitive_call(module, node)
        yield from self._walk_classes(module, module.tree)

    # ------------------------------------------------------------------
    def _check_primitive_call(self, module: Module, call: ast.Call) -> Iterator[Finding]:
        vjp: Optional[ast.expr] = None
        for keyword in call.keywords:
            if keyword.arg is None:
                return  # **kwargs construction is opaque to static analysis
            if keyword.arg == "vjp":
                vjp = keyword.value
        primitive_name = ""
        if call.args and isinstance(call.args[0], ast.Constant):
            primitive_name = f" {call.args[0].value!r}"
        if vjp is None:
            yield self.finding(
                module,
                call,
                f"Primitive{primitive_name} is constructed without a vjp — every "
                "primitive must carry a hand-written adjoint (the registry-driven "
                "gradcheck in tests/test_primitives.py can only certify what is "
                "declared)",
            )
        elif isinstance(vjp, ast.Constant) and vjp.value is None:
            yield self.finding(
                module,
                call,
                f"Primitive{primitive_name} declares vjp=None — an explicit None "
                "adjoint makes the primitive unusable under training",
            )

    # ------------------------------------------------------------------
    def _walk_classes(self, module: Module, scope: ast.AST) -> Iterator[Finding]:
        for stmt in getattr(scope, "body", []):
            if isinstance(stmt, ast.ClassDef):
                yield from self._check_class(module, stmt)
                yield from self._walk_classes(module, stmt)
            elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._walk_classes(module, stmt)

    def _check_class(self, module: Module, cls: ast.ClassDef) -> Iterator[Finding]:
        stashes: Dict[str, ast.Call] = {}
        reads: Set[str] = set()
        for node in ast.walk(cls):
            if isinstance(node, ast.Call):
                name = _name_template(node.args[0] if node.args else None)
                if _is_self_method_call(node, "stash"):
                    stashes.setdefault(name, node)
                elif _is_self_method_call(node, "stashed"):
                    reads.add(name)
        if _WILDCARD in reads:
            return
        for name, call in stashes.items():
            if name == _WILDCARD or name in reads:
                continue
            yield self.finding(
                module,
                call,
                f"class {cls.name} stashes the forward residual {name!r} via "
                "self.stash(...) but no method reads it back via self.stashed(...) — "
                "residuals exist to feed the reverse-time adjoint, so a write-only "
                "stash is dead memory traffic on the training hot path (or an "
                "adjoint ignoring what the forward saved)",
            )
