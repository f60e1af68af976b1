"""buffer-escape: pooled scratch buffers must not escape.

The graph-free substrate reuses buffers: per-thread workspace pools
(:mod:`repro.tensor.workspace`) back the inference kernels' convolution and
pooling scratch.  The aliasing contract — pinned by
``tests/test_inference_fastpath.py`` — is that nothing reachable from a
*returned* value may live in a pooled buffer, because the next call
overwrites it in place.

This rule taints names assigned from buffer-providing calls (any callable
whose name contains ``workspace`` or ``buffer``), propagates taint through
view-producing operations (``reshape``/``transpose``/slicing/``graph_free``/
``Tensor`` wrapping) and flags ``return``/``yield`` of a tainted name unless
it passes through ``.copy()`` first.  Functions whose own name marks them as
buffer providers (``workspace``/``buffer`` in the name) are exempt — handing
out scratch is their job.

Deliberate aliasing must be suppressed with the contract as the reason —
that keeps every escape point enumerable.
"""

from __future__ import annotations

import ast
from typing import Iterator, Set

from tools.analyze.core import Finding, Module, Rule, register

#: a call to any function whose (terminal) name matches these substrings
#: yields a reused buffer
PROVIDER_MARKERS = ("workspace", "buffer")

#: attribute calls on a tainted array that return a view of the same storage
VIEW_METHODS = {"reshape", "ravel", "transpose", "squeeze", "swapaxes", "view"}

#: wrapper callables that keep referencing their argument's storage
WRAPPERS = {"graph_free", "Tensor", "asarray", "atleast_1d"}


def _terminal_name(func: ast.expr) -> str:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


def _is_provider_call(node: ast.expr) -> bool:
    if not isinstance(node, ast.Call):
        return False
    name = _terminal_name(node.func).lower()
    return any(marker in name for marker in PROVIDER_MARKERS)


class _FunctionChecker:
    """Linear taint tracking through one function body."""

    def __init__(self, rule: "BufferEscapeRule", module: Module, func: ast.FunctionDef) -> None:
        self.rule = rule
        self.module = module
        self.func = func
        self.tainted: Set[str] = set()

    def run(self) -> Iterator[Finding]:
        yield from self._visit_block(self.func.body)

    # ------------------------------------------------------------------
    def _value_is_tainted(self, value: ast.expr) -> bool:
        if _is_provider_call(value):
            return True
        if isinstance(value, ast.Name):
            return value.id in self.tainted
        if isinstance(value, ast.Subscript):
            return self._value_is_tainted(value.value)
        if isinstance(value, ast.Call):
            func = value.func
            if isinstance(func, ast.Attribute) and func.attr in VIEW_METHODS:
                return self._value_is_tainted(func.value)
            if _terminal_name(func) in WRAPPERS:
                return any(self._value_is_tainted(arg) for arg in value.args)
        return False

    def _assign(self, node: ast.stmt) -> None:
        targets = []
        if isinstance(node, ast.Assign):
            targets = node.targets
            value = node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            targets = [node.target]
            value = node.value
        else:
            return
        for target in targets:
            if isinstance(target, ast.Name):
                if self._value_is_tainted(value):
                    self.tainted.add(target.id)
                else:
                    self.tainted.discard(target.id)
            elif isinstance(target, ast.Tuple) and _is_provider_call(value):
                # the `(array, matched) = workspace(...)` shape: the first
                # element is the buffer, the rest are flags
                if target.elts and isinstance(target.elts[0], ast.Name):
                    self.tainted.add(target.elts[0].id)

    def _escapes(self, expr: ast.expr) -> Iterator[ast.Name]:
        """Tainted names whose storage is reachable from ``expr``.

        Recursion is structural, not blanket: containers, subscripts (numpy
        views), view methods and storage-keeping wrappers propagate aliasing;
        arithmetic allocates fresh arrays and an ordinary helper call's return
        value is that helper's responsibility (its own body is checked), so
        neither is followed.
        """
        if isinstance(expr, ast.Name):
            if expr.id in self.tainted:
                yield expr
        elif isinstance(expr, (ast.Tuple, ast.List, ast.Set)):
            for element in expr.elts:
                yield from self._escapes(element)
        elif isinstance(expr, ast.Dict):
            for value in expr.values:
                if value is not None:
                    yield from self._escapes(value)
        elif isinstance(expr, ast.Starred):
            yield from self._escapes(expr.value)
        elif isinstance(expr, ast.IfExp):
            yield from self._escapes(expr.body)
            yield from self._escapes(expr.orelse)
        elif isinstance(expr, ast.NamedExpr):
            yield from self._escapes(expr.value)
        elif isinstance(expr, ast.Subscript):
            yield from self._escapes(expr.value)  # numpy slicing returns a view
        elif isinstance(expr, ast.Call):
            func = expr.func
            if isinstance(func, ast.Attribute) and func.attr == "copy":
                return  # name.copy() (or view.copy()) detaches from the buffer
            if isinstance(func, ast.Attribute) and func.attr == "astype":
                # astype copies unless copy=False is forced
                if any(
                    keyword.arg == "copy"
                    and isinstance(keyword.value, ast.Constant)
                    and keyword.value.value is False
                    for keyword in expr.keywords
                ):
                    yield from self._escapes(func.value)
                return
            if isinstance(func, ast.Attribute) and func.attr in VIEW_METHODS:
                yield from self._escapes(func.value)
            elif _terminal_name(func) in WRAPPERS:
                for arg in expr.args:
                    yield from self._escapes(arg)

    # ------------------------------------------------------------------
    def _visit_block(self, stmts) -> Iterator[Finding]:
        for stmt in stmts:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self.rule.check_function(self.module, stmt)
                continue
            self._assign(stmt)
            if isinstance(stmt, ast.Return) and stmt.value is not None:
                yield from self._report(stmt, stmt.value, "returned")
            elif isinstance(stmt, ast.Expr) and isinstance(
                stmt.value, (ast.Yield, ast.YieldFrom)
            ):
                value = stmt.value.value
                if value is not None:
                    yield from self._report(stmt, value, "yielded")
            for block in ("body", "orelse", "finalbody"):
                yield from self._visit_block(getattr(stmt, block, []))
            for handler in getattr(stmt, "handlers", []):
                yield from self._visit_block(handler.body)

    def _report(self, stmt: ast.stmt, value: ast.expr, verb: str) -> Iterator[Finding]:
        for name in self._escapes(value):
            yield self.rule.finding(
                self.module,
                stmt,
                f"{name.id!r} aliases a reused workspace/state buffer and is {verb} "
                f"from {self.func.name}() without `.copy()` — the next pooled call "
                "overwrites it in place",
            )


@register
class BufferEscapeRule(Rule):
    name = "buffer-escape"
    description = (
        "arrays borrowed from workspace pools or persistent neuron state must "
        "not be returned/yielded without an intervening copy"
    )

    def check(self, module: Module) -> Iterator[Finding]:
        yield from self._walk_scope(module, module.tree)

    def _walk_scope(self, module: Module, scope: ast.AST) -> Iterator[Finding]:
        for stmt in getattr(scope, "body", []):
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self.check_function(module, stmt)
            elif isinstance(stmt, ast.ClassDef):
                yield from self._walk_scope(module, stmt)

    def check_function(self, module: Module, func: ast.FunctionDef) -> Iterator[Finding]:
        name = func.name.lower()
        if any(marker in name for marker in PROVIDER_MARKERS):
            return  # buffer providers hand out scratch by design
        yield from _FunctionChecker(self, module, func).run()
