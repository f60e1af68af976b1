"""spawn-safety: workloads shipped to worker processes must be picklable.

The invariant (established by PR 2's result-carried updates and pinned by the
CI spawn-mode smoke): the objective handed to the search loop
(:func:`repro.core.async_eval.run_search`) or to an
:class:`~repro.core.async_eval.AsyncEvaluationExecutor` may cross a
fresh-interpreter process boundary, so it must be picklable.  Lambdas and
nested (closure) functions are never picklable; passing one silently degrades
the run to the sequential fallback — the work still happens, but on one core,
which is exactly the kind of quiet performance bug a lint should catch before
review does.
"""

from __future__ import annotations

import ast
from typing import Dict, Iterator

from tools.analyze.core import Finding, Module, Rule, register

#: callables whose first argument (or ``objective=`` keyword) is shipped to
#: worker processes
TARGETS = {
    "evaluate_ordered": ("objective",),
    "AsyncEvaluationExecutor": ("objective",),
    "run_search": ("objective",),
}

#: how a name was bound in the enclosing scopes
_OK, _LAMBDA, _NESTED_DEF = "ok", "lambda", "nested def"


def _callable_name(func: ast.expr) -> str:
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return ""


@register
class SpawnSafetyRule(Rule):
    name = "spawn-safety"
    description = (
        "lambdas and nested functions passed to run_search / "
        "AsyncEvaluationExecutor cannot be pickled for spawn-mode workers"
    )

    def check(self, module: Module) -> Iterator[Finding]:
        yield from self._scan(module, module.tree, {}, at_module_scope=True)

    def _scan(
        self,
        module: Module,
        scope: ast.AST,
        outer_env: Dict[str, str],
        at_module_scope: bool,
    ) -> Iterator[Finding]:
        env = dict(outer_env)
        body = getattr(scope, "body", [])
        # first pass: how does this scope bind callables? (a def may be used
        # above its statement position inside a function, so bind upfront)
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                env[stmt.name] = _OK if at_module_scope else _NESTED_DEF
            elif isinstance(stmt, ast.Assign) and isinstance(stmt.value, ast.Lambda):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        env[target.id] = _LAMBDA
            elif isinstance(stmt, ast.Assign):
                for target in stmt.targets:
                    if isinstance(target, ast.Name):
                        env[target.id] = _OK
        # second pass: check calls and recurse into nested scopes
        for stmt in body:
            if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
                yield from self._scan(module, stmt, env, at_module_scope=False)
                continue
            if isinstance(stmt, ast.ClassDef):
                yield from self._scan(module, stmt, env, at_module_scope=at_module_scope)
                continue
            for node in ast.walk(stmt):
                if isinstance(node, ast.Call):
                    yield from self._check_call(module, node, env)

    def _check_call(
        self, module: Module, call: ast.Call, env: Dict[str, str]
    ) -> Iterator[Finding]:
        target = _callable_name(call.func)
        if target not in TARGETS:
            return
        workload = call.args[0] if call.args else None
        if workload is None:
            keywords = TARGETS[target]
            for keyword in call.keywords:
                if keyword.arg in keywords:
                    workload = keyword.value
                    break
        if workload is None:
            return
        if isinstance(workload, ast.Lambda):
            yield self.finding(
                module,
                workload,
                f"lambda passed to {target}() cannot be pickled for spawn-mode "
                "workers; use a module-level function (or a picklable callable class)",
            )
        elif isinstance(workload, ast.Name) and env.get(workload.id) in (_LAMBDA, _NESTED_DEF):
            kind = env[workload.id]
            yield self.finding(
                module,
                workload,
                f"{kind} {workload.id!r} passed to {target}() cannot be pickled for "
                "spawn-mode workers; move it to module scope (closures don't survive pickling)",
            )
