"""repro-lint: repo-specific static analysis enforcing the invariants that
keep this codebase correct under concurrency, buffer reuse and persistent
serialization.

The generic linters (ruff's crash/bugbear/pylint-error rules) catch generic
bug classes; this package encodes the *repo-specific* contracts that past PRs
only pinned with runtime tests:

* workloads shipped to worker processes must be picklable under the ``spawn``
  start method (``spawn-safety``);
* state shared across server/executor threads must be read and written under
  the lock that guards it (``lock-discipline``);
* arrays borrowed from workspace pools must not escape without a copy
  (``buffer-escape``);
* Prometheus metrics must be registered once, with literal names and bounded
  label sets (``metrics-hygiene``);
* every field ``result_to_row`` persists must be read back (or explicitly
  defaulted) by the row readers, so cache rows never silently lose data
  (``schema-drift``);
* broad ``except`` handlers must not swallow exceptions silently
  (``swallowed-exception``).

Run it from the repo root::

    python -m tools.analyze src tools benchmarks examples

or via the CLI::

    repro lint

Suppress a finding *with a reason* (reason is mandatory)::

    return buf  # repro-lint: disable=buffer-escape (the caller copies before the pool is reused)

Grandfathered findings live in ``tools/analyze/baseline.json``; stale entries
(findings that no longer occur) fail the run so the baseline only shrinks.
See ``docs/static_analysis.md`` for the full rule catalog.
"""

from tools.analyze.core import (
    Finding,
    Module,
    ProjectRule,
    Report,
    Rule,
    all_rules,
    register,
    run_analysis,
)

__all__ = [
    "Finding",
    "Module",
    "ProjectRule",
    "Report",
    "Rule",
    "all_rules",
    "register",
    "run_analysis",
]
