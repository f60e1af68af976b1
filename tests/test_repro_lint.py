"""Tests for repro-lint (tools/analyze): every rule, suppressions, baseline.

Each rule gets at least one fixture with a true positive and one clean
negative, written so deleting the rule's implementation makes the test fail.
Fixtures are written to tmp_path and analyzed with ``--no-baseline``
semantics (``baseline_path=None``); the mechanics tests then exercise the
suppression-reason requirement and the shrink-only baseline, and the
acceptance test runs the analyzer over the real repository.
"""

from __future__ import annotations

import json
import subprocess
import sys
import textwrap
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from tools.analyze.core import all_rules, run_analysis, write_baseline  # after the sys.path insert above


def lint(tmp_path: Path, sources: dict, **kwargs):
    """Write ``sources`` under ``tmp_path`` and analyze them."""
    for name, text in sources.items():
        target = tmp_path / name
        target.parent.mkdir(parents=True, exist_ok=True)
        target.write_text(textwrap.dedent(text), encoding="utf-8")
    kwargs.setdefault("baseline_path", None)
    return run_analysis([tmp_path], root=tmp_path, **kwargs)


def rules_of(report):
    return [finding.rule for finding in report.findings]


# ---------------------------------------------------------------------------
# rule: spawn-safety
# ---------------------------------------------------------------------------

class TestSpawnSafety:
    def test_lambda_and_nested_def_are_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "bad.py": """
                def run(items):
                    square = lambda x: x * x
                    first = evaluate_ordered(square, items)
                    second = AsyncEvaluationExecutor(lambda x: x + 1, workers=2)

                    def inner(x):
                        return x

                    third = evaluate_ordered(objective=inner, encodings=items)
                    return first, second, third
                """
            },
        )
        spawn = [f for f in report.findings if f.rule == "spawn-safety"]
        assert len(spawn) == 3
        assert any("lambda" in f.message for f in spawn)
        assert any("nested def 'inner'" in f.message for f in spawn)

    def test_lambda_objective_of_the_search_loop_is_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "loop.py": """
                def propose(pending, iteration):
                    return []

                def run(absorb):
                    run_search(lambda spec: spec, propose, absorb, 3, workers=2)
                    run_search(objective=lambda spec: spec, propose=propose, absorb=absorb, num_iterations=3)
                """
            },
        )
        spawn = [f for f in report.findings if f.rule == "spawn-safety"]
        assert len(spawn) == 2
        assert all("run_search()" in f.message for f in spawn)

    def test_module_level_function_is_clean(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "good.py": """
                def work(x):
                    return x * x

                def run(items):
                    return evaluate_ordered(work, items)
                """
            },
        )
        assert "spawn-safety" not in rules_of(report)


# ---------------------------------------------------------------------------
# rule: lock-discipline
# ---------------------------------------------------------------------------

class TestLockDiscipline:
    FIXTURE_BAD = """
    import threading

    class Box:
        def __init__(self):
            self._lock = threading.Lock()
            self.count = 0

        def bump(self):
            with self._lock:
                self.count += 1

        def peek(self):
            return self.count

        def reset(self):
            self.count = 0

        def bad_bump(self):
            self.count += 1
    """

    def test_bare_read_write_and_augassign_are_flagged(self, tmp_path):
        report = lint(tmp_path, {"bad.py": self.FIXTURE_BAD})
        lock = [f for f in report.findings if f.rule == "lock-discipline"]
        messages = " | ".join(f.message for f in lock)
        assert "read here without the lock" in messages
        assert "written here without the lock" in messages
        assert "augmented assignment is not atomic" in messages

    def test_fully_locked_class_is_clean(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "good.py": """
                import threading

                class Box:
                    def __init__(self):
                        self._lock = threading.Lock()
                        self.count = 0

                    def bump(self):
                        with self._lock:
                            self.count += 1

                    def peek(self):
                        with self._lock:
                            return self.count
                """
            },
        )
        assert "lock-discipline" not in rules_of(report)

    def test_lockless_class_is_out_of_scope(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "single.py": """
                class Accumulator:
                    def __init__(self):
                        self.total = 0

                    def add(self, value):
                        self.total += value
                """
            },
        )
        assert "lock-discipline" not in rules_of(report)


# ---------------------------------------------------------------------------
# rule: buffer-escape
# ---------------------------------------------------------------------------

class TestBufferEscape:
    def test_returning_pooled_buffer_is_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "bad.py": """
                def compute(pool, shape):
                    out = pool.get_workspace(shape)
                    view = out.reshape(-1)
                    return view
                """
            },
        )
        escapes = [f for f in report.findings if f.rule == "buffer-escape"]
        assert len(escapes) == 1
        assert "'view'" in escapes[0].message

    def test_copy_detaches_and_providers_are_exempt(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "good.py": """
                def get_workspace(pool, shape):
                    buf = pool.acquire_buffer(shape)
                    return buf  # providers hand out scratch by design

                def compute(pool, shape):
                    out = pool.get_workspace(shape)
                    return out.copy()

                def compute_fresh(pool, shape):
                    out = pool.get_workspace(shape)
                    result = out + 1  # arithmetic allocates a fresh array
                    return result
                """
            },
        )
        assert "buffer-escape" not in rules_of(report)

    def test_helper_call_arguments_are_not_escapes(self, tmp_path):
        # passing a buffer to a helper is the helper's responsibility, not
        # an escape at the call site
        report = lint(
            tmp_path,
            {
                "calls.py": """
                def compute(pool, shape):
                    mem = pool.get_workspace(shape)
                    scratch = pool.get_workspace(shape)
                    return finalize(mem, scratch)
                """
            },
        )
        assert "buffer-escape" not in rules_of(report)


# ---------------------------------------------------------------------------
# rule: metrics-hygiene
# ---------------------------------------------------------------------------

class TestMetricsHygiene:
    def test_registration_in_request_path_is_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "bad.py": """
                class Handler:
                    def handle(self, registry):
                        counter = registry.counter("requests_total", "requests")
                        counter.inc()
                """
            },
        )
        metrics = [f for f in report.findings if f.rule == "metrics-hygiene"]
        assert len(metrics) == 1
        assert "move registration" in metrics[0].message

    def test_dynamic_name_and_labels_are_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "dynamic.py": """
                KIND = "http"
                COUNTER = registry.counter(f"requests_{KIND}", "requests")
                GAUGE = registry.gauge("rows", "rows", labelnames=make_labels())
                """
            },
        )
        metrics = [f for f in report.findings if f.rule == "metrics-hygiene"]
        assert len(metrics) == 2
        messages = " | ".join(f.message for f in metrics)
        assert "string literal" in messages
        assert "literal tuple/list" in messages

    def test_module_scope_and_init_registration_are_clean(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "good.py": """
                COUNTER = registry.counter("requests_total", "requests", labelnames=("method",))

                class Server:
                    def __init__(self, registry):
                        self.rows = registry.gauge("store_rows", "rows in the store")
                """
            },
        )
        assert "metrics-hygiene" not in rules_of(report)

    def test_span_hygiene_flags_dynamic_names_and_bare_opens(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "bad_spans.py": """
                def evaluate(name, trace):
                    with span(f"evaluate.{name}"):
                        pass
                    dangling = trace.span("dangling")
                    return dangling
                """
            },
        )
        metrics = [f for f in report.findings if f.rule == "metrics-hygiene"]
        assert len(metrics) == 2
        messages = " | ".join(f.message for f in metrics)
        assert "span name must be a string literal" in messages
        assert "outside a with block" in messages

    def test_span_in_with_block_with_literal_name_is_clean(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "good_spans.py": """
                def evaluate(arch):
                    with span("evaluate", arch=arch) as current:
                        if current:
                            current.set(accuracy=1.0)
                    with ops_span("op.conv2d", patches=4):
                        pass
                """
            },
        )
        assert "metrics-hygiene" not in rules_of(report)


# ---------------------------------------------------------------------------
# rule: store-schema-drift
# ---------------------------------------------------------------------------

class TestStoreSchemaDrift:
    def test_written_but_never_read_key_is_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "writer.py": """
                def result_to_row(result):
                    return {"objective": result.value, "orphan": 1}
                """,
                "reader.py": """
                def row_to_result(row):
                    return row.get("objective", 0.0)
                """,
            },
        )
        drift = [f for f in report.findings if f.rule == "store-schema-drift"]
        assert len(drift) == 1
        assert "'orphan'" in drift[0].message
        assert drift[0].path == "writer.py"

    def test_all_keys_read_is_clean_and_extra_reads_are_allowed(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "writer.py": """
                def result_to_row(result):
                    return {"objective": result.value}
                """,
                "reader.py": """
                def row_to_result(row):
                    legacy = row.get("old_field", None)  # reading unwritten keys is fine
                    return row["objective"], legacy
                """,
            },
        )
        assert "store-schema-drift" not in rules_of(report)

    def test_rule_is_silent_without_both_sides(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "writer_only.py": """
                def result_to_row(result):
                    return {"objective": result.value}
                """
            },
        )
        assert "store-schema-drift" not in rules_of(report)


# ---------------------------------------------------------------------------
# rule: primitive-coverage
# ---------------------------------------------------------------------------

class TestPrimitiveCoverage:
    def test_primitive_without_vjp_is_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "bad.py": """
                from repro.tensor.primitives import Primitive, register

                def _gelu_fwd(a, want_ctx=False):
                    return a, None

                GELU = register(Primitive("gelu", forward=_gelu_fwd))
                BAD = Primitive("bad", forward=_gelu_fwd, vjp=None)
                """
            },
        )
        findings = [f for f in report.findings if f.rule == "primitive-coverage"]
        assert len(findings) == 2
        assert "'gelu'" in findings[0].message and "without a vjp" in findings[0].message
        assert "'bad'" in findings[1].message and "vjp=None" in findings[1].message

    def test_write_only_residual_stash_is_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "kernel.py": """
                class BrokenKernel:
                    def forward(self, t, x):
                        buf = self.stash("xc", x.shape)
                        buf[t] = x
                        return x * 2.0

                    def adjoint(self, g):
                        return g * 2.0  # never reads the stashed residual back
                """
            },
        )
        findings = [f for f in report.findings if f.rule == "primitive-coverage"]
        assert len(findings) == 1
        assert "BrokenKernel" in findings[0].message
        assert "write-only" in findings[0].message

    def test_declared_vjp_and_consumed_residuals_are_clean(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "good.py": """
                from repro.tensor.primitives import Primitive

                def _relu_fwd(a, want_ctx=False):
                    return a, a

                def _relu_vjp(ctx, g, needs):
                    return (g * (ctx > 0),)

                RELU = Primitive("relu", forward=_relu_fwd, vjp=_relu_vjp)

                class FusedKernel:
                    def forward(self, t, x):
                        buf = self.stash("xc", x.shape)
                        buf[t] = x
                        return x * 2.0

                    def adjoint(self, t, g):
                        return g * self.stashed("xc", t)
                """
            },
        )
        assert "primitive-coverage" not in rules_of(report)

    def test_each_residual_name_must_be_read(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "kernel.py": """
                class HalfReadKernel:
                    def forward(self, op, cbn, x):
                        self.stash(f"b{cbn.index}.xc", x.shape)[...] = x
                        self.stash(f"b{cbn.index}.denom", x.shape)[...] = x
                        self.stash(op.key + ".pad", x.shape)[...] = x
                        return x

                    def adjoint(self, op, layer, g):
                        g = g * self.stashed(f"b{layer.cbn.index}.xc")
                        return g * self.stashed(op.key + ".pad")
                """
            },
        )
        findings = [f for f in report.findings if f.rule == "primitive-coverage"]
        assert len(findings) == 1
        assert "'b{}.denom'" in findings[0].message and "write-only" in findings[0].message

    def test_every_residual_name_read_is_clean(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "kernel.py": """
                class LayerMajorKernel:
                    def forward(self, op, cbn, x):
                        self.stash(f"b{cbn.index}.xc", x.shape)[...] = x
                        self.stash("head.pooled", x.shape)[...] = x
                        self.stash(op.key + ".pad", x.shape)[...] = x
                        return x

                    def adjoint(self, key, index, g):
                        g = g * self.stashed(f"b{index}.xc") * self.stashed("head.pooled")
                        return g * self.stashed(key + ".pad")

                class DynamicReader:
                    def forward(self, x):
                        self.stash("anything", x.shape)[...] = x

                    def adjoint(self, names):
                        return [self.stashed(name) for name in names]
                """
            },
        )
        assert "primitive-coverage" not in rules_of(report)

    def test_kwargs_construction_and_stashless_classes_are_out_of_scope(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "opaque.py": """
                from repro.tensor.primitives import Primitive

                def build(**spec):
                    return Primitive("dynamic", **spec)

                class NoResiduals:
                    def forward(self, x):
                        return x + 1.0
                """
            },
        )
        assert "primitive-coverage" not in rules_of(report)


# ---------------------------------------------------------------------------
# rule: swallowed-exception
# ---------------------------------------------------------------------------

class TestSwallowedException:
    def test_silent_broad_handler_is_flagged(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "bad.py": """
                def probe(func):
                    try:
                        func()
                    except Exception:
                        pass
                """
            },
        )
        assert rules_of(report) == ["swallowed-exception"]

    def test_referencing_or_reraising_is_clean(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "good.py": """
                def probe(func, log):
                    try:
                        func()
                    except Exception as error:
                        log(error)

                def strict(func):
                    try:
                        func()
                    except Exception:
                        raise RuntimeError("probe failed") from None

                def narrow(func):
                    try:
                        func()
                    except ValueError:
                        pass
                """
            },
        )
        assert "swallowed-exception" not in rules_of(report)


# ---------------------------------------------------------------------------
# suppression mechanics
# ---------------------------------------------------------------------------

class TestSuppressions:
    BAD_BODY = """
    def probe(func):
        try:
            func()
        except Exception:{comment}
            pass
    """

    def test_suppression_with_reason_silences_and_is_reported(self, tmp_path):
        source = self.BAD_BODY.format(
            comment="  # repro-lint: disable=swallowed-exception (probe result is the only output)"
        )
        report = lint(tmp_path, {"fixture.py": source})
        assert report.findings == []
        assert len(report.suppressed) == 1
        finding, suppression = report.suppressed[0]
        assert finding.rule == "swallowed-exception"
        assert suppression.reason == "probe result is the only output"
        assert report.exit_code == 0

    def test_suppression_without_reason_fails(self, tmp_path):
        source = self.BAD_BODY.format(comment="  # repro-lint: disable=swallowed-exception")
        report = lint(tmp_path, {"fixture.py": source})
        # the lazy suppression silences nothing AND is itself a finding
        assert sorted(rules_of(report)) == ["bad-suppression", "swallowed-exception"]
        assert report.exit_code == 1

    def test_suppression_only_covers_named_rules(self, tmp_path):
        source = self.BAD_BODY.format(
            comment="  # repro-lint: disable=buffer-escape (wrong rule named)"
        )
        report = lint(tmp_path, {"fixture.py": source})
        assert rules_of(report) == ["swallowed-exception"]

    def test_standalone_comment_covers_next_line(self, tmp_path):
        report = lint(
            tmp_path,
            {
                "fixture.py": """
                def probe(func):
                    try:
                        func()
                    # repro-lint: disable=swallowed-exception (fallback is the contract)
                    except Exception:
                        pass
                """
            },
        )
        assert report.findings == []
        assert len(report.suppressed) == 1


# ---------------------------------------------------------------------------
# baseline mechanics
# ---------------------------------------------------------------------------

class TestBaseline:
    DIRTY = {
        "dirty.py": """
        def probe(func):
            try:
                func()
            except Exception:
                pass
        """
    }

    def test_baselined_finding_passes_and_is_reported(self, tmp_path):
        first = lint(tmp_path, dict(self.DIRTY))
        assert first.exit_code == 1
        baseline = tmp_path / "baseline.json"
        write_baseline(baseline, first.findings)
        second = run_analysis([tmp_path], root=tmp_path, baseline_path=baseline)
        assert second.findings == []
        assert [f.rule for f in second.baselined] == ["swallowed-exception"]
        assert second.exit_code == 0

    def test_stale_baseline_entry_fails(self, tmp_path):
        first = lint(tmp_path, dict(self.DIRTY))
        baseline = tmp_path / "baseline.json"
        write_baseline(baseline, first.findings)
        # fix the code: the baseline entry is now stale and must fail the run
        (tmp_path / "dirty.py").write_text(
            textwrap.dedent(
                """
                def probe(func, log):
                    try:
                        func()
                    except Exception as error:
                        log(error)
                """
            ),
            encoding="utf-8",
        )
        report = run_analysis([tmp_path], root=tmp_path, baseline_path=baseline)
        assert report.findings == []
        assert len(report.stale_baseline) == 1
        assert report.exit_code == 1

    def test_update_baseline_rewrites_to_reality(self, tmp_path):
        lint(tmp_path, dict(self.DIRTY))
        baseline = tmp_path / "baseline.json"
        report = run_analysis(
            [tmp_path], root=tmp_path, baseline_path=baseline, update_baseline=True
        )
        assert report.exit_code == 0
        payload = json.loads(baseline.read_text())
        assert [entry["rule"] for entry in payload["findings"]] == ["swallowed-exception"]

    def test_fingerprints_ignore_line_numbers(self, tmp_path):
        first = lint(tmp_path, dict(self.DIRTY))
        baseline = tmp_path / "baseline.json"
        write_baseline(baseline, first.findings)
        # prepend code: every finding moves, but fingerprints must still match
        moved = "HEADER = 1\n\n\n" + (tmp_path / "dirty.py").read_text()
        (tmp_path / "dirty.py").write_text(moved, encoding="utf-8")
        report = run_analysis([tmp_path], root=tmp_path, baseline_path=baseline)
        assert report.findings == []
        assert report.stale_baseline == []
        assert report.exit_code == 0


# ---------------------------------------------------------------------------
# engine odds and ends
# ---------------------------------------------------------------------------

class TestEngine:
    def test_syntax_error_becomes_parse_error_finding(self, tmp_path):
        report = lint(tmp_path, {"broken.py": "def f(:\n    pass\n"})
        assert rules_of(report) == ["parse-error"]
        assert report.exit_code == 1

    def test_select_and_ignore_narrow_the_rule_set(self, tmp_path):
        sources = {
            "mixed.py": """
            def probe(func, items):
                try:
                    func()
                except Exception:
                    pass
                return evaluate_ordered(lambda x: x, items)
            """
        }
        only_spawn = lint(tmp_path, dict(sources), select=["spawn-safety"])
        assert rules_of(only_spawn) == ["spawn-safety"]
        without_spawn = lint(tmp_path, dict(sources), ignore=["spawn-safety"])
        assert rules_of(without_spawn) == ["swallowed-exception"]

    def test_unknown_rule_selection_raises(self, tmp_path):
        with pytest.raises(ValueError, match="unknown rule"):
            lint(tmp_path, {"empty.py": ""}, select=["no-such-rule"])

    def test_registry_has_the_documented_rules(self):
        names = set(all_rules())
        assert {
            "spawn-safety",
            "lock-discipline",
            "buffer-escape",
            "metrics-hygiene",
            "store-schema-drift",
            "swallowed-exception",
        } <= names


# ---------------------------------------------------------------------------
# acceptance: the real repository is clean
# ---------------------------------------------------------------------------

class TestRepositoryIsClean:
    def test_repo_passes_with_empty_baseline(self):
        baseline = ROOT / "tools" / "analyze" / "baseline.json"
        assert json.loads(baseline.read_text())["findings"] == []
        report = run_analysis(
            [ROOT / "src", ROOT / "tools", ROOT / "benchmarks", ROOT / "examples"],
            root=ROOT,
            baseline_path=baseline,
        )
        assert report.findings == []
        assert report.stale_baseline == []
        assert report.exit_code == 0
        # the intentional aliasing/fallback sites stay enumerable
        assert len(report.suppressed) >= 3


# ---------------------------------------------------------------------------
# entry points
# ---------------------------------------------------------------------------

class TestEntryPoints:
    def test_python_m_tools_analyze_json_output(self, tmp_path):
        fixture = tmp_path / "fixture.py"
        fixture.write_text(
            "def probe(func):\n    try:\n        func()\n    except Exception:\n        pass\n",
            encoding="utf-8",
        )
        output = tmp_path / "report.json"
        proc = subprocess.run(
            [
                sys.executable,
                "-m",
                "tools.analyze",
                str(tmp_path),
                "--no-baseline",
                "--format",
                "json",
                "--output",
                str(output),
                "--root",
                str(tmp_path),
            ],
            cwd=ROOT,
            capture_output=True,
            text=True,
        )
        assert proc.returncode == 1
        payload = json.loads(proc.stdout)
        assert [f["rule"] for f in payload["findings"]] == ["swallowed-exception"]
        assert payload["exit_code"] == 1
        archived = json.loads(output.read_text())
        assert archived["findings"] == payload["findings"]

    def test_repro_lint_subcommand_lists_rules(self, monkeypatch, capsys):
        from repro.cli import main

        monkeypatch.chdir(ROOT)
        assert main(["lint", "--", "--list-rules"]) == 0
        out = capsys.readouterr().out
        assert "lock-discipline" in out
        assert "buffer-escape" in out
