"""Unit tests of the docs checker (`tools/check_docs.py`): anchors and the span table.

The CI docs job runs the checker over the real docs; these tests pin the
anchor semantics themselves — GitHub-style slugs, duplicate numbering,
fenced headings excluded — and which span calls the span-table check finds,
against synthetic files, so a regression in the checker cannot hide behind
currently-valid docs.
"""

from __future__ import annotations

import importlib.util
from pathlib import Path

_SPEC = importlib.util.spec_from_file_location(
    "check_docs", Path(__file__).resolve().parent.parent / "tools" / "check_docs.py"
)
check_docs = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(check_docs)


class TestHeadingSlug:
    def test_plain_and_inline_markup(self):
        assert check_docs.heading_slug("Shutdown semantics") == "shutdown-semantics"
        assert check_docs.heading_slug("GET /jobs/{id}/events") == "get-jobsidevents"
        assert check_docs.heading_slug("Sharded layout (`<store>.shards/`)") == (
            "sharded-layout-storeshards"
        )
        assert check_docs.heading_slug("The *evaluation* `substrate`") == (
            "the-evaluation-substrate"
        )

    def test_duplicate_headings_are_numbered(self, tmp_path):
        path = tmp_path / "dup.md"
        path.write_text("# Setup\n\n## Setup\n\n### Setup\n")
        assert check_docs.file_anchors(path) == {"setup", "setup-1", "setup-2"}

    def test_fenced_headings_are_not_anchors(self, tmp_path):
        path = tmp_path / "fenced.md"
        path.write_text("# Real\n\n```bash\n# not a heading\n```\n\n## Also real\n")
        assert check_docs.file_anchors(path) == {"real", "also-real"}


class TestAnchorChecking:
    def _errors(self, tmp_path, source_text, **other_files):
        for name, text in other_files.items():
            (tmp_path / f"{name}.md").write_text(text)
        source = tmp_path / "source.md"
        source.write_text(source_text)
        check_docs.REPO_ROOT = tmp_path  # keep error paths relative
        return check_docs.check_links(source, {})

    def test_valid_same_file_and_cross_file_anchors(self, tmp_path):
        errors = self._errors(
            tmp_path,
            "# Top\n\n[a](#top)\n[b](other.md#section)\n[c](other.md)\n",
            other="## Section\n",
        )
        assert errors == []

    def test_dead_anchors_are_flagged(self, tmp_path):
        errors = self._errors(
            tmp_path,
            "# Top\n\n[a](#missing)\n[b](other.md#also-missing)\n",
            other="## Section\n",
        )
        assert len(errors) == 2
        assert any("dead anchor -> #missing" in e for e in errors)
        assert any("dead anchor -> other.md#also-missing" in e for e in errors)

    def test_dead_file_wins_over_dead_anchor(self, tmp_path):
        errors = self._errors(tmp_path, "[a](gone.md#anything)\n")
        assert errors == ["source.md: dead link -> gone.md#anything"]

    def test_external_links_are_skipped(self, tmp_path):
        errors = self._errors(
            tmp_path, "[a](https://example.com/x#frag)\n[b](mailto:x@y.z)\n"
        )
        assert errors == []


class TestSpanTable:
    DOC = (
        "# Observability\n\n"
        "## What is instrumented\n\n"
        "| Span | Where | Attributes |\n"
        "|------|-------|------------|\n"
        "| `evaluate` | objective | `arch` |\n"
        "| `op.conv2d` / `op.matmul` | operators | shapes |\n\n"
        "## Later section\n\n"
        "| `not.a.span` | other table | — |\n"
    )

    def _errors(self, tmp_path, source):
        src = tmp_path / "src"
        (src / "pkg").mkdir(parents=True)
        (src / "pkg" / "mod.py").write_text(source)
        doc = tmp_path / "observability.md"
        doc.write_text(self.DOC)
        return check_docs.check_span_table(src, doc)

    def test_every_span_call_form_is_found(self, tmp_path):
        source = (
            "from repro import trace\n"
            "from repro.trace import ops_span, record_span, span\n"
            "with span('evaluate'):\n"
            "    pass\n"
            "with ops_span('op.conv2d'):\n"
            "    pass\n"
            "with trace.ops_span(\n"
            "    'op.matmul',\n"
            "):\n"
            "    pass\n"
            "name = 'dynamic'\n"
            "with span(name):\n"
            "    pass\n"
        )
        assert self._errors(tmp_path, source) == []

    def test_undocumented_span_is_flagged_with_its_line(self, tmp_path):
        source = (
            "from repro.trace import ops_span, record_span, span\n"
            "with span('evaluate'), ops_span('op.conv2d'), ops_span('op.matmul'):\n"
            "    pass\n"
            "record_span('process.startup', 0.0, 1.0)\n"
        )
        assert self._errors(tmp_path, source) == [
            "observability.md: span 'process.startup' (opened at src/pkg/mod.py:4) is missing from the span table"
        ]

    def test_table_rows_opened_nowhere_are_flagged(self, tmp_path):
        source = "from repro.trace import span\nwith span('evaluate'):\n    pass\n"
        assert self._errors(tmp_path, source) == [
            "observability.md: span 'op.conv2d' is in the span table but opened nowhere in src/",
            "observability.md: span 'op.matmul' is in the span table but opened nowhere in src/",
        ]

    def test_the_repository_documents_every_span(self):
        root = Path(__file__).resolve().parent.parent
        assert check_docs.check_span_table(root / "src", root / check_docs.SPAN_TABLE_DOC) == []
