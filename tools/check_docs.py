"""Keep the docs honest: link-check, anchor-check and doctest `docs/` and README.md.

Three failure modes silently rot prose documentation, and this script (run by
the CI `docs` job) turns each into a build failure:

* **dead relative links** — every markdown link or image pointing at a
  repo-relative path must resolve to an existing file or directory
  (external ``http(s)``/``mailto`` URLs are not checked — CI must not
  depend on the network);
* **dead intra-doc anchors** — every ``#fragment`` (same-file ``#anchor``
  links and cross-file ``file.md#anchor`` links between checked files) must
  match a heading's GitHub-style slug in the target file, so a renamed
  section heading breaks every link pointing at it visibly (the serving
  layer's endpoint catalog in ``docs/server.md`` is linked by anchor from
  several places);
* **stale code examples** — every ``>>>`` example in the checked files is
  executed with :mod:`doctest`, so an API rename breaks the doc visibly;
* **undocumented spans** — every span name passed as a string literal to
  ``span``, ``ops_span`` or ``record_span`` under ``src/`` must appear in the
  span table of ``docs/observability.md`` ("What is instrumented"), and
  every name in that table must still be opened somewhere.

Run locally::

    PYTHONPATH=src python tools/check_docs.py
"""

from __future__ import annotations

import ast
import doctest
import re
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parent.parent

#: files whose links and doctests are checked
CHECKED_FILES = (
    "README.md",
    "docs/architecture.md",
    "docs/caching.md",
    "docs/benchmarks.md",
    "docs/multi_objective.md",
    "docs/observability.md",
    "docs/server.md",
)

#: markdown inline links/images: [text](target) / ![alt](target)
LINK_PATTERN = re.compile(r"!?\[[^\]]*\]\(([^)\s]+)\)")

#: markdown ATX headings (the anchors GitHub derives slugs from)
HEADING_PATTERN = re.compile(r"^#{1,6}\s+(.+?)\s*#*\s*$", re.MULTILINE)

#: fenced code blocks — headings inside them are not anchors
FENCE_PATTERN = re.compile(r"^(```|~~~).*?^\1\s*$", re.MULTILINE | re.DOTALL)

#: link targets that are never repo-relative paths
EXTERNAL_PREFIXES = ("http://", "https://", "mailto:")

#: tracing calls whose first argument names a span
SPAN_CALLS = ("span", "ops_span", "record_span")

#: the document whose table lists every span, and that table's heading
SPAN_TABLE_DOC = "docs/observability.md"
SPAN_TABLE_HEADING = "## What is instrumented"


def heading_slug(text: str) -> str:
    """GitHub's anchor slug for one heading line.

    Inline markup is stripped (``code``, *emphasis*, [link](target) keeps the
    link text), then: lowercase, drop everything but word characters, spaces
    and hyphens, replace spaces with hyphens.  Matches GitHub's renderer for
    the heading shapes used in this repo (including ``GET /pareto``-style
    endpoint headings, whose slashes simply vanish: ``get-pareto``).
    """
    text = re.sub(r"\[([^\]]*)\]\([^)]*\)", r"\1", text)
    text = re.sub(r"[`*_]", "", text)
    slug = re.sub(r"[^\w\- ]", "", text.strip().lower())
    return slug.replace(" ", "-")


def file_anchors(path: Path) -> set:
    """Every anchor one markdown file defines (slugs, with -1/-2 duplicates)."""
    text = FENCE_PATTERN.sub("", path.read_text())
    anchors: set = set()
    counts: dict = {}
    for match in HEADING_PATTERN.finditer(text):
        slug = heading_slug(match.group(1))
        seen = counts.get(slug, 0)
        counts[slug] = seen + 1
        anchors.add(slug if seen == 0 else f"{slug}-{seen}")
    return anchors


def check_links(path: Path, anchor_cache: dict) -> list:
    """Dead repo-relative link targets and dead anchors in one markdown file."""
    errors = []
    for target in LINK_PATTERN.findall(path.read_text()):
        if target.startswith(EXTERNAL_PREFIXES):
            continue
        relative, _, anchor = target.partition("#")
        resolved = (path.parent / relative).resolve() if relative else path.resolve()
        if relative and not resolved.exists():
            errors.append(f"{path.relative_to(REPO_ROOT)}: dead link -> {target}")
            continue
        if not anchor:
            continue
        # anchors are only checkable in markdown files we can parse headings
        # from; anchors into other file types are left to reviewers
        if resolved.suffix != ".md" or not resolved.is_file():
            continue
        if resolved not in anchor_cache:
            anchor_cache[resolved] = file_anchors(resolved)
        if anchor.lower() not in anchor_cache[resolved]:
            errors.append(f"{path.relative_to(REPO_ROOT)}: dead anchor -> {target}")
    return errors


def check_doctests(path: Path) -> list:
    """Failing ``>>>`` examples in one markdown file."""
    text = path.read_text()
    if ">>>" not in text:
        return []
    results = doctest.testfile(
        str(path),
        module_relative=False,
        optionflags=doctest.ELLIPSIS | doctest.NORMALIZE_WHITESPACE,
        verbose=False,
    )
    if results.failed:
        return [f"{path.relative_to(REPO_ROOT)}: {results.failed}/{results.attempted} doctests failed"]
    return []


def source_span_names(src: Path) -> dict:
    """Every span name opened under ``src``, mapped to its first ``file:line``."""
    names: dict = {}
    for path in sorted(src.rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
            if not isinstance(node, ast.Call) or not node.args:
                continue
            func = node.func
            called = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
            first = node.args[0]
            if called in SPAN_CALLS and isinstance(first, ast.Constant) and isinstance(first.value, str):
                names.setdefault(first.value, f"{path.relative_to(src.parent)}:{node.lineno}")
    return names


def documented_span_names(doc: Path) -> set:
    """The ``code`` names in the first column of the span table in ``doc``."""
    text = doc.read_text()
    if SPAN_TABLE_HEADING not in text:
        return set()
    section = text.split(SPAN_TABLE_HEADING, 1)[1].split("\n## ", 1)[0]
    names: set = set()
    for line in section.splitlines():
        if line.startswith("|"):
            names.update(re.findall(r"`([^`]+)`", line.split("|")[1]))
    return names


def check_span_table(src: Path, doc: Path) -> list:
    """Spans opened in ``src`` but missing from ``doc``'s table, and the reverse."""
    opened = source_span_names(src)
    documented = documented_span_names(doc)
    errors = [
        f"{doc.name}: span {name!r} (opened at {where}) is missing from the span table"
        for name, where in sorted(opened.items())
        if name not in documented
    ]
    errors += [
        f"{doc.name}: span {name!r} is in the span table but opened nowhere in {src.name}/"
        for name in sorted(documented - set(opened))
    ]
    return errors


def main() -> int:
    """Check every documented file; returns a process exit code."""
    errors = []
    checked = 0
    anchor_cache: dict = {}
    for name in CHECKED_FILES:
        path = REPO_ROOT / name
        if not path.exists():
            errors.append(f"missing documented file: {name}")
            continue
        checked += 1
        errors.extend(check_links(path, anchor_cache))
        errors.extend(check_doctests(path))
    errors.extend(check_span_table(REPO_ROOT / "src", REPO_ROOT / SPAN_TABLE_DOC))
    if errors:
        print("\n".join(errors))
        return 1
    print(f"docs OK: {checked} files, links and anchors resolve, doctests pass, every span documented")
    return 0


if __name__ == "__main__":
    sys.exit(main())
