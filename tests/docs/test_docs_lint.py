"""Docs lint: no dead intra-repo links, every Python snippet must parse.

Walks ``README.md`` and every ``docs/*.md``:

* markdown links whose target is not an URL or a pure anchor must resolve to
  a real file or directory relative to the containing document (anchors and
  query strings stripped);
* every fenced ``python`` code block must survive ``ast.parse`` — examples in
  the docs are kept at least syntactically honest;
* every ``repro`` import in such a block, and every backticked dotted
  ``repro.…`` path in the text, must resolve to a real module or attribute,
  so a renamed or deleted name cannot linger in the docs;
* every backticked repo path (``tests/…``, ``src/…``, ``examples/…``,
  ``benchmarks/…``, ``docs/…``; a ``::test`` suffix stripped) must exist, and
  a glob must match at least one file, so a deleted file cannot either;
* the architecture page must cross-link every other subsystem doc, and every
  subsystem doc must link back to it, so the doc graph stays navigable.
"""

from __future__ import annotations

import ast
import importlib
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parents[2]
DOC_PATHS = sorted(
    [REPO_ROOT / "README.md", *(REPO_ROOT / "docs").glob("*.md")])

# [text](target) — but not images ![...](...) and not footnote-style refs.
_LINK = re.compile(r"(?<!\!)\[[^\]]+\]\(([^)\s]+)\)")
_FENCE = re.compile(r"^```(\w*)\s*$")
# `repro.pkg.module.Name` — a whole backticked span that is one dotted path.
_DOTTED = re.compile(r"`(repro(?:\.\w+)+)`")
# `tests/storage/test_engine.py::TestLifecycle` — a whole backticked span that
# is one repo-relative path, a glob, or a test id.
_REPO_PATH = re.compile(r"`((?:benchmarks|docs|examples|src|tests)/[^`\s]*)`")


def _links(text):
    return _LINK.findall(text)


def _fenced_blocks(text, language):
    blocks, current, inside = [], [], False
    for line_number, line in enumerate(text.splitlines(), start=1):
        fence = _FENCE.match(line)
        if fence and not inside:
            inside = fence.group(1) == language
            current, start = [], line_number + 1
        elif line.strip().startswith("```") and inside:
            blocks.append((start, "\n".join(current)))
            inside = False
        elif line.strip() == "```" and not inside:
            inside = False
        elif inside:
            current.append(line)
    return blocks


def _resolves(dotted):
    """Import the longest module prefix of ``dotted``; getattr the rest."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for name in parts[cut:]:
            if not hasattr(target, name):
                return False
            target = getattr(target, name)
        return True
    return False


def _repo_path_exists(path):
    """``path`` exists under the repo root, or as a glob matches a file."""
    if any(char in path for char in "*?["):
        return any(match.is_file() for match in REPO_ROOT.glob(path))
    return (REPO_ROOT / path).exists()


def _repro_imports(block):
    """Dotted names a python block imports from ``repro``."""
    names = []
    for node in ast.walk(ast.parse(block)):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            module = node.module or ""
            names.extend(f"{module}.{alias.name}" for alias in node.names
                         if module.split(".")[0] == "repro")
        elif isinstance(node, ast.Import):
            names.extend(alias.name for alias in node.names
                         if alias.name.split(".")[0] == "repro")
    return names


@pytest.mark.parametrize("doc_path", DOC_PATHS,
                         ids=[str(p.relative_to(REPO_ROOT)) for p in DOC_PATHS])
class TestDocsLint:
    def test_intra_repo_links_resolve(self, doc_path):
        text = doc_path.read_text(encoding="utf-8")
        dead = []
        for target in _links(text):
            if target.startswith(("http://", "https://", "mailto:", "#")):
                continue
            relative = target.split("#", 1)[0].split("?", 1)[0]
            if not relative:
                continue
            if not (doc_path.parent / relative).exists():
                dead.append(target)
        assert dead == [], (
            f"{doc_path.relative_to(REPO_ROOT)} has dead links: {dead}")

    def test_python_blocks_parse(self, doc_path):
        text = doc_path.read_text(encoding="utf-8")
        for start_line, block in _fenced_blocks(text, "python"):
            try:
                ast.parse(block)
            except SyntaxError as error:
                pytest.fail(
                    f"{doc_path.relative_to(REPO_ROOT)} python block at line "
                    f"{start_line} does not parse: {error}")

    def test_repro_imports_resolve(self, doc_path):
        text = doc_path.read_text(encoding="utf-8")
        dead = [(start_line, name)
                for start_line, block in _fenced_blocks(text, "python")
                for name in _repro_imports(block) if not _resolves(name)]
        assert dead == [], (
            f"{doc_path.relative_to(REPO_ROOT)} imports names that do not "
            f"exist (block line, name): {dead}")

    def test_repro_paths_resolve(self, doc_path):
        text = doc_path.read_text(encoding="utf-8")
        dead = sorted({path for path in _DOTTED.findall(text)
                       if not _resolves(path)})
        assert dead == [], (
            f"{doc_path.relative_to(REPO_ROOT)} names repro paths that do "
            f"not exist: {dead}")

    def test_repo_paths_exist(self, doc_path):
        text = doc_path.read_text(encoding="utf-8")
        dead = sorted({path for path in _REPO_PATH.findall(text)
                       if not _repo_path_exists(path.split("::", 1)[0])})
        assert dead == [], (
            f"{doc_path.relative_to(REPO_ROOT)} names repo paths that do "
            f"not exist: {dead}")


class TestDocGraph:
    SUBSYSTEM_DOCS = ("autograd.md", "benchmarking.md", "observability.md",
                      "pipeline.md", "resilience.md", "serving.md",
                      "sharding.md", "storage.md")

    def test_architecture_links_every_subsystem_doc(self):
        text = (REPO_ROOT / "docs" / "architecture.md").read_text(encoding="utf-8")
        linked = {target.split("#", 1)[0] for target in _links(text)}
        missing = [doc for doc in self.SUBSYSTEM_DOCS if doc not in linked]
        assert missing == []

    def test_every_subsystem_doc_links_back(self):
        unlinked = []
        for doc in self.SUBSYSTEM_DOCS:
            text = (REPO_ROOT / "docs" / doc).read_text(encoding="utf-8")
            if "architecture.md" not in {t.split("#", 1)[0] for t in _links(text)}:
                unlinked.append(doc)
        assert unlinked == []

    def test_readme_links_architecture(self):
        text = (REPO_ROOT / "README.md").read_text(encoding="utf-8")
        assert "docs/architecture.md" in {t.split("#", 1)[0] for t in _links(text)}
