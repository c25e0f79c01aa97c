"""Public-surface ledger: every top-level public name in ``src/repro`` is used.

A top-level ``def``/``class`` whose name does not start with ``_`` is
*referenced* when an AST ``Name`` or ``Attribute`` node spells it anywhere in
``src/``, ``examples/`` or ``benchmarks/``.  Its own definition, ``import``
statements and ``__all__`` strings are not ``Name``/``Attribute`` nodes, so
they never count; tests do not count either.  A name nothing references is
dead surface unless it is listed in :data:`PUBLIC_API` with the reason it is
kept.  The second test keeps the allow-list honest: an entry whose name is
gone, or has gained a caller, must be dropped.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Dict, Set

REPO_ROOT = Path(__file__).resolve().parents[1]
PACKAGE = REPO_ROOT / "src" / "repro"
CALLER_ROOTS = ("src", "examples", "benchmarks")

# Public names no code in the repository calls, each kept for a stated reason.
PUBLIC_API: Dict[str, str] = {
    "write_records_csv": "writes the CSV that `repro.pipeline --records` reads",
    "read_records_csv": "eager counterpart of iter_records_csv",
    "write_pairs_jsonl": "writes the pair corpora iter_pairs_jsonl streams",
    "read_pairs_jsonl": "eager counterpart of iter_pairs_jsonl",
    "write_pair_labels_csv": "exports labelled pairs for external tools",
    "read_pair_labels_csv": "imports labelled pairs from external tools",
    "save_model": "inference bundle writer; BatchedPredictor.load reads it",
    "get_experiment": "look up one paper figure/table runner by its id",
    "list_experiments": "the ids of every paper figure/table runner",
    "check_gradient": "numerical gradient check for new autograd ops",
    "align_ontology": "the paper's attribute-set union A ∪ A′ of two sources",
    "enable": "obs.enable: process-wide telemetry session, per docs/observability.md",
    "disable": "obs.disable: end it, per docs/observability.md",
    "valid_metric_name": "obs: the metric-name rule docs/observability.md cites",
    "install_plan": "arm a fault plan process-wide, per docs/resilience.md",
    "clear_plan": "disarm the process-wide fault plan, per docs/resilience.md",
    "plan_scope": "arm a fault plan for one block, per docs/resilience.md",
    "reset_hits": "re-arm count-based faults between runs, per docs/resilience.md",
}


def _python_files(root: Path):
    return sorted(path for path in root.rglob("*.py")
                  if "__pycache__" not in path.parts)


def _public_definitions() -> Dict[str, str]:
    """Top-level public ``def``/``class`` names → defining module path."""
    defined: Dict[str, str] = {}
    for path in _python_files(PACKAGE):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        for node in tree.body:
            if (isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                  ast.ClassDef))
                    and not node.name.startswith("_")):
                defined.setdefault(node.name,
                                   str(path.relative_to(REPO_ROOT)))
    return defined


def _referenced_names() -> Set[str]:
    """Every identifier a ``Name`` or ``Attribute`` node spells."""
    used: Set[str] = set()
    for root in CALLER_ROOTS:
        for path in _python_files(REPO_ROOT / root):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if isinstance(node, ast.Name):
                    used.add(node.id)
                elif isinstance(node, ast.Attribute):
                    used.add(node.attr)
    return used


def test_every_public_name_has_a_caller_or_a_reason():
    defined = _public_definitions()
    used = _referenced_names()
    orphans = sorted(f"{name} ({module})" for name, module in defined.items()
                     if name not in used and name not in PUBLIC_API)
    assert orphans == [], (
        "public names nothing in src/, examples/ or benchmarks/ uses; delete "
        f"them or add them to PUBLIC_API with a reason: {orphans}")


def test_public_api_entries_are_live():
    defined = _public_definitions()
    used = _referenced_names()
    stale = sorted(name for name in PUBLIC_API
                   if name not in defined or name in used)
    assert stale == [], (
        f"PUBLIC_API entries that no longer exist or now have a caller: {stale}")
    assert all(reason.strip() for reason in PUBLIC_API.values())
