"""The documents cite tests that exist.

Every ``tests/...py`` and ``benchmarks/...py`` path that DESIGN.md, API.md,
README.md or EXPERIMENTS.md names must be a file, and every ``::node``
after a test file (``file.py::Class::test_name``, or a bare ``file.py::``
whose name is unique under ``tests/`` and ``benchmarks/``) must be a class
or function defined in it.  A parametrized node is checked by its base
name.
"""

from __future__ import annotations

import ast
import re
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("DESIGN.md", "API.md", "README.md", "EXPERIMENTS.md")

_PATH = re.compile(r"(?<![\w/.])((?:tests|benchmarks)/[\w/]+\.py)")
_NODE = re.compile(r"(?<![\w.])([\w/]*\w\.py)((?:::\w+)+)")


def references() -> List[Tuple[str, str, str]]:
    """``(doc, path, node)`` for every citation; ``node`` is ``""`` for a
    bare path and ``Class::name`` style otherwise."""
    found = []
    for doc in DOCS:
        text = (ROOT / doc).read_text(encoding="utf-8")
        for match in _PATH.finditer(text):
            found.append((doc, match.group(1), ""))
        for match in _NODE.finditer(text):
            found.append((doc, match.group(1), match.group(2)[2:]))
    return sorted(set(found))


@lru_cache(maxsize=None)
def _by_basename() -> Dict[str, List[Path]]:
    files: Dict[str, List[Path]] = {}
    for tree in ("tests", "benchmarks"):
        for path in (ROOT / tree).rglob("*.py"):
            files.setdefault(path.name, []).append(path)
    return files


def resolve(path: str) -> Optional[Path]:
    """The file ``path`` names: relative to the repo root, or a bare file
    name unique under ``tests/`` and ``benchmarks/``."""
    if "/" in path:
        candidate = ROOT / path
        return candidate if candidate.is_file() else None
    matches = _by_basename().get(path, [])
    return matches[0] if len(matches) == 1 else None


def defines(path: Path, node: str) -> bool:
    """Whether ``node`` (``A::b``) names a class/function chain in ``path``."""
    scope: ast.AST = ast.parse(path.read_text(encoding="utf-8"))
    for name in node.split("::"):
        scope = next(
            (
                child for child in ast.iter_child_nodes(scope)
                if isinstance(
                    child,
                    (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef),
                )
                and child.name == name
            ),
            None,
        )
        if scope is None:
            return False
    return True


def test_the_documents_cite_references():
    cited = references()
    assert any(node for _, _, node in cited)
    assert {doc for doc, _, _ in cited} >= {"DESIGN.md", "API.md"}


@pytest.mark.parametrize(
    "doc, path, node", references(),
    ids=lambda value: value or "file",
)
def test_cited_test_exists(doc, path, node):
    found = resolve(path)
    assert found is not None, f"{doc} cites {path}, which does not exist"
    if node:
        assert defines(found, node), f"{doc} cites {path}::{node}"
