"""The documents cite tests and code that exist.

Every ``tests/...py`` and ``benchmarks/...py`` path that DESIGN.md, API.md,
README.md or EXPERIMENTS.md names must be a file, and every ``::node``
after a test file (``file.py::Class::test_name``, or a bare ``file.py::``
whose name is unique under ``tests/`` and ``benchmarks/``) must be a class
or function defined in it.  A parametrized node is checked by its base
name.

In backticks, every source path (``src/repro/core/striper.py``, or
``core/striper.py`` relative to ``src/repro``) must be a file, and every
dotted ``repro.`` name must import and resolve.  Each class, constant or
call an API.md row documents (a backticked name in its first cell that is
capitalized or called) must resolve in the package its section covers.
"""

from __future__ import annotations

import ast
import importlib
import pkgutil
import re
from functools import lru_cache
from pathlib import Path
from typing import Dict, List, Optional, Tuple

import pytest

ROOT = Path(__file__).resolve().parents[1]
DOCS = ("DESIGN.md", "API.md", "README.md", "EXPERIMENTS.md")

_PATH = re.compile(r"(?<![\w/.])((?:tests|benchmarks)/[\w/]+\.py)")
_NODE = re.compile(r"(?<![\w.])([\w/]*\w\.py)((?:::\w+)+)")
_SPAN = re.compile(r"`([^`\n]+)`")
_SOURCE = re.compile(
    r"(?<![\w/.])(src/[\w/]+\.py|(?:analysis|baselines|core|experiments"
    r"|net|sim|transport|workloads)/\w+\.py)"
)
_DOTTED = re.compile(r"(?<![\w.])(repro(?:\.\w+)+)")
_SECTION = re.compile(r"^##+ .*?`(repro\.\w+)")
_DOCUMENTED = re.compile(r"([A-Z]\w*|\w+(?=\())")
_MAKE = re.compile(r"^make ([\w-]+)")
_TARGET = re.compile(r"^([A-Za-z][\w-]*):", re.MULTILINE)


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


def code_references() -> List[Tuple[str, str, str]]:
    """``(doc, kind, reference)`` for every backticked source path
    (``path``) and dotted ``repro.`` name (``name``)."""
    found = []
    for doc in DOCS:
        text = (ROOT / doc).read_text(encoding="utf-8")
        for span in _SPAN.findall(text):
            found += [(doc, "path", m) for m in _SOURCE.findall(span)]
            found += [(doc, "name", m) for m in _DOTTED.findall(span)]
    return sorted(set(found))


def api_rows() -> List[Tuple[str, str]]:
    """``(package, name)`` for every name an API.md row documents.  The
    support matrices list modes and discipline names, not code, and are
    skipped."""
    found = []
    package = None
    for line in (ROOT / "API.md").read_text(encoding="utf-8").splitlines():
        if line.startswith("#"):
            match = _SECTION.match(line)
            if match:
                package = match.group(1)
            elif line.startswith("## "):
                package = None
            if "matrix" in line:
                package = None
            continue
        if package is None or not line.startswith("| `"):
            continue
        first_cell = line.split(" | ")[0]
        for span in _SPAN.findall(first_cell):
            match = _DOCUMENTED.match(span)
            if match:
                found.append((package, match.group(1)))
    return sorted(set(found))


def resolve_name(dotted: str) -> object:
    """Import the longest module prefix of ``dotted``, then getattr the
    rest; raises when either fails."""
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            found: object = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for attribute in parts[cut:]:
            found = getattr(found, attribute)
        return found
    raise ModuleNotFoundError(dotted)


@lru_cache(maxsize=None)
def _modules_of(package: str) -> tuple:
    root = importlib.import_module(package)
    return (root,) + tuple(
        importlib.import_module(info.name)
        for info in pkgutil.walk_packages(root.__path__, package + ".")
    )


def test_the_documents_cite_code():
    cited = code_references()
    assert {kind for _, kind, _ in cited} == {"path", "name"}
    assert len(api_rows()) > 100


@pytest.mark.parametrize("doc, kind, reference", code_references())
def test_cited_code_exists(doc, kind, reference):
    if kind == "path":
        path = ROOT / reference
        if not reference.startswith("src/"):
            path = ROOT / "src" / "repro" / reference
        assert path.is_file(), f"{doc} cites {reference}, which does not exist"
    else:
        resolve_name(reference)


@pytest.mark.parametrize("package, name", api_rows())
def test_api_row_names_resolve(package, name):
    assert any(
        hasattr(module, name) for module in _modules_of(package)
    ), f"API.md documents {name} under {package}, where nothing defines it"


def make_citations() -> List[Tuple[str, str]]:
    """``(doc, target)`` for every backticked ``make <target> ...``."""
    found = []
    for doc in DOCS:
        text = (ROOT / doc).read_text(encoding="utf-8")
        for span in _SPAN.findall(text):
            match = _MAKE.match(span)
            if match:
                found.append((doc, match.group(1)))
    return sorted(set(found))


def test_cited_make_targets_exist():
    targets = set(_TARGET.findall((ROOT / "Makefile").read_text()))
    cited = make_citations()
    assert {target for _, target in cited} >= {"frames", "smoke"}
    missing = [f"{doc} cites make {t}" for doc, t in cited if t not in targets]
    assert not missing, missing
