"""Every definition under ``src/`` has a caller somewhere in the repo.

A function, method or class whose name appears nowhere but in its own
``def`` / ``class`` line is dead weight: it is read, documented and kept
working for no user.  The scan is by name, so it errs towards keeping:
any name, attribute, import alias or identifier-shaped string constant
anywhere in the source, test, example, benchmark or perfbench trees
counts as a reference, and so does the function of a
``"module:function"`` string (how the experiment registry names what it
runs).
"""

import ast
import re
from collections import Counter
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TREES = ("src", "tests", "examples", "benchmarks", "perfbench")
IDENTIFIER = re.compile(r"[A-Za-z_][A-Za-z0-9_]*\Z")
RUN_PATH = re.compile(r"[A-Za-z_][\w.]*:([A-Za-z_]\w*)\Z")

#: definitions kept without a caller, by ``path:name``, each with a reason
KEPT = {}


def _references_and_definitions():
    references = Counter()
    definitions = []
    for tree in TREES:
        for path in sorted((ROOT / tree).rglob("*.py")):
            module = ast.parse(path.read_text())
            for node in ast.walk(module):
                if isinstance(node, ast.Name):
                    references[node.id] += 1
                elif isinstance(node, ast.Attribute):
                    references[node.attr] += 1
                elif isinstance(node, ast.alias):
                    references[node.name.split(".")[-1]] += 1
                    if node.asname:
                        references[node.asname] += 1
                elif isinstance(node, ast.Constant) and isinstance(
                    node.value, str
                ) and IDENTIFIER.match(node.value):
                    references[node.value] += 1
                elif isinstance(node, ast.Constant) and isinstance(
                    node.value, str
                ) and RUN_PATH.match(node.value):
                    references[RUN_PATH.match(node.value).group(1)] += 1
                if tree == "src" and isinstance(
                    node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
                ):
                    name = node.name
                    if not (name.startswith("__") and name.endswith("__")):
                        where = path.relative_to(ROOT).as_posix()
                        definitions.append((f"{where}:{name}", node.lineno))
    return references, definitions


def test_every_definition_has_a_caller():
    references, definitions = _references_and_definitions()
    uncalled = [
        f"{key} (line {line})"
        for key, line in definitions
        if references[key.rsplit(":", 1)[1]] == 0 and key not in KEPT
    ]
    assert uncalled == []
