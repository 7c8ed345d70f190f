"""The reference scan: every definition under ``src/`` is named somewhere else.

A function, method or class that no other line of ``src/``, ``benchmarks/``,
``perfbench/`` or ``examples/`` names is reached by no algorithm,
experiment, benchmark, CLI verb or perfbench workload: at most its own tests
call it. Such a definition is deleted with its tests, exports and doc lines
rather than kept alive by them. A name counts as named when it occurs as a
word on any line other than its own ``def``/``class`` line, so an export,
an attribute access or a docstring mention keeps it. Dunder methods are
exempt: Python calls them implicitly.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path
from typing import Dict, List, Set, Tuple

ROOT = Path(__file__).resolve().parent.parent

#: The trees whose lines count as naming a definition.
READERS = ("src", "benchmarks", "perfbench", "examples")

#: ``"path:name"`` of definitions kept although nothing else names them,
#: each with its reason. Empty: add an entry only with a reason.
ALLOWED: Dict[str, str] = {}

_WORD = re.compile(r"[A-Za-z_]\w*")


def _word_lines() -> Dict[str, Set[Tuple[Path, int]]]:
    """Each identifier-like word -> the (file, line) pairs it occurs on."""
    where: Dict[str, Set[Tuple[Path, int]]] = {}
    for top in READERS:
        for path in sorted((ROOT / top).rglob("*.py")):
            for number, line in enumerate(path.read_text().splitlines(), 1):
                for word in set(_WORD.findall(line)):
                    where.setdefault(word, set()).add((path, number))
    return where


def unreferenced() -> List[str]:
    """``"path:name"`` of every definition under ``src/`` no other line names."""
    where = _word_lines()
    found = []
    for path in sorted((ROOT / "src").rglob("*.py")):
        for node in ast.walk(ast.parse(path.read_text())):
            if not isinstance(
                node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)
            ):
                continue
            name = node.name
            if name.startswith("__") and name.endswith("__"):
                continue
            if where.get(name, set()) - {(path, node.lineno)}:
                continue
            found.append(f"{path.relative_to(ROOT).as_posix()}:{name}")
    return found


def test_every_definition_is_named_elsewhere():
    found = unreferenced()
    stale = [entry for entry in found if entry not in ALLOWED]
    assert not stale, (
        "defined under src/ but named by no other line of "
        f"{', '.join(READERS)}: {stale}; delete each with its tests, "
        "exports and doc lines"
    )
    named_again = set(ALLOWED) - set(found)
    assert not named_again, f"allowed but named again, drop them: {named_again}"
