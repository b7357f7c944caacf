"""Guard against library code that only tests reach.

A public top-level function or class under ``src/repro`` is *reached* when
production text mentions its name as a word: the package sources other than
the ``__init__.py`` re-export hubs and the definition's own body, plus
``perfbench/``, ``examples/``, ``README.md`` and ``.github/``.  Code that
nothing reaches is deleted rather than carried; the few exceptions are
listed in :data:`ALLOWED`, each with the test or bench that needs it.
"""

from __future__ import annotations

import ast
import re
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
PACKAGE = ROOT / "src" / "repro"
TEXT_SUFFIXES = {".py", ".md", ".yml", ".yaml"}

#: Public names no production text mentions -> the test or bench that needs it.
ALLOWED = {
    "cluster_diameter_bound": "exact oracle for decompose_node_subset in tests/test_maintenance.py",
    "smallest_nonzero_eigenvalues": "eigenvalue oracle in tests/test_krylov.py",
    "is_laplacian": "assertion tests/test_graph.py applies to production Laplacians",
    "assert_positive_weights": "assertion tests/test_generators_io.py applies to generator output",
    "complete_graph": "fixture of tests/test_spectral_resistance.py and tests/test_spectral_algebra.py",
    "cycle_graph": "fixture of tests/conftest.py and the dynamic-update tests",
    "weight_change_edges": "reweight-path fixture of tests/test_maintenance.py",
    "random_sparsify": "fixture of tests/test_streams.py scenarios",
    "time_call": "timer of benchmarks/test_table1_setup_time.py",
}


def _words(text: str) -> set:
    return set(re.findall(r"\w+", text))


def _text_files(directory: Path) -> list:
    return [path for path in directory.rglob("*") if path.is_file() and path.suffix in TEXT_SUFFIXES]


def unreached_names() -> set:
    production = [path for path in PACKAGE.rglob("*.py") if path.name != "__init__.py"]
    for directory in ("perfbench", "examples", ".github"):
        production += _text_files(ROOT / directory)
    production.append(ROOT / "README.md")
    words = {path: _words(path.read_text(encoding="utf-8")) for path in production}

    unreached = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        for node in ast.parse("\n".join(lines)).body:
            if not isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
                continue
            if node.name.startswith("_"):
                continue
            if any(node.name in found for other, found in words.items() if other != path):
                continue
            start = min([node.lineno] + [d.lineno for d in node.decorator_list]) - 1
            rest = lines[:start] + lines[node.end_lineno:]
            if path.name == "__init__.py" or node.name not in _words("\n".join(rest)):
                unreached.add(node.name)
    return unreached


def test_only_allowlisted_names_are_unreached_by_the_system():
    unreached = unreached_names()
    assert not unreached - set(ALLOWED), (
        "only tests reach these names; delete them, or allowlist each with the test that "
        f"needs it: {sorted(unreached - set(ALLOWED))}")
    assert not set(ALLOWED) - unreached, (
        f"the system now reaches these names; drop them from ALLOWED: {sorted(set(ALLOWED) - unreached)}")

    this_file = Path(__file__).resolve()
    test_words = _words("\n".join(path.read_text(encoding="utf-8")
                                  for path in _text_files(ROOT / "tests") + _text_files(ROOT / "benchmarks")
                                  if path.resolve() != this_file))
    assert not set(ALLOWED) - test_words, (
        f"no test uses these allowlisted names any more; delete them: {sorted(set(ALLOWED) - test_words)}")
