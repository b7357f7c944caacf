"""Guard against library code that only tests reach.

A public top-level function or class under ``src/repro``, and a public
method or property of a top-level class there (named ``Class.member``), is
*reached* when production text mentions its name as a word: the package
sources other than the ``__init__.py`` re-export hubs and the definition's
own body, plus ``perfbench/``, ``examples/``, ``README.md`` and
``.github/``.  Code that nothing reaches is deleted rather than carried; the
few exceptions are listed in :data:`ALLOWED`, each with the test or bench
that needs it.
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
    "ClusterHierarchy.cluster_of": "label lookup tests/test_maintenance.py checks splices and merges with",
    "ClusterHierarchy.compare_with_exact": "bound-quality oracle of benchmarks/test_ablation_lrd.py "
                                           "and tests/test_lrd_hierarchy.py",
    "Graph.total_weight": "conductance oracle of tests/test_sharded.py and tests/test_core_update.py",
    "Graph.to_networkx": "hop-distance oracle of tests/test_streams.py",
    # Public API that only its own unit tests exercise; deleting it deletes them.
    "Graph.from_sparse": "tests/test_graph.py::TestGraphConversions",
    "Graph.subgraph_from_edges": "tests/test_graph.py::TestGraphBasics::test_subgraph_from_edges",
    "_GroundedSystem.solve_many": "tests/test_spectral_algebra.py::TestGroundedSolver::test_solve_many",
    "_GroundedSystem.as_linear_operator": "tests/test_spectral_algebra.py::TestGroundedSolver::test_linear_operator",
    "MixedBatch.from_events": "tests/test_dynamic_updates.py::TestMixedBatchModel and "
                              "tests/test_maintenance.py::TestWeightChangePath",
}
FUNCTIONS = (ast.FunctionDef, ast.AsyncFunctionDef)


def _words(text: str) -> set:
    return set(re.findall(r"\w+", text))


def _text_files(directory: Path) -> list:
    return [path for path in directory.rglob("*") if path.is_file() and path.suffix in TEXT_SUFFIXES]


def _public_definitions(module: ast.Module):
    """``(node, name)`` of every public top-level function or class, and of
    every public method or property of a top-level class (``Class.member``)."""
    for node in module.body:
        if not isinstance(node, FUNCTIONS + (ast.ClassDef,)):
            continue
        if not node.name.startswith("_"):
            yield node, node.name
        if isinstance(node, ast.ClassDef):
            for member in node.body:
                if isinstance(member, FUNCTIONS) and not member.name.startswith("_"):
                    yield member, f"{node.name}.{member.name}"


def unreached_names() -> set:
    production = [path for path in PACKAGE.rglob("*.py") if path.name != "__init__.py"]
    for directory in ("perfbench", "examples", ".github"):
        production += _text_files(ROOT / directory)
    production.append(ROOT / "README.md")
    words = {path: _words(path.read_text(encoding="utf-8")) for path in production}

    unreached = set()
    for path in sorted(PACKAGE.rglob("*.py")):
        lines = path.read_text(encoding="utf-8").splitlines()
        for node, name in _public_definitions(ast.parse("\n".join(lines))):
            if any(node.name in found for other, found in words.items() if other != path):
                continue
            start = min([node.lineno] + [d.lineno for d in node.decorator_list]) - 1
            rest = lines[:start] + lines[node.end_lineno:]
            if path.name == "__init__.py" or node.name not in _words("\n".join(rest)):
                unreached.add(name)
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
    unused = sorted(name for name in ALLOWED if name.rpartition(".")[2] not in test_words)
    assert not unused, f"no test uses these allowlisted names any more; delete them: {unused}"
