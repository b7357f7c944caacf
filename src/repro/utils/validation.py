"""Argument validation helpers shared across the library.

These raise early with precise messages so that user errors surface at the
public API boundary rather than deep inside sparse linear algebra.
"""

from __future__ import annotations

import numpy as np


def check_positive(value: float, name: str) -> float:
    """Require ``value > 0``; return it for chaining."""
    if not np.isfinite(value) or value <= 0:
        raise ValueError(f"{name} must be a positive finite number, got {value!r}")
    return float(value)


def check_positive_int(value: int, name: str) -> int:
    """Require an integer ``value >= 1``; return it for chaining."""
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, got {type(value).__name__}")
    if value < 1:
        raise ValueError(f"{name} must be >= 1, got {value}")
    return int(value)


def check_probability(value: float, name: str) -> float:
    """Require ``0 <= value <= 1``; return it for chaining."""
    if not np.isfinite(value) or value < 0 or value > 1:
        raise ValueError(f"{name} must lie in [0, 1], got {value!r}")
    return float(value)


def check_node_index(node: int, num_nodes: int, name: str = "node") -> int:
    """Require ``0 <= node < num_nodes``; return the node as ``int``."""
    if not isinstance(node, (int, np.integer)) or isinstance(node, bool):
        raise TypeError(f"{name} must be an integer, got {type(node).__name__}")
    if node < 0 or node >= num_nodes:
        raise ValueError(f"{name} {node} is out of range for a graph with {num_nodes} nodes")
    return int(node)
