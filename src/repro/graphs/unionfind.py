"""Disjoint-set (union-find) structure with union by size and path compression.

Used by the spanning-tree constructions, the connectivity repair of the
update phase and the connectivity probe of the localized re-decomposition.
The implementation is array-based so that a union-find over a few million
elements stays cheap.
"""

from __future__ import annotations

import numpy as np


class UnionFind:
    """Disjoint-set forest over the integers ``0 .. n-1``.

    Parameters
    ----------
    n:
        Number of elements.  Every element starts in its own singleton set.
    """

    def __init__(self, n: int) -> None:
        if n < 0:
            raise ValueError(f"n must be non-negative, got {n}")
        self._parent = np.arange(n, dtype=np.int64)
        self._size = np.ones(n, dtype=np.int64)
        self._num_sets = n

    def __len__(self) -> int:
        return int(self._parent.shape[0])

    @property
    def num_sets(self) -> int:
        """Number of disjoint sets currently tracked."""
        return self._num_sets

    def find(self, x: int) -> int:
        """Return the representative of ``x``'s set (with path compression)."""
        parent = self._parent
        root = x
        while parent[root] != root:
            root = parent[root]
        # Path compression pass.
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return int(root)

    def union(self, a: int, b: int) -> bool:
        """Merge the sets of ``a`` and ``b``; return ``True`` if they were distinct."""
        root_a = self.find(a)
        root_b = self.find(b)
        if root_a == root_b:
            return False
        # Union by size: hang the smaller tree below the larger.
        if self._size[root_a] < self._size[root_b]:
            root_a, root_b = root_b, root_a
        self._parent[root_b] = root_a
        self._size[root_a] += self._size[root_b]
        self._num_sets -= 1
        return True

    def connected(self, a: int, b: int) -> bool:
        """Return ``True`` when ``a`` and ``b`` are in the same set."""
        return self.find(a) == self.find(b)
