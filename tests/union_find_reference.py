"""Pure-Python union-find, the reference for ``network._components`` in the tests."""

from __future__ import annotations

from typing import Iterable


def components(n: int, pairs: Iterable[tuple[int, int]]) -> tuple[int, ...]:
    """Connected components of vertices 0..n-1 joined by the pairs: the block id of
    every vertex, blocks numbered by first occurrence."""
    parent = list(range(n))

    def find(x):
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for x, y in pairs:
        rx, ry = find(x), find(y)
        if rx != ry:
            parent[rx] = ry
    ids: dict[int, int] = {}
    return tuple(ids.setdefault(find(i), len(ids)) for i in range(n))
