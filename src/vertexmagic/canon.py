"""Canonical forms for small graphs.

Identical codes exactly when graphs are isomorphic.  The code is the minimum
column-major upper-triangle adjacency encoding over all vertex orderings
compatible with an isomorphism-invariant ordered partition (iterated degree
refinement), found by branch-and-bound in `kernels.min_code`.  Intended for
n <= 12: correctness over asymptotics at desk scale.
"""

from __future__ import annotations

from . import kernels
from .graphs import Graph, GraphError

CANON_MAX_N = 12


def refinement_cells(g: Graph) -> list[list[int]]:
    """Stable ordered partition under neighbor-color refinement.

    Initial colors sort vertices by degree; refinement splits classes by the
    multiset of neighbor colors.  New color ids are assigned in sorted
    signature order, so the resulting cell order depends only on the graph's
    isomorphism class.
    """
    color = {v: 0 for v in range(g.n)}
    degs = sorted(set(g.degrees))
    rank = {d: i for i, d in enumerate(degs)}
    for v in range(g.n):
        color[v] = rank[g.degree(v)]
    while True:
        sigs = {
            v: (color[v], tuple(sorted(color[u] for u in g.adj[v])))
            for v in range(g.n)
        }
        distinct = sorted(set(sigs.values()))
        remap = {s: i for i, s in enumerate(distinct)}
        new_color = {v: remap[sigs[v]] for v in range(g.n)}
        if new_color == color:
            break
        color = new_color
    cells: dict[int, list[int]] = {}
    for v in range(g.n):
        cells.setdefault(color[v], []).append(v)
    return [cells[c] for c in sorted(cells)]


def canonical_code(g: Graph) -> bytes:
    """Isomorphism-invariant byte code for graphs with n <= 12."""
    if g.n > CANON_MAX_N:
        raise GraphError(f"canonical_code supports n <= {CANON_MAX_N}, got {g.n}")
    return kernels.min_code(g.n, g.masks, refinement_cells(g))
