"""Canonical forms for small graphs.

Identical codes exactly when graphs are isomorphic.  The code is the minimum
column-major upper-triangle adjacency encoding over all vertex orderings
compatible with an isomorphism-invariant ordered partition (iterated degree
refinement), found by branch-and-bound in `kernels.min_code`.  Intended for
n <= 12: correctness over asymptotics at desk scale.

Refinement keeps one color per vertex in a list and stops at the first
round that splits no class, or once every cell is a singleton.  The search
compares integer column words, places the vertices of a cell with one twin
class left without branching, branches once per twin class elsewhere, and
skips a candidate that an automorphism found on the way maps onto an
explored one.

Each labeled graph is searched once: `canonical_code` keeps the codes it
has returned in a memo keyed by one int that packs n and the adjacency
masks (`_memo_key`), so a graph the audit's enumeration or atlas index has
coded is not searched again when it is recognized or classified.  The key
holds no reference to the graph.  Refinement and the search read only n and
the edges, so a hit returns exactly what the search would.  The memo keeps
the latest `CODE_MEMO_SIZE` codes, evicting the oldest first.
"""

from __future__ import annotations

from . import kernels
from .graphs import Graph, GraphError

CANON_MAX_N = 12
# the cold default audit stores 1,918 codes, and the atlas indexes for
# n = 11 and 12 another 504 and 771; this bound keeps all of them
CODE_MEMO_SIZE = 4096

_codes: dict[int, bytes] = {}


def refinement_cells(g: Graph) -> list[list[int]]:
    """Stable ordered partition under neighbor-color refinement.

    Initial colors sort vertices by degree; refinement splits classes by the
    multiset of neighbor colors.  New color ids are assigned in sorted
    signature order, so the resulting cell order depends only on the graph's
    isomorphism class.
    """
    rank = {d: i for i, d in enumerate(sorted(set(g.degrees)))}
    color = [rank[d] for d in g.degrees]
    count = len(rank)
    # refinement only splits classes, and a round that splits none renumbers
    # none (ids are sorted with the old color first), so a round that adds
    # no class, or a partition into singletons, is stable
    while count < g.n:
        sigs = [
            (color[v], tuple(sorted([color[u] for u in nb])))
            for v, nb in enumerate(g.adj)
        ]
        distinct = sorted(set(sigs))
        if len(distinct) == count:
            break
        remap = {s: i for i, s in enumerate(distinct)}
        color = [remap[s] for s in sigs]
        count = len(distinct)
    cells: list[list[int]] = [[] for _ in range(count)]
    for v, c in enumerate(color):
        cells[c].append(v)
    return cells


def _memo_key(g: Graph) -> int:
    """n * 2^(n*n) + sum of masks[v] * 2^(n*(n-1-v)): each mask has n bits,
    so the key determines n and every adjacency mask, hence the edges."""
    n = g.n
    key = n
    for m in g.masks:
        key = key << n | m
    return key


def canonical_code(g: Graph) -> bytes:
    """Isomorphism-invariant byte code for graphs with n <= 12."""
    if g.n > CANON_MAX_N:
        raise GraphError(f"canonical_code supports n <= {CANON_MAX_N}, got {g.n}")
    key = _memo_key(g)
    code = _codes.get(key)
    if code is None:
        code = kernels.min_code(g, refinement_cells(g))
        if len(_codes) >= CODE_MEMO_SIZE:
            del _codes[next(iter(_codes))]
        _codes[key] = code
    return code
