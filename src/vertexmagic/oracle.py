"""Unpruned enumeration oracle.

Deliberately independent of the pruned search: it walks the entire candidate
space (A∖{0})^V with table lookups and no propagation, so it can serve as the
ground truth the solver is validated against.

Candidates are enumerated in fixed-size blocks.  Vertex 0 is the
lowest-order digit: the k lowest-order vertices, with (|A|-1)^k at most
`_BLOCK` (8,192), are vectorized (their labels run over every tuple within a
block), and each block fixes one tuple of labels for the other n-k
vertices.  Every candidate of every block is checked, its weights in vertex
order until the first one unequal to vertex 0's: after each vertex only the
candidates still equal stay live, and the next weight is gathered for them
alone.  Memory is O(n * _BLOCK) whatever the size of the space, and
`MAX_CANDIDATES` bounds the running time only.  Desk-scale only.

Each vertex's weight is the sum of its neighbours' labels, regrouped as
(low part) + (high part), which is valid because the group is abelian.  The
low part, over the neighbours among the k vectorized vertices, is the same
array in every block, so it is summed through the flat table once per call.
In each block the high part is one scalar chain through the flat table, and
the weight is one gather, on the live candidates, from the table's row at
that scalar; a vertex with no vectorized neighbour has a scalar weight.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .abelian import GroupSpec, cayley_tables
from .graphs import Graph


class OracleBoundError(ValueError):
    """Candidate space too large for exhaustive enumeration."""


MAX_CANDIDATES = 4_000_000
# candidates per block; each vertex's low sum holds this many intp entries
# (64 KiB)
_BLOCK = 1 << 13
# the live candidates of a block before any of them has failed
_ALL = slice(None)


def _block_counts(g: Graph, spec: GroupSpec):
    """Yield the number of magic labelings in each block of candidates."""
    m, add_flat, _ = cayley_tables(spec)
    n = g.n
    base = m - 1
    total = base ** n
    if total > MAX_CANDIDATES:
        raise OracleBoundError(
            f"(|A|-1)^n = {total} exceeds the enumeration bound {MAX_CANDIDATES}"
        )
    k = 0
    while k < n and base ** (k + 1) <= _BLOCK:
        k += 1
    size = base ** k
    # intp index arrays: fancy indexing converts any other dtype on every lookup
    add = np.array(add_flat, dtype=np.intp)
    low_sum = _low_sums(add, m, g.adj, base, k)
    high_of = [[u - k for u in g.adj[v] if u >= k] for v in range(n)]
    for high in product(range(1, m), repeat=n - k):
        target = _weight(add, add_flat, m, high_of[0], high, low_sum[0], _ALL)
        live = _ALL
        for v in range(1, n):
            same = _weight(add, add_flat, m, high_of[v], high, low_sum[v], live) == target
            if same is True:  # two equal scalars; unequal ones keep nothing below
                continue
            keep = np.flatnonzero(same)
            live = keep if live is _ALL else live[keep]
            if not live.size:
                break
            if not isinstance(target, int):
                target = target[keep]
        yield size if live is _ALL else live.size


def _low_sums(add: np.ndarray, m: int, adj, base: int, k: int) -> list:
    """For each vertex, the sum of its neighbours' labels among the k
    vectorized vertices, over every candidate of a block (0 if it has no such
    neighbour).  Each vertex's labels are built in place as they are added
    and then dropped, so only the n sums outlive the call."""
    idx = np.arange(base ** k, dtype=np.intp)
    low_sum: list = [0] * len(adj)
    for u in range(k):
        label = idx // base ** u
        label %= base
        label += 1
        for v in adj[u]:
            low_sum[v] = add[low_sum[v] * m + label]
    return low_sum


def _weight(add: np.ndarray, add_flat, m: int, high_of: list[int], high, low, live):
    """A vertex's weight on the live candidates of this block: its high
    neighbours' labels summed one by one through the flat table, then added
    to its low sum in one gather from the table's row at that scalar.  A
    vertex with no vectorized neighbour has the same weight on every
    candidate, so it stays a scalar."""
    acc = 0
    for i in high_of:
        acc = add_flat[acc * m + high[i]]
    if isinstance(low, int):
        return acc
    return add[acc * m:(acc + 1) * m][low[live]]


def naive_count(g: Graph, spec: GroupSpec) -> int:
    """Number of magic labelings, by full enumeration of (|A|-1)^n candidates."""
    return sum(_block_counts(g, spec))


def naive_exists(g: Graph, spec: GroupSpec) -> bool:
    """naive_count(g, spec) > 0, stopping after the first block with a hit."""
    return any(_block_counts(g, spec))
