"""Unpruned enumeration oracle.

Deliberately independent of the pruned search: it walks the entire candidate
space (A∖{0})^V with table lookups and no propagation, so it can serve as the
ground truth the solver is validated against.

Candidates are enumerated in fixed-size blocks.  Vertex 0 is the
lowest-order digit: the k lowest-order vertices, with (|A|-1)^k at most
`_BLOCK`, are vectorized (their labels run over every tuple within a
block), and each block fixes one tuple of labels for the other n-k
vertices.  Every candidate of every block is checked, so memory is
O(n * _BLOCK) whatever the size of the space, and `MAX_CANDIDATES` bounds
the running time only.  Desk-scale only.

Each vertex's weight is the sum of its neighbours' labels, regrouped as
(low part) + (high part), which is valid because the group is abelian.  The
low part, over the neighbours among the k vectorized vertices, is the same
array in every block, so it is summed through the table once per call.  In
each block the high part is one scalar chain through the flat table, and
the weight is one gather from the table's row at that scalar.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .abelian import GroupSpec, cayley_tables
from .graphs import Graph


class OracleBoundError(ValueError):
    """Candidate space too large for exhaustive enumeration."""


MAX_CANDIDATES = 4_000_000
# candidates checked at once; each vertex's low sum holds this many intp
# entries (0.5 MB)
_BLOCK = 1 << 16


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
    add = np.array(add_flat, dtype=np.intp).reshape(m, m)
    low_sum = _low_sums(add, g.adj, base, k)
    high_of = [[u - k for u in g.adj[v] if u >= k] for v in range(n)]
    for high in product(range(1, m), repeat=n - k):
        weight0 = _weight(add, add_flat, m, high_of[0], high, low_sum[0])
        mask = np.ones(size, dtype=bool)
        for v in range(1, n):
            mask &= _weight(add, add_flat, m, high_of[v], high, low_sum[v]) == weight0
        yield int(np.count_nonzero(mask))


def _low_sums(add: np.ndarray, adj, base: int, k: int) -> list:
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
            low_sum[v] = add[low_sum[v], label]
    return low_sum


def _weight(add: np.ndarray, add_flat, m: int, high_of: list[int], high, low_sum):
    """A vertex's weight in this block: its high neighbours' labels summed
    one by one through the flat table, then added to its low sum in one
    gather."""
    acc = 0
    for i in high_of:
        acc = add_flat[acc * m + high[i]]
    return add[acc][low_sum]


def naive_count(g: Graph, spec: GroupSpec) -> int:
    """Number of magic labelings, by full enumeration of (|A|-1)^n candidates."""
    return sum(_block_counts(g, spec))


def naive_exists(g: Graph, spec: GroupSpec) -> bool:
    """naive_count(g, spec) > 0, stopping after the first block with a hit."""
    return any(_block_counts(g, spec))
