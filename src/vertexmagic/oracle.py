"""Unpruned enumeration oracle.

Deliberately independent of the pruned search: it walks the entire candidate
space (A∖{0})^V with table lookups and no propagation, so it can serve as the
ground truth the solver is validated against.

Candidates are enumerated in fixed-size blocks.  Vertex 0 is the
lowest-order digit: the k lowest-order vertices, with (|A|-1)^k at most
`_BLOCK`, are vectorized once as label arrays, and each block fixes one
tuple of labels for the other n-k vertices.  Every candidate of every block
is checked, so memory is O(n * _BLOCK) whatever the size of the space, and
`MAX_CANDIDATES` bounds the running time only.  Desk-scale only.
"""

from __future__ import annotations

from itertools import product

import numpy as np

from .abelian import GroupSpec, cayley_tables
from .graphs import Graph


class OracleBoundError(ValueError):
    """Candidate space too large for exhaustive enumeration."""


MAX_CANDIDATES = 4_000_000
# candidates checked at once; each vectorized vertex holds this many intp
# labels (0.5 MB)
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
    idx = np.arange(size, dtype=np.intp)
    labels: list = [idx // (base ** v) % base + 1 for v in range(k)] + [0] * (n - k)
    for high in product(range(1, m), repeat=n - k):
        labels[k:] = high
        weight0 = _weight(add, g.adj[0], labels)
        mask = np.ones(size, dtype=bool)
        for v in range(1, n):
            mask &= _weight(add, g.adj[v], labels) == weight0
        yield int(np.count_nonzero(mask))


def _weight(add: np.ndarray, neighbours: tuple[int, ...], labels: list):
    """Sum of the neighbours' labels, through the addition table."""
    acc = 0
    for u in neighbours:
        acc = add[acc, labels[u]]
    return acc


def naive_count(g: Graph, spec: GroupSpec) -> int:
    """Number of magic labelings, by full enumeration of (|A|-1)^n candidates."""
    return sum(_block_counts(g, spec))


def naive_exists(g: Graph, spec: GroupSpec) -> bool:
    """naive_count(g, spec) > 0, stopping after the first block with a hit."""
    return any(_block_counts(g, spec))
