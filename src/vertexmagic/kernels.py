"""Hot kernels: the canonical-form search and the magic-labeling DFS.

  min_code(n, masks, cells)            canonical-form search
  search_exists(...)                   one mu-slice of the magic-labeling DFS
  search_count(...)                    exact solution count for one mu-slice

Search-node counts are deterministic.  Labels are element indices into a
group's lexicographic element order: index 0 is the zero element, `add` is
the flat m*m addition table and `neg` the negation table.
"""

from __future__ import annotations

from .graphs import twin_roots

# the kernel implementation named in benchmark run reports
BACKEND = "python"


def _pack_bits(n: int, bits: list[int]) -> bytes:
    out = bytearray([n])
    acc = 0
    k = 0
    for b in bits:
        acc = (acc << 1) | b
        k += 1
        if k == 8:
            out.append(acc)
            acc = 0
            k = 0
    if k:
        out.append(acc << (8 - k))
    return bytes(out)


def min_code(n: int, masks: tuple[int, ...], cells: list[list[int]]) -> bytes:
    """Minimum adjacency encoding over cell-respecting vertex orderings.

    The encoding is the column-major upper triangle read position by
    position: placing the vertex at position j appends its j adjacency bits
    against positions 0..j-1, so branch-and-bound can compare prefixes as
    they grow.  `cells` is an ordered partition of the vertices computed
    from isomorphism-invariant refinement; orderings must fill cell blocks
    in the given order, which preserves canonicity while cutting the search.

    Pruning contract: `tight` is only ever True when the current prefix
    equals the incumbent's prefix (active frames are ancestors of whichever
    leaf installed the incumbent, so updates keep True flags truthful); a
    False flag merely disables pruning, and the final full comparison at
    each completed leaf keeps the result exact either way.

    Twin rule: a frame branches on one vertex per twin class of its pool
    (`twin_roots`).  Two unplaced twins have the same bits against the
    prefix, and swapping them is an automorphism that fixes the prefix and
    the cells, so their subtrees hold the same codes.  Without it a bunch of
    k pendants on one support costs k! leaves, since refinement never
    separates them.
    """
    if n == 1:
        return bytes([1])
    cell_of_pos: list[int] = []
    for ci, cell in enumerate(cells):
        cell_of_pos.extend([ci] * len(cell))
    pools = [list(cell) for cell in cells]
    placed = [0] * n
    total_bits = n * (n - 1) // 2
    best: list[int] | None = None
    cur = [0] * total_bits
    root = twin_roots(masks)

    def rec(pos: int, offset: int, tight: bool) -> None:
        nonlocal best
        if pos == n:
            if best is None or cur < best:
                best = cur.copy()
            return
        ci = cell_of_pos[pos]
        pool = pools[ci]
        reps: dict[int, int] = {}
        for v in pool:
            reps.setdefault(root[v], v)
        ranked = sorted(
            ([(masks[v] >> placed[i]) & 1 for i in range(pos)], v)
            for v in reps.values()
        )
        for bits, v in ranked:
            new_tight = tight
            if best is not None and tight:
                seg = best[offset:offset + pos]
                if bits > seg:
                    break  # candidates are bit-sorted; the rest only grow
                new_tight = bits == seg
            cur[offset:offset + pos] = bits
            placed[pos] = v
            pools[ci] = [x for x in pool if x != v]
            rec(pos + 1, offset + pos, new_tight)
            pools[ci] = pool
        return

    rec(0, 0, True)
    # an explicit raise, not an assert, so the check survives python -O
    if best is None:
        raise RuntimeError("min_code: the cells admit no complete ordering")
    return _pack_bits(n, best)


def _feasible_bunch(target: int, cnt: int, m: int) -> bool:
    # cnt nonzero elements summing to `target`: over Z2 the sum is forced to
    # cnt mod 2; for |A| >= 3 any target splits into >= 2 nonzero parts.
    if m == 2:
        return target == (cnt & 1)
    if cnt >= 2:
        return True
    return target != 0


class _Search:
    """Shared DFS state for the exists/count searches on one mu-slice."""

    __slots__ = (
        "n", "neigh", "pend", "m", "add", "neg", "mu",
        "labels", "unl", "psum", "nodes",
    )

    def __init__(self, n, neigh, pend, m, add, neg, mu):
        self.n = n
        self.neigh = neigh
        self.pend = pend
        self.m = m
        self.add = add
        self.neg = neg
        self.mu = mu
        self.labels = [-1] * n
        self.unl = [len(neigh[v]) for v in range(n)]
        self.psum = [0] * n
        self.nodes = 0

    def _check(self, v: int) -> bool:
        target = self.add[self.mu * self.m + self.neg[self.psum[v]]]
        if self.pend[v] == 0:
            return target == 0
        return _feasible_bunch(target, self.pend[v], self.m)

    def assign(self, v0: int, val0: int, trail: list[int]) -> bool:
        """Set v0 := val0 and run constraint propagation; False on dead end."""
        add, neg, m, mu = self.add, self.neg, self.m, self.mu
        labels, unl, psum, pend, neigh = (
            self.labels, self.unl, self.psum, self.pend, self.neigh,
        )
        queue = [(v0, val0)]
        while queue:
            v, val = queue.pop()
            if labels[v] >= 0:
                if labels[v] != val:
                    return False
                continue
            if val == 0:
                return False
            labels[v] = val
            trail.append(v)
            self.nodes += 1
            ok = True
            # the neighbor sweep must run to completion even on a dead end,
            # or undo() would revert updates that never happened
            for w in neigh[v]:
                psum[w] = add[psum[w] * m + val]
                unl[w] -= 1
                if not ok:
                    continue
                if unl[w] == 0:
                    if not self._check(w):
                        ok = False
                elif unl[w] == 1 and pend[w] == 0:
                    u = -1
                    for x in neigh[w]:
                        if labels[x] < 0:
                            u = x
                            break
                    if u >= 0:
                        queue.append((u, add[mu * m + neg[psum[w]]]))
            if not ok:
                return False
        return True

    def undo(self, trail: list[int]) -> None:
        add, neg, m = self.add, self.neg, self.m
        labels, unl, psum, neigh = self.labels, self.unl, self.psum, self.neigh
        for v in reversed(trail):
            val = labels[v]
            labels[v] = -1
            for w in neigh[v]:
                psum[w] = add[psum[w] * m + neg[val]]
                unl[w] += 1

    def init_forced(self, forced) -> bool:
        trail: list[int] = []
        for v, val in enumerate(forced):
            if val >= 0:
                if self.labels[v] < 0:
                    if not self.assign(v, val, trail):
                        return False
                elif self.labels[v] != val:
                    return False
        for v in range(self.n):
            if self.unl[v] == 0 and not self._check(v):
                return False
        return True

    def pick(self) -> int:
        best_v = -1
        best_unl = -1
        for v in range(self.n):
            if self.labels[v] < 0:
                u = self.unl[v]
                if best_v < 0 or u < best_unl:
                    best_v = v
                    best_unl = u
        return best_v


def _solutions(st: _Search, first: bool) -> int:
    """The number of completions of st's partial labeling, depth first in
    value order.  With `first`, stop at the first completion (return 1) and
    leave it in st.labels."""
    v = st.pick()
    if v < 0:
        return 1
    total = 0
    for val in range(1, st.m):
        trail: list[int] = []
        if st.assign(v, val, trail):
            total += _solutions(st, first)
            if first and total:
                return total
        st.undo(trail)
    return total


def search_exists(n, neigh, pend, forced, m, add, neg, mu):
    """First magic assignment of the pendant-free core for this mu, if any.

    Returns (labels | None, nodes).  Support vertices carry `pend[v]` hanging
    pendants whose labels are aggregated into a sum-feasibility constraint;
    the caller materializes them afterwards.
    """
    st = _Search(n, neigh, pend, m, add, neg, mu)
    if st.init_forced(forced) and _solutions(st, first=True):
        return list(st.labels), st.nodes
    return None, st.nodes


def search_count(n, neigh, forced, m, add, neg, mu):
    """Exact number of magic labelings with this mu (no pendant aggregation).

    Returns (count, nodes).
    """
    st = _Search(n, neigh, [0] * n, m, add, neg, mu)
    if not st.init_forced(forced):
        return 0, st.nodes
    return _solutions(st, first=False), st.nodes
