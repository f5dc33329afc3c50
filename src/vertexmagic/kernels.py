"""Hot kernels: the canonical-form search and the magic-labeling DFS.

  min_code(g, cells)                   canonical-form search
  search_exists(...)                   one mu-slice of the magic-labeling DFS
  search_count(...)                    exact solution count for one mu-slice

The canonical-form search keeps the code as one integer word per position
(that position's adjacency bits against the earlier ones), splits each cell
into twin classes once, places a cell's last twin class in a loop, and
recurses and sorts only where a cell has two or more classes left.  Leaves
that tie the incumbent give automorphisms, which cut the search where they
fix the placed vertices.

Both labeling searches run one DFS over a pendant-free core.  Each
support's pendant bunch enters it only through `_bunch_ways`: the search
needs a nonzero number of ways to reach mu, and a completed core labeling
counts as the product of those numbers.  Search-node counts are deterministic.  Labels
are element indices into a group's lexicographic element order: index 0 is
the zero element, `add` is the flat m*m addition table and `neg` the
negation table.
"""

from __future__ import annotations

from .graphs import Graph, twin_roots

# the kernel implementation named in benchmark run reports
BACKEND = "python"


def min_code(g: Graph, cells: list[list[int]]) -> bytes:
    """Minimum adjacency encoding of g over cell-respecting vertex orderings.

    The encoding is the column-major upper triangle read position by
    position: placing the vertex at position j appends its j adjacency bits
    against positions 0..j-1, so branch-and-bound can compare prefixes as
    they grow.  `cells` is an ordered partition of the vertices computed
    from isomorphism-invariant refinement; orderings must fill cell blocks
    in the given order, which preserves canonicity while cutting the search.

    Column words: position j's bits are one int of j bits, position 0 the
    most significant.  Every word at position j has the same width, so
    comparing lists of words compares the flat bit strings, and the final
    words pack straight into the code's bytes.

    Pruning contract: `tight` is only ever True when the current prefix
    equals the incumbent's prefix.  A leaf that installs an incumbent lies
    below every active frame, so afterwards each of them is tight: a frame
    sets its flag again once a child returns with a new incumbent.  A False
    flag merely disables pruning, and the final full comparison at each
    completed leaf keeps the result exact either way.

    Twin rule: a frame branches on one vertex per twin class of its pool
    (`twin_roots`).  Two unplaced twins have the same bits against the
    prefix, and swapping them is an automorphism that fixes the prefix and
    the cells, so their subtrees hold the same codes.  Without it a bunch of
    k pendants on one support costs k! leaves, since refinement never
    separates them.

    Automorphism rule (McKay & Piperno, "Practical graph isomorphism, II",
    J. Symbolic Comput. 60, 2014): `at[p]` is the vertex at position p.  A
    leaf whose code equals the incumbent's maps the vertex at each position
    to the incumbent's vertex there; that map preserves adjacency, so it is
    an automorphism, and it is stored.  Refinement is isomorphism-invariant,
    so every automorphism maps each cell onto itself, and one that fixes
    every placed vertex maps the orderings below one candidate onto those
    below its image, code for code.  Two uses follow, and both drop only
    subtrees whose minimum equals one already searched, so the code is the
    one the unpruned search returns:
      - the new automorphism fixes the positions before the first one where
        the leaf leaves the incumbent's path, and maps the leaf's candidate
        there onto the incumbent's, searched earlier; so the frames below
        that position return at once (`rec` returns the position);
      - a branching frame skips a candidate whose twin class shares an
        orbit with an explored candidate's, under the stored automorphisms
        that fix every placed vertex.  Orbits join twin classes, not
        vertices, because the twin rule exchanges the unplaced members of a
        class, and they are merged again before each candidate, from the
        automorphisms stored so far.

    Forced runs: each cell is split into its twin classes once, and a class
    hands out its members in cell order.  A position whose cell has a single
    class left has a single candidate, so it is placed in a loop; the search
    recurses and sorts candidates only where two or more classes are left.
    """
    n = g.n
    # a complete ordering exists exactly when the cells partition the
    # vertices; an explicit raise, not an assert, so it survives python -O
    flat = [v for cell in cells for v in cell]
    if sorted(flat) != list(range(n)):
        raise RuntimeError("min_code: the cells admit no complete ordering")
    root = twin_roots(g.masks)
    nbrs = g.adj
    cell_of_pos: list[int] = []
    # per cell, its twin classes as stacks whose next member is last
    stacks: list[list[list[int]]] = []
    for ci, cell in enumerate(cells):
        cell_of_pos.extend([ci] * len(cell))
        by_root: dict[int, list[int]] = {}
        for v in cell:
            by_root.setdefault(root[v], []).append(v)
        stacks.append([members[::-1] for members in by_root.values()])
    live = [len(classes) for classes in stacks]
    pos_of = [n] * n  # n marks an unplaced vertex
    cur = [0] * n
    at = [0] * n
    best: list[int] | None = None
    best_at: list[int] = []
    # stored automorphisms as (image list, bit set of their fixed points)
    auts: list[tuple[list[int], int]] = []

    def word(v: int, pos: int) -> int:
        """v's adjacency bits against positions 0..pos-1, position 0 first."""
        w = 0
        for u in nbrs[v]:
            p = pos_of[u]
            if p < pos:
                w |= 1 << (pos - 1 - p)
        return w

    def rec(pos: int, tight: bool) -> int:
        """Search below the prefix at[:pos]; returns n, or the position
        where a leaf equal to the incumbent left the incumbent's path."""
        nonlocal best, best_at
        back = n
        run: list[tuple[int, list[int], int]] = []
        while pos < n and live[cell_of_pos[pos]] == 1:
            ci = cell_of_pos[pos]
            for stack in stacks[ci]:
                if stack:
                    break
            v = stack[-1]
            w = word(v, pos)
            if best is not None and tight:
                b = best[pos]
                if w > b:
                    break  # the position's only candidate: the subtree is worse
                tight = w == b
            stack.pop()
            if not stack:
                live[ci] = 0
            run.append((ci, stack, v))
            cur[pos] = w
            at[pos] = v
            pos_of[v] = pos
            pos += 1
        else:
            if pos == n:
                if best is None or cur < best:
                    best = cur.copy()
                    best_at = at.copy()
                elif cur == best:
                    image = [0] * n
                    fixed = 0
                    for p, v in enumerate(at):
                        image[v] = best_at[p]
                        if v == best_at[p]:
                            fixed |= 1 << v
                    auts.append((image, fixed))
                    back = 0
                    while at[back] == best_at[back]:
                        back += 1
            else:
                ci = cell_of_pos[pos]
                ranked = sorted(
                    (word(stack[-1], pos), stack[-1], k)
                    for k, stack in enumerate(stacks[ci]) if stack
                )
                # an orbit label per twin root, merged over the first
                # `merged` automorphisms that fix every placed vertex
                orbit: list[int] = []
                merged = 0
                explored: list[int] = []
                incumbent = best
                for w, v, k in ranked:
                    new_tight = tight
                    if best is not None and tight:
                        b = best[pos]
                        if w > b:
                            break  # candidates are word-sorted; the rest only grow
                        new_tight = w == b
                    if explored and auts:
                        if not orbit:
                            orbit = list(range(n))
                            placed = 0
                            for p in range(pos):
                                placed |= 1 << at[p]
                        for image, fixed in auts[merged:]:
                            if fixed & placed != placed:
                                continue
                            for x, y in enumerate(image):
                                keep, gone = orbit[root[x]], orbit[root[y]]
                                if keep != gone:
                                    orbit = [keep if o == gone else o for o in orbit]
                        merged = len(auts)
                        label = orbit[root[v]]
                        if any(orbit[r] == label for r in explored):
                            continue
                    explored.append(root[v])
                    stack = stacks[ci][k]
                    stack.pop()
                    if not stack:
                        live[ci] -= 1
                    cur[pos] = w
                    at[pos] = v
                    pos_of[v] = pos
                    back = rec(pos + 1, new_tight)
                    pos_of[v] = n
                    stack.append(v)
                    if len(stack) == 1:
                        live[ci] += 1
                    if back < pos:
                        break  # this frame lies inside a mapped subtree too
                    back = n
                    if best is not incumbent:
                        # a leaf below installed it, so it extends this prefix
                        tight = True
                        incumbent = best
        for ci, stack, v in reversed(run):
            pos_of[v] = n
            stack.append(v)
            live[ci] = 1
        return back

    rec(0, True)
    bits = n * (n - 1) // 2
    acc = 0
    for j in range(1, n):
        acc = (acc << j) | best[j]
    size = (bits + 7) // 8
    return bytes([n]) + (acc << (8 * size - bits)).to_bytes(size, "big")


def _bunch_ways(target: int, cnt: int, m: int) -> int:
    """Ways to pick cnt nonzero elements summing to `target`, by the
    decomposition lemma: ((m-1)^cnt - (-1)^cnt)/m, plus (-1)^cnt when the
    target is 0.  The same for every group of order m."""
    sign = -1 if cnt & 1 else 1
    return ((m - 1) ** cnt - sign) // m + (sign if target == 0 else 0)


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
        return _bunch_ways(target, self.pend[v], self.m) > 0

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
    """The number of completions of st's partial labeling, pendant bunches
    included, depth first in value order.  With `first`, stop at the first
    completed core labeling and leave it in st.labels."""
    v = st.pick()
    if v < 0:
        ways = 1
        for u, cnt in enumerate(st.pend):
            if cnt:
                target = st.add[st.mu * st.m + st.neg[st.psum[u]]]
                ways *= _bunch_ways(target, cnt, st.m)
        return ways
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


def search_count(n, neigh, pend, forced, m, add, neg, mu):
    """Exact number of magic labelings with this mu, pendants included.

    Returns (count, nodes).
    """
    st = _Search(n, neigh, pend, m, add, neg, mu)
    if not st.init_forced(forced):
        return 0, st.nodes
    return _solutions(st, first=False), st.nodes
