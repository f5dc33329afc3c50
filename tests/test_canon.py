import gc
import hashlib
import itertools
import random
import weakref
from functools import lru_cache

import pytest
from hypothesis import given, settings, strategies as st

from vertexmagic import canon, kernels
from vertexmagic.canon import canonical_code, refinement_cells
from vertexmagic.families import enumerate_connected
from vertexmagic.graphs import Graph, GraphError


def cycle(k):
    return Graph.from_edges(k, [(i, (i + 1) % k) for i in range(k)])


def complete_bipartite(a, b):
    return Graph.from_edges(a + b, [(i, a + j) for i in range(a) for j in range(b)])


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + spokes + inner)


def searched(g):
    """The code from the search itself, never from `canonical_code`'s memo."""
    return kernels.min_code(g, refinement_cells(g))


def test_relabel_invariance_c4():
    a = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0)])
    b = Graph.from_edges(4, [(2, 0), (0, 3), (3, 1), (1, 2)])
    assert canonical_code(a) == canonical_code(b)


def test_distinguishes_c4_p4():
    c4 = cycle(4)
    p4 = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    assert canonical_code(c4) != canonical_code(p4)


def test_distinguishes_trees_on_four_vertices():
    path = Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)])
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert canonical_code(path) != canonical_code(star)


def test_size_limit():
    with pytest.raises(GraphError):
        canonical_code(cycle(13))
    canonical_code(cycle(12))  # boundary is fine


def _random_connected(rng, n):
    edges = set()
    for i in range(1, n):
        edges.add((rng.randrange(i), i))
    for _ in range(rng.randint(0, n)):
        u, v = rng.sample(range(n), 2)
        edges.add((min(u, v), max(u, v)))
    return Graph.from_edges(n, sorted(edges))


@settings(max_examples=60, deadline=None)
@given(st.integers(min_value=0, max_value=10_000), st.integers(2, 9))
def test_permutation_invariance(seed, n):
    rng = random.Random(seed)
    g = _random_connected(rng, n)
    perm = list(range(n))
    rng.shuffle(perm)
    assert searched(g) == searched(g.relabeled(perm))


def test_codes_separate_nonisomorphic_small():
    # all 6 connected graphs on 4 vertices have distinct codes
    graphs = [
        Graph.from_edges(4, [(0, 1), (1, 2), (2, 3)]),
        Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)]),
        cycle(4),
        Graph.from_edges(4, [(0, 1), (1, 2), (2, 0), (0, 3)]),
        Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]),
        Graph.from_edges(4, [(0, 1), (0, 2), (0, 3), (1, 2), (1, 3), (2, 3)]),
    ]
    codes = {canonical_code(g) for g in graphs}
    assert len(codes) == len(graphs)


def test_refinement_cells_partition():
    g = Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (0, 3), (0, 4)])
    cells = refinement_cells(g)
    flat = sorted(v for cell in cells for v in cell)
    assert flat == list(range(5))
    # pendants and cycle vertices cannot share a cell
    cell_of = {v: i for i, cell in enumerate(cells) for v in cell}
    assert cell_of[3] == cell_of[4]
    assert cell_of[3] != cell_of[1]


# --- reference canonical form ---------------------------------------------


def _code_of(g, order):
    """The encoding of one vertex ordering: position j's adjacency bits
    against positions 0..j-1, packed MSB first after the vertex count."""
    bits = [
        int(order[i] in g.adj[order[j]])
        for j in range(g.n)
        for i in range(j)
    ]
    bits += [0] * (-len(bits) % 8)
    return bytes([g.n]) + bytes(
        int("".join(map(str, bits[k:k + 8])), 2) for k in range(0, len(bits), 8)
    )


def _brute_force_code(g):
    """Minimum encoding over every ordering that fills the cells in order."""
    cells = refinement_cells(g)
    return min(
        _code_of(g, [v for block in blocks for v in block])
        for blocks in itertools.product(
            *(itertools.permutations(cell) for cell in cells)
        )
    )


def test_matches_brute_force_on_enumerated_graphs():
    graphs = [
        g
        for rank in (1, 2)
        for diam in range(1, 6)
        for g in enumerate_connected(7, rank, diam)
    ]
    assert len(graphs) > 100
    for g in graphs:
        assert searched(g) == _brute_force_code(g)


def test_matches_brute_force_on_random_graphs():
    rng = random.Random(7)
    graphs = [Graph.from_edges(1, [])]
    graphs += [_random_connected(rng, rng.randint(2, 7)) for _ in range(80)]
    # complete and complete-split graphs: all vertices true or false twins
    for n in range(2, 8):
        graphs.append(Graph.from_edges(n, itertools.combinations(range(n), 2)))
        graphs.append(Graph.from_edges(
            n, [(0, v) for v in range(1, n)] + [(1, v) for v in range(2, n)]
        ))
    for g in graphs:
        assert searched(g) == _brute_force_code(g)


@pytest.mark.parametrize(
    "g",
    [cycle(k) for k in range(3, 9)]
    + [complete_bipartite(3, 3), complete_bipartite(4, 4)],
    ids=[f"C{k}" for k in range(3, 9)] + ["K3,3", "K4,4"],
)
def test_vertex_transitive_graphs_match_brute_force(g):
    # one cell and many equal leaves, where automorphism pruning skips the
    # most; relabeled too, so the pruned branches differ
    assert searched(g) == _brute_force_code(g)
    perm = list(range(g.n))
    random.Random(g.n).shuffle(perm)
    assert searched(g.relabeled(perm)) == searched(g)


@lru_cache(maxsize=None)
def _audit_graphs():
    """The graphs `vmagic audit` enumerates with its default bounds."""
    scopes = [(1, d, 10) for d in (1, 2, 3, 4)] + [(2, 3, 9)]
    return tuple(g for rank, d, n in scopes for g in enumerate_connected(n, rank, d))


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_relabel_invariance_over_audit_enumeration(data):
    g = data.draw(st.sampled_from(_audit_graphs()))
    perm = data.draw(st.permutations(range(g.n)))
    assert searched(g.relabeled(perm)) == searched(g)


@pytest.mark.parametrize(
    "g",
    [
        Graph.from_edges(12, [(0, v) for v in range(1, 12)]),  # star K1,11
        # triangle 0-1-2 with a bunch of 9 pendants on vertex 0
        Graph.from_edges(
            12, [(0, 1), (1, 2), (2, 0)] + [(0, v) for v in range(3, 12)]
        ),
    ],
    ids=["star-K1,11", "triangle-9-pendants"],
)
def test_twin_heavy_n12(g):
    # every cell is one twin class, so every cell-respecting ordering is an
    # automorphism image of the refinement order and has the same encoding
    cells = refinement_cells(g)
    assert canonical_code(g) == _code_of(g, [v for cell in cells for v in cell])
    rng = random.Random(g.m)
    perm = list(range(g.n))
    rng.shuffle(perm)
    assert canonical_code(g.relabeled(perm)) == canonical_code(g)


def _reference_cells(g):
    """The dict-based refinement loop the list version replaced."""
    color = {v: 0 for v in range(g.n)}
    rank = {d: i for i, d in enumerate(sorted(set(g.degrees)))}
    for v in range(g.n):
        color[v] = rank[g.degree(v)]
    while True:
        sigs = {
            v: (color[v], tuple(sorted(color[u] for u in g.adj[v])))
            for v in range(g.n)
        }
        remap = {s: i for i, s in enumerate(sorted(set(sigs.values())))}
        new_color = {v: remap[sigs[v]] for v in range(g.n)}
        if new_color == color:
            break
        color = new_color
    cells = {}
    for v in range(g.n):
        cells.setdefault(color[v], []).append(v)
    return [cells[c] for c in sorted(cells)]


def test_refinement_cells_match_the_reference_loop():
    rng = random.Random(11)
    graphs = list(_audit_graphs()) + [Graph.from_edges(1, [])]
    graphs += [_random_connected(rng, rng.randint(2, 12)) for _ in range(200)]
    for g in graphs:
        assert refinement_cells(g) == _reference_cells(g)


def test_pinned_code_digest():
    """The codes of the audit's graphs, C3-C12, Petersen and K5,5, hashed
    in that order; computed before automorphism pruning was added."""
    graphs = list(_audit_graphs()) + [cycle(k) for k in range(3, 13)]
    graphs += [petersen(), complete_bipartite(5, 5)]
    h = hashlib.sha256()
    for g in graphs:
        h.update(searched(g))
    assert len(graphs) == 580
    assert h.hexdigest() == (
        "c23571b94fa7232055dd97c61aea18d32c0e1817c64296ed3db95b9d29a949c9"
    )


def circulants(n_max):
    """Every connected circulant graph on 4..n_max vertices, by jump set."""
    for n in range(4, n_max + 1):
        for r in range(1, n // 2 + 1):
            for jumps in itertools.combinations(range(1, n // 2 + 1), r):
                edges = {
                    tuple(sorted((i, (i + s) % n))) for i in range(n) for s in jumps
                }
                try:
                    yield Graph.from_edges(n, edges)
                except GraphError:
                    continue


def test_pinned_circulant_code_digest():
    """Circulants have one cell and large automorphism groups, so the
    search stores and applies the most automorphisms on them.  Each is
    coded as built and relabeled; computed before automorphism pruning was
    added."""
    rng = random.Random(2303)
    h = hashlib.sha256()
    count = 0
    for g in circulants(12):
        perm = list(range(g.n))
        rng.shuffle(perm)
        for x in (g, g.relabeled(perm)):
            h.update(searched(x))
            count += 1
    assert count == 310
    assert h.hexdigest() == (
        "aa688a0ca492f2890ca0ee1ef5e4cbaa476eb1c18cb9c77b4689c3b8989f5c3b"
    )


# --- the code memo ----------------------------------------------------------


@pytest.mark.parametrize(
    "a, b",
    [
        (cycle(6), Graph.from_edges(6, [(i, i + 1) for i in range(5)])),
        (Graph(1, []), Graph(2, [])),
        (cycle(5), Graph.from_edges(5, list(cycle(5).edges) + [(0, 2)])),
    ],
    ids=["C6-P6", "K1-2K1", "C5-chorded"],
)
def test_memo_keys_separate_graphs(min_code_calls, a, b):
    # one edge apart, or equal masks on different vertex counts
    assert canon._memo_key(a) != canon._memo_key(b)
    canon._codes.clear()
    assert canonical_code(a) == searched(a)
    assert canonical_code(b) == searched(b)
    assert min_code_calls[0] == 4  # each code searched once by canonical_code


def test_memo_hit_returns_the_searched_code(min_code_calls):
    g = petersen()
    canon._codes.clear()
    first = canonical_code(g)
    # an equal graph built anew hits; a relabeled one is another key
    assert canonical_code(Graph.from_edges(g.n, g.edges)) == first
    assert min_code_calls[0] == 1
    perm = list(range(g.n))[::-1]
    assert canonical_code(g.relabeled(perm)) == first
    assert min_code_calls[0] == 2
    assert first == searched(g)


def test_memo_keeps_no_graph_alive():
    g = Graph.from_edges(7, [(0, v) for v in range(1, 7)] + [(1, 2)])
    ref = weakref.ref(g)
    canonical_code(g)
    del g
    gc.collect()
    assert ref() is None
    assert all(
        type(k) is int and type(v) is bytes for k, v in canon._codes.items()
    )


def test_memo_is_bounded_first_in_first_out(monkeypatch, min_code_calls):
    monkeypatch.setattr(canon, "CODE_MEMO_SIZE", 3)
    canon._codes.clear()
    graphs = [cycle(k) for k in range(3, 8)]
    for g in graphs:
        canonical_code(g)
    assert len(canon._codes) == 3
    assert list(canon._codes) == [canon._memo_key(g) for g in graphs[2:]]
    assert min_code_calls[0] == 5
    assert canonical_code(graphs[0]) == searched(graphs[0])
    assert min_code_calls[0] == 7  # evicted, so searched again


def test_min_code_raises_without_a_complete_ordering():
    # a cell listing vertex 0 twice leaves its second position unfillable;
    # the self-check is a raise, so it holds under python -O as well
    with pytest.raises(RuntimeError, match="no complete ordering"):
        kernels.min_code(Graph(2, [(0, 1)]), [[0, 0]])
