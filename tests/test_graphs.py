import dataclasses
import itertools
import random
from collections import deque

import pytest
from hypothesis import given, settings, strategies as st

from vertexmagic import graphs
from vertexmagic.graphs import (
    Graph,
    GraphError,
    classify_vertices,
    cycle_rank,
    degrees_same_parity,
    diameter,
    eccentricities,
    is_generalized_sun,
    lemma0_obstruction,
    pendant_bunches,
    read_graph_file,
    support_vertices,
    to_dot,
    twin_roots,
    two_core,
)
from vertexmagic.families import build, parse_instance


def cycle(k):
    return Graph.from_edges(k, [(i, (i + 1) % k) for i in range(k)])


def test_constructor_rejections():
    with pytest.raises(GraphError):
        Graph.from_edges(3, [(0, 0)])
    with pytest.raises(GraphError):
        Graph.from_edges(4, [(0, 1), (2, 3)])  # disconnected
    with pytest.raises(GraphError):
        Graph.from_edges(2, [(0, 5)])


def test_duplicate_edges_collapse():
    g = Graph.from_edges(3, [(0, 1), (1, 0), (1, 2), (2, 0)])
    assert g.m == 3


def test_graph_is_its_order_and_normalised_edges():
    g = Graph(3, [(1, 0), (2, 1), (1, 2)])
    h = Graph.from_edges(3, [(0, 1), (1, 2)])
    assert g.edges == ((0, 1), (1, 2))
    assert g == h and hash(g) == hash(h)
    assert g.adj == h.adj == ((1,), (0, 2), (1,))
    assert g.masks == h.masks == (0b010, 0b101, 0b010)
    init = [f.name for f in dataclasses.fields(Graph) if f.init]
    assert init == ["n", "edges"]


def test_graph_checks_its_edges_but_not_connectivity():
    with pytest.raises(GraphError, match="self-loop"):
        Graph(2, [(0, 0)])
    with pytest.raises(GraphError, match="out of range"):
        Graph(2, [(0, 2)])
    with pytest.raises(GraphError, match="at least one vertex"):
        Graph(0, [])
    assert not Graph(2, []).is_connected()


def test_diameter_examples():
    assert diameter(cycle(5)) == 2
    assert diameter(cycle(3)) == 1
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert diameter(star) == 2
    assert diameter(cycle(6)) == 3
    assert diameter(cycle(8)) == 4


def test_classify_path():
    p3 = Graph.from_edges(3, [(0, 1), (1, 2)])
    prof = classify_vertices(p3)
    assert prof.pendants == {0, 2}
    assert prof.supports == {1}
    assert prof.strong_supports == {1}
    assert prof.weak_supports == frozenset()


def test_classify_cycle_no_supports():
    prof = classify_vertices(cycle(4))
    assert prof.pendants == frozenset()
    assert prof.supports == frozenset()
    assert prof.cycle_rank == 1


def test_classify_weak_support():
    g = Graph.from_edges(4, [(0, 1), (1, 2), (2, 0), (0, 3)])
    prof = classify_vertices(g)
    assert prof.weak_supports == {0}
    assert prof.strong_supports == frozenset()


def test_two_core_and_cycle_rank():
    g, _ = build(parse_instance("G1(1,1,1)"))
    assert cycle_rank(g) == 1
    assert two_core(g) == {0, 1, 2}
    m11, _ = build(parse_instance("M11(0,0)"))
    assert cycle_rank(m11) == 2


def test_generalized_sun():
    g, _ = build(parse_instance("G1(1,1,1)"))
    assert is_generalized_sun(g)
    # a depth-2 tail breaks the sun property
    tail = Graph.from_edges(5, [(0, 1), (1, 2), (2, 0), (0, 3), (3, 4)])
    assert not is_generalized_sun(tail)
    # H7-style sun: C4 with bunches on opposite vertices
    h7, _ = build(parse_instance("H7(1,0,1)"))
    assert is_generalized_sun(h7)
    # bare cycles are excluded: the definition needs off-cycle vertices
    assert not is_generalized_sun(cycle(5))


def test_sun_implies_unicyclic():
    m11, _ = build(parse_instance("M11(0,0)"))
    assert not is_generalized_sun(m11)


def test_lemma0_obstruction():
    g, _ = build(parse_instance("M6(0,0)"))
    pair = lemma0_obstruction(g)
    assert pair is not None
    u, v = pair
    assert g.degree(u) - 1 == g.degree(v)
    assert lemma0_obstruction(cycle(5)) is None
    m7, _ = build(parse_instance("M7(0,0)"))
    assert lemma0_obstruction(m7) is not None


def test_lemma0_named_roles():
    g, roles = build(parse_instance("M6(0,0)"))
    nu = set(g.adj[roles["v1"]])
    nv = set(g.adj[roles["v3"]])
    assert len(nu & nv) == g.degree(roles["v1"]) - 1 == g.degree(roles["v3"])
    g, roles = build(parse_instance("M7(0,0)"))
    nu = set(g.adj[roles["v1"]])
    nv = set(g.adj[roles["v7"]])
    assert len(nu & nv) == g.degree(roles["v1"]) - 1 == g.degree(roles["v7"])


def test_parity():
    assert degrees_same_parity(cycle(4))
    assert not degrees_same_parity(Graph.from_edges(3, [(0, 1), (1, 2)]))
    g, _ = build(parse_instance("G1(1,1,1)"))
    assert degrees_same_parity(g)


def test_dot_deterministic():
    g, roles = build(parse_instance("G2(1,0)"))
    a = to_dot(g, roles)
    b = to_dot(g, roles)
    assert a == b
    assert "v1" in a and "--" in a


def test_classify_matches_definitions_on_random_graphs():
    rng = random.Random(99)
    for _ in range(40):
        n = rng.randint(2, 9)
        edges = set()
        for i in range(1, n):
            edges.add((rng.randrange(i), i))
        for _ in range(rng.randint(0, n)):
            u, v = rng.sample(range(n), 2)
            edges.add((min(u, v), max(u, v)))
        g = Graph.from_edges(n, sorted(edges))
        prof = classify_vertices(g)
        pendants = {v for v in range(n) if len(g.adj[v]) == 1}
        assert prof.pendants == pendants
        bunches = pendant_bunches(g)
        for v in range(n):
            assert bunches[v] == tuple(w for w in g.adj[v] if w in pendants)
            nb_pendants = sum(1 for w in g.adj[v] if w in pendants)
            assert (v in prof.supports) == (nb_pendants >= 1)
            assert (v in prof.weak_supports) == (nb_pendants == 1)
            assert (v in prof.strong_supports) == (nb_pendants >= 2)
        assert prof.cycle_rank == g.m - g.n + 1
        assert support_vertices(g) == sorted(prof.supports)


def test_support_vertices_tiny():
    assert support_vertices(Graph.from_edges(1, [])) == []
    assert support_vertices(Graph.from_edges(2, [(0, 1)])) == [0, 1]
    assert pendant_bunches(Graph.from_edges(1, [])) == ((),)
    assert pendant_bunches(Graph.from_edges(2, [(0, 1)])) == ((1,), (0,))
    assert support_vertices(cycle(5)) == []


def test_graph_file_roundtrip():
    text = "4\n0 1\n1 2\n2 3\n3 0\n"
    g = read_graph_file(text)
    assert g.n == 4 and g.m == 4
    with pytest.raises(GraphError):
        read_graph_file("not a number\n0 1\n")
    with pytest.raises(GraphError):
        read_graph_file("3\n0 1 2\n")


def test_graph_file_vertex_count_checked_before_construction(monkeypatch):
    """A connected graph has at least n - 1 edges, and n may not pass
    INPUT_MAX_N: a file breaking either is refused before any Graph (and
    its Theta(n^2) adjacency) is made."""

    def refuse(self):
        raise AssertionError(f"constructed a graph on {self.n} vertices")

    monkeypatch.setattr(Graph, "__post_init__", refuse)
    with pytest.raises(GraphError, match="graph must be connected"):
        read_graph_file("1000000\n0 1\n")
    bound = graphs.INPUT_MAX_N
    path = f"{bound + 1}\n" + "".join(f"{i} {i + 1}\n" for i in range(bound))
    with pytest.raises(GraphError, match=f"input bound {bound}"):
        read_graph_file(path)
    monkeypatch.undo()
    path = f"{bound}\n" + "".join(f"{i} {i + 1}\n" for i in range(bound - 1))
    assert read_graph_file(path).n == bound


# --- bitset BFS and twin classes against their definitions ---------------


def _queue_bfs(g, source):
    dist = [-1] * g.n
    dist[source] = 0
    todo = deque([source])
    while todo:
        u = todo.popleft()
        for w in g.adj[u]:
            if dist[w] < 0:
                dist[w] = dist[u] + 1
                todo.append(w)
    return dist


@st.composite
def _simple_graphs(draw, max_n=9):
    """Any simple graph, connected or not, as (n, edges)."""
    n = draw(st.integers(1, max_n))
    pairs = list(itertools.combinations(range(n), 2))
    keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
    return n, [e for e, k in zip(pairs, keep) if k]


def _complete(n):
    return n, list(itertools.combinations(range(n), 2))


def _complete_split(n, k):
    """A k-clique joined to every vertex of an independent set of n - k:
    the clique vertices are adjacent twins, the others non-adjacent twins."""
    return n, [(u, v) for u, v in itertools.combinations(range(n), 2) if u < k]


@settings(max_examples=200, deadline=None)
@given(_simple_graphs())
def test_eccentricities_and_connectivity_match_a_queue_bfs(graph):
    g = Graph(*graph)
    dists = [_queue_bfs(g, v) for v in range(g.n)]
    connected = min(dists[0]) >= 0
    assert g.is_connected() == connected
    if connected:
        assert eccentricities(g) == [max(d) for d in dists]
    else:
        with pytest.raises(GraphError, match="disconnected"):
            eccentricities(g)


def test_disconnected_graph_has_no_diameter():
    g = Graph(5, [(0, 1), (1, 2), (3, 4)])
    assert not g.is_connected()
    with pytest.raises(GraphError, match="disconnected"):
        eccentricities(g)
    with pytest.raises(GraphError, match="disconnected"):
        diameter(g)
    assert Graph(1, []).is_connected()
    assert eccentricities(Graph(1, [])) == [0]


def _pairwise_twin_roots(masks):
    """Least u with N(u) - {v} = N(v) - {u}, straight from the definition."""
    n = len(masks)
    return [
        next(u for u in range(n)
             if masks[u] & ~(1 << v) == masks[v] & ~(1 << u))
        for v in range(n)
    ]


@settings(max_examples=300, deadline=None)
@given(st.one_of(
    _simple_graphs(),
    st.integers(1, 9).map(_complete),
    st.integers(1, 9).flatmap(
        lambda n: st.integers(0, n).map(lambda k: _complete_split(n, k))
    ),
))
def test_twin_roots_match_the_pairwise_definition(graph):
    masks = Graph(*graph).masks
    assert twin_roots(masks) == _pairwise_twin_roots(masks)



# --- construction and the obstruction against their definitions ----------


@st.composite
def _edge_lists(draw):
    """A simple graph's edges listed with repeats, in any order, each pair
    written either way round."""
    n, edges = draw(_simple_graphs())
    repeats = draw(st.lists(st.sampled_from(edges), max_size=len(edges))) if edges else []
    listed = edges + repeats
    flips = draw(st.lists(st.booleans(), min_size=len(listed), max_size=len(listed)))
    listed = [(v, u) if flip else (u, v) for (u, v), flip in zip(listed, flips)]
    return n, draw(st.permutations(listed))


@settings(max_examples=300, deadline=None)
@given(_edge_lists())
def test_derived_fields_match_sorted_neighbour_sets(graph):
    n, listed = graph
    nbrs = [set() for _ in range(n)]
    for u, v in listed:
        nbrs[u].add(v)
        nbrs[v].add(u)
    adj = tuple(tuple(sorted(s)) for s in nbrs)
    g = Graph(n, listed)
    assert g.edges == tuple(sorted({(min(e), max(e)) for e in listed}))
    assert g.adj == adj
    assert g.masks == tuple(sum(1 << w for w in a) for a in adj)
    assert g.degrees == tuple(len(a) for a in adj)
    h = Graph(n, g.edges)
    assert g == h and hash(g) == hash(h)


def _lemma0_by_neighbour_sets(g):
    """The obstruction straight from its definition, on neighbour sets."""
    sets = [set(a) for a in g.adj]
    for u in range(g.n):
        du = len(sets[u])
        for v in range(g.n):
            if u != v and len(sets[v]) == du - 1 == len(sets[u] & sets[v]):
                return (u, v)
    return None


@settings(max_examples=400, deadline=None)
@given(st.one_of(_simple_graphs(), _simple_graphs(max_n=12)))
def test_lemma0_obstruction_matches_the_neighbour_set_definition(graph):
    g = Graph(*graph)
    assert lemma0_obstruction(g) == _lemma0_by_neighbour_sets(g)


def test_lemma0_obstruction_matches_the_definition_over_the_grid(grid):
    """Every standard-grid graph and a relabeling of each: the scan order
    follows the labels, so the relabeling finds a different pair."""
    rng = random.Random(23)
    found = 0
    for inst in grid:
        g, _ = build(inst)
        perm = list(range(g.n))
        rng.shuffle(perm)
        for h in (g, g.relabeled(perm)):
            pair = lemma0_obstruction(h)
            assert pair == _lemma0_by_neighbour_sets(h), inst.render()
            found += pair is not None
    assert len(grid) == 759 and found > 0
