import ast
import contextlib
import hashlib
import pathlib
import random
import tracemalloc
from itertools import product

import pytest
from hypothesis import assume, example, given, settings, strategies as st

from vertexmagic import kernels, labeling, oracle
from vertexmagic.abelian import (
    GroupError,
    cayley_tables,
    decompose_sum,
    enumerate_abelian_groups,
    parse_element,
    parse_group,
)
from vertexmagic.families import build, enumerate_connected, parse_instance, recognize
from vertexmagic.graphs import Graph
from vertexmagic.labeling import parse_labeling, verify_magic
from vertexmagic.oracle import OracleBoundError, naive_count, naive_exists
from vertexmagic import solver
from vertexmagic.solver import (
    EXISTS_MAX_ORDER,
    SolverBoundError,
    WitnessError,
    count_magic,
    exists_magic,
    is_group_vertex_magic_empirical,
    lattice_facts,
    torsion_facts,
    z2_magic,
)
from vertexmagic.workbench import standard_catalog, standard_grid

Z2 = parse_group("Z2")
Z3 = parse_group("Z3")
Z4 = parse_group("Z4")


def cycle(k):
    return Graph.from_edges(k, [(i, (i + 1) % k) for i in range(k)])


def test_g2_paper_examples():
    g, _ = build(parse_instance("G2(1,0)"))
    assert exists_magic(g, Z4).is_witness
    assert not exists_magic(g, Z3).is_witness


def test_m3_exhausted_everywhere(catalog8):
    for params in ("0,1,0", "1,0,0", "1,1,1", "2,0,1"):
        g, _ = build(parse_instance(f"M3({params})"))
        for spec in catalog8:
            assert not exists_magic(g, spec).is_witness


def test_count_examples():
    assert count_magic(cycle(3), Z2) == 1
    assert count_magic(cycle(4), Z2) == 1
    # frozen from the unpruned enumeration oracle
    assert naive_count(cycle(4), Z3) == 6
    assert count_magic(cycle(4), Z3) == 6


def test_witnesses_verify():
    for text in ("M11(0,0)", "G1(1,1,1)", "H2(0,1,1;hub=[2])", "M5(1,1)"):
        g, _ = build(parse_instance(text))
        for spec in (Z2, Z4, parse_group("Z6")):
            out = exists_magic(g, spec)
            if out.is_witness:
                cert = verify_magic(g, out.labeling)
                assert cert is not None
                assert cert.constant == out.certificate.constant


@pytest.mark.parametrize("name", ["Z33", "Z2+Z32"])
def test_group_order_beyond_32(name):
    # the search has no group-order limit; C4 is 2-regular, hence magic over
    # every group, so a witness must come back
    spec = parse_group(name)
    out = exists_magic(cycle(4), spec)
    assert out.is_witness
    assert out.labeling.group == spec
    cert = verify_magic(cycle(4), out.labeling)
    assert cert is not None
    assert cert.constant == out.certificate.constant


def test_z2_shortcut_matches_search():
    for text in ("G1(1,1,1)", "G2(1,0)", "C6", "M10(0,0)", "M11(0,0)",
                 "H1(0,0;hub=[1])"):
        g, _ = build(parse_instance(text))
        assert z2_magic(g) == exists_magic(g, Z2).is_witness


def test_z2_examples():
    g, _ = build(parse_instance("G1(1,1,1)"))
    assert z2_magic(g)
    h1, _ = build(parse_instance("H1(0,0;hub=[2])"))
    assert not z2_magic(h1)
    assert z2_magic(cycle(6))


# (n, group, witness, mu, nodes) of K1 and K2, frozen values; for n <= 2 the
# solver's core is every vertex, so nothing is aggregated
_TINY = [
    (1, "Z2", "v0=1", "0", 1),
    (1, "Z3", "v0=1", "0", 1),
    (1, "Z4", "v0=1", "0", 1),
    (1, "Z2+Z2", "v0=(0,1)", "(0,0)", 1),
    # the two ends of K2 support each other, so both are forced to mu
    (2, "Z2", "v0=1,v1=1", "1", 2),
    (2, "Z3", "v0=1,v1=1", "1", 2),
    (2, "Z4", "v0=1,v1=1", "1", 2),
    (2, "Z2+Z2", "v0=(0,1),v1=(0,1)", "(0,1)", 2),
]


def test_tiny_graphs():
    for n, group, render, mu, nodes in _TINY:
        g = Graph.from_edges(n, [(0, 1)] if n == 2 else [])
        out = exists_magic(g, parse_group(group))
        assert out.is_witness
        assert out.labeling.render() == render, (n, group)
        assert str(out.certificate.constant) == mu, (n, group)
        assert out.nodes == nodes, (n, group)
    k2 = Graph.from_edges(2, [(0, 1)])
    assert count_magic(k2, Z3) == 2  # both labels must equal mu


def test_size_bounds():
    big = Graph.from_edges(14, [(i, i + 1) for i in range(13)])
    with pytest.raises(SolverBoundError):
        exists_magic(big, Z3)
    with pytest.raises(SolverBoundError):
        count_magic(cycle(11), Z3)
    with pytest.raises(SolverBoundError):
        count_magic(cycle(4), parse_group("Z6"))
    with pytest.raises(OracleBoundError):
        naive_count(Graph.from_edges(13, [(i, i + 1) for i in range(12)]),
                    parse_group("Z8"))


@pytest.mark.parametrize(
    "g",
    [
        Graph.from_edges(2, [(0, 1)]),  # tiny: nothing aggregated
        build(parse_instance("G2(1,0)"))[0],  # pendant bunches aggregated
    ],
    ids=["K2", "G2(1,0)"],
)
def test_unverified_witness_raises(monkeypatch, g):
    assert exists_magic(g, Z4).is_witness
    monkeypatch.setattr(solver, "verify_magic", lambda g, lab: None)
    with pytest.raises(WitnessError, match="failed verification"):
        exists_magic(g, Z4)


def test_pruned_agrees_with_naive_small():
    """Differential spot check: full agreement is acceptance criterion 1."""
    groups = list(enumerate_abelian_groups(5))
    graphs = enumerate_connected(7, 1, 3) + enumerate_connected(7, 2, 3)
    for g in graphs:
        for spec in groups:
            assert exists_magic(g, spec).is_witness == naive_exists(g, spec)
            assert count_magic(g, spec) == naive_count(g, spec)


_SMALL_GROUPS = list(enumerate_abelian_groups(5))


@pytest.fixture(scope="module")
def default_block_counts():
    """naive_count at the default block size, on the rank-1 n <= 7 graphs."""
    graphs = enumerate_connected(7, 1, 3)
    return [(g, spec, naive_count(g, spec)) for g in graphs for spec in _SMALL_GROUPS]


@pytest.mark.parametrize("block", [1, 4, 16])
def test_naive_blocks_agree(monkeypatch, default_block_counts, block):
    """Graphs spanning many blocks count as in one block, and as the solver.

    At block 1 every candidate is its own block (about 7 us each), so that
    size runs on the n <= 6 graphs only.
    """
    monkeypatch.setattr(oracle, "_BLOCK", block)
    for g, spec, count in default_block_counts:
        if block == 1 and g.n > 6:
            continue
        assert naive_count(g, spec) == count == count_magic(g, spec), (g.edges, spec)
        assert naive_exists(g, spec) == (count > 0), (g.edges, spec)


def petersen():
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return Graph.from_edges(10, outer + spokes + inner)


@pytest.mark.parametrize("block", [1, 4, 16, oracle._BLOCK])
def test_naive_tiny_and_trivial_spaces(monkeypatch, block):
    monkeypatch.setattr(oracle, "_BLOCK", block)
    k1 = Graph.from_edges(1, [])
    k2 = Graph.from_edges(2, [(0, 1)])
    for spec in _SMALL_GROUPS:
        # K1: every label is magic; K2: magic iff both labels are equal
        assert naive_count(k1, spec) == spec.order - 1
        assert naive_count(k2, spec) == spec.order - 1
        assert naive_exists(k1, spec) and naive_exists(k2, spec)
    # over Z2 the one candidate is all ones: magic iff the degrees agree mod 2
    for g in (cycle(5), petersen(), Graph.from_edges(3, [(0, 1), (1, 2)])):
        expected = int(len({d % 2 for d in g.degrees}) == 1)
        assert naive_count(g, Z2) == expected
        assert naive_exists(g, Z2) == bool(expected)
        assert len(list(oracle._block_counts(g, Z2))) == 1


def test_naive_space_exactly_one_block(monkeypatch):
    """(|A|-1)^n == block is one block; one candidate less splits it."""
    z5 = parse_group("Z5")
    g = cycle(8)  # 4^8 candidates
    expected = count_magic(g, z5)
    for block, blocks in [(4 ** 8, 1), (4 ** 8 - 1, 4), (4 ** 7, 4), (16, 4 ** 6)]:
        monkeypatch.setattr(oracle, "_BLOCK", block)
        assert len(list(oracle._block_counts(g, z5))) == blocks, block
        assert naive_count(g, z5) == expected, block
        assert naive_exists(g, z5) == (expected > 0)
    monkeypatch.setattr(oracle, "_BLOCK", 16)
    assert len(list(oracle._block_counts(cycle(4), Z3))) == 1  # 2^4 == 16


@pytest.mark.parametrize("spec", [Z3, Z4], ids=str)
def test_naive_count_at_every_split(monkeypatch, spec):
    """Every number k of vectorized vertices, 0..n, counts the same: edges
    cross the low/high boundary at each k, so every weight is part low sum,
    part high chain."""
    chorded_c7 = Graph.from_edges(7, [*cycle(7).edges, (0, 3), (2, 5)])
    base = spec.order - 1
    for g in (chorded_c7, petersen()):
        expected = count_magic(g, spec)
        for k in range(g.n + 1):
            monkeypatch.setattr(oracle, "_BLOCK", base ** k)
            assert naive_count(g, spec) == expected, (g.edges, k)


def test_naive_count_memory_is_bounded():
    """Memory follows a block's live candidates, not the 4^10 candidates of
    Petersen over Z5 (the unblocked enumeration traced a 184 MiB peak here)."""
    g = petersen()
    for spec, expected in [(parse_group("Z5"), 4), (Z4, 33), (parse_group("Z2+Z2"), 93)]:
        cayley_tables(spec)  # cached tables are not the enumeration's
        tracing = tracemalloc.is_tracing()
        if not tracing:
            tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            before = tracemalloc.get_traced_memory()[0]
            assert naive_count(g, spec) == expected
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            if not tracing:
                tracemalloc.stop()
        assert peak <= 2 ** 20, (spec, peak)


def test_empirical_catalog_verdicts(catalog8):
    m11, _ = build(parse_instance("M11(0,0)"))
    assert is_group_vertex_magic_empirical(m11, catalog8).survives
    m10, _ = build(parse_instance("M10(0,0)"))
    verdict = is_group_vertex_magic_empirical(m10, catalog8)
    assert verdict.refuted_by == Z3
    g1, _ = build(parse_instance("G1(2)"))
    assert not is_group_vertex_magic_empirical(g1, catalog8).survives


def test_mu_zero_witness_allowed():
    m11, _ = build(parse_instance("M11(0,0)"))
    out = exists_magic(m11, parse_group("Z5"))
    assert out.is_witness
    assert out.certificate.constant.is_zero()


def _plant_obstruction(rng):
    """Random connected graph carrying a shared-neighborhood pair."""
    base_n = rng.randint(3, 5)
    edges = set()
    for i in range(1, base_n):
        edges.add((rng.randrange(i), i))
    for _ in range(rng.randint(0, base_n)):
        a, b = rng.sample(range(base_n), 2)
        edges.add((min(a, b), max(a, b)))
    d = rng.randint(1, base_n - 1)
    shared = rng.sample(range(base_n), d)
    w = rng.choice([x for x in range(base_n) if x not in shared])
    v, u = base_n, base_n + 1
    for s in shared:
        edges.add((s, v))
        edges.add((s, u))
    edges.add((w, u))
    return Graph.from_edges(base_n + 2, sorted(edges))


def test_planted_obstructions_are_refuted():
    from vertexmagic.graphs import lemma0_obstruction

    rng = random.Random(2024)
    groups = list(enumerate_abelian_groups(5))
    found = 0
    while found < 8:
        g = _plant_obstruction(rng)
        if lemma0_obstruction(g) is None:
            continue
        found += 1
        for spec in groups:
            assert not exists_magic(g, spec).is_witness


def test_deterministic_witness():
    g, _ = build(parse_instance("M11(0,0)"))
    a = exists_magic(g, Z4)
    b = exists_magic(g, Z4)
    assert a.labeling == b.labeling
    assert a.nodes == b.nodes


def _reference_exists(g, spec):
    """The search without orbit pruning and without the lattice presolve:
    every mu in index order.

    Returns (labels or None, mu index or None, nodes).  The core split is
    computed here from the degrees alone: the core is every vertex whose
    degree is not 1 (every vertex when n <= 2), each support carries its
    count of hanging pendants, and pendant bunches are materialized with the
    lex-least decomposition in ascending pendant order.
    """
    m, add, neg = cayley_tables(spec)
    leaves = [p for p in range(g.n) if g.degree(p) == 1]
    supports = sorted({g.adj[p][0] for p in leaves})
    core = list(range(g.n)) if g.n <= 2 else [v for v in range(g.n) if g.degree(v) != 1]
    core_index = {v: i for i, v in enumerate(core)}
    pend_count = [0] * len(core)
    for p in leaves:
        if p not in core_index:
            pend_count[core_index[g.adj[p][0]]] += 1
    neigh = tuple(
        tuple(core_index[w] for w in g.adj[v] if w in core_index) for v in core
    )
    nodes = 0
    for mu in range(m):
        if supports and mu == 0:
            continue
        forced = [mu if v in supports else -1 for v in core]
        labels, nd = kernels.search_exists(
            len(core), neigh, pend_count, forced, m, add, neg, mu
        )
        nodes += nd
        if labels is None:
            continue
        values = [None] * g.n
        for v, x in zip(core, labels):
            values[v] = spec.element_at(x)
        for v in supports:
            pendants = sorted(w for w in g.adj[v] if w not in core_index)
            if not pendants:
                continue
            partial = spec.zero()
            for w in g.adj[v]:
                if w in core_index:
                    partial = partial + values[w]
            parts = decompose_sum(spec, spec.element_at(mu) - partial, len(pendants))
            for w, x in zip(pendants, parts):
                values[w] = x
        return tuple(values), mu, nodes
    return None, None, nodes


@contextlib.contextmanager
def _without_presolve(monkeypatch):
    """Give exists_magic no lattice facts, so only orbit pruning is left.

    Plans are cached per graph, so the cache is cleared on entry, to drop the
    plans that carry facts, and on exit, so that no fact-free plan outlives
    the patch.
    """
    solver._plan.cache_clear()
    with monkeypatch.context() as patch:
        patch.setattr(solver, "_lattice_facts", lambda *core: (0, ()))
        try:
            yield
        finally:
            solver._plan.cache_clear()


def _nodes_saved_against_reference(grid):
    """Same status, witness and mu as the unpruned loop; never more nodes.
    Returns the nodes saved in total."""
    catalog = standard_catalog(16)
    saved = 0
    for inst in grid:
        g, _ = build(inst)
        if g.n > 9:
            continue
        for spec in catalog:
            out = exists_magic(g, spec)
            labels, mu, ref_nodes = _reference_exists(g, spec)
            assert out.is_witness == (labels is not None), (inst, spec)
            if labels is not None:
                assert out.labeling.values == labels, (inst, spec)
                assert spec.index_of(out.certificate.constant) == mu
            assert out.nodes <= ref_nodes
            saved += ref_nodes - out.nodes
    return saved


def test_orbit_pruning_keeps_every_witness(grid):
    """Orbit pruning and the lattice presolve together."""
    assert _nodes_saved_against_reference(grid) > 0


def test_orbit_pruning_alone_keeps_every_witness(grid, monkeypatch):
    """Orbit pruning without the presolve, so the nodes saved are its own."""
    with _without_presolve(monkeypatch):
        assert _nodes_saved_against_reference(grid) > 0


@st.composite
def _small_graphs(draw, max_n=6):
    n = draw(st.integers(min_value=1, max_value=max_n))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    pairs = [(u, v) for v in range(n) for u in range(v)]
    if pairs:
        edges |= set(draw(st.lists(st.sampled_from(pairs), max_size=2 * n)))
    return Graph.from_edges(n, sorted(edges))


@settings(max_examples=120, deadline=None)
@given(_small_graphs())
def test_pruned_agrees_with_naive_off_atlas(g):
    assume(recognize(g) is None)
    for spec in enumerate_abelian_groups(5):
        assert count_magic(g, spec) == naive_count(g, spec)
        assert exists_magic(g, spec).is_witness == naive_exists(g, spec)


def _plain_count(g, spec):
    """Magic labelings by itertools.product over (A∖{0})^V, summing labels
    with GroupElement arithmetic and no Cayley table."""
    count = 0
    for labels in product(spec.nonzero_elements(), repeat=g.n):
        weights = {sum((labels[u] for u in g.adj[v]), spec.zero()) for v in range(g.n)}
        count += len(weights) == 1
    return count


@settings(max_examples=60, deadline=None)
@given(_small_graphs(max_n=5))
@example(Graph.from_edges(1, []))
@example(Graph.from_edges(2, [(0, 1)]))
# a star centred on the last vertex: at a small block the vectorized leaves
# have scalar weights and the high centre a vector one
@example(Graph.from_edges(5, [(i, 4) for i in range(4)]))
def test_naive_count_matches_plain_enumeration(g):
    for spec in enumerate_abelian_groups(4):
        expected = _plain_count(g, spec)
        for block in (1, 4, oracle._BLOCK):
            with pytest.MonkeyPatch.context() as mp:
                mp.setattr(oracle, "_BLOCK", block)
                assert naive_count(g, spec) == expected, (g.edges, spec, block)


@pytest.mark.parametrize("spec", standard_catalog(8), ids=str)
def test_bunch_ways_counts_nonzero_tuples(spec):
    """The decomposition lemma's closed form is the number of nonzero
    cnt-tuples summing to each target, enumerated over the group."""
    m, add, _ = cayley_tables(spec)
    for cnt in range(5):
        sums = [0] * m
        for xs in product(range(1, m), repeat=cnt):
            total = 0
            for x in xs:
                total = add[total * m + x]
            sums[total] += 1
        assert [kernels._bunch_ways(t, cnt, m) for t in range(m)] == sums, cnt


def test_bunch_ways_positive_by_the_feasibility_rule():
    """A nonzero count is the lemma's feasibility rule: over Z2 the sum is
    cnt mod 2; for |A| >= 3 any target splits into cnt >= 2 nonzero parts,
    and one part is any nonzero target."""
    for m in range(2, EXISTS_MAX_ORDER + 1):
        for cnt in range(1, 12):
            for target in (0, 1):  # only whether the target is 0 matters
                rule = target == cnt % 2 if m == 2 else cnt >= 2 or target != 0
                assert (kernels._bunch_ways(target, cnt, m) > 0) == rule


def _grid_counts(grid, monkeypatch):
    """count_magic over grid n <= 10 x catalog(5), as lines, and the nodes
    kernels.search_count took."""
    nodes = 0
    search_count = kernels.search_count

    def counted(*args):
        nonlocal nodes
        out = search_count(*args)
        nodes += out[1]
        return out

    monkeypatch.setattr(kernels, "search_count", counted)
    lines = []
    for inst in grid:
        g, _ = build(inst)
        if g.n <= 10:
            for spec in standard_catalog(5):
                lines.append(f"{inst.render()} {spec.canonical()} {count_magic(g, spec)}")
    return lines, nodes


def test_grid_counts_pinned(grid, monkeypatch):
    """Counting on the plan gives the counts of the unaggregated search
    without the presolve (21,283 nodes there); the presolve closes only
    slices that hold no labeling."""
    lines, nodes = _grid_counts(grid, monkeypatch)
    assert len(lines) == 2_105
    assert nodes == 2_994  # 4,455 with the unit facts alone
    digest = hashlib.sha256("\n".join(lines).encode()).hexdigest()
    assert digest == (
        "9b7013d24aa5d5a043c61b521bf8c1fbce0bbc2bbf44a934977eb8989072b82c"
    )
    with _without_presolve(monkeypatch):
        assert _grid_counts(grid, monkeypatch)[0] == lines


def test_two_group_orbit_pruning(monkeypatch):
    # GL(4,2) is transitive on the 15 nonzero constants, so one slice is
    # searched where the unpruned loop searched 15 (10,170 nodes)
    g, _ = build(parse_instance("M7(0,0)"))
    spec = parse_group("Z2+Z2+Z2+Z2")
    assert _reference_exists(g, spec)[2] == 10_170
    # M7(0,0) has d0 = 1, so the presolve closes that slice too; its plan is
    # cached now, and the patch must not reuse it, nor leave its own behind
    assert exists_magic(g, spec).nodes == 0
    with _without_presolve(monkeypatch):
        out = exists_magic(g, spec)
    assert not out.is_witness
    assert out.nodes == 1_336
    assert exists_magic(g, spec).nodes == 0


def _magic_labelings(g, spec):
    """Every magic labeling as (labels, mu) over element indices, by brute
    force over (A-{0})^V."""
    m, add, _ = cayley_tables(spec)
    for labels in product(range(1, m), repeat=g.n):
        mu = None
        for v in range(g.n):
            w = 0
            for u in g.adj[v]:
                w = add[w * m + labels[u]]
            if mu is None:
                mu = w
            elif w != mu:
                break
        else:
            yield labels, mu


@settings(max_examples=80, deadline=None)
@given(_small_graphs(max_n=7), st.sampled_from(list(enumerate_abelian_groups(5))))
# random graphs seldom have a fact with k_v * mu != 0 and labelings to test
# it on; these do: x2 = x4 = -mu, x1 = -mu, and d0 = 2 with x5 = mu
@example(Graph.from_edges(6, [(0, 1), (1, 2), (1, 4), (2, 3), (2, 4), (3, 4), (3, 5)]), Z4)
@example(Graph.from_edges(7, [(0, 1), (0, 2), (0, 3), (0, 5), (1, 3), (1, 4), (1, 5),
                              (3, 4), (4, 5), (4, 6)]), parse_group("Z5"))
@example(Graph.from_edges(7, [(0, 1), (0, 2), (0, 6), (1, 2), (1, 3), (1, 5), (2, 4),
                              (3, 5), (3, 6)]), parse_group("Z2+Z2"))
def test_lattice_facts_hold_in_every_magic_labeling(g, spec):
    """d0 * mu = 0 and x_v = k_v * mu in every labeling brute force finds."""
    d0, k = lattice_facts(g)
    for labels, mu in _magic_labelings(g, spec):
        x = spec.element_at(mu)
        assert (d0 * x).is_zero(), (g.edges, spec, labels)
        for v, kv in k.items():
            assert spec.element_at(labels[v]) == kv * x, (g.edges, spec, labels, v)


@settings(max_examples=80, deadline=None)
@given(_small_graphs(max_n=7), st.sampled_from(list(enumerate_abelian_groups(5))))
# M10(0,0) has 2 * x_5 = 0 (c = 2), and 7 magic labelings over Z4
@example(build(parse_instance("M10(0,0)"))[0], Z4)
def test_torsion_facts_hold_in_every_magic_labeling(g, spec):
    """c * x_v + b * mu = 0 in every labeling brute force finds."""
    facts = torsion_facts(g)
    assert all(c >= 2 for c, _ in facts.values())
    for labels, mu in _magic_labelings(g, spec):
        x = spec.element_at(mu)
        for v, (c, b) in facts.items():
            y = spec.element_at(labels[v])
            assert (c * y + b * x).is_zero(), (g.edges, spec, labels, v)


def test_torsion_facts_of_m10():
    # 2 * x_5 = 0: over a group of odd order x_5 = 0, so M10(0,0) is magic
    # over none; 2 * x_0 = 2 * mu, and 2 * x = 0 at vertices 2 and 4 too
    g, _ = build(parse_instance("M10(0,0)"))
    assert lattice_facts(g) == (0, {})
    assert torsion_facts(g) == {0: (2, -2), 2: (2, 0), 4: (2, 0), 5: (2, 0)}


@pytest.mark.parametrize("name, group", [
    ("M10(0,0)", "Z63"),  # 90,840 nodes with the unit facts alone
    ("M12(3,0)", "Z15"),  # 1,686
])
def test_torsion_facts_close_groups_of_odd_order(name, group):
    g, _ = build(parse_instance(name))
    out = exists_magic(g, parse_group(group))
    assert out.status == "exhausted" and out.nodes == 0


def test_torsion_facts_are_skipped_when_slices_are_closed():
    # M10(1,0) has x_3 = 0, which closes every slice already, so the forms
    # that would give M10(0,0)'s torsion facts are not computed
    g, _ = build(parse_instance("M10(1,0)"))
    assert lattice_facts(g) == (0, {3: 0})
    assert torsion_facts(g) == {}


def test_no_witness_of_the_order_16_crosscheck_is_closed(campaign16):
    """Every fact holds in every witness labeling of the crosscheck over
    the groups of order <= 16, and leaves its mu open."""
    witnesses = [r for r in campaign16 if r.oracle == "witness"]
    assert len(witnesses) == 2_349
    for rec in witnesses:
        g, _ = build(parse_instance(rec.instance))
        spec = parse_group(rec.group)
        lab = parse_labeling(spec, rec.witness, g.n)
        mu = parse_element(spec, rec.mu)
        core, _, _, _, d0, facts, key = solver._plan(g)
        assert (d0 * mu).is_zero(), rec
        for v, c, b in facts:
            assert (c * lab[core[v]] + b * mu).is_zero(), (rec, v)
        assert spec.index_of(mu) in solver._open_slices(spec, key), rec


def _triangle_with_tail():
    """Triangle 0-1-2 closed again by the path 0-3-4-...-12-2 (n = 13)."""
    path = [0, *range(3, 13), 2]
    return Graph.from_edges(13, [(0, 1), (1, 2), (0, 2), *zip(path, path[1:])])


def test_presolve_closes_the_triangle_with_tail():
    # x0 + x2 = mu at vertex 1; along the path and around vertex 0 the rows
    # combine to x1 = 0, so the graph is magic over no group
    g = _triangle_with_tail()
    assert lattice_facts(g) == (0, {1: 0})
    for spec in standard_catalog(32):
        if spec.order >= 16:
            out = exists_magic(g, spec)
            assert out.status == "exhausted" and out.nodes == 0, spec


def test_presolve_forces_mu_zero_with_supports(catalog8):
    # d0 = 1 forces mu = 0, which a graph with supports never takes
    g, _ = build(parse_instance("M1(1,1,0)"))
    assert lattice_facts(g)[0] == 1
    for spec in catalog8:
        out = exists_magic(g, spec)
        assert out.status == "exhausted" and out.nodes == 0, spec


def test_presolve_d0_alone_closes_slices():
    # d0 = 2 and x5 = mu: over Z3, mu = 0 forces x5 = 0 and every other mu
    # has 2 * mu != 0, so no slice is searched
    g = Graph.from_edges(7, [(0, 1), (0, 2), (0, 6), (1, 2), (1, 3), (1, 5), (2, 4),
                             (3, 5), (3, 6)])
    assert lattice_facts(g) == (2, {5: 1})
    out = exists_magic(g, Z3)
    assert out.status == "exhausted" and out.nodes == 0


def test_group_order_bound():
    spec = parse_group(f"Z{EXISTS_MAX_ORDER}")
    assert exists_magic(cycle(4), spec).is_witness
    with pytest.raises(SolverBoundError, match="solver bound"):
        exists_magic(cycle(4), parse_group(f"Z{2 * EXISTS_MAX_ORDER}"))
    with pytest.raises(SolverBoundError, match="solver bound"):
        exists_magic(cycle(4), parse_group(f"Z2+Z{EXISTS_MAX_ORDER}"))


def test_solver_caches_are_bounded_and_plans_immutable(grid):
    """Every cache in solver.py has a finite bound, and a plan holds tuples
    and ints only, so no caller can change a cached plan."""
    caches = {
        name: obj for name, obj in vars(solver).items()
        if hasattr(obj, "cache_info") and obj.__module__ == solver.__name__
    }
    assert "_plan" in caches
    for name, fn in caches.items():
        assert fn.cache_info().maxsize is not None, name

    def flat(x):
        if isinstance(x, tuple):
            return all(flat(y) for y in x)
        return isinstance(x, int)

    graphs = [build(inst)[0] for inst in grid[::25]]
    graphs += [Graph.from_edges(1, []), Graph.from_edges(2, [(0, 1)])]
    for g in graphs:
        plan = solver._plan(g)
        assert len(plan) == 7 and flat(plan), g.edges
        _, _, _, support, d0, facts, key = plan
        # the slice key is the refuting pairs alone, without the facts'
        # vertices: d0 as (0, d0), the facts' (c, b), and a support's
        # x = mu as (1, d0 - 1)
        pairs = {(0, d0)} | {(c, b) for _, c, b in facts}
        if any(support):
            pairs.add((1, d0 - 1))
        assert key == tuple(sorted(pairs)), g.edges


def _relabeled(g, perm):
    """g with vertex v renamed perm[v]."""
    return Graph.from_edges(g.n, [(perm[u], perm[v]) for u, v in g.edges])


def test_open_slices_are_shared_by_facts_on_other_vertices():
    # M10(0,0) reversed has its four torsion facts on other vertices, so the
    # facts differ, while the (c, b) pairs and the slices are the same
    g, _ = build(parse_instance("M10(0,0)"))
    h = _relabeled(g, list(reversed(range(g.n))))
    assert solver._plan(g)[5] != solver._plan(h)[5]
    assert solver._plan(g)[6] == solver._plan(h)[6]
    spec = parse_group("Z8")
    solver._open_slices.cache_clear()
    assert exists_magic(g, spec).status == exists_magic(h, spec).status
    info = solver._open_slices.cache_info()
    assert info.misses == 1 and info.currsize == 1


def test_open_slices_keys_over_the_grid(grid):
    """One slice entry per group and distinct slice key: 22 keys on the
    standard grid, 528 entries over the 24 groups of order <= 16."""
    catalog = standard_catalog(16)
    solver._open_slices.cache_clear()
    for inst in grid:
        g, _ = build(inst)
        for spec in catalog:
            exists_magic(g, spec)
    info = solver._open_slices.cache_info()
    assert info.misses == info.currsize == 528


@pytest.mark.parametrize("spec", enumerate_abelian_groups(16), ids=str)
def test_bunch_labels_follow_decompose_sum(spec):
    """The witness completion on indices picks the parts
    `abelian.decompose_sum` picks, for every target and bunch sizes 1-4;
    where no decomposition exists (0 as one part, a parity miss over Z2)
    its parts are no decomposition either, so `verify_magic` rejects them."""
    m, add, neg = cayley_tables(spec)
    elems = spec.elements()
    for target, k in product(range(m), range(1, 5)):
        parts = solver._bunch_labels(m, add, neg, target, k)
        assert len(parts) == k
        total = 0
        for x in parts:
            total = add[total * m + x]
        try:
            want = decompose_sum(spec, elems[target], k)
        except GroupError:
            assert 0 in parts or total != target, (spec, target, k)
            continue
        assert [elems[x] for x in parts] == list(want), (spec, target, k)
        assert total == target and 0 not in parts


def test_bunch_labels_corner_cases():
    m, add, neg = cayley_tables(Z3)
    # a pair summing to 1: 1 + 0 is no choice, so the first part is 2
    assert solver._bunch_labels(m, add, neg, 1, 2) == [2, 2]
    assert solver._bunch_labels(m, add, neg, 2, 2) == [1, 1]
    assert solver._bunch_labels(m, add, neg, 0, 3) == [1, 1, 1]
    # over Z2 every part is 1, and the parity of k must match the target
    m, add, neg = cayley_tables(Z2)
    assert solver._bunch_labels(m, add, neg, 1, 3) == [1, 1, 1]
    assert solver._bunch_labels(m, add, neg, 0, 4) == [1, 1, 1, 1]


def _imported_names(module) -> set[str]:
    """Every module path part and name a module's source imports."""
    tree = ast.parse(pathlib.Path(module.__file__).read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported.update(alias.name.split("."))
        elif isinstance(node, ast.ImportFrom):
            imported.update((node.module or "").split("."))
            imported.update(alias.name for alias in node.names)
    return imported


def test_oracle_shares_no_code_with_the_search():
    """oracle.py imports neither the solver, nor the kernels, nor the
    presolve's facts, so it stays an independent check of the search."""
    imported = _imported_names(oracle)
    forbidden = {"solver", "kernels", "lattice_facts", "torsion_facts"}
    assert imported, "no imports parsed"
    assert not imported & forbidden, imported & forbidden


def test_certificate_check_shares_no_code_with_the_search():
    """labeling.py imports neither the solver, nor the kernels, nor the
    presolve, nor the Cayley tables the search and the oracle add with, so
    the certificate check stays independent of both."""
    imported = _imported_names(labeling)
    forbidden = {
        "solver", "kernels", "lattice_facts", "torsion_facts", "cayley_tables",
    }
    assert imported, "no imports parsed"
    assert not imported & forbidden, imported & forbidden


def test_no_assert_statements_in_package():
    """Self-checks raise instead of asserting, so none vanishes under
    `python -O`."""
    package = pathlib.Path(oracle.__file__).parent
    sources = sorted(package.glob("*.py"))
    assert sources
    found = [
        f"{path.name}:{node.lineno}"
        for path in sources
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
        if isinstance(node, ast.Assert)
    ]
    assert not found, found
