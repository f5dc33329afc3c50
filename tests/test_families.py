import hashlib
from collections import Counter
from pathlib import Path

import pytest

from vertexmagic import families
from vertexmagic.canon import canonical_code
from vertexmagic.families import (
    FamilyError,
    FamilyInstance,
    _DEFS,
    _VARIANT_DEFS,
    _bicyclic_bases,
    _def_of,
    atlas_entries,
    atlas_markdown,
    base_graph,
    build,
    canonical_instance,
    classes_by_diameter,
    enumerate_connected,
    parse_instance,
    recognize,
    recognize_code,
)
from vertexmagic.graphs import Graph, classify_vertices, cycle_rank, diameter


def test_build_ud3_g1_example():
    g, roles = build(parse_instance("G1(1,1,1)"))
    assert g.n == 6
    assert diameter(g) == 3
    assert cycle_rank(g) == 1


def test_build_m11_example():
    g, _ = build(parse_instance("M11(0,0)"))
    assert g.n == 7 and g.m == 8
    assert diameter(g) == 3
    assert all(d % 2 == 0 for d in g.degrees)


def test_build_g2_example():
    g, roles = build(parse_instance("G2(1,0)"))
    assert g.n == 5
    assert diameter(g) == 3
    # triangle {v2,v3,v4} plus the stalk edge v1v2, one pendant on v1
    assert set(g.adj[roles["v3"]]) == {roles["v2"], roles["v4"]}
    assert g.degree(roles["v1"]) == 2


def test_diameter_constraints_rejected():
    with pytest.raises(FamilyError):
        build(parse_instance("G2(0,1)"))  # no stalk pendant: diameter 2
    with pytest.raises(FamilyError):
        build(parse_instance("G1(1,0,0)"))  # single bunch: diameter 2
    with pytest.raises(FamilyError):
        build(parse_instance("M13(1,1)"))  # both branch bunches: diameter 4
    with pytest.raises(FamilyError):
        build(parse_instance("M9(1,0)"))  # bare stalk vertex: diameter 2
    with pytest.raises(FamilyError):
        build(parse_instance("M12(0,1)"))  # diameter 2 without stalk bunch
    with pytest.raises(FamilyError):
        build(parse_instance("H2(1,1,1)"))  # hub subtree required


def test_diameter_checked_once_per_instance(monkeypatch):
    """A right diameter is checked once per instance; a wrong one is
    checked, and raises, on every build.  Every build of an instance shares
    one read-only roles mapping."""
    seen = []
    monkeypatch.setattr(families, "diameter", lambda g: seen.append(g) or diameter(g))
    families.build.cache_clear()
    first = build(parse_instance("G2(1,0)"))[1]
    for _ in range(3):
        with pytest.raises(FamilyError, match="diameter 2"):
            build(parse_instance("G2(0,1)"))
        g, roles = build(parse_instance("G2(1,0)"))
        assert diameter(g) == 3
        assert roles is first
        with pytest.raises(TypeError):
            roles["mutated"] = -1
    assert len(seen) == 4


def test_hub_children_need_pendants():
    with pytest.raises(FamilyError):
        build(FamilyInstance("UD4-H2", (0, 1, 1), (0,)))


def test_provenance_neighbor_sets():
    """Every weight equation quoted from a proof pins a neighbor set; the
    base templates must satisfy them all."""
    for d in _DEFS + _VARIANT_DEFS:
        if not d.provenance:
            continue
        g, roles = base_graph(d.family, d.variant)
        for role, nbrs in d.provenance:
            got = {v for v in g.adj[roles[role]]}
            want = {roles[r] for r in nbrs}
            assert got == want, (d.family, d.variant, role)


def test_constructions_are_connected():
    """The templates and the bicyclic enumeration seeds skip from_edges'
    connectivity check, so each must be connected by construction."""
    for d in atlas_entries():
        g, _ = base_graph(d.family, d.variant)
        assert g.is_connected(), d.name
    for g in _bicyclic_bases(11):
        assert g.is_connected() and cycle_rank(g) == 2, g


def test_atlas_entries_listed():
    entries = atlas_entries()
    ids = {e.name for e in entries}
    assert "B3-M11" in ids and "UD4-H2" in ids
    assert any(":" in e.name for e in entries)  # variants documented


def test_parse_render_roundtrip():
    for text in ("M11(0,0)", "H2(1,1,1;hub=[2,2])", "G1(1,1,1)", "G1(2)",
                 "C8", "GENSUN(1,0,2,0,0)", "M13:mid(2)"):
        inst = parse_instance(text)
        again = parse_instance(inst.render())
        assert again == inst
    assert parse_instance(" M11( +0 , 1 ) ").render() == "M11(0,1)"


def test_parse_arity_disambiguates_g1():
    assert parse_instance("G1(2)").family == "FIG1-G1"
    assert parse_instance("G1(1,1,1)").family == "UD3-G1"


def test_parse_rejects_unknown():
    with pytest.raises(FamilyError):
        parse_instance("M99(1)")
    with pytest.raises(FamilyError):
        parse_instance("wat")


def test_recognize_build_roundtrip_grid(grid):
    for inst in grid:
        g, _ = build(inst)
        if g.n > 12:
            continue
        back = recognize(g)
        assert back is not None
        assert back == canonical_instance(inst), inst.render()


def test_template_fields_pinned():
    """Roles are derived from the base edges and the diameter from the family
    class; the digest of every template's fields is the one they had when
    each template stated them."""
    fields = [
        (d.name, d.roles, d.diam, d.hub_at, d.slots, d.symmetry, d.min_params,
         d.base_edges, d.provenance, d.note)
        for d in atlas_entries()
    ]
    assert hashlib.sha256(repr(fields).encode()).hexdigest() == (
        "9816975eba9d22453457cabde23262d7c2b874c47f6e79f469faa338313c687b"
    )


_C4 = (("v1", "v2"), ("v2", "v3"), ("v3", "v4"), ("v4", "v1"))


@pytest.mark.parametrize("edges, extra", [
    ((("v1", "v2"), ("v2", "v4"), ("v4", "v1")), {}),  # edges skip v3
    ((("v1", "v2"), ("v2", "x"), ("x", "v1")), {}),  # x is no role name
    (_C4, {"slots": ("v5",)}),
    (_C4, {"hub_at": "v5"}),
    (_C4, {"provenance": (("v5", ("v1",)),)}),
    (_C4, {"provenance": (("v1", ("v2", "v5")),)}),
])
def test_template_roles_checked(edges, extra):
    """A template's roles are v1..vk, the vertices of its base edges, and
    every role it names must be one of them."""
    with pytest.raises(FamilyError):
        families._Def(**{"family": "UD4-X", "base_edges": edges, "slots": (),
                         **extra})
    assert families._Def(family="UD4-X", base_edges=_C4, slots=()).diam == 4


def test_atlas_index_representatives_pinned():
    """Which instance stands for each class of n <= 10 vertices: the
    digest of every (n, canonical code, representative) of the index."""
    digest = hashlib.sha256()
    for n in range(1, 11):
        for code, inst in families._atlas_index(n).items():
            digest.update(f"{n} {code.hex()} {inst.render()}\n".encode())
    assert digest.hexdigest() == (
        "4f6d70bfbf81e9d7a2ab45d6d62701cc7740d952c519fef53c628ab00f242b25"
    )


def test_recognize_examples():
    g, _ = build(parse_instance("G1(2)"))
    assert recognize(g).family == "FIG1-G1"
    c8, _ = build(parse_instance("C8"))
    assert recognize(c8) == FamilyInstance("CYCLE", (8,))


def test_recognize_parameter_symmetry():
    a, _ = build(FamilyInstance("UD3-G1", (2, 1, 0)))
    b, _ = build(FamilyInstance("UD3-G1", (0, 1, 2)))
    assert recognize(a) == recognize(b)
    assert recognize(a).pendant_params == (2, 1, 0)


def test_enumerate_examples():
    diam1 = enumerate_connected(4, 1, 1)
    assert len(diam1) == 1 and diam1[0].n == 3  # only C3
    diam2 = enumerate_connected(5, 1, 2)
    codes = {canonical_code(g) for g in diam2}
    c5, _ = build(parse_instance("C5"))
    assert canonical_code(c5) in codes
    bi7 = enumerate_connected(7, 2, 3)
    m11, _ = build(parse_instance("M11(0,0)"))
    assert canonical_code(m11) in {canonical_code(g) for g in bi7}


def test_enumeration_all_even_bicyclic_class():
    # exactly one all-even-degree bicyclic diameter-3 class on 7 vertices
    bi7 = [g for g in enumerate_connected(7, 2, 3) if g.n == 7]
    even = [g for g in bi7 if all(d % 2 == 0 for d in g.degrees)]
    assert len(even) == 1
    assert recognize(even[0]) == FamilyInstance("B3-M11", (0, 0))


def test_enumerate_is_deduplicated():
    gs = enumerate_connected(8, 1, 3)
    codes = [canonical_code(g) for g in gs]
    assert len(codes) == len(set(codes))
    by_code = classes_by_diameter(8, 1, 3)[3]
    assert list(by_code) == codes
    assert list(by_code.values()) == gs
    for code, g in by_code.items():
        assert recognize_code(g.n, code) == recognize(g)


def test_enumerate_matches_diameter():
    for g in enumerate_connected(8, 2, 3):
        assert diameter(g) == 3
        assert cycle_rank(g) == 2


def _naive_enumeration(n_max, rank, diam):
    """Pendant growth with no shortcuts: a pendant at every vertex of every
    kept graph, a full diameter of every child, dedup by canonical code."""
    if rank == 1:
        seeds = [Graph.from_edges(k, [(i, (i + 1) % k) for i in range(k)])
                 for k in range(3, n_max + 1)]
    else:
        seeds = _bicyclic_bases(n_max)
    by_size = {}
    for s in seeds:
        if diameter(s) <= diam:
            by_size.setdefault(s.n, {})[canonical_code(s)] = s
    results = {}
    for n in range(min(by_size, default=n_max + 1), n_max + 1):
        for code, g in sorted(by_size.get(n, {}).items()):
            if diameter(g) == diam:
                results[code] = g
            if n == n_max:
                continue
            for v in range(g.n):
                child = Graph.from_edges(g.n + 1, list(g.edges) + [(v, g.n)])
                if diameter(child) <= diam:
                    by_size.setdefault(n + 1, {}).setdefault(
                        canonical_code(child), child
                    )
    return [results[c] for c in sorted(results)]


@pytest.mark.parametrize("rank", [1, 2])
def test_enumerate_matches_naive_growth(rank):
    for diam in range(1, 8):
        got = enumerate_connected(8, rank, diam)
        want = _naive_enumeration(8, rank, diam)
        # the same representatives, not just the same classes
        assert [g.edges for g in got] == [g.edges for g in want]


@pytest.mark.parametrize("rank", [1, 2])
def test_one_growth_serves_every_diameter(rank):
    by_diam = classes_by_diameter(8, rank, 4)
    assert sorted(by_diam) == [0, 1, 2, 3, 4]
    for diam in range(5):
        want = classes_by_diameter(8, rank, diam)[diam]
        assert list(by_diam[diam]) == list(want)
        # the same representatives, not just the same classes
        assert [g.edges for g in by_diam[diam].values()] == [
            g.edges for g in want.values()
        ]


# connected graphs by order: OEIS A001429 counts the unicyclic ones (cycle
# rank 1, n = 3..10), OEIS A001435 those with n + 1 edges (cycle rank 2,
# n = 4..9)
CLASS_COUNTS = {
    1: dict(zip(range(3, 11), (1, 2, 5, 13, 33, 89, 240, 657))),
    2: dict(zip(range(4, 10), (1, 5, 19, 67, 236, 797))),
}


@pytest.mark.parametrize("rank", [1, 2])
def test_class_counts_match_the_published_sequences(rank):
    """One class per isomorphism class over all diameters: a code that split
    a class would raise a count, one that merged two would lower it, and a
    growth that missed a class would lower it too."""
    n_max = max(CLASS_COUNTS[rank])
    by_diam = classes_by_diameter(n_max, rank, n_max)
    counts = Counter(g.n for reps in by_diam.values() for g in reps.values())
    assert counts == CLASS_COUNTS[rank]


def test_atlas_doc_is_generated():
    doc = Path(__file__).resolve().parents[1] / "docs" / "atlas.md"
    assert doc.read_text(encoding="utf-8") == atlas_markdown()


def test_gensun_proper():
    with pytest.raises(FamilyError):
        build(FamilyInstance("GENSUN", (0, 0, 0)))
    g, _ = build(FamilyInstance("GENSUN", (1, 0, 2, 0, 0)))
    prof = classify_vertices(g)
    assert prof.cycle_rank == 1
    # the cycle first, then each vertex's bunch in cycle order
    g, roles = build(FamilyInstance("GENSUN", (1, 0, 2)))
    assert g.edges == ((0, 1), (0, 2), (0, 3), (1, 2), (2, 4), (2, 5))
    assert roles == {"v1": 0, "v2": 1, "v3": 2, "v1.p1": 3, "v3.p1": 4,
                     "v3.p2": 5}


@pytest.mark.parametrize("text, message", [
    ("C2", "cycles need length >= 3"),
    ("GENSUN(1,0)", "generalized sun needs a cycle of length >= 3"),
    ("GENSUN(0,0,0)", "generalized sun needs at least one pendant"),
])
def test_cycle_shape_errors(text, message):
    with pytest.raises(FamilyError) as exc:
        build(parse_instance(text))
    assert str(exc.value) == message


def test_cycle_defs_are_shared():
    assert _def_of(FamilyInstance("CYCLE", (5,))) is _def_of(
        FamilyInstance("CYCLE", (5,))
    )
    assert _def_of(FamilyInstance("GENSUN", (1, 0, 0))) is _def_of(
        FamilyInstance("GENSUN", (0, 2, 1))
    )
    # a cached def stores no exception: a short cycle raises every time
    for family, message in [
        ("CYCLE", "cycles need length >= 3"),
        ("GENSUN", "generalized sun needs a cycle of length >= 3"),
    ]:
        for _ in range(2):
            with pytest.raises(FamilyError) as exc:
                families._cycle_def(family, 2)
            assert str(exc.value) == message


@pytest.mark.parametrize("text", ["GENSUN:zz(1,0,0)", "GENSUN(1,0,0;hub=[2])"])
def test_gensun_rejects_variant_and_hub_in_literal(text):
    with pytest.raises(FamilyError, match="GENSUN takes no variant"):
        parse_instance(text)


@pytest.mark.parametrize("inst", [
    FamilyInstance("GENSUN", (1, 0, 0), (), "zz"),
    FamilyInstance("GENSUN", (1, 0, 0), (2,)),
])
def test_gensun_build_rejects_variant_and_hub(inst):
    with pytest.raises(FamilyError, match="GENSUN takes no variant"):
        build(inst)


def test_parse_rejects_malformed_numbers():
    # int() and a Unicode `\\d` also read non-ASCII digits and `_` separators
    for text in ("M11(a,0)", "H2(1,1,1;hub=[2,2x])", "GENSUN(1,b,0)",
                 "C\u0665", "CYCLE(\u0665)", "M11(0,\u0660)", "M11(0,1_0)",
                 "GENSUN(1,0,\u0662)"):
        with pytest.raises(FamilyError):
            parse_instance(text)


def test_variant_instances_flagged():
    inst = parse_instance("M13:mid(2)")
    assert inst.variant == "mid"
    g, _ = build(inst)
    assert recognize(g) == inst
