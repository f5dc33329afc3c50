import pytest
from hypothesis import given, settings, strategies as st

from vertexmagic.abelian import automorphisms, parse_group
from vertexmagic.families import build, parse_instance
from vertexmagic.graphs import Graph
from vertexmagic.labeling import (
    InvalidLabelingError,
    Labeling,
    apply_automorphism,
    check_support_forcing,
    parse_labeling,
    verify_magic,
    weight,
)
from vertexmagic.solver import exists_magic

Z3 = parse_group("Z3")
Z5 = parse_group("Z5")
Z6 = parse_group("Z6")


def cycle(k):
    return Graph.from_edges(k, [(i, (i + 1) % k) for i in range(k)])


def all_ones(spec, n):
    return Labeling(spec, (spec.element((1,) * spec.rank),) * n)


def test_weight_c4_constant():
    g = cycle(4)
    lab = all_ones(Z3, 4)
    for v in range(4):
        assert weight(g, lab, v) == Z3.element(2)


def test_weight_path_center():
    g = Graph.from_edges(3, [(0, 1), (1, 2)])
    lab = all_ones(Z3, 3)
    assert weight(g, lab, 1) == Z3.element(2)


def test_m11_pattern_weights_zero():
    g, roles = build(parse_instance("M11(0,0)"))
    vals = {}
    plus = {"v1", "v4", "v7"}
    for role in ("v1", "v2", "v3", "v4", "v5", "v6", "v7"):
        vals[roles[role]] = Z5.element(1) if role in plus else Z5.element(4)
    lab = Labeling(Z5, tuple(vals[v] for v in range(7)))
    cert = verify_magic(g, lab)
    assert cert is not None
    assert cert.constant.is_zero()


def test_verify_magic_constant_labeling_any_cycle():
    for spec in (Z3, Z5, Z6):
        for gelem in spec.nonzero_elements():
            lab = Labeling(spec, (gelem,) * 4)
            cert = verify_magic(cycle(4), lab)
            assert cert is not None
            assert cert.constant == 2 * gelem


def test_verify_magic_rejects_unequal_weights():
    lab = Labeling(Z3, tuple(Z3.element(x) for x in (1, 1, 1, 2)))
    assert verify_magic(cycle(4), lab) is None


def test_zero_label_is_error_not_nonmagic():
    lab = Labeling(Z3, tuple(Z3.element(x) for x in (1, 1, 1, 0)))
    with pytest.raises(InvalidLabelingError):
        verify_magic(cycle(4), lab)


def test_dimension_mismatch():
    lab = all_ones(Z3, 3)
    with pytest.raises(Exception):
        verify_magic(cycle(4), lab)


def test_support_forcing_on_witnesses():
    for text in ("G1(1,1,1)", "G2(1,0)", "M2(0,2,0)", "H2(0,1,1;hub=[2])"):
        inst = parse_instance(text)
        g, _ = build(inst)
        for spec in (parse_group("Z4"), Z6):
            out = exists_magic(g, spec)
            if out.is_witness:
                assert check_support_forcing(g, out.certificate, out.labeling)


def test_support_forcing_vacuous_without_supports():
    lab = all_ones(Z3, 4)
    cert = verify_magic(cycle(4), lab)
    assert check_support_forcing(cycle(4), cert, lab)


def test_support_forcing_detects_planted_violation():
    # hand-built certificate with a wrong constant: the self-check must say no
    g, _ = build(parse_instance("G1(1,1,1)"))
    out = exists_magic(g, Z3)
    assert out.is_witness
    from vertexmagic.labeling import MagicCertificate

    fake = MagicCertificate(out.certificate.constant + Z3.element(1))
    assert not check_support_forcing(g, fake, out.labeling)


def test_unit_scaling_cyclic():
    g, _ = build(parse_instance("G2(1,0)"))
    out = exists_magic(g, Z6)
    assert out.is_witness
    for unit in (1, 5):
        scaled = Labeling(Z6, tuple(unit * x for x in out.labeling.values))
        cert = verify_magic(g, scaled)
        assert cert is not None
        assert cert.constant == unit * out.certificate.constant


def test_automorphism_transport():
    g, _ = build(parse_instance("M11(0,0)"))
    for spec in (parse_group("V4"), parse_group("Z4"), Z5):
        out = exists_magic(g, spec)
        assert out.is_witness
        for phi in automorphisms(spec):
            moved = apply_automorphism(out.labeling, phi)
            cert = verify_magic(g, moved)
            assert cert is not None
            assert cert.constant == phi[out.certificate.constant]


def test_parse_labeling_roundtrip():
    lab = parse_labeling(Z5, "v0=1,v1=2,v2=3", 3)
    assert lab.render() == "v0=1,v1=2,v2=3"
    v4 = parse_group("V4")
    lab2 = parse_labeling(v4, "v0=(1,0),v1=(0,1)", 2)
    assert lab2.values[0] == v4.element((1, 0))
    with pytest.raises(InvalidLabelingError):
        parse_labeling(Z5, "v0=1,v2=2", 3)
    with pytest.raises(InvalidLabelingError):
        parse_labeling(Z5, "nonsense", 2)


# --- the integer check against GroupElement arithmetic ------------------------

MULTI_FACTOR = tuple(parse_group(t) for t in ("Z2+Z4", "Z3+Z3", "Z2+Z2+Z2"))


def _reference_weight(g, lab, v):
    total = lab.group.zero()
    for u in g.adj[v]:
        total = total + lab.values[u]
    return total


def _reference_constant(g, lab):
    """The magic constant by GroupElement.__add__, None when not magic."""
    for v, x in enumerate(lab.values):
        if x.is_zero():
            raise InvalidLabelingError(f"vertex {v} carries the zero element")
    weights = [_reference_weight(g, lab, v) for v in range(g.n)]
    return weights[0] if len(set(weights)) == 1 else None


@st.composite
def connected_graphs(draw):
    """A random spanning tree on 1..8 vertices plus up to six chords."""
    n = draw(st.integers(1, 8))
    edges = {(draw(st.integers(0, v - 1)), v) for v in range(1, n)}
    for a, b in draw(st.lists(st.tuples(st.integers(0, n - 1),
                                        st.integers(0, n - 1)), max_size=6)):
        if a != b:
            edges.add((min(a, b), max(a, b)))
    return Graph.from_edges(n, sorted(edges))


@st.composite
def labeled_graphs(draw):
    """A graph, a multi-factor group, and either random residues (zero
    labels included) or the solver's witness, so magic labelings occur."""
    g = draw(connected_graphs())
    spec = draw(st.sampled_from(MULTI_FACTOR))
    if draw(st.booleans()):
        out = exists_magic(g, spec)
        if out.is_witness:
            return g, out.labeling
    values = tuple(
        spec.element(draw(st.tuples(*(st.integers(0, f - 1)
                                      for f in spec.factors))))
        for _ in range(g.n)
    )
    return g, Labeling(spec, values)


@settings(max_examples=200, deadline=None)
@given(labeled_graphs())
def test_integer_check_agrees_with_group_arithmetic(case):
    g, lab = case
    for v in range(g.n):
        assert weight(g, lab, v) == _reference_weight(g, lab, v)
    try:
        want = _reference_constant(g, lab)
    except InvalidLabelingError:
        with pytest.raises(InvalidLabelingError):
            verify_magic(g, lab)
        return
    cert = verify_magic(g, lab)
    if want is None:
        assert cert is None
        return
    assert cert is not None and cert.constant == want
    for v in range(g.n):
        assert weight(g, lab, v) == cert.constant
