import pytest
from hypothesis import example, given, settings, strategies as st

from vertexmagic import labeling
from vertexmagic.abelian import GroupElement, GroupError, parse_group
from vertexmagic.families import build, parse_instance
from vertexmagic.graphs import Graph, pendant_bunches
from vertexmagic.labeling import (
    InvalidLabelingError,
    Labeling,
    parse_labeling,
    verify_magic,
    weight,
)
from vertexmagic.solver import exists_magic
from reference import automorphisms

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
                # every support vertex carries the magic constant
                for v, bunch in enumerate(pendant_bunches(g)):
                    if bunch:
                        assert out.labeling[v] == out.certificate.constant


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
            moved = Labeling(spec, tuple(phi[x] for x in out.labeling.values))
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


@pytest.mark.parametrize("text", [
    "v0=1,v1=1,v2=1,v0=3",  # v0 named twice
    "v0=1,v1=1,v2=1,v00=1",  # v00 is v0
    "v+0=1,v1=1,v2=1",
    "v 0=1,v1=1,v2=1",
    "v1_0=1,v1=1,v2=1",
    "v=1,v1=1,v2=1",
])
def test_parse_labeling_names_each_vertex_once(text):
    with pytest.raises(InvalidLabelingError):
        parse_labeling(Z5, text, 3)


def test_parse_labeling_spacing_is_kept():
    lab = parse_labeling(Z5, " v0 = 1 , v1=2,,v2 =(3)", 3)
    assert lab.render() == "v0=1,v1=2,v2=3"


# --- the parser against the one it replaced -----------------------------------

def _old_parse_element(spec, text):
    s = text.strip()
    is_tuple = s.startswith("(") and s.endswith(")")
    if not is_tuple and spec.rank != 1:
        raise GroupError(
            f"element of {spec} needs a {spec.rank}-tuple, got {text!r}"
        )
    try:
        if is_tuple:
            parts = [p for p in s[1:-1].split(",") if p.strip() != ""]
            residues = tuple(int(p) for p in parts)
        else:
            residues = int(s)
    except ValueError as exc:
        raise GroupError(f"bad number in element {text!r}") from exc
    return spec.element(residues)


def _old_parse_labeling(spec, text, n):
    values = {}
    chunks = labeling._split_top_level(text) if "(" in text else text.split(",")
    for chunk in chunks:
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk or not chunk.startswith("v"):
            raise InvalidLabelingError(f"bad labeling chunk {chunk!r}")
        key, _, val = chunk.partition("=")
        try:
            idx = int(key[1:])
        except ValueError as exc:
            raise InvalidLabelingError(f"bad vertex name {key!r}") from exc
        values[idx] = _old_parse_element(spec, val)
    if sorted(values) != list(range(n)):
        raise InvalidLabelingError(
            f"labeling must cover v0..v{n - 1} exactly, got {sorted(values)}"
        )
    return Labeling(spec, tuple(values[i] for i in range(n)))


def _names_a_vertex_twice_or_badly(text):
    """Whether a chunk the old parser accepted names a vertex again, or by
    anything but `v` and decimal digits."""
    seen = set()
    for chunk in labeling._split_top_level(text):
        key = chunk.strip().partition("=")[0]
        try:
            idx = int(key[1:])
        except ValueError:
            continue
        digits = key[1:].rstrip()
        if idx in seen or not (digits.isascii() and digits.isdigit()):
            return True
        seen.add(idx)
    return False


def _outcome(parse, spec, text, n):
    try:
        return parse(spec, text, n)
    except Exception as exc:  # the exception type is the outcome
        return type(exc)


PARSE_GROUPS = tuple(parse_group(t) for t in ("Z5", "Z2+Z4", "Z2+Z2+Z2"))
_SYMBOLS = "v0123=(),+- "
_chunks = st.one_of(
    st.text(_SYMBOLS, max_size=8),
    st.builds("v{}={}".format, st.integers(0, 3), st.one_of(
        st.integers(-1, 4).map(str),
        st.lists(st.integers(-1, 4), min_size=1, max_size=4)
        .map(lambda r: "(" + ",".join(map(str, r)) + ")"),
        st.text(_SYMBOLS, max_size=6),
    )),
)


@settings(max_examples=500, deadline=None)
@given(st.sampled_from(PARSE_GROUPS),
       st.one_of(st.text(_SYMBOLS, max_size=40),
                 st.lists(_chunks, max_size=5).map(",".join)),
       st.integers(0, 4))
def test_parse_labeling_matches_the_old_parser(spec, text, n):
    """Same labeling or same exception type as the parser it replaced,
    except that a repeated or malformed vertex name now raises."""
    new = _outcome(parse_labeling, spec, text, n)
    old = _outcome(_old_parse_labeling, spec, text, n)
    assert new in (InvalidLabelingError, GroupError) or isinstance(new, Labeling)
    if new != old:
        assert new is InvalidLabelingError
        assert _names_a_vertex_twice_or_badly(text)


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


def _star_at_the_carry_boundary(group):
    """K_{1,12} with every leaf on the largest residue of each factor and
    the centre on their sum, so the labeling is magic: the centre's weight
    fills each packed field to the bit, and a field one bit narrower would
    carry into the next one (over Z2+Z128, 12 * 127 needs 11 bits)."""
    spec = parse_group(group)
    top = spec.element([f - 1 for f in spec.factors])
    g = Graph.from_edges(13, [(0, v) for v in range(1, 13)])
    return g, Labeling(spec, (12 * top,) + (top,) * 12)


def _triangle_with_unreduced_residues():
    """Labels (1,9), (1,1) and (3,-3) of Z2+Z4, all the element (1,1): read
    unreduced, 9 would spill out of its field."""
    spec = parse_group("Z2+Z4")
    g = Graph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
    labels = ((1, 9), (1, 1), (3, -3))
    return g, Labeling(spec, tuple(GroupElement(spec, r) for r in labels))


@settings(max_examples=200, deadline=None)
@given(labeled_graphs())
@example(_triangle_with_unreduced_residues())
@example(_star_at_the_carry_boundary("Z256"))
@example(_star_at_the_carry_boundary("Z2+Z128"))
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
