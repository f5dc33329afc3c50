import pytest
from hypothesis import given, strategies as st

from vertexmagic import abelian
from vertexmagic.abelian import (
    GroupElement,
    GroupError,
    GroupSpec,
    InfeasibleDecomposition,
    MismatchedGroups,
    SelfCheckError,
    cauchy_element,
    cayley_tables,
    decompose_sum,
    enumerate_abelian_groups,
    involutions,
    mu_orbits,
    parse_element,
    parse_group,
    squares,
)
from reference import automorphisms

Z2 = GroupSpec((2,))
Z3 = GroupSpec((3,))
Z4 = GroupSpec((4,))
Z6 = GroupSpec((6,))
V4 = GroupSpec((2, 2))
Z2Z4 = GroupSpec((2, 4))

specs_small = st.sampled_from(list(enumerate_abelian_groups(8)))


def test_modular_addition():
    assert Z4.element(3) + Z4.element(2) == Z4.element(1)


def test_inverse_law():
    for spec in (Z4, V4, Z6, Z2Z4):
        for a in spec.elements():
            assert (a + (-a)).is_zero()


def test_integer_multiple_componentwise():
    assert 2 * Z2Z4.element((1, 1)) == Z2Z4.element((0, 2))


def test_orders_of_elements():
    assert Z4.element(2).order() == 2
    assert Z2Z4.element((1, 1)).order() == 4
    assert Z6.element(2).order() == 3


def test_exponent():
    assert Z2Z4.exponent() == 4
    assert V4.exponent() == 2
    assert Z3.exponent() == 3


def test_exponent_is_max_order():
    for spec in enumerate_abelian_groups(16):
        assert spec.exponent() == max(a.order() for a in spec.elements())


def test_squares():
    assert squares(V4) == frozenset()
    assert squares(Z4) == frozenset({Z4.element(2)})
    assert squares(Z3) == frozenset({Z3.element(1), Z3.element(2)})


def test_squares_by_enumeration():
    for spec in enumerate_abelian_groups(12):
        doubled = {2 * h for h in spec.elements()}
        doubled.discard(spec.zero())
        assert squares(spec) == doubled


def test_involutions():
    assert involutions(Z4) == frozenset({Z4.element(2)})
    assert involutions(Z3) == frozenset()
    assert involutions(V4) == frozenset(
        {V4.element((1, 0)), V4.element((0, 1)), V4.element((1, 1))}
    )


def test_involutions_iff_even_order():
    for spec in enumerate_abelian_groups(15):
        assert bool(involutions(spec)) == (spec.order % 2 == 0)


def test_cauchy_element():
    assert cauchy_element(Z6, 3) == Z6.element(2)
    assert cauchy_element(Z4, 2) == Z4.element(2)
    # lexicographically least element of order 2 in Z2+Z4 is (0,2)
    assert cauchy_element(Z2Z4, 2) == Z2Z4.element((0, 2))


def test_cauchy_order_exact_up_to_16():
    for spec in enumerate_abelian_groups(16):
        for p in (2, 3, 5, 7, 11, 13):
            if spec.order % p == 0:
                assert cauchy_element(spec, p).order() == p


def test_cauchy_rejects_nondivisor():
    with pytest.raises(GroupError):
        cauchy_element(Z4, 3)
    with pytest.raises(GroupError):
        cauchy_element(Z6, 4)


def test_decompose_examples():
    assert decompose_sum(Z3, Z3.element(1), 2) == (Z3.element(2), Z3.element(2))
    assert decompose_sum(Z3, Z3.zero(), 3) == (Z3.element(1),) * 3
    assert decompose_sum(Z4, Z4.element(2), 2) == (Z4.element(1), Z4.element(1))


def test_decompose_z2_corners():
    one = Z2.element(1)
    assert decompose_sum(Z2, one, 3) == (one, one, one)
    assert decompose_sum(Z2, Z2.zero(), 2) == (one, one)
    with pytest.raises(InfeasibleDecomposition):
        decompose_sum(Z2, one, 2)
    with pytest.raises(InfeasibleDecomposition):
        decompose_sum(Z2, Z2.zero(), 3)


def test_decompose_rejects_zero_singleton():
    with pytest.raises(GroupError):
        decompose_sum(Z4, Z4.zero(), 1)


def test_decompose_self_check_raises(monkeypatch):
    # a "nonzero" list that starts with zero makes the greedy emit a zero
    # summand; the explicit check must catch it (and survive python -O)
    monkeypatch.setattr(GroupSpec, "nonzero_elements", GroupSpec.elements)
    with pytest.raises(SelfCheckError, match="zero summand"):
        decompose_sum(Z4, Z4.element(1), 3)


@given(specs_small, st.integers(min_value=0, max_value=63),
       st.integers(min_value=1, max_value=6))
def test_decompose_property(spec, target_idx, n):
    target = spec.element_at(target_idx % spec.order)
    if n == 1 and target.is_zero():
        return
    if spec.order == 2:
        want = spec.element(n % 2)
        if want != target:
            with pytest.raises(InfeasibleDecomposition):
                decompose_sum(spec, target, n)
            return
    parts = decompose_sum(spec, target, n)
    assert len(parts) == n
    assert all(not p.is_zero() for p in parts)
    total = spec.zero()
    for p in parts:
        total = total + p
    assert total == target


def _partition_count(k):
    table = [1] + [0] * k
    for part in range(1, k + 1):
        for total in range(part, k + 1):
            table[total] += table[total - part]
    return table[k]


def _class_count(m):
    count = 1
    d = 2
    while d * d <= m:
        e = 0
        while m % d == 0:
            m //= d
            e += 1
        if e:
            count *= _partition_count(e)
        d += 1
    if m > 1:
        count *= _partition_count(1)
    return count


def test_catalog_counts_match_partition_formula():
    cat = enumerate_abelian_groups(16)
    by_order = {}
    for spec in cat:
        by_order.setdefault(spec.order, []).append(spec)
    for m in range(2, 17):
        assert len(by_order.get(m, [])) == _class_count(m)


def test_catalog_example_counts():
    cat = enumerate_abelian_groups(8)
    assert len(cat) == 10
    order4 = sorted(s.factors for s in cat if s.order == 4)
    assert order4 == [(2, 2), (4,)]
    order8 = sorted(s.factors for s in cat if s.order == 8)
    assert order8 == [(2, 2, 2), (2, 4), (8,)]


def test_catalog_pairwise_distinct_canonical():
    cat = enumerate_abelian_groups(16)
    forms = [s.canonical().factors for s in cat]
    assert len(set(forms)) == len(forms)
    assert all(s.canonical() == s for s in cat)


def test_canonicalization():
    assert GroupSpec((2, 3)).canonical() == GroupSpec((6,))
    assert GroupSpec((4, 2, 3)).canonical() == GroupSpec((2, 12))
    assert GroupSpec((6,)).canonical() == GroupSpec((3, 2)).canonical()
    assert GroupSpec((8,)).canonical() != GroupSpec((2, 4)).canonical()
    spec = GroupSpec((12, 10))
    assert spec.canonical().canonical() == spec.canonical()


def test_mismatched_groups_error():
    with pytest.raises(MismatchedGroups):
        Z4.element(1) + Z3.element(1)


def test_element_reduces_its_residues_at_construction():
    four = GroupElement(Z4, (4,))
    assert four == Z4.zero() and four.is_zero()
    assert hash(four) == hash(Z4.zero()) and str(four) == "0"
    assert GroupElement(Z2Z4, (3, -3)) == Z2Z4.element((1, 1))


def test_element_rejects_a_residue_vector_of_the_wrong_length():
    with pytest.raises(GroupError, match="length 1 != rank 2"):
        GroupElement(Z2Z4, (1,))
    with pytest.raises(GroupError, match="length 1 != rank 2"):
        Z2Z4.element(1)


def test_parse_and_render():
    assert parse_group("Z4") == Z4
    assert parse_group("z2+z4") == Z2Z4
    assert parse_group("V4") == V4
    assert str(GroupSpec((2, 4))) == "Z2+Z4"
    with pytest.raises(GroupError):
        parse_group("Q8")
    # a superscript two is a digit to str.isdigit, but not to int
    with pytest.raises(GroupError, match="cannot parse group factor"):
        parse_group("Z²")


@given(specs_small)
def test_order_annihilates(spec):
    for a in spec.elements():
        k = a.order()
        assert (k * a).is_zero()
        assert all(not (j * a).is_zero() for j in range(1, k))


def test_cayley_tables_consistency():
    """The index-arithmetic tables equal the tables of element arithmetic
    on every group of order <= 64."""
    catalog = enumerate_abelian_groups(64)
    assert len(catalog) == 116
    for spec in catalog:
        elems = spec.elements()
        index = {e: i for i, e in enumerate(elems)}
        m, add, neg = cayley_tables(spec)
        assert m == len(elems)
        assert add == tuple(index[a + b] for a in elems for b in elems)
        assert neg == tuple(index[-a] for a in elems)


@pytest.mark.parametrize("spec, text, residues", [
    (Z4, "3", (3,)),
    (Z4, " 1", (1,)),
    (Z4, "5", (1,)),
    (Z4, "-1", (3,)),
    (Z2Z4, "(1,3)", (1, 3)),
    (Z2Z4, "(1, 0)", (1, 0)),
    (Z2Z4, "(3,5)", (1, 1)),
    (GroupSpec((512,)), "511", (511,)),  # past the literal table
    (GroupSpec((512,)), "513", (1,)),
    (Z4, "+1", (1,)),
])
def test_parse_element(spec, text, residues):
    """Canonical literals and every other accepted spelling parse to the
    reduced element."""
    assert parse_element(spec, text) == spec.element(residues)


@pytest.mark.parametrize("spec, text", [
    (Z4, "x"), (Z2Z4, "1"), (Z2Z4, "(1,x)"), (Z2Z4, "(1,0,1)"),
    # numerals int() reads but that are not ASCII digits
    (GroupSpec((16,)), "\u0663"), (GroupSpec((16,)), "1_0"),
    (GroupSpec((512,)), "\u0663"), (Z2Z4, "(1,\u0660)"), (Z2Z4, "(1_0,1)"),
])
def test_parse_element_errors_are_not_cached(spec, text):
    for _ in range(2):
        with pytest.raises(GroupError):
            parse_element(spec, text)


def test_automorphism_counts():
    # |Aut(Zn)| = phi(n); |Aut(V4)| = 6; |Aut(Z2+Z4)| = 8
    assert len(automorphisms(Z4)) == 2
    assert len(automorphisms(GroupSpec((5,)))) == 4
    assert len(automorphisms(V4)) == 6
    assert len(automorphisms(Z2Z4)) == 8
    for phi in automorphisms(V4):
        for a in V4.elements():
            for b in V4.elements():
                assert phi[a + b] == phi[a] + phi[b]


@pytest.mark.parametrize(
    "spec",
    list(enumerate_abelian_groups(16))
    # non-canonical presentations, whose transvections run both ways
    + [GroupSpec(f) for f in ((2, 3), (4, 2), (6, 2), (3, 3, 2))],
    ids=str,
)
def test_mu_orbits_match_brute_force(spec):
    elems = spec.elements()
    index = {a: i for i, a in enumerate(elems)}
    auts = automorphisms(spec)
    orbits = [sorted({index[phi[a]] for phi in auts}) for a in elems]
    rep, size = mu_orbits(spec)
    assert rep == tuple(orbit[0] for orbit in orbits)
    assert size == tuple(len(orbit) for orbit in orbits)


def test_mu_orbits_up_to_32():
    for spec in enumerate_abelian_groups(32):
        rep, size = mu_orbits(spec)
        elems = spec.elements()
        assert len(rep) == spec.order and rep[0] == 0
        for i, r in enumerate(rep):
            assert r <= i and rep[r] == r
            assert elems[i].order() == elems[r].order()
        assert sum(size[r] for r in set(rep)) == spec.order
        assert all(size[i] == rep.count(rep[i]) for i in range(spec.order))


def test_mu_orbits_rejects_a_non_automorphism(monkeypatch):
    # every basis element sent to zero: a homomorphism, but not bijective
    monkeypatch.setattr(abelian, "_generator_images", lambda spec: [[0] * spec.rank])
    with pytest.raises(SelfCheckError, match="not an automorphism"):
        mu_orbits.__wrapped__(V4)
