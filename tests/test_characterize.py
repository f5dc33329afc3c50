import hashlib
import random

import pytest

from vertexmagic import solver
from vertexmagic.abelian import GroupSpec, parse_group
from vertexmagic.characterize import (
    ContractError,
    classify_group_vertex_magic,
    construct_labeling,
    corollary_refuters,
    predict,
)
from vertexmagic.families import (
    FamilyError,
    build,
    classes_by_diameter,
    parse_instance,
    recognize,
)
from vertexmagic.graphs import Graph
from vertexmagic.labeling import verify_magic
from vertexmagic.solver import (
    EXISTS_MAX_ORDER,
    SolverBoundError,
    WitnessError,
    exists_magic,
)

Z2 = parse_group("Z2")
Z3 = parse_group("Z3")
Z4 = parse_group("Z4")
Z9 = parse_group("Z9")
V4 = parse_group("V4")


def test_predict_h3_gcd_example():
    # hub with three children makes d(v2) = 5; gcd(3, 9) = 3
    inst = parse_instance("H3(0,0,0;hub=[1,1,1])")
    g, roles = build(inst)
    assert g.degree(roles["v2"]) == 5
    assert predict(inst, Z9).is_magic
    assert predict(inst, Z9).rule == "Prop3.9"
    assert not predict(inst, parse_group("Z7")).is_magic


def test_predict_m2_v4_example():
    inst = parse_instance("M2(0,2,0)")
    v = predict(inst, V4)
    assert not v.is_magic and v.rule == "Prop4.2"
    assert predict(inst, Z4).is_magic


def test_predict_m1_square_example():
    inst = parse_instance("M1(0,1,1)")
    assert predict(inst, Z4).is_magic
    # adjusted condition: Z3 has squares yet admits no labeling
    assert not predict(inst, Z3).is_magic
    assert not exists_magic(build(inst)[0], Z3).is_witness


def test_predict_z2_via_parity():
    inst = parse_instance("G1(1,1,1)")
    v = predict(inst, Z2)
    assert v.is_magic and v.rule == "Z2-parity"
    assert not predict(parse_instance("G2(1,0)"), Z2).is_magic


def test_predict_variant_not_covered():
    v = predict(parse_instance("M13:mid(2)"), Z3)
    assert v.outcome == "not_covered"


@pytest.mark.parametrize("text", ["G2(1)", "C2", "M11(1)"])
def test_predict_refuses_unbuildable_instance(text):
    inst = parse_instance(text)
    with pytest.raises(FamilyError):
        build(inst)
    with pytest.raises(FamilyError):
        predict(inst, Z3)


def test_construct_g2_recipe_values():
    inst = parse_instance("G2(1,0)")
    lab = construct_labeling(inst, Z4)
    # involution 2, least g=1: v1=1, v2=3, v3=v4=2, pendant=2, mu=1
    assert lab.render() == "v0=1,v1=3,v2=2,v3=2,v4=2"


def test_construct_m11_pattern():
    inst = parse_instance("M11(0,0)")
    lab = construct_labeling(inst, Z3)
    g, _ = build(inst)
    cert = verify_magic(g, lab)
    assert cert is not None and cert.constant.is_zero()


def test_construct_regular_constant():
    inst = parse_instance("C5")
    for spec in (Z3, Z4, V4):
        lab = construct_labeling(inst, spec)
        assert len(set(lab.values)) == 1
        g, _ = build(inst)
        cert = verify_magic(g, lab)
        assert cert == cert  # certificate exists
        assert cert.constant == 2 * lab.values[0]


def test_construct_requires_magic_prediction():
    with pytest.raises(ContractError):
        construct_labeling(parse_instance("M3(1,0,0)"), Z4)
    with pytest.raises(ContractError):
        construct_labeling(parse_instance("M13:mid(2)"), Z3)


def test_construct_bounded_by_the_solver_order():
    """Constructions complete on the m*m Cayley table, so they take the
    search's order bound: refused past it before any recipe work, served
    at it with a verified labeling."""
    inst = parse_instance("G2(1,0)")
    with pytest.raises(SolverBoundError, match="construction bound"):
        construct_labeling(inst, parse_group(f"Z{EXISTS_MAX_ORDER + 1}"))
    spec = parse_group(f"Z{EXISTS_MAX_ORDER}")
    lab = construct_labeling(inst, spec)
    cert = verify_magic(build(inst)[0], lab)
    assert cert is not None and lab.group == spec


def test_construct_goes_through_the_one_completion(monkeypatch):
    """A recipe's labeling is certified by `solver.complete_labeling`, the
    completion the search's witnesses take, and fails as they do."""
    monkeypatch.setattr(solver, "verify_magic", lambda g, lab: None)
    with pytest.raises(WitnessError, match="failed verification"):
        construct_labeling(parse_instance("G2(1,0)"), Z4)


def test_construct_verifies_across_catalog(catalog8):
    texts = (
        "G1(1,1,1)", "G1(3,1,1)", "G2(2,0)", "H1(0,0;hub=[2])",
        "H1(1,0;hub=[2,2])", "H2(0,1,1;hub=[2])", "H2(1,1,1;hub=[2])",
        "H2(2,1,1;hub=[2])", "H2(0,0,0;hub=[1,1])", "H3(0,0,0;hub=[1])",
        "H5(0,0,0;hub=[1])", "H4(1,1,1,1)", "H6(1,1,1,1,1)",
        "M1(0,1,1)", "M2(0,2,0)", "M4(0,0)", "M5(1,1)", "M9(0,1)",
        "M10(0,0)", "M11(0,0)", "M12(1,0)", "M14(0,0)", "C4", "C7",
    )
    checked = 0
    for text in texts:
        inst = parse_instance(text)
        g, _ = build(inst)
        for spec in catalog8:
            if predict(inst, spec).is_magic:
                lab = construct_labeling(inst, spec)
                assert verify_magic(g, lab) is not None
                checked += 1
    assert checked > 60


def test_classify_examples():
    c8, _ = build(parse_instance("C8"))
    v = classify_group_vertex_magic(c8)
    assert v.outcome == "yes" and v.rule == "Prop2.2"

    h6, _ = build(parse_instance("H6(1,1,1,1,1)"))
    v = classify_group_vertex_magic(h6)
    assert v.outcome == "yes" and v.rule == "Thm3.12(iii)"

    m13, _ = build(parse_instance("M13(2,0)"))
    v = classify_group_vertex_magic(m13)
    assert v.outcome == "no" and v.rule == "Prop4.14"

    m11, _ = build(parse_instance("M11(0,0)"))
    v = classify_group_vertex_magic(m11)
    assert v.outcome == "yes" and v.rule == "Thm4.15"


def test_classify_h2_yes_and_no():
    yes, _ = build(parse_instance("H2(2,1,1;hub=[2])"))
    assert classify_group_vertex_magic(yes).outcome == "yes"
    # v1 not a strong support: refuted by the cyclic group of order d(v1)
    no_inst = parse_instance("H2(0,1,1;hub=[2])")
    no, roles = build(no_inst)
    v = classify_group_vertex_magic(no)
    assert v.outcome == "no" and v.rule == "Cor3.8"
    assert v.refuter == GroupSpec((no.degree(roles["v1"]),))
    assert not exists_magic(no, v.refuter).is_witness


def test_classify_g1_parity():
    odd, _ = build(parse_instance("G1(1,1,1)"))
    assert classify_group_vertex_magic(odd).outcome == "yes"
    even, _ = build(parse_instance("G1(2,1,1)"))
    v = classify_group_vertex_magic(even)
    assert v.outcome == "no"
    assert not exists_magic(even, v.refuter).is_witness


def test_classify_obstruction():
    m6, _ = build(parse_instance("M6(0,0)"))
    v = classify_group_vertex_magic(m6)
    assert v.outcome == "no"


def test_classify_not_covered_outside_scope():
    # a tree: same parity everywhere, not regular, no obstruction, no family
    star = Graph.from_edges(4, [(0, 1), (0, 2), (0, 3)])
    assert classify_group_vertex_magic(star).outcome == "not_covered"
    # bicyclic of diameter 4 sits outside the characterized classes
    eight44 = Graph.from_edges(
        7, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 4), (4, 5), (5, 6), (6, 0)]
    )
    assert classify_group_vertex_magic(eight44).outcome == "not_covered"
    # K2 is 1-regular, hence covered and magic
    p2 = Graph.from_edges(2, [(0, 1)])
    assert classify_group_vertex_magic(p2).outcome == "yes"


def test_classify_refuters_exhaust(grid, catalog8):
    """Soundness: a No verdict's named refuter really refutes."""
    by_name = {s.canonical().factors: s for s in catalog8}
    for inst in grid:
        g, _ = build(inst)
        v = classify_group_vertex_magic(g)
        if v.outcome == "no":
            assert v.refuter is not None
            assert not exists_magic(g, v.refuter).is_witness


def test_classify_pinned_over_the_grid_and_blind_to_labels(grid):
    """Every standard-grid verdict, rule and refuter hashed against a fixed
    digest, and the same verdict after a relabeling: the obstruction scans
    the vertices in label order, the verdict must not depend on it."""
    rng = random.Random(22)
    digest = hashlib.sha256()
    for inst in grid:
        g, _ = build(inst)
        v = classify_group_vertex_magic(g)
        digest.update(f"{inst.render()} {v.outcome} {v.rule} {v.refuter}\n".encode())
        perm = list(range(g.n))
        rng.shuffle(perm)
        assert classify_group_vertex_magic(g.relabeled(perm)) == v, inst.render()
    assert len(grid) == 759
    assert digest.hexdigest() == (
        "afed22f57355509f7d9c5df17c183fc26d49ee7e357e8a7c1c230a59e472686c"
    )


def test_classify_pinned_over_the_audit_scope():
    """Every class the default audit enumerates (rank 1, diameters 1-4,
    n <= 10; rank 2, diameter 3, n <= 9), its verdict, rule and refuter
    hashed against a fixed digest: the undrawn shapes past the grid."""
    digest = hashlib.sha256()
    classes = 0
    for rank, diams, n_max in ((1, (1, 2, 3, 4), 10), (2, (3,), 9)):
        by_diam = classes_by_diameter(n_max, rank, max(diams))
        for diam in diams:
            for g in by_diam[diam].values():
                v = classify_group_vertex_magic(g)
                digest.update(f"{rank} {diam} {list(g.edges)} {v.outcome} "
                              f"{v.rule} {v.refuter}\n".encode())
                classes += 1
    assert classes == 568
    assert digest.hexdigest() == (
        "488ee3a9755442c4f9dbe1b5d4620a7c09ef674d7a93bb61878dc18763e0cc5d"
    )


def test_classify_past_the_recognition_bound():
    """M2(0,9,0) has 13 vertices, past CANON_MAX_N, so no family is
    recognized: the parity mismatch cites the blanket bicyclic theorem, and
    Z2 refutes.  One pendant fewer, the drawn family's corollary is cited."""
    g, _ = build(parse_instance("M2(0,9,0)"))
    assert g.n == 13 and recognize(g) is None
    v = classify_group_vertex_magic(g)
    assert (v.outcome, v.rule, v.refuter) == ("no", "Thm4.15", Z2)
    assert not exists_magic(g, Z2).is_witness
    g, _ = build(parse_instance("M2(0,8,0)"))
    v = classify_group_vertex_magic(g)
    assert (v.outcome, v.rule, v.refuter) == ("no", "Cor4.6", Z2)


def test_classify_yes_survives_catalog(grid, catalog8):
    for inst in grid:
        g, _ = build(inst)
        v = classify_group_vertex_magic(g)
        if v.outcome == "yes":
            for spec in catalog8:
                assert exists_magic(g, spec).is_witness, (inst.render(), str(spec))


def test_thm33_matches_sun_lemma():
    """The diameter-3 statement and the sun lemma answer identically on the
    triangle sun family."""
    from itertools import product

    for p in product(range(4), repeat=3):
        try:
            inst = parse_instance(f"G1({p[0]},{p[1]},{p[2]})")
            g, _ = build(inst)
        except Exception:
            continue
        by_thm = all(q >= 1 and q % 2 == 1 for q in p)
        verdict = classify_group_vertex_magic(g)
        assert (verdict.outcome == "yes") == by_thm


def test_corollary_refuters_table():
    table = corollary_refuters()
    assert table["B3-M4"] == V4
    assert table["B3-M10"] == Z3
    assert table["UD4-H1"] == Z2
    for fam, refuter in table.items():
        assert refuter.order <= 4


def test_corollary_refuters_refute(catalog8):
    cases = {
        "B3-M1": "M1(0,1,1)", "B3-M2": "M2(0,2,0)", "B3-M4": "M4(0,0)",
        "B3-M5": "M5(1,1)", "B3-M9": "M9(0,1)", "B3-M10": "M10(0,0)",
        "B3-M12": "M12(1,0)", "B3-M14": "M14(0,0)", "UD4-H1": "H1(0,0;hub=[2])",
    }
    table = corollary_refuters()
    for fam, text in cases.items():
        g, _ = build(parse_instance(text))
        assert not exists_magic(g, table[fam]).is_witness, fam


def test_verdicts_and_recipes_pinned(grid, catalog8):
    """Every verdict, rule, detail and recipe labeling over the standard
    grid and the order <= 8 catalog, hashed against a fixed digest."""
    digest = hashlib.sha256()
    rows = 0
    for inst in grid:
        for spec in catalog8:
            v = predict(inst, spec)
            try:
                lab = construct_labeling(inst, spec).render()
            except ContractError:
                lab = "-"
            line = f"{inst.render()} {spec} {v.outcome} {v.rule} {v.detail} {lab}\n"
            digest.update(line.encode())
            rows += 1
    assert rows == 7590
    assert digest.hexdigest() == (
        "80d14c5d3506fc28e4626de487f87f6a331c5c93f65d0d88e1e831503d86b9ef"
    )
