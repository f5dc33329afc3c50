"""Acceptance gate: one test per criterion, run at the stated scope.

Each test prints a single PASS line (visible with `pytest -s` or on
failure); together they are the exit criteria for the workbench.
"""

import random

from vertexmagic.abelian import (
    InfeasibleDecomposition,
    cauchy_element,
    decompose_sum,
    enumerate_abelian_groups,
)
from vertexmagic.characterize import (
    classify_group_vertex_magic,
    construct_labeling,
    corollary_refuters,
)
from vertexmagic.families import (
    FamilyInstance,
    build,
    parse_instance,
)
from vertexmagic.graphs import (
    Graph,
    degrees_same_parity,
    lemma0_obstruction,
)
from vertexmagic.labeling import verify_magic
from vertexmagic.oracle import naive_exists
from vertexmagic.solver import exists_magic
from vertexmagic.workbench import audit_families, discrepancies, recheck_record

MUST_BE_CLEAN_RULES = {
    "Prop2.2", "Prop3.2", "Prop4.3", "Prop4.7", "Prop4.12", "Prop4.14",
    "Thm3.1", "Z2-parity",
}


def test_criterion_1_oracle_vs_naive(grid):
    """Pruned existence search agrees with unpruned enumeration."""
    groups = list(enumerate_abelian_groups(5))
    pairs = 0
    for inst in grid:
        g, _ = build(inst)
        if g.n > 8:
            continue
        for spec in groups:
            assert exists_magic(g, spec).is_witness == naive_exists(g, spec), (
                inst.render(), str(spec),
            )
            pairs += 1
    assert pairs > 500
    print(f"\nACCEPTANCE 1 PASS: pruned search == naive enumeration on "
          f"{pairs} (instance, group) pairs (n <= 8, |A| <= 5)")


def test_criterion_2_crosscheck_agreement(campaign):
    """100% theorem-oracle agreement on the standard grid; the airtight
    propositions carry no ledger entries."""
    ledger = discrepancies(campaign)
    for rec in ledger:
        assert rec.rule not in MUST_BE_CLEAN_RULES, rec
        assert recheck_record(rec), rec
    comparable = [r for r in campaign
                  if r.agree is not None and r.group != "Z2"]
    agreeing = [r for r in comparable if r.agree]
    assert len(ledger) == 0
    assert len(agreeing) == len(comparable)
    print(f"\nACCEPTANCE 2 PASS: {len(agreeing)}/{len(comparable)} "
          f"|A| >= 3 pairs agree; ledger empty; protected rules clean")


def test_criterion_3_z2_criterion(campaign):
    """Search outcome over Z2 equals the degree-parity criterion."""
    z2_records = [r for r in campaign if r.group == "Z2"]
    assert z2_records
    for rec in z2_records:
        inst = parse_instance(rec.instance)
        g, _ = build(inst)
        assert (rec.oracle == "witness") == degrees_same_parity(g), rec
    print(f"\nACCEPTANCE 3 PASS: Z2 search == parity criterion on "
          f"{len(z2_records)} grid instances")


def test_criterion_4_constructions(campaign):
    """Wherever a predicate says magic, its recipe builds a verified witness."""
    built = 0
    for rec in campaign:
        if rec.theorem != "magic":
            continue
        inst = parse_instance(rec.instance)
        spec = next(
            s for s in enumerate_abelian_groups(8)
            if str(s.canonical()) == rec.group
        )
        lab = construct_labeling(inst, spec)
        g, _ = build(inst)
        assert verify_magic(g, lab) is not None, rec
        built += 1
    assert built > 800
    print(f"\nACCEPTANCE 4 PASS: {built} constructive labelings verified "
          f"(100% of predicted-magic pairs)")


def test_criterion_5_headline_theorems(grid, catalog8):
    small = enumerate_abelian_groups(5)
    # (a) the unique group-vertex-magic bicyclic graph of diameter 3
    m11 = parse_instance("M11(0,0)")
    g11, _ = build(m11)
    for spec in catalog8:
        assert exists_magic(g11, spec).is_witness, str(spec)
    v = classify_group_vertex_magic(g11)
    assert v.outcome == "yes" and v.rule == "Thm4.15"

    # (b) every other bicyclic grid instance is refuted by a group of
    # order <= 5, and the corollaries' named refuters really refute
    refuted = 0
    for inst in grid:
        if not inst.family.startswith("B3-"):
            continue
        if inst == m11:
            continue
        g, _ = build(inst)
        assert not all(exists_magic(g, s).is_witness for s in small), (
            inst.render()
        )
        refuted += 1
    named = corollary_refuters()
    for inst in grid:
        if inst.family in named and inst.family.startswith("B3-"):
            g, _ = build(inst)
            assert not exists_magic(g, named[inst.family]).is_witness, (
                inst.render(),
            )

    # (c) diameter-2: C4 and C5 accepted, every one-bunch triangle refuted
    for text in ("C4", "C5"):
        gc, _ = build(parse_instance(text))
        assert classify_group_vertex_magic(gc).outcome == "yes"
        for spec in catalog8:
            assert exists_magic(gc, spec).is_witness
    fig1 = [i for i in grid if i.family == "FIG1-G1"]
    assert fig1
    for inst in fig1:
        g, _ = build(inst)
        assert not all(exists_magic(g, s).is_witness for s in small)
        assert classify_group_vertex_magic(g).outcome == "no"
    print(f"\nACCEPTANCE 5 PASS: M11(0,0) survives all {len(catalog8)} "
          f"groups; {refuted} other bicyclic instances refuted at order <= 5; "
          f"C4/C5 accepted and {len(fig1)} FIG1-G1 instances refuted")


def _random_obstructed(rng):
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


def test_criterion_6_lemma_suite(catalog8):
    # obstruction lemma: M6, M7 and 20 random obstructed graphs
    rng = random.Random(417)
    obstructed = [build(parse_instance("M6(0,0)"))[0],
                  build(parse_instance("M7(0,0)"))[0]]
    while len(obstructed) < 22:
        g = _random_obstructed(rng)
        if lemma0_obstruction(g) is not None:
            obstructed.append(g)
    for g in obstructed:
        for spec in catalog8:
            assert not exists_magic(g, spec).is_witness

    # decomposition lemma: all |A| <= 8, n <= 6
    decomps = 0
    for spec in enumerate_abelian_groups(8):
        for target in spec.elements():
            for n in range(1, 7):
                if n == 1 and target.is_zero():
                    continue
                try:
                    parts = decompose_sum(spec, target, n)
                except InfeasibleDecomposition:
                    assert spec.order == 2
                    continue
                assert len(parts) == n
                assert all(not x.is_zero() for x in parts)
                total = spec.zero()
                for x in parts:
                    total = total + x
                assert total == target
                decomps += 1

    # sun lemma: every proper generalized sun with n <= 10, |A| >= 3, is
    # magic iff every cycle vertex is a support (each pendant count >= 1)
    ge3 = [s for s in catalog8 if s.order >= 3]
    suns = 0
    for k in range(3, 10):
        for n in range(k + 1, 11):
            seen = set()
            for counts in _compositions(n - k, k):
                inst = FamilyInstance("GENSUN", counts)
                from vertexmagic.families import canonical_instance

                canon = canonical_instance(inst)
                if canon in seen:
                    continue
                seen.add(canon)
                g, _ = build(canon)
                all_support = all(c >= 1 for c in canon.pendant_params)
                suns += 1
                for spec in ge3:
                    assert exists_magic(g, spec).is_witness == all_support, (
                        canon.render(), str(spec),
                    )

    # Cauchy elements: exact order p for every |A| <= 16
    cauchy_checked = 0
    for spec in enumerate_abelian_groups(16):
        for p in (2, 3, 5, 7, 11, 13):
            if spec.order % p == 0:
                assert cauchy_element(spec, p).order() == p
                cauchy_checked += 1
    print(f"\nACCEPTANCE 6 PASS: obstruction lemma on {len(obstructed)} "
          f"graphs; {decomps} decompositions; sun lemma on {suns} suns x "
          f"{len(ge3)} groups; {cauchy_checked} Cauchy elements exact")


def _compositions(total, slots):
    if slots == 1:
        yield (total,)
        return
    for first in range(total + 1):
        for rest in _compositions(total - first, slots - 1):
            yield (first,) + rest


def test_criterion_7_family_audit():
    report = audit_families(nmax_uni=10, nmax_bi=9)
    assert report.clean, report.unrecognized
    text = report.to_text()
    for token in ("C6 (diameter 3)", "C7 (diameter 3)", "C8 (diameter 4)",
                  "C9 (diameter 4)"):
        assert token in text
    assert "four pendant parameters" in text
    total = sum(report.family_counts.values())
    print(f"\nACCEPTANCE 7 PASS: audit recognized {total} classes "
          f"(unicyclic diam <= 4 n <= 10; bicyclic diam 3 n <= 9), "
          f"0 unrecognized; cycle and sun-parameter exceptions documented")
