import hashlib
import json

import pytest
from hypothesis import example, given, settings, strategies as st

from vertexmagic import abelian, canon, families
from vertexmagic.abelian import GroupError, enumerate_abelian_groups, parse_group
from vertexmagic.families import FamilyError, parse_instance
from vertexmagic.graphs import INPUT_MAX_N
from vertexmagic.workbench import (
    VerdictRecord,
    _one_record,
    audit_families,
    crosscheck,
    discrepancies,
    emit_records,
    load_records,
    recheck_record,
    standard_catalog,
    standard_grid,
)

NINES = "9" * 5_000  # past sys.get_int_max_str_digits(), 4,300 by default


def test_standard_grid_contents(grid):
    names = {inst.render() for inst in grid}
    assert "M11(0,0)" in names
    assert "C8" in names
    assert "G2(1,0)" in names
    assert all(inst.variant is None for inst in grid)


def test_standard_grid_builds_only_its_own_instances(monkeypatch):
    """Every graph standard_grid constructs has at most 13 vertices, and
    build's cache ends up holding its drawn-family instances alone."""
    sizes = []
    construct = families._construct

    def recording(*args):
        g, roles = construct(*args)
        sizes.append(g.n)
        return g, roles

    monkeypatch.setattr(families, "_construct", recording)
    families.build.cache_clear()
    standard_grid()
    assert sizes and max(sizes) <= 13
    assert families.build.cache_info().currsize == 752


def test_grid_is_sorted_and_unique(grid):
    keys = [(i.family, i.variant or "", i.pendant_params, i.hub_subtrees)
            for i in grid]
    assert keys == sorted(keys)
    assert len(set(keys)) == len(keys)


def test_mini_crosscheck_agrees():
    grid = [parse_instance("G2(1,0)"), parse_instance("M11(0,0)"),
            parse_instance("M3(1,0,0)")]
    records = crosscheck(grid, enumerate_abelian_groups(5))
    assert len(records) == 15
    assert all(r.agree for r in records)
    assert discrepancies(records) == []
    m11 = [r for r in records if r.instance == "M11(0,0)"]
    assert all(r.oracle == "witness" for r in m11)


def test_records_roundtrip(tmp_path, campaign):
    path = tmp_path / "records.jsonl"
    emit_records(campaign, path)
    again = load_records(path)
    assert again == campaign


def _without_nodes(lines) -> str:
    """sha256 of record lines with their `nodes` field dropped."""
    digest = hashlib.sha256()
    for line in lines:
        row = json.loads(line)
        del row["nodes"]
        digest.update(
            (json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n").encode()
        )
    return digest.hexdigest()


def test_records_byte_stable(tmp_path):
    """Two runs emit the same bytes, and those bytes, `nodes` included, are
    pinned by digest.  Without `nodes` they are pinned too, to the digest
    they had before the torsion facts: those may only lower `nodes`."""
    grid = [parse_instance(s)
            for s in ("G2(1,0)", "M11(0,0)", "M3(1,0,0)", "M4(0,0)", "C5")]
    catalog = enumerate_abelian_groups(5)
    p1 = tmp_path / "a.jsonl"
    p2 = tmp_path / "b.jsonl"
    emit_records(crosscheck(grid, catalog), p1)
    emit_records(crosscheck(grid, catalog), p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert hashlib.sha256(p1.read_bytes()).hexdigest() == (
        "c41b4e58de3f5ca23af429f3a2a54c63f658662fd4b6f4a22e88dccd5e6ce6d6"
    )
    assert _without_nodes(p1.read_text().splitlines()) == (
        "ee3f4f34f580ff28fde1d80f4367b42daef75d57c60a3c16da901d2c600d848d"
    )


def test_load_rejects_corrupt_line(tmp_path, campaign):
    path = tmp_path / "records.jsonl"
    emit_records(campaign[:5], path)
    text = path.read_text().splitlines()
    text[2] = text[2][:-3] + "garbage"
    path.write_text("\n".join(text) + "\n")
    with pytest.raises(ValueError, match="line 3"):
        load_records(path)


def test_load_rejects_an_overlong_integer(tmp_path, campaign):
    path = tmp_path / "records.jsonl"
    emit_records(campaign[:3], path)
    lines = path.read_text().splitlines()
    row = json.loads(lines[1])
    lines[1] = json.dumps(row).replace(
        f'"nodes": {row["nodes"]}', f'"nodes": {NINES}')
    path.write_text("\n".join(lines) + "\n")
    with pytest.raises(ValueError, match=f"{path}: bad record on line 2"):
        load_records(path)


def test_records_self_contained(campaign):
    sample = [r for r in campaign if r.oracle == "witness"][:25]
    sample += [r for r in campaign if r.oracle == "exhausted"][:10]
    for rec in sample:
        assert recheck_record(rec)


def test_ledger_entry_synthesis():
    """The ledger machinery re-verifies entries by their own contents; a
    tampered record must fail the recheck."""
    grid = [parse_instance("G2(1,0)")]
    records = crosscheck(grid, enumerate_abelian_groups(4))
    witness = next(r for r in records if r.oracle == "witness")
    tampered = VerdictRecord(**{**witness.__dict__, "mu": "0"})
    assert not recheck_record(tampered)


@pytest.mark.parametrize("field, tampered", [
    ("witness", "v0=(0,0),v1=(1,0),v2=(1,1),v3=(1,1),v4=(1,1)"),  # zero label
    ("witness", "v0=(0,1),v1=(1,0),v2=(1,1),v3=(1,1)"),  # v4 missing
    ("witness", "v0=(0,x),v1=(1,0),v2=(1,1),v3=(1,1),v4=(1,1)"),  # bad number
    ("witness", "v0=(0,1,1),v1=(1,0),v2=(1,1),v3=(1,1),v4=(1,1)"),  # rank 3
    ("witness", "v0=(1,1),v0=(0,1),v1=(1,0),v2=(1,1),v3=(1,1),v4=(1,1)"),  # v0 twice
    ("group", "Z300"),  # the pairs need a rank-2 group
    ("group", "Z2+Q3"),  # no such group
    ("instance", "G2(x)"),  # does not parse
    ("instance", "C2"),  # parses, but no such graph
    ("oracle", "skipped"),  # the solver does not refuse this pair
    # numerals int() refuses: too long, or not ASCII
    pytest.param("instance", f"C{NINES}", id="instance-digits"),
    pytest.param("group", f"Z{NINES}", id="group-digits"),
    pytest.param("group", "Z²", id="group-superscript"),
    pytest.param("witness", f"v{NINES}=1", id="witness-digits"),
])
def test_tampered_witness_row_fails_recheck(field, tampered):
    """A witness row whose literal does not parse or validate over its
    group fails the recheck instead of raising."""
    records = crosscheck([parse_instance("G2(1,0)")], enumerate_abelian_groups(4))
    witness = next(r for r in records if r.group == "Z2+Z2")
    assert witness.oracle == "witness"
    assert witness.witness == "v0=(0,1),v1=(1,0),v2=(1,1),v3=(1,1),v4=(1,1)"
    assert recheck_record(witness)
    assert not recheck_record(VerdictRecord(**{**vars(witness), field: tampered}))


def test_witness_recheck_never_enumerates_the_group(monkeypatch):
    """A witness row over a group of order about 10^9 rechecks on residues
    alone: no element list of the group is built."""
    records = crosscheck([parse_instance("C3")], enumerate_abelian_groups(3))
    row = next(r for r in records if r.group == "Z3")
    assert row.oracle == "witness"

    def refuse(spec):
        raise AssertionError(f"enumerated {spec}")

    monkeypatch.setattr(abelian, "_elements_of", refuse)
    big = {"group": "Z1000000007", "witness": "v0=1,v1=1,v2=1", "mu": "2"}
    assert recheck_record(VerdictRecord(**{**vars(row), **big}))
    assert not recheck_record(VerdictRecord(**{**vars(row), **big, "mu": "3"}))


@pytest.mark.parametrize("field, tampered", [
    ("group", "Q3"),  # no such group
    ("group", "Z300"),  # beyond the solver's order bound
    ("instance", "G2(x)"),
    ("instance", "C2"),
    ("oracle", "skipped"),
])
def test_tampered_exhausted_row_fails_recheck(field, tampered):
    """An exhausted row whose instance or group does not parse or build,
    or that the solver cannot re-run, fails the recheck instead of raising;
    so does one relabeled skipped although the solver takes its pair."""
    records = crosscheck([parse_instance("G2(1,0)")], enumerate_abelian_groups(4))
    exhausted = next(r for r in records if r.group == "Z2")
    assert exhausted.oracle == "exhausted"
    assert recheck_record(exhausted)
    assert not recheck_record(VerdictRecord(**{**vars(exhausted), field: tampered}))


@pytest.mark.parametrize("group, field, tampered", [
    ("Z2", "n", 99),
    ("Z2", "mu", "1"),
    ("Z2", "witness", "v0=1,v1=1,v2=1,v3=1,v4=1"),
    ("Z2", "nodes", -5),
    ("Z2", "agree", False),
    ("Z2", "theorem", "magic"),  # then agree would be False
    ("Z2", "theorem", "bogus"),
    ("Z2+Z2", "n", 99),
    ("Z2+Z2", "agree", False),
    ("Z2+Z2", "theorem", "not_magic"),  # then agree would be False
    ("Z2+Z2", "nodes", -5),
    ("Z2+Z2", "nodes", 5.0),
    ("Z512", "nodes", 3),
    ("Z512", "agree", True),
    ("Z512", "mu", "1"),
])
def test_inconsistent_row_fails_recheck(group, field, tampered):
    """A row whose oracle outcome rechecks but whose other fields contradict
    it or the built instance fails the recheck: the exhausted (Z2), witness
    (Z2+Z2) and skipped (Z512) rows of G2(1,0)."""
    inst = parse_instance("G2(1,0)")
    g, _ = families.build(inst)
    rec = _one_record(inst, inst.render(), g, parse_group(group), group)
    expected = {"Z2": "exhausted", "Z2+Z2": "witness", "Z512": "skipped"}
    assert rec.oracle == expected[group]
    assert recheck_record(rec)
    assert not recheck_record(VerdictRecord(**{**vars(rec), field: tampered}))


@pytest.mark.parametrize("group, field, wrong", [
    ("Z3", "instance", 5),
    ("Z3", "instance", ["G2(1,0)"]),
    ("Z3", "group", 3),
    ("Z3", "group", None),
    ("Z3", "theorem", ["magic"]),
    ("Z2+Z2", "witness", 7),
    ("Z2+Z2", "mu", 7),
    ("Z3", "n", 5.0),  # equal to the order 5, but not a JSON integer
    ("Z2+Z2", "n", 5.0),
])
def test_row_of_the_wrong_json_type_fails_recheck(group, field, wrong):
    """A row read back from JSON with a field of the wrong type fails the
    recheck instead of raising: the exhausted (Z3) and witness (Z2+Z2)
    rows of G2(1,0)."""
    inst = parse_instance("G2(1,0)")
    g, _ = families.build(inst)
    rec = _one_record(inst, inst.render(), g, parse_group(group), group)
    assert rec.oracle == ("exhausted" if group == "Z3" else "witness")
    assert recheck_record(rec)
    row = {**json.loads(rec.to_json()), field: wrong}
    assert not recheck_record(VerdictRecord.from_json(json.dumps(row)))


@settings(max_examples=200, deadline=None)
@given(st.sampled_from(["instance", "group", "witness", "mu"]), st.text())
@example("instance", f"C{NINES}")
@example("group", f"Z{NINES}")
@example("group", "Z²")
@example("witness", f"v{NINES}=1")
def test_recheck_never_raises_on_text(field, text):
    """Any text in a row's instance, group, witness or mu gives a verdict,
    never an exception."""
    inst = parse_instance("G2(1,0)")
    g, _ = families.build(inst)
    rec = _one_record(inst, inst.render(), g, parse_group("Z2+Z2"), "Z2+Z2")
    assert isinstance(recheck_record(VerdictRecord(**{**vars(rec), field: text})), bool)


def test_skipped_row_rechecks_by_the_solver_bound():
    """A skipped row passes only because the solver refuses its pair."""
    inst = parse_instance("C4")
    g, _ = families.build(inst)
    skipped = _one_record(inst, inst.render(), g, parse_group("Z512"), "Z512")
    assert skipped.oracle == "skipped"
    assert recheck_record(skipped)
    assert not recheck_record(VerdictRecord(**{**vars(skipped), "oracle": "exhausted"}))


def test_row_past_the_input_bound_fails_recheck(monkeypatch):
    """A row naming an instance with more than INPUT_MAX_N vertices fails
    its recheck at once, before any graph is constructed."""

    def refuse(*args):
        raise AssertionError("constructed an instance past the input bound")

    monkeypatch.setattr(families, "_construct", refuse)
    k = INPUT_MAX_N + 1
    row = VerdictRecord(
        instance=f"C{k}", n=k, group="Z2", theorem="magic", rule="Lemma2.5",
        oracle="skipped", witness=None, mu=None, nodes=0, agree=None,
        note="instance beyond the solver bound",
    )
    assert not recheck_record(row)


def test_record_parses_are_memoized():
    """parse_instance and parse_group remember a bounded number of literals,
    and each remembered result is the one a fresh parse gives."""
    for parse in (parse_instance, parse_group):
        assert isinstance(parse.cache_info().maxsize, int)
    for inst in standard_grid():
        text = inst.render()
        assert parse_instance(text) == parse_instance.__wrapped__(text) == inst
    for spec in standard_catalog(16):
        name = str(spec)
        assert parse_group(name) == parse_group.__wrapped__(name) == spec


@pytest.mark.parametrize("parse, text, error", [
    (parse_instance, "G2(x)", FamilyError),
    (parse_group, "Z2+Q3", GroupError),
])
def test_malformed_literal_raises_on_every_call(parse, text, error):
    for _ in range(2):
        with pytest.raises(error):
            parse(text)


def test_campaign_and_audit_unchanged(campaign):
    """The standard crosscheck and the audit report, pinned by digest.

    Records must stay byte-identical apart from `nodes`, which may only
    fall; the audit text must not change at all.
    """
    assert len(campaign) == 7590
    assert _without_nodes(rec.to_json() for rec in campaign) == (
        "975aa159f26d8db3f879acc7b49236d8231a3f800ae2154956589088b57e70f6"
    )
    # 11,439 before the torsion facts
    assert sum(rec.nodes for rec in campaign) <= 6_595
    audit = hashlib.sha256(audit_families().to_text().encode()).hexdigest()
    assert audit == (
        "cbe68cfdc947975d540a99f5ffe5a53279088652b0a9f05cc9ce94b72242b6e5"
    )


def test_order_16_crosscheck_nodes_pinned(campaign16):
    """The crosscheck over every group of order <= 16: its size, its
    search nodes (63,789 before the torsion facts), and its records without
    `nodes`, whose witnesses over Z9-Z16, Z4+Z4, Z2+Z8, Z2+Z2+Z4 and Z2^4
    the order-8 digest never sees; pinned before the solver filled its
    witnesses' pendant bunches on the Cayley tables."""
    assert len(campaign16) == 18_216
    assert sum(rec.nodes for rec in campaign16) == 22_230
    assert discrepancies(campaign16) == []
    assert _without_nodes(rec.to_json() for rec in campaign16) == (
        "aeff696d3edbd04815d17072fc49bbd0c4784b28bae0b218cd913a8f5058acb7"
    )


def test_audit_clean():
    report = audit_families(nmax_uni=9, nmax_bi=8)
    assert report.clean
    assert report.family_counts.get("B3-M11", 0) >= 1


def test_audit_bounds():
    from vertexmagic.graphs import GraphError

    with pytest.raises(GraphError):
        audit_families(nmax_uni=11)


@pytest.mark.parametrize("bounds", [(2, 9), (10, 3), (0, 0), (-5, -5)])
def test_audit_refuses_scopes_without_graphs(bounds):
    from vertexmagic.graphs import GraphError

    with pytest.raises(GraphError, match="n >= 3"):
        audit_families(*bounds)


def _cold_canon():
    """Forget every canonical code: the code memo and the atlas indexes."""
    canon._codes.clear()
    families._atlas_index.cache_clear()


def test_default_audit_canonical_searches_pinned(min_code_calls):
    """The default audit with a cold code memo and atlas index runs
    `kernels.min_code` 1,918 times: one growth per cycle rank serves every
    diameter (four unicyclic growths ran 2,273), and the memo codes each
    labeled graph once (2,111 searches without it).  A count, so it repeats
    exactly."""
    _cold_canon()
    assert audit_families().clean
    assert min_code_calls[0] == 1918


def test_classify_after_the_audit_runs_no_canonical_search(min_code_calls, grid):
    """The audit's atlas index codes every grid graph with n <= 10 as the
    same labeled graph that classify recognizes, so classify reads each code
    from the memo."""
    from vertexmagic.characterize import classify_group_vertex_magic

    graphs = [g for g in (families.build(inst)[0] for inst in grid) if g.n <= 10]
    assert len(graphs) == 421
    _cold_canon()
    assert audit_families().clean
    audited = min_code_calls[0]
    for g in graphs:
        classify_group_vertex_magic(g)
    assert min_code_calls[0] == audited


def test_audit_documents_exceptions():
    report = audit_families(nmax_uni=9, nmax_bi=8)
    text = report.to_text()
    assert "C6 (diameter 3)" in text
    assert "C8 (diameter 4)" in text
    assert "four pendant parameters" in text
    assert "unrecognized: none" in text
