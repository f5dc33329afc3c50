import hashlib
import json

import pytest

from vertexmagic import families
from vertexmagic.abelian import GroupError, enumerate_abelian_groups, parse_group
from vertexmagic.families import FamilyError, parse_instance
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
    families._build.cache_clear()
    standard_grid()
    assert sizes and max(sizes) <= 13
    assert families._build.cache_info().currsize == 752


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


def test_records_byte_stable(tmp_path):
    """Two runs emit the same bytes, and those bytes, `nodes` included, are
    pinned by digest."""
    grid = [parse_instance(s)
            for s in ("G2(1,0)", "M11(0,0)", "M3(1,0,0)", "M4(0,0)", "C5")]
    catalog = enumerate_abelian_groups(5)
    p1 = tmp_path / "a.jsonl"
    p2 = tmp_path / "b.jsonl"
    emit_records(crosscheck(grid, catalog), p1)
    emit_records(crosscheck(grid, catalog), p2)
    assert p1.read_bytes() == p2.read_bytes()
    assert hashlib.sha256(p1.read_bytes()).hexdigest() == (
        "8e71628821915fb691d4c65eb10b8d13e7d596fa7e28a0ac3a878e05f62b0af2"
    )


def test_load_rejects_corrupt_line(tmp_path, campaign):
    path = tmp_path / "records.jsonl"
    emit_records(campaign[:5], path)
    text = path.read_text().splitlines()
    text[2] = text[2][:-3] + "garbage"
    path.write_text("\n".join(text) + "\n")
    with pytest.raises(ValueError, match="line 3"):
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
    ("group", "Z300"),  # the pairs need a rank-2 group
    ("group", "Z2+Q3"),  # no such group
    ("instance", "G2(x)"),  # does not parse
    ("instance", "C2"),  # parses, but no such graph
    ("oracle", "skipped"),  # the solver does not refuse this pair
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


def test_skipped_row_rechecks_by_the_solver_bound():
    """A skipped row passes only because the solver refuses its pair."""
    inst = parse_instance("C4")
    g, _ = families.build(inst)
    skipped = _one_record(inst, g, parse_group("Z512"), "Z512")
    assert skipped.oracle == "skipped"
    assert recheck_record(skipped)
    assert not recheck_record(VerdictRecord(**{**vars(skipped), "oracle": "exhausted"}))


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
    digest = hashlib.sha256()
    for rec in campaign:
        row = json.loads(rec.to_json())
        del row["nodes"]
        line = json.dumps(row, sort_keys=True, separators=(",", ":")) + "\n"
        digest.update(line.encode())
    assert len(campaign) == 7590
    assert digest.hexdigest() == (
        "975aa159f26d8db3f879acc7b49236d8231a3f800ae2154956589088b57e70f6"
    )
    assert sum(rec.nodes for rec in campaign) <= 11439
    audit = hashlib.sha256(audit_families().to_text().encode()).hexdigest()
    assert audit == (
        "cbe68cfdc947975d540a99f5ffe5a53279088652b0a9f05cc9ce94b72242b6e5"
    )


def test_audit_clean():
    report = audit_families(nmax_uni=9, nmax_bi=8)
    assert report.clean
    assert report.family_counts.get("B3-M11", 0) >= 1


def test_audit_bounds():
    from vertexmagic.graphs import GraphError

    with pytest.raises(GraphError):
        audit_families(nmax_uni=11)


def test_audit_documents_exceptions():
    report = audit_families(nmax_uni=9, nmax_bi=8)
    text = report.to_text()
    assert "C6 (diameter 3)" in text
    assert "C8 (diameter 4)" in text
    assert "four pendant parameters" in text
    assert "unrecognized: none" in text
