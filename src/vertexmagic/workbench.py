"""Cross-validation campaigns, the discrepancy ledger, and the family audit.

A campaign runs every (instance, group) pair of the standard grid x catalog
through both the theorem predicates and the search oracle, recording one
self-contained, re-checkable row per pair.  Disagreements are first-class
outputs: they carry the oracle's certificate and survive to the emitted
file, where they form the discrepancy ledger.  Campaigns are deterministic;
two runs over identical inputs emit byte-identical files.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

from .abelian import (
    GroupError,
    GroupSpec,
    enumerate_abelian_groups,
    parse_group,
)
from .characterize import MAGIC, NOT_COVERED, NOT_MAGIC, predict
from .families import (
    FamilyInstance,
    FamilyError,
    _DEFS,
    _def_of,
    _instances_of_def,
    build,
    classes_by_diameter,
    parse_instance,
    recognize_code,
)
from .graphs import Graph, GraphError
from .labeling import InvalidLabelingError, parse_labeling, verify_magic
from .solver import SolverBoundError, exists_magic

GRID_MAX_PARAM = 3
GRID_HUBS = ((1,), (2,), (1, 1), (2, 2))
GRID_MAX_N = 13
GRID_CYCLES = range(3, 10)
_THEOREMS = frozenset((MAGIC, NOT_MAGIC, NOT_COVERED))
# json.dumps with these settings, without building an encoder per record
_ENCODER = json.JSONEncoder(sort_keys=True, separators=(",", ":"))


@dataclass(frozen=True)
class VerdictRecord:
    instance: str
    n: int
    group: str
    theorem: str  # magic | not_magic | not_covered
    rule: str
    oracle: str  # witness | exhausted | skipped
    witness: str | None
    mu: str | None
    nodes: int
    agree: bool | None
    note: str = ""

    def to_json(self) -> str:
        # every field is a flat value, so the instance dict needs no deep copy
        return _ENCODER.encode(vars(self))

    @staticmethod
    def from_json(text: str) -> "VerdictRecord":
        return VerdictRecord(**json.loads(text))


def standard_grid() -> list[FamilyInstance]:
    """Every drawn-family instance with slot counts 0..3, the standard hub
    options, and at most 13 vertices, plus the small cycles."""
    out: list[FamilyInstance] = []
    for d in _DEFS:
        hubs = GRID_HUBS if d.hub_at else ((),)
        for n in range(len(d.roles), GRID_MAX_N + 1):
            for inst in _instances_of_def(d, n, GRID_MAX_PARAM, hubs):
                try:
                    build(inst)  # rejects a wrong diameter or hub
                except (FamilyError, GraphError):
                    continue
                out.append(inst)
    for k in GRID_CYCLES:
        out.append(FamilyInstance("CYCLE", (k,)))
    out.sort(key=lambda i: (i.family, i.variant or "", i.pendant_params,
                            i.hub_subtrees))
    return out


def standard_catalog(max_order: int = 8) -> tuple[GroupSpec, ...]:
    return enumerate_abelian_groups(max_order)


def crosscheck(
    grid: list[FamilyInstance] | None = None,
    catalog: tuple[GroupSpec, ...] | None = None,
) -> list[VerdictRecord]:
    """One record per (instance, group); deterministic order and content."""
    grid = standard_grid() if grid is None else grid
    catalog = standard_catalog() if catalog is None else catalog
    names = [str(spec.canonical()) for spec in catalog]
    records = []
    for inst in grid:
        g, _ = build(inst)
        text = inst.render()
        for spec, name in zip(catalog, names):
            records.append(_one_record(inst, text, g, spec, name))
    return records


def _one_record(
    inst: FamilyInstance, text: str, g: Graph, spec: GroupSpec, group: str
) -> VerdictRecord:
    """The record of one pair; `text` is the rendered instance and `group`
    the canonical name of spec."""
    verdict = predict(inst, spec)
    try:
        out = exists_magic(g, spec)
    except SolverBoundError:
        return VerdictRecord(
            instance=text, n=g.n, group=group,
            theorem=verdict.outcome, rule=verdict.rule, oracle="skipped",
            witness=None, mu=None, nodes=0, agree=None,
            note="instance beyond the solver bound",
        )
    witness = out.labeling.render() if out.labeling is not None else None
    mu = str(out.certificate.constant) if out.certificate is not None else None
    return VerdictRecord(
        instance=text, n=g.n, group=group,
        theorem=verdict.outcome, rule=verdict.rule, oracle=out.status,
        witness=witness, mu=mu, nodes=out.nodes,
        agree=_agreement(verdict.outcome, out.status), note=verdict.detail,
    )


def _agreement(theorem: str, oracle: str) -> bool | None:
    """A row's `agree`: None when the theorem or the oracle has no answer."""
    if theorem == NOT_COVERED or oracle == "skipped":
        return None
    return (theorem == MAGIC) == (oracle == "witness")


def discrepancies(records: list[VerdictRecord]) -> list[VerdictRecord]:
    """The ledger: rows where theorem and oracle disagree."""
    return [r for r in records if r.agree is False]


def recheck_record(rec: VerdictRecord) -> bool:
    """Re-establish a record's oracle outcome from its own contents.

    Never raises on a row's contents: a row whose instance, group or
    labeling does not parse or validate fails the recheck.  A skipped row
    passes only if the solver really refuses its pair.  The row's other
    fields must fit that outcome (`_fields_fit`), and `n` must be the built
    instance's order.  `rule` and `note` are not checked: that would take a
    `predict` call per row.
    """
    if not _fields_fit(rec):
        return False
    try:
        g, _ = build(parse_instance(rec.instance))
        spec = parse_group(rec.group)
    except (FamilyError, GraphError, GroupError):
        return False
    if rec.n != g.n:
        return False
    if rec.oracle == "witness":
        try:
            cert = verify_magic(g, parse_labeling(spec, rec.witness, g.n))
        except (GroupError, InvalidLabelingError):
            return False
        return cert is not None and str(cert.constant) == rec.mu
    try:
        out = exists_magic(g, spec)
    except SolverBoundError:
        return rec.oracle == "skipped"
    return rec.oracle == "exhausted" and not out.is_witness


def _fields_fit(rec: VerdictRecord) -> bool:
    """The plain comparisons a row must pass: string instance and group, a
    known theorem outcome, a nonnegative integer node count (0 when
    skipped), a string witness and mu when the oracle found a witness and
    neither otherwise, and `agree` as `_agreement` derives it.  A field of
    the wrong JSON type fails here, before anything parses or hashes it."""
    nodes = rec.nodes
    if type(rec.instance) is not str or type(rec.group) is not str:
        return False
    if type(rec.theorem) is not str or rec.theorem not in _THEOREMS:
        return False
    if type(nodes) is not int or nodes < 0:
        return False
    if rec.oracle == "witness":
        if type(rec.witness) is not str or type(rec.mu) is not str:
            return False
    elif rec.witness is not None or rec.mu is not None:
        return False
    elif rec.oracle == "skipped" and nodes != 0:
        return False
    return rec.agree is _agreement(rec.theorem, rec.oracle)


def emit_records(records: list[VerdictRecord], path) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for rec in records:
            fh.write(rec.to_json())
            fh.write("\n")


def load_records(path) -> list[VerdictRecord]:
    out = []
    with open(path, "r", encoding="utf-8") as fh:
        for lineno, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                out.append(VerdictRecord.from_json(line))
            except (json.JSONDecodeError, TypeError) as exc:
                raise ValueError(f"{path}: bad record on line {lineno}: {exc}")
    return out


# --- family audit ------------------------------------------------------------

# cycles the per-diameter statements omit are expected and documented
_EXPECTED_CYCLES = {
    (1, 3): (6, 7),
    (1, 4): (8, 9),
}


@dataclass
class AuditReport:
    scopes: list[tuple[int, int, int]]  # (cycle_rank, diameter, n_max)
    family_counts: dict[str, int] = field(default_factory=dict)
    unrecognized: list[str] = field(default_factory=list)
    cycle_entries: list[str] = field(default_factory=list)
    variant_entries: dict[str, int] = field(default_factory=dict)
    gensun_entries: list[str] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @property
    def clean(self) -> bool:
        return not self.unrecognized

    def to_text(self) -> str:
        lines = ["family audit"]
        for rank, diam, n_max in self.scopes:
            kind = "unicyclic" if rank == 1 else "bicyclic"
            lines.append(f"  scope: {kind}, diameter {diam}, n <= {n_max}")
        lines.append("  per-family class counts:")
        for fam in sorted(self.family_counts):
            lines.append(f"    {fam}: {self.family_counts[fam]}")
        if self.cycle_entries:
            lines.append("  cycle entries (documented exception):")
            for c in self.cycle_entries:
                lines.append(f"    {c}")
        if self.variant_entries:
            lines.append("  position variants outside the drawn families "
                         "(documented; excluded from the prediction grid):")
            for k in sorted(self.variant_entries):
                lines.append(f"    {k}: {self.variant_entries[k]}")
        if self.gensun_entries:
            lines.append("  generalized suns outside the drawn families "
                         "(documented):")
            for s in self.gensun_entries:
                lines.append(f"    {s}")
        for note in self.notes:
            lines.append(f"  note: {note}")
        lines.append(
            "  unrecognized: "
            + (f"{len(self.unrecognized)}" if self.unrecognized else "none")
        )
        for u in self.unrecognized:
            lines.append(f"    {u}")
        return "\n".join(lines) + "\n"


def audit_families(nmax_uni: int = 10, nmax_bi: int = 9) -> AuditReport:
    """Enumerate small graphs per scope and recognize each into the atlas.

    The report must show zero unrecognized graphs; the cycle rows the
    per-diameter theorems skip, the four-parameter reading of the C4 sun,
    and the undrawn position variants are documented explicitly.
    """
    if nmax_uni > 10 or nmax_bi > 9:
        raise GraphError("audit bounds: unicyclic n <= 10, bicyclic n <= 9")
    # a scope that can hold no graph would pass vacuously
    if nmax_uni < 3 or nmax_bi < 4:
        raise GraphError("audit bounds: unicyclic n >= 3, bicyclic n >= 4")
    # one growth per cycle rank serves every diameter of that rank
    growths = ((1, (1, 2, 3, 4), nmax_uni), (2, (3,), nmax_bi))
    scopes = [(rank, d, n_max) for rank, diams, n_max in growths for d in diams]
    report = AuditReport(scopes=scopes)
    for rank, diams, n_max in growths:
        by_diam = classes_by_diameter(n_max, rank, max(diams))
        for diam in diams:
            for code, g in by_diam[diam].items():
                inst = recognize_code(g.n, code)
                if inst is None:
                    report.unrecognized.append(
                        f"rank {rank} diam {diam} n={g.n} edges={list(g.edges)}"
                    )
                    continue
                label = _def_of(inst).name
                report.family_counts[label] = report.family_counts.get(label, 0) + 1
                if inst.family == "CYCLE":
                    report.cycle_entries.append(
                        f"C{inst.pendant_params[0]} (diameter {diam})"
                    )
                if inst.variant is not None:
                    report.variant_entries[label] = (
                        report.variant_entries.get(label, 0) + 1
                    )
                if inst.family == "GENSUN":
                    report.gensun_entries.append(inst.render())
        del by_diam  # the rank-1 classes are not kept while rank 2 grows
    for (rank, diam), ks in _EXPECTED_CYCLES.items():
        present = [k for k in ks if f"C{k} (diameter {diam})"
                   in report.cycle_entries]
        if present:
            report.notes.append(
                f"diameter-{diam} cycles {', '.join('C%d' % k for k in present)} "
                "are regular, hence magic over every group; the diameter-"
                f"{diam} statement does not list them"
            )
    report.notes.append(
        "the all-support C4 sun is implemented with four pendant parameters; "
        "its statement names three"
    )
    return report
