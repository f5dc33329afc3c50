"""Command-line workbench.

Exit codes: 0 on success, 1 when `crosscheck --strict` finds a nonempty
discrepancy ledger, 2 on usage errors, on a file that cannot be read or
written, and on instances beyond a documented solver bound.  A
ContractError or a WitnessError still escapes as a traceback: it signals a
bug, not a bound.  A construction recipe raises the first when it has no
labeling to give, and a labeling that fails verification, whether a search
witness or a recipe's construction (`solver.complete_labeling`), raises
the second.
"""

from __future__ import annotations

import argparse
import os
import sys

from .abelian import (
    LITERAL_TABLE_MAX_ORDER,
    GroupError,
    enumerate_abelian_groups,
    exponent,
    involutions,
    parse_group,
    squares,
)
from .characterize import classify_group_vertex_magic, construct_labeling, predict
from .families import (
    FamilyError,
    atlas_entries,
    build,
    parse_instance,
)
from .graphs import GraphError, classify_vertices, read_graph_file, to_dot
from .labeling import (
    InvalidLabelingError,
    parse_labeling,
    verify_magic,
    weight,
)
from .solver import SolverBoundError, count_magic, exists_magic
from .workbench import (
    audit_families,
    crosscheck,
    discrepancies,
    emit_records,
    standard_catalog,
)


class _UsageError(Exception):
    pass


def _load_target(target: str):
    """A family instance literal, or a path to a graph file."""
    if os.path.exists(target):
        with open(target, "r", encoding="utf-8") as fh:
            g = read_graph_file(fh.read())
        return g, None
    try:
        inst = parse_instance(target)
    except FamilyError as exc:
        raise _UsageError(
            f"{target!r} is neither a family instance nor a readable file "
            f"({exc})"
        )
    g, _ = build(inst)
    return g, inst


def _check_order(name: str, order: int, command: str) -> None:
    """Refuse a group order past the bound of a command that lists every
    element of a group, or every group up to an order."""
    if order > LITERAL_TABLE_MAX_ORDER:
        raise _UsageError(
            f"{name} = {order} exceeds the {command} bound "
            f"{LITERAL_TABLE_MAX_ORDER}"
        )


def _cmd_group(args) -> int:
    if args.action == "list":
        _check_order("--max-order", args.max_order, "group list")
        for spec in enumerate_abelian_groups(args.max_order):
            print(spec)
        return 0
    spec = parse_group(args.spec)
    # involutions and squares list every element of the group
    _check_order("|A|", spec.order, "group info")
    canon = spec.canonical()
    print(f"group: {spec}")
    print(f"canonical: {canon}")
    print(f"order: {spec.order}")
    print(f"exponent: {exponent(spec)}")
    print("involutions:", " ".join(str(x) for x in sorted(
        involutions(spec), key=spec.index_of)) or "none")
    print("squares:", " ".join(str(x) for x in sorted(
        squares(spec), key=spec.index_of)) or "none")
    return 0


def _cmd_family(args) -> int:
    if args.action == "list":
        for entry in atlas_entries():
            slots = ",".join(entry.slots) or "-"
            hub = entry.hub_at or "-"
            print(f"{entry.name:22s} slots={slots:14s} hub={hub:3s} "
                  f"{entry.note}")
        return 0
    inst = parse_instance(args.instance)
    g, roles = build(inst)
    print(f"instance: {inst.render()}")
    print(f"n={g.n} m={g.m}")
    profile = classify_vertices(g)
    print(f"diameter={profile.diameter} cycle_rank={profile.cycle_rank}")
    print(f"degrees: {list(profile.degrees)}")
    for u, v in g.edges:
        print(f"  {u} {v}")
    if args.dot:
        with open(args.dot, "w", encoding="utf-8") as fh:
            fh.write(to_dot(g, roles, name=inst.render().replace("(", "_")
                            .replace(")", "").replace(",", "_")
                            .replace(";", "_").replace("[", "").replace("]", "")
                            .replace(":", "_").replace("=", "_")))
        print(f"dot written to {args.dot}")
    return 0


def _cmd_verify(args) -> int:
    g, _ = _load_target(args.target)
    spec = parse_group(args.group)
    lab = parse_labeling(spec, args.labels, g.n)
    cert = verify_magic(g, lab)
    if cert is None:
        print("not magic: induced weights differ")
    else:
        print(f"magic: {cert.render()}")
    if args.weights:
        for v in range(g.n):
            print(f"  w(v{v}) = {weight(g, lab, v)}")
    return 0


def _cmd_solve(args) -> int:
    g, _ = _load_target(args.target)
    spec = parse_group(args.group)
    if args.count:
        print(f"labelings: {count_magic(g, spec)}")
        return 0
    out = exists_magic(g, spec)
    if out.is_witness:
        print(f"witness: {out.labeling.render()}")
        print(f"mu={out.certificate.constant} nodes={out.nodes}")
    else:
        print(f"exhausted: no magic labeling over {spec} "
              f"(nodes={out.nodes})")
    return 0


def _cmd_predict(args) -> int:
    inst = parse_instance(args.instance)
    spec = parse_group(args.group)
    # the constructive recipes list every element of the group
    _check_order("|A|", spec.order, "predict")
    verdict = predict(inst, spec)
    print(f"{verdict.outcome} [{verdict.rule}]"
          + (f" {verdict.detail}" if verdict.detail else ""))
    if verdict.is_magic and args.construct:
        lab = construct_labeling(inst, spec)
        print(f"construction: {lab.render()}")
    return 0


def _cmd_classify(args) -> int:
    g, _ = _load_target(args.target)
    verdict = classify_group_vertex_magic(g)
    line = f"{verdict.outcome} [{verdict.rule}]"
    if verdict.refuter is not None:
        line += f" refuter={verdict.refuter}"
    print(line)
    return 0


def _cmd_crosscheck(args) -> int:
    # every group of the catalog goes through predict
    _check_order("--max-order", args.max_order, "crosscheck")
    catalog = standard_catalog(args.max_order)
    records = crosscheck(catalog=catalog)
    ledger = discrepancies(records)
    if args.out:
        emit_records(records, args.out)
        print(f"{len(records)} records written to {args.out}")
    agree = sum(1 for r in records if r.agree)
    skipped = sum(1 for r in records if r.oracle == "skipped")
    uncovered = sum(1 for r in records if r.agree is None and r.oracle != "skipped")
    print(f"records: {len(records)}  agree: {agree}  disagreements: "
          f"{len(ledger)}  skipped: {skipped}  uncovered: {uncovered}")
    for rec in ledger:
        print(f"  LEDGER {rec.instance} over {rec.group}: theorem "
              f"{rec.theorem} [{rec.rule}] vs oracle {rec.oracle}")
    if args.strict and ledger:
        return 1
    return 0


def _cmd_audit(args) -> int:
    report = audit_families(nmax_uni=args.nmax, nmax_bi=min(args.nmax, 9))
    text = report.to_text()
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(f"audit written to {args.out}")
    print(text, end="")
    return 0 if report.clean else 1


def build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="vmagic",
        description="workbench for vertex-magic labelings over finite "
                    "abelian groups",
    )
    sub = ap.add_subparsers(dest="cmd", required=True)

    g = sub.add_parser("group", help="group catalog and structure queries")
    gs = g.add_subparsers(dest="action", required=True)
    gl = gs.add_parser("list")
    gl.add_argument("--max-order", type=int, default=8)
    gi = gs.add_parser("info")
    gi.add_argument("spec")
    g.set_defaults(fn=_cmd_group)

    f = sub.add_parser("family", help="family atlas")
    fs = f.add_subparsers(dest="action", required=True)
    fs.add_parser("list")
    fb = fs.add_parser("build")
    fb.add_argument("instance")
    fb.add_argument("--dot", metavar="FILE")
    f.set_defaults(fn=_cmd_family)

    v = sub.add_parser("verify", help="check a labeling literal")
    v.add_argument("target", help="family instance or graph file")
    v.add_argument("--group", required=True)
    v.add_argument("--labels", required=True)
    v.add_argument("--weights", action="store_true")
    v.set_defaults(fn=_cmd_verify)

    s = sub.add_parser("solve", help="existence search over one group")
    s.add_argument("target")
    s.add_argument("--group", required=True)
    s.add_argument("--count", action="store_true")
    s.set_defaults(fn=_cmd_solve)

    p = sub.add_parser("predict", help="theorem verdict for an instance")
    p.add_argument("instance")
    p.add_argument("--group", required=True)
    p.add_argument("--construct", action="store_true")
    p.set_defaults(fn=_cmd_predict)

    c = sub.add_parser("classify", help="group-vertex-magic classification")
    c.add_argument("target")
    c.set_defaults(fn=_cmd_classify)

    x = sub.add_parser("crosscheck", help="theorem vs oracle campaign")
    x.add_argument("--max-order", type=int, default=8)
    x.add_argument("--out", metavar="FILE")
    x.add_argument("--strict", action="store_true")
    x.set_defaults(fn=_cmd_crosscheck)

    a = sub.add_parser("audit", help="family-coverage audit")
    a.add_argument("--nmax", type=int, default=10,
                   help="largest vertex count, 4..10 (bicyclic: at most 9)")
    a.add_argument("--out", metavar="FILE")
    a.set_defaults(fn=_cmd_audit)
    return ap


def main(argv=None) -> int:
    ap = build_parser()
    args = ap.parse_args(argv)
    try:
        return args.fn(args)
    except (_UsageError, GroupError, GraphError, FamilyError,
            InvalidLabelingError, SolverBoundError, OSError,
            UnicodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
