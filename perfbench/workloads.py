"""The benchmark's workloads: input generation, timed body and output checks.

Each workload is a class with three steps, run in this order by `worker.py`
in a fresh process:

* `__init__(seed, reduced, scratch)` generates the inputs (the set-up);
  `scratch` is a directory the workload may write to;
* `run()` is the timed body: every call into vertexmagic goes through a
  module attribute (`solver.exists_magic`, never a local copy), so that the
  traced run's wrappers see it.  The per-item calls, named by `call`, are
  timed one by one;
* `check()` verifies the outputs and returns (ops, failures, digest,
  counts), where counts are the deterministic counts read from return
  values: records and their `nodes` total (the ledger), and the nodes of
  the SolveOutcomes the benchmark receives itself (the deep solves of
  campaign, the refutations of atlas).

The seed only draws the order in which the per-item calls are made.  The
item sets are fixed, because the work per item is not: re-labelling the
vertices of one n = 13 graph moves its solver nodes between 0.12 M and
3.2 M, and drawing new graphs moves a graph's cost between 0.01 s and 6 s,
so seeded items would swamp any change the benchmark is meant to show.
With fixed items, every deterministic count is the same on every seed.

`reduced=True` shrinks every workload to a few seconds for the benchmark's
own tests; the reference digests hold for the full inputs only.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
from time import perf_counter

from vertexmagic import (
    abelian,
    characterize,
    families,
    graphs,
    labeling,
    oracle,
    solver,
    workbench,
)

# arXiv 2303.04588; the deep-solve graphs are drawn from it once per process
GRAPH_SEED = 2303
# five graphs, as in the first prototype; two of the first ten drawn take
# 5-6 s each, and all ten (12 s) would leave a 60-s campaign run only 3
# repetitions
DEEP_GRAPHS = 5
DEEP_N = 13  # solver.EXISTS_MAX_N
DEEP_MIN_ORDER, DEEP_MAX_ORDER = 16, 32
# n >= 11 excluded for run length: the cold n = 11 index alone takes 6-7 s
# per repetition (n = 12: ~60 s), too long for enough repetitions per run
ATLAS_MAX_N = 10
CAMPAIGN_ORDER = 16
# every third grid instance (253 of 759) for run length: over the whole grid
# the ledger alone took 8-12 s a repetition
CAMPAIGN_STRIDE = 3


def digest(lines) -> str:
    h = hashlib.sha256()
    for line in lines:
        h.update(line.encode())
        h.update(b"\n")
    return h.hexdigest()


def _timed(times: list[float], fn, *args):
    t0 = perf_counter()
    out = fn(*args)
    times.append(perf_counter() - t0)
    return out


class Ledger:
    """crosscheck over every third standard-grid instance x the catalog of
    order <= 16, then emit, load and recheck; the first half of `campaign`."""

    call = "workbench.recheck_record"

    def __init__(self, seed: int, reduced: bool, scratch: str) -> None:
        grid = workbench.standard_grid()
        self.grid = grid[:: 4 * CAMPAIGN_STRIDE if reduced else CAMPAIGN_STRIDE]
        self.catalog = workbench.standard_catalog(4 if reduced else CAMPAIGN_ORDER)
        self.path = os.path.join(scratch, "records.jsonl")
        n_records = len(self.grid) * len(self.catalog)
        self.order = random.Random(seed).sample(range(n_records), n_records)
        self.times: list[float] = []

    def run(self) -> None:
        self.records = workbench.crosscheck(self.grid, self.catalog)
        workbench.emit_records(self.records, self.path)
        self.loaded = workbench.load_records(self.path)
        self.rechecked = [None] * len(self.loaded)
        for i in self.order:
            self.rechecked[i] = _timed(
                self.times, workbench.recheck_record, self.loaded[i]
            )

    def check(self):
        failures = []
        if self.loaded != self.records:
            failures.append("load_records does not round-trip emit_records")
        for rec in workbench.discrepancies(self.records):
            failures.append(f"ledger row {rec.instance} over {rec.group}")
        for rec, ok in zip(self.loaded, self.rechecked):
            if not ok:
                failures.append(f"recheck failed: {rec.instance} over {rec.group}")
        for rec in self.records:
            if rec.oracle == "witness" and not _witness_row_verifies(rec):
                failures.append(f"bad witness: {rec.instance} over {rec.group}")
        lines = []
        for rec in self.records:
            row = json.loads(rec.to_json())
            del row["nodes"]
            lines.append(json.dumps(row, sort_keys=True))
        counts = {
            "records": len(self.records),
            "record_nodes": sum(r.nodes for r in self.records),
            "solve_nodes": 0,
        }
        return len(self.loaded), failures, digest(lines), counts


def _witness_row_verifies(rec) -> bool:
    g, _ = families.build(families.parse_instance(rec.instance))
    spec = abelian.parse_group(rec.group)
    lab = labeling.parse_labeling(spec, rec.witness, g.n)
    cert = labeling.verify_magic(g, lab)
    return cert is not None and str(cert.constant) == rec.mu


class Atlas:
    """The family audit, then classify every standard-grid graph with n <= 10."""

    call = "characterize.classify_group_vertex_magic"

    def __init__(self, seed: int, reduced: bool, scratch: str) -> None:
        self.bounds = (6, 6) if reduced else (10, 9)
        max_n = 8 if reduced else ATLAS_MAX_N
        self.items = []
        for inst in workbench.standard_grid():
            g, _ = families.build(inst)
            if g.n <= max_n:
                self.items.append((inst, g))
        self.order = random.Random(seed).sample(
            range(len(self.items)), len(self.items)
        )
        self.times: list[float] = []

    def run(self) -> None:
        self.report = workbench.audit_families(*self.bounds)
        self.verdicts = [None] * len(self.items)
        self.refutations = {}
        for i in self.order:
            g = self.items[i][1]
            verdict = _timed(
                self.times, characterize.classify_group_vertex_magic, g
            )
            self.verdicts[i] = verdict
            if verdict.outcome == "no" and verdict.refuter is not None:
                self.refutations[i] = solver.exists_magic(g, verdict.refuter)

    def check(self):
        failures = [f"unrecognized: {u}" for u in self.report.unrecognized]
        lines = self.report.to_text().splitlines()
        for i, ((inst, g), v) in enumerate(zip(self.items, self.verdicts)):
            lines.append(f"{inst.render()} {v.outcome} {v.rule} {v.refuter}")
            if v.outcome != "no":
                continue
            out = self.refutations.get(i)
            if out is None:
                failures.append(f"no refuter named: {inst.render()}")
            elif out.status != "exhausted":
                failures.append(f"refuter {v.refuter} does not refute {inst.render()}")
        audited = sum(self.report.family_counts.values()) + len(
            self.report.unrecognized
        )
        counts = {
            "records": 0,
            "record_nodes": 0,
            "solve_nodes": sum(o.nodes for o in self.refutations.values()),
        }
        return audited + len(self.items), failures, digest(lines), counts


def ear_graph(rng: random.Random, n: int) -> tuple[graphs.Graph, int]:
    """A connected graph on n vertices with minimum degree >= 2, and its
    cycle rank (2 or 3): a cycle plus one or two ears, built directly.

    An ear is a path between two distinct existing vertices; ears with
    internal vertices are placed first, so a chord (an ear without internal
    vertices) always finds a non-adjacent pair.
    """
    rank = rng.choice((2, 3))
    c = rng.randint(3, n - 1)
    internal = n - c
    cuts = sorted(rng.randint(0, internal) for _ in range(rank - 2))
    parts = sorted(
        (b - a for a, b in zip([0] + cuts, cuts + [internal])), reverse=True
    )
    edges = {(i, i + 1) for i in range(c - 1)} | {(0, c - 1)}
    nv = c
    for p in parts:
        pairs = [(u, v) for u in range(nv) for v in range(u + 1, nv)
                 if p > 0 or (u, v) not in edges]
        u, v = rng.choice(pairs)
        path = [u, *range(nv, nv + p), v]
        edges |= {(min(a, b), max(a, b)) for a, b in zip(path, path[1:])}
        nv += p
    return graphs.Graph.from_edges(n, sorted(edges)), rank


def petersen() -> graphs.Graph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    spokes = [(i, i + 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    return graphs.Graph.from_edges(10, outer + spokes + inner)


class DeepSolve:
    """exists_magic on pendant-free n = 13 graphs over every group of order
    16..32, then count_magic against the naive oracle at the counting bound;
    the second half of `campaign`."""

    def __init__(self, seed: int, reduced: bool, scratch: str) -> None:
        rng = random.Random(GRAPH_SEED)
        self.graphs = []
        for _ in range(2 if reduced else DEEP_GRAPHS):
            g, rank = ear_graph(rng, DEEP_N)
            if g.n != DEEP_N or graphs.cycle_rank(g) != rank or min(g.degrees) < 2:
                raise RuntimeError(f"generator broke its contract: {g.edges}")
            self.graphs.append(g)
        self.groups = [
            s for s in workbench.standard_catalog(DEEP_MAX_ORDER)
            if DEEP_MIN_ORDER <= s.order
        ]
        if reduced:
            self.groups = self.groups[:6]
        self.pairs = [(g, s) for g in self.graphs for s in self.groups]
        self.order = random.Random(seed).sample(
            range(len(self.pairs)), len(self.pairs)
        )
        count_graphs = [ear_graph(rng, 8)[0], petersen()]
        if not reduced:
            count_graphs.insert(1, ear_graph(rng, solver.COUNT_MAX_N)[0])
        count_groups = [
            s for s in workbench.standard_catalog(solver.COUNT_MAX_ORDER)
            if not reduced or s.order <= 3
        ]
        self.counts_in = [(g, s) for g in count_graphs for s in count_groups]

    def run(self) -> None:
        self.outcomes = [None] * len(self.pairs)
        for i in self.order:
            self.outcomes[i] = solver.exists_magic(*self.pairs[i])
        self.counts = [
            (solver.count_magic(g, s), oracle.naive_count(g, s))
            for g, s in self.counts_in
        ]

    def check(self):
        failures = []
        lines = []
        for (g, s), out in zip(self.pairs, self.outcomes):
            witness = out.labeling.render() if out.labeling is not None else "-"
            mu = out.certificate.constant if out.certificate is not None else "-"
            lines.append(f"{g.edges} {s} {out.status} {mu} {witness}")
            if out.is_witness:
                cert = labeling.verify_magic(g, out.labeling)
                if cert is None or cert.constant != out.certificate.constant:
                    failures.append(f"witness fails verify_magic: {g.edges} {s}")
        for (g, s), (pruned, naive) in zip(self.counts_in, self.counts):
            lines.append(f"count {g.edges} {s} {pruned}")
            if pruned != naive:
                failures.append(f"count {pruned} != naive {naive}: {g.edges} {s}")
        counts = {
            "records": 0,
            "record_nodes": 0,
            "solve_nodes": sum(o.nodes for o in self.outcomes),
        }
        return len(self.pairs) + len(self.counts), failures, digest(lines), counts


class Campaign:
    """The ledger, then the deep solves and the oracle counts, in one process.

    The per-item calls timed for the call metrics are the ledger's
    rechecks; the deep solves count in wall_s only.
    """

    call = Ledger.call

    def __init__(self, seed: int, reduced: bool, scratch: str) -> None:
        self.ledger = Ledger(seed, reduced, scratch)
        self.deep = DeepSolve(seed, reduced, scratch)
        self.times = self.ledger.times

    def run(self) -> None:
        self.ledger.run()
        self.deep.run()

    def check(self):
        ops, failures, ledger_digest, counts = self.ledger.check()
        deep_ops, deep_failures, deep_digest, deep_counts = self.deep.check()
        counts["solve_nodes"] = deep_counts["solve_nodes"]
        return (ops + deep_ops, failures + deep_failures,
                digest([ledger_digest, deep_digest]), counts)


WORKLOADS = {"campaign": Campaign, "atlas": Atlas}
