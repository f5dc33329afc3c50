"""Existence oracle for A-vertex-magic labelings.

Decides, by complete search, whether a graph admits a magic labeling over a
given finite abelian group.  A Witness outcome carries a verified labeling;
an Exhausted outcome means the whole space (A∖{0})^V was covered for every
candidate constant, so it is a proof for that group.

The search mechanizes the proof moves used throughout the characterizations:
for each candidate constant mu it forces every support vertex's label to mu,
propagates "last unlabeled neighbor" forcings (rejecting zero), prunes any
completed neighborhood whose weight misses mu, and aggregates each support's
pendant bunch into a sum-feasibility constraint (nonzero decompositions
exist exactly per the decomposition lemma), materialized afterwards.  Beyond
the size bound it refuses rather than guess.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import kernels
from .abelian import GroupCatalog, GroupSpec, cayley_tables, decompose_sum
from .graphs import Graph, classify_vertices, degrees_same_parity
from .labeling import Labeling, MagicCertificate, verify_magic

EXISTS_MAX_N = 13
COUNT_MAX_N = 10
COUNT_MAX_ORDER = 5


class SolverBoundError(ValueError):
    """Instance beyond the documented desk-scale bound; never a wrong answer."""


class WitnessError(RuntimeError):
    """A labeling the search produced failed verification: a solver bug."""


@dataclass(frozen=True)
class SolveOutcome:
    status: str  # "witness" | "exhausted"
    labeling: Labeling | None
    certificate: MagicCertificate | None
    nodes: int
    elapsed: float

    @property
    def is_witness(self) -> bool:
        return self.status == "witness"


@dataclass(frozen=True)
class EmpiricalVerdict:
    """Catalog sweep result: first refuting group, or survival (evidence)."""

    refuted_by: GroupSpec | None
    nodes: int

    @property
    def survives(self) -> bool:
        return self.refuted_by is None


def _core_split(g: Graph):
    """(core vertices, pendants-per-core-vertex) when aggregation applies."""
    if g.n <= 2:
        return None
    pendants = [v for v in range(g.n) if g.degree(v) == 1]
    if any(g.degree(g.adj[p][0]) == 1 for p in pendants):
        return None  # two adjacent degree-1 vertices (K2); no aggregation
    core = [v for v in range(g.n) if g.degree(v) > 1]
    core_index = {v: i for i, v in enumerate(core)}
    pend_count = [0] * len(core)
    for p in pendants:
        pend_count[core_index[g.adj[p][0]]] += 1
    neigh = tuple(
        tuple(core_index[w] for w in g.adj[v] if g.degree(w) > 1) for v in core
    )
    return core, pend_count, neigh


def _certify(g: Graph, lab: Labeling) -> MagicCertificate:
    # an explicit raise, not an assert, so the check survives python -O
    cert = verify_magic(g, lab)
    if cert is None:
        raise WitnessError("solver witness failed verification")
    return cert


def exists_magic(g: Graph, spec: GroupSpec, max_n: int = EXISTS_MAX_N) -> SolveOutcome:
    """Complete existence search over all candidate magic constants."""
    if g.n > max_n:
        raise SolverBoundError(f"n = {g.n} exceeds the solver bound {max_n}")
    t0 = time.perf_counter()
    m, add, neg = cayley_tables(spec)
    profile = classify_vertices(g)
    supports = sorted(profile.supports)
    nodes = 0

    split = _core_split(g)
    if split is None:
        # tiny/degenerate graphs: full DFS over all vertices, no aggregation
        neigh = g.adj
        forced_base = [-1] * g.n
        for mu in range(m):
            forced = list(forced_base)
            if supports:
                if mu == 0:
                    continue
                for s in supports:
                    forced[s] = mu
            labels, nd = kernels.search_exists(
                g.n, neigh, [0] * g.n, forced, m, add, neg, mu
            )
            nodes += nd
            if labels is not None:
                lab = Labeling(spec, tuple(spec.element_at(i) for i in labels))
                cert = _certify(g, lab)
                return SolveOutcome("witness", lab, cert, nodes, time.perf_counter() - t0)
        return SolveOutcome("exhausted", None, None, nodes, time.perf_counter() - t0)

    core, pend_count, neigh = split
    core_index = {v: i for i, v in enumerate(core)}
    for mu in range(m):
        if supports and mu == 0:
            continue
        forced = [-1] * len(core)
        for s in supports:
            forced[core_index[s]] = mu
        core_labels, nd = kernels.search_exists(
            len(core), neigh, pend_count, forced, m, add, neg, mu
        )
        nodes += nd
        if core_labels is None:
            continue
        # materialize pendant bunches deterministically via the
        # decomposition lemma; by feasibility this cannot fail
        values: list = [None] * g.n
        for i, v in enumerate(core):
            values[v] = spec.element_at(core_labels[i])
        mu_elem = spec.element_at(mu)
        for i, v in enumerate(core):
            if pend_count[i] == 0:
                continue
            partial = spec.zero()
            for w in g.adj[v]:
                if g.degree(w) > 1:
                    partial = partial + values[w]
            target = mu_elem - partial
            pendants = [w for w in g.adj[v] if g.degree(w) == 1]
            parts = decompose_sum(spec, target, len(pendants))
            for w, x in zip(sorted(pendants), parts):
                values[w] = x
        lab = Labeling(spec, tuple(values))
        cert = _certify(g, lab)
        return SolveOutcome("witness", lab, cert, nodes, time.perf_counter() - t0)
    return SolveOutcome("exhausted", None, None, nodes, time.perf_counter() - t0)


def count_magic(
    g: Graph,
    spec: GroupSpec,
    max_n: int = COUNT_MAX_N,
    max_order: int = COUNT_MAX_ORDER,
) -> int:
    """Exact number of magic labelings (tighter bounds than exists_magic)."""
    if g.n > max_n:
        raise SolverBoundError(f"n = {g.n} exceeds the counting bound {max_n}")
    if spec.order > max_order:
        raise SolverBoundError(
            f"|A| = {spec.order} exceeds the counting bound {max_order}"
        )
    m, add, neg = cayley_tables(spec)
    supports = sorted(classify_vertices(g).supports)
    total = 0
    for mu in range(m):
        if supports and mu == 0:
            continue
        forced = [-1] * g.n
        for s in supports:
            forced[s] = mu
        cnt, _ = kernels.search_count(g.n, g.adj, forced, m, add, neg, mu)
        total += cnt
    return total


def z2_magic(g: Graph) -> bool:
    """Z2 criterion: magic over Z2 exactly when all degrees share a parity."""
    return degrees_same_parity(g)


def is_group_vertex_magic_empirical(g: Graph, catalog: GroupCatalog) -> EmpiricalVerdict:
    """First catalog group with no magic labeling, else survival.

    Survival across a finite catalog is evidence, not a proof, of group
    vertex magicness; refutation is a proof.
    """
    if len(catalog) == 0:
        raise ValueError("catalog must be nonempty")
    nodes = 0
    for spec in catalog:
        out = exists_magic(g, spec)
        nodes += out.nodes
        if not out.is_witness:
            return EmpiricalVerdict(spec, nodes)
    return EmpiricalVerdict(None, nodes)
