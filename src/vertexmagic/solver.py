"""Existence oracle for A-vertex-magic labelings.

Decides, by complete search, whether a graph admits a magic labeling over a
given finite abelian group.  A Witness outcome carries a verified labeling;
an Exhausted outcome means the whole space (A∖{0})^V was covered for every
candidate constant, so it is a proof for that group.

Candidate constants are searched one per Aut(A)-orbit: an automorphism phi
of A maps every magic labeling with constant mu to one with constant
phi(mu), so every mu in an orbit has the same answer (and the same number
of labelings).  Only the least mu of each orbit is searched, in index order
(`abelian.mu_orbits`).  The first witness is unchanged by this: it sits at
the first mu that has any labeling, which is the least of its orbit.  An
exhausted search's `nodes` counts the representatives' slices only.

The search mechanizes the proof moves used throughout the characterizations:
for each searched constant mu it forces every support vertex's label to mu,
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
from .abelian import GroupCatalog, GroupSpec, cayley_tables, decompose_sum, mu_orbits
from .graphs import Graph, degrees_same_parity, support_vertices
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


def _constants(spec: GroupSpec, has_supports: bool) -> list[int]:
    """The least mu of each Aut(A)-orbit, ascending.  mu = 0 is left out
    when the graph has a support vertex, whose label is mu and is the weight
    of its pendant."""
    rep, _ = mu_orbits(spec)
    return [
        mu for mu, r in enumerate(rep)
        if r == mu and not (has_supports and mu == 0)
    ]


def exists_magic(g: Graph, spec: GroupSpec, max_n: int = EXISTS_MAX_N) -> SolveOutcome:
    """Complete existence search, one candidate constant per Aut(A)-orbit."""
    if g.n > max_n:
        raise SolverBoundError(f"n = {g.n} exceeds the solver bound {max_n}")
    t0 = time.perf_counter()
    m, add, neg = cayley_tables(spec)
    nodes = 0

    split = _core_split(g)
    if split is None:
        # tiny/degenerate graphs: full DFS over all vertices, no aggregation
        supports = support_vertices(g)
        for mu in _constants(spec, bool(supports)):
            forced = [-1] * g.n
            for s in supports:
                forced[s] = mu
            labels, nd = kernels.search_exists(
                g.n, g.adj, [0] * g.n, forced, m, add, neg, mu
            )
            nodes += nd
            if labels is not None:
                lab = Labeling(spec, tuple(spec.element_at(i) for i in labels))
                cert = _certify(g, lab)
                return SolveOutcome("witness", lab, cert, nodes, time.perf_counter() - t0)
        return SolveOutcome("exhausted", None, None, nodes, time.perf_counter() - t0)

    core, pend_count, neigh = split
    # the supports are exactly the core vertices that carry pendants
    for mu in _constants(spec, any(pend_count)):
        forced = [mu if c else -1 for c in pend_count]
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
    """Exact number of magic labelings (tighter bounds than exists_magic).

    Counts at one constant per Aut(A)-orbit and weights it by the orbit's
    size.
    """
    if g.n > max_n:
        raise SolverBoundError(f"n = {g.n} exceeds the counting bound {max_n}")
    if spec.order > max_order:
        raise SolverBoundError(
            f"|A| = {spec.order} exceeds the counting bound {max_order}"
        )
    m, add, neg = cayley_tables(spec)
    _, size = mu_orbits(spec)
    supports = support_vertices(g)
    total = 0
    for mu in _constants(spec, bool(supports)):
        forced = [-1] * g.n
        for s in supports:
            forced[s] = mu
        cnt, _ = kernels.search_count(g.n, g.adj, forced, m, add, neg, mu)
        total += cnt * size[mu]
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
