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

The search mechanizes the proof moves used throughout the characterizations,
on one path for every graph.  It reads the pendant bunches
(`graphs.pendant_bunches`) once and searches the core, i.e. every vertex
that is not a pendant, for each searched constant mu: it forces every
support vertex's label to mu, propagates "last unlabeled neighbor" forcings
(rejecting zero), prunes any completed neighborhood whose weight misses mu,
and aggregates each support's pendant bunch into a sum-feasibility
constraint (nonzero decompositions exist exactly per the decomposition
lemma).  A witness's bunches are then filled by `labeling.fill_pendants`.
K1 and K2 follow the same rule: for n <= 2 the core is every vertex, so the
two ends of K2, each the other's support, are searched and not aggregated.
Beyond the size bound it refuses rather than guess.
"""

from __future__ import annotations

import time
from dataclasses import dataclass

from . import kernels
from .abelian import GroupCatalog, GroupSpec, cayley_tables, mu_orbits
from .graphs import Graph, degrees_same_parity, pendant_bunches, support_vertices
from .labeling import Labeling, MagicCertificate, fill_pendants, verify_magic

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
    bunches = pendant_bunches(g)
    # the core is every vertex but the pendants; the two ends of K2 support
    # each other, so for n <= 2 nothing is aggregated
    pendants = set().union(*bunches) if g.n > 2 else set()
    core = [v for v in range(g.n) if v not in pendants]
    index = {v: i for i, v in enumerate(core)}
    neigh = tuple(tuple([index[w] for w in g.adj[v] if w in index]) for v in core)
    # neighbours outside the core are the aggregated pendant bunch
    pend = [g.degree(v) - len(nv) for v, nv in zip(core, neigh)]
    nodes = 0
    for mu in _constants(spec, any(bunches)):
        forced = [mu if bunches[v] else -1 for v in core]
        labels, nd = kernels.search_exists(
            len(core), neigh, pend, forced, m, add, neg, mu
        )
        nodes += nd
        if labels is None:
            continue
        values: list = [None] * g.n
        for v, x in zip(core, labels):
            values[v] = spec.element_at(x)
        # by the bunch feasibility the search checked, this cannot fail
        fill_pendants(g, spec, values, spec.element_at(mu))
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
