"""Existence and counting oracle for A-vertex-magic labelings.

Decides, by complete search, whether a graph admits a magic labeling over a
given finite abelian group, and counts its magic labelings.  A Witness outcome carries a verified labeling;
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
and aggregates each support's pendant bunch by the number of its nonzero
decompositions (`kernels._bunch_ways`, the decomposition lemma counted).
A witness's bunches are then filled by `labeling.fill_pendants`.
K1 and K2 follow the same rule: for n <= 2 the core is every vertex, so the
two ends of K2, each the other's support, are searched and not aggregated.

Before any slice is searched, an integer-lattice presolve reads what the
core's linear equations imply over every group (the shared-neighbourhood
obstruction is its two-row case).  Its rows are Sum_{u in N(w)} x_u = mu
for each core vertex w without a pendant bunch, and x_s = mu for each
support s; a support's own weight row is dropped, since its pendant sum is
no exact equation.  The Hermite normal form of [R | -1] gives two facts:
d0 with d0 * mu = 0, and, for each core vertex v whose unit vector lies in
the row lattice projected onto R, an integer k_v with x_v = k_v * mu.  A
slice with d0 * mu != 0 or some k_v * mu = 0 is closed at 0 nodes; the
other slices are searched exactly as without the presolve, so the witness,
its mu and every record stay the same and `nodes` can only fall.

The core system and its facts are computed once per graph, whatever the
group, and cached as one plan (`_plan`); the slices left open are computed
once per group and set of facts (`_open_slices`).  A call then pays for the
bounds, the Cayley tables, the plan lookup and the open slices' searches.
`count_magic` searches the same plan and open slices to the end: a closed
slice has no labeling to count.

Beyond the size bound (n <= EXISTS_MAX_N, |A| <= EXISTS_MAX_ORDER) it
refuses rather than guess.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

from . import kernels
from .abelian import GroupCatalog, GroupSpec, cayley_tables, mu_orbits
from .graphs import Graph, degrees_same_parity, pendant_bunches
from .labeling import Labeling, MagicCertificate, fill_pendants, verify_magic

EXISTS_MAX_N = 13
# The m*m Cayley table (`abelian.cayley_tables`) is built before any search
# and costs ~4x per doubling of |A|: C4 over Z256 sets up in 0.3 s (0.65 s
# through `vmagic solve`), over Z512 in 1.1 s (1.6 s) and over Z1024 in
# 5.0 s through `vmagic solve` (2 cores, Python 3.11).  Past 256 the table,
# not the search, becomes what a call pays for.
EXISTS_MAX_ORDER = 256
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


def _hermite(rows: list[list[int]], ncols: int) -> list[list[int]]:
    """Hermite normal form of the lattice the integer rows span.

    Unimodular row operations only (Euclid on each column, then reduction of
    the rows above): the nonzero rows come back with strictly increasing
    pivot columns, positive pivots, and entries above each pivot in
    [0, pivot).
    """
    rows = [r[:] for r in rows if any(r)]
    basis: list[list[int]] = []
    for col in range(ncols):
        live = [r for r in rows if r[col]]
        if not live:
            continue
        rest = [r for r in rows if not r[col]]
        while True:
            piv = min(live, key=lambda r: abs(r[col]))
            left = []
            for r in live:
                if r is not piv:
                    q = r[col] // piv[col]
                    r[col:] = [a - q * b for a, b in zip(r[col:], piv[col:])]
                    (left if r[col] else rest).append(r)
            if not left:
                break
            live = left + [piv]
        if piv[col] < 0:
            piv[col:] = [-a for a in piv[col:]]
        for r in basis:
            q = r[col] // piv[col]
            if q:
                r[col:] = [a - q * b for a, b in zip(r[col:], piv[col:])]
        basis.append(piv)
        rows = [r for r in rest if any(r)]
    return basis


def _lattice_facts(neigh, pend, support) -> tuple[int, tuple[tuple[int, int], ...]]:
    """(d0, ((v, k_v), ...)) read from the Hermite normal form of the core
    system [R | -1].

    R holds Sum_{u in neigh(w)} x_u = mu for each core vertex w without a
    pendant bunch, and x_s = mu for each support s.  A support's own weight
    row is left out: its pendants' labels are free, so it is no exact
    equation on the core.  Every integer combination of the rows holds in
    every magic labeling, over every group.  A combination with a zero
    R-part yields d0 * mu = 0 (d0 = 0 when there is none), and one whose
    R-part is the unit vector of v yields x_v = k_v * mu (k_v is defined
    mod d0).  The pairs (v, k_v) are listed for the vertices that are no
    supports and have such a combination.

    Subtracting the rows x_s = mu clears the support columns of the other
    rows without changing the lattice.  A combination whose R-part vanishes,
    or is e_v for a vertex v that is no support, then uses no x_s = mu row,
    so the cleared rows alone give d0 and those k_v.  A support's x_s = mu
    is the forcing the search applies anyway, so it is not listed.
    """
    c = len(neigh)
    rows = []
    for w, nw in enumerate(neigh):
        if not pend[w]:
            row = [0] * (c + 1)
            for u in nw:
                row[c if support[u] else u] += 1
            row[c] -= 1
            rows.append(row)
    basis = _hermite(rows, c + 1)
    # only the last basis row can have a zero R-part: the one pivoting on mu
    d0 = basis[-1][c] if basis and not any(basis[-1][:c]) else 0
    fixed = []
    for r in basis:
        # the basis is fully reduced, so e_v lies in the projected lattice
        # exactly when some basis row is (e_v, b); then x_v = -b * mu
        if sum(map(abs, r[:c])) == 1:
            fixed.append((r.index(1), -r[c] % d0 if d0 else -r[c]))
    return d0, tuple(fixed)


# records are rechecked in any order, so the bound holds the whole standard
# grid (759 instances, ~0.9 KB each), not just the last few graphs
@lru_cache(maxsize=1024)
def _plan(g: Graph):
    """(core, neigh, pend, support, d0, facts), computed once per graph
    whatever the group: the vertices the search labels, their core
    neighbours (as core indices), the size of their pendant bunch, whether
    they are supports, and the presolve's facts on that core system
    (`_lattice_facts`).  Tuples and ints only, so no caller can change a
    cached plan."""
    bunches = pendant_bunches(g)
    # the core is every vertex but the pendants; the two ends of K2 support
    # each other, so for n <= 2 nothing is aggregated
    pendants = set().union(*bunches) if g.n > 2 else set()
    core = tuple([v for v in range(g.n) if v not in pendants])
    index = {v: i for i, v in enumerate(core)}
    neigh = tuple([tuple([index[w] for w in g.adj[v] if w in index]) for v in core])
    # neighbours outside the core are the aggregated pendant bunch
    pend = tuple([g.degree(v) - len(nv) for v, nv in zip(core, neigh)])
    support = tuple([bool(bunches[v]) for v in core])
    return (core, neigh, pend, support, *_lattice_facts(neigh, pend, support))


def lattice_facts(g: Graph) -> tuple[int, dict[int, int]]:
    """The presolve's facts over g's own vertices: (d0, {v: k_v}), i.e.
    d0 * mu = 0 and x_v = k_v * mu in every magic labeling over any group,
    for the core vertices that are no supports (a support's label is mu)."""
    core, _, _, _, d0, fixed = _plan(g)
    return d0, {core[v]: kv for v, kv in fixed}


def _closed(spec: GroupSpec, mu: int, d0: int, fixed) -> bool:
    """Whether the facts refute this mu: d0 * mu != 0, or some k_v * mu = 0
    although x_v must be nonzero."""
    x = spec.element_at(mu)
    return not (d0 * x).is_zero() or any((kv * x).is_zero() for _, kv in fixed)


# keyed on the facts, not on the graph, so graphs that share them share the
# slices; the standard grid over the catalog of order <= 16 has 1,152 keys
@lru_cache(maxsize=4096)
def _open_slices(spec: GroupSpec, has_supports: bool, d0: int, facts) -> tuple[int, ...]:
    """The least mu of each Aut(A)-orbit, ascending, that the facts do not
    refute; mu = 0 is left out when the graph has a support vertex, whose
    label is mu and is the weight of its pendant."""
    rep, _ = mu_orbits(spec)
    return tuple([
        mu for mu, r in enumerate(rep)
        if r == mu and not (has_supports and mu == 0)
        and not _closed(spec, mu, d0, facts)
    ])


def exists_magic(g: Graph, spec: GroupSpec) -> SolveOutcome:
    """Complete existence search, one candidate constant per Aut(A)-orbit."""
    if g.n > EXISTS_MAX_N:
        raise SolverBoundError(
            f"n = {g.n} exceeds the solver bound {EXISTS_MAX_N}"
        )
    if spec.order > EXISTS_MAX_ORDER:
        raise SolverBoundError(
            f"|A| = {spec.order} exceeds the solver bound {EXISTS_MAX_ORDER}"
        )
    m, add, neg = cayley_tables(spec)
    core, neigh, pend, support, d0, facts = _plan(g)
    nodes = 0
    # slices the presolve closes are skipped, at 0 nodes
    for mu in _open_slices(spec, any(support), d0, facts):
        forced = [mu if s else -1 for s in support]
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
        return SolveOutcome("witness", lab, cert, nodes)
    return SolveOutcome("exhausted", None, None, nodes)


def count_magic(g: Graph, spec: GroupSpec) -> int:
    """Exact number of magic labelings (tighter bounds than exists_magic).

    Searches `exists_magic`'s plan and open slices to the end and weights
    each slice's count by its orbit's size.
    """
    if g.n > COUNT_MAX_N:
        raise SolverBoundError(
            f"n = {g.n} exceeds the counting bound {COUNT_MAX_N}"
        )
    if spec.order > COUNT_MAX_ORDER:
        raise SolverBoundError(
            f"|A| = {spec.order} exceeds the counting bound {COUNT_MAX_ORDER}"
        )
    m, add, neg = cayley_tables(spec)
    _, size = mu_orbits(spec)
    core, neigh, pend, support, d0, facts = _plan(g)
    total = 0
    for mu in _open_slices(spec, any(support), d0, facts):
        forced = [mu if s else -1 for s in support]
        cnt, _ = kernels.search_count(
            len(core), neigh, pend, forced, m, add, neg, mu
        )
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
