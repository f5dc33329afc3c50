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
A witness's core labels then go to `complete_labeling`, which fills each
bunch on the Cayley tables with the lex-least nonzero decomposition
`abelian.decompose_sum` would give (`_bunch_labels`) and certifies the
labeling with `labeling.verify_magic`.  The constructive recipes of
`characterize` finish their labelings through it too, so every labeling
the program builds is completed and certified in one place.
K1 and K2 follow the same rule: for n <= 2 the core is every vertex, so the
two ends of K2, each the other's support, are searched and not aggregated.

Before any slice is searched, an integer-lattice presolve reads what the
core's linear equations imply over every group (the shared-neighbourhood
obstruction is its two-row case).  Its rows are Sum_{u in N(w)} x_u = mu
for each core vertex w without a pendant bunch, and x_s = mu for each
support s; a support's own weight row is dropped, since its pendant sum is
no exact equation.  (The full weight system, with a variable per pendant,
closes more slices, 22,230 -> 19,725 nodes at order 16, but cold plans for
the 759 grid graphs took 0.134 s against 0.031 s and the order-16
crosscheck 0.68 s against 0.56 s, so the aggregated core stays.)  The Hermite normal form of [R | -1] gives d0 with
d0 * mu = 0, and facts c * x_v + b * mu = 0, one per core vertex v at
most: a unit fact (c = 1, i.e. x_v = -b * mu) when the unit vector of v
lies in the row lattice projected onto R, read off that form, and
otherwise a torsion fact (c >= 2) from a second form with v's column next
to mu's.  M10(0,0) has 2 * x_5 = 0, so over a group of odd order x_5
would be 0.  Every refutation is one linear fact c * x + b * mu = 0 that
leaves x no nonzero value: d0 is the pair (0, d0), and a support, whose
label is mu, the pair (1, d0 - 1), i.e. x = mu once d0 * mu = 0.  Per
cyclic factor Z_f that is a gcd test on mu's residues (`_refutes`), with
no Cayley table, and a slice is closed at 0 nodes when some pair refutes
its mu.  The other slices are searched exactly as without the presolve, so
the witness, its mu and every record stay the same and `nodes` can only
fall.

The core system and its facts are computed once per graph, whatever the
group, and cached as one plan (`_plan`); the slices left open are computed
once per group and slice key (`_open_slices`): the sorted set of
refuting (c, b) pairs, without the facts' vertices, so graphs whose facts
differ only in their vertices share them.  A call then pays for the
bounds, the plan lookup and, when a slice is open, the Cayley tables and
the open slices' searches.
`count_magic` searches the same plan and open slices to the end: a closed
slice has no labeling to count.

Beyond the size bound (n <= EXISTS_MAX_N, |A| <= EXISTS_MAX_ORDER) it
refuses rather than guess.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import gcd

from . import kernels
from .abelian import GroupSpec, cayley_tables, mu_orbits
from .graphs import Graph, degrees_same_parity, pendant_bunches
from .labeling import Labeling, MagicCertificate, verify_magic

EXISTS_MAX_N = 13
# The m*m Cayley table (`abelian.cayley_tables`) and the Aut(A)-orbits of
# mu (`abelian.mu_orbits`) are built before any search, and each costs ~4x
# per doubling of |A|, the orbits about twice the table: C4 over Z256 sets
# up in 0.016 s (0.15 s through `vmagic solve`), over Z512 in 0.08 s and
# over Z1024 in 0.4 s, 0.3 s of it the orbits (2 cores, Python 3.11).  Past
# 256 the set-up, not the search, becomes what a call pays for; the bound
# stays at 256 so that the rows it marks `skipped` stay the same.
EXISTS_MAX_ORDER = 256
COUNT_MAX_N = 10
COUNT_MAX_ORDER = 5


class SolverBoundError(ValueError):
    """Instance beyond the documented desk-scale bound; never a wrong answer."""


class WitnessError(RuntimeError):
    """A completed labeling, a search witness or a recipe's construction,
    failed verification: a bug, never a bound."""


@dataclass(frozen=True)
class SolveOutcome:
    """A witness when `labeling` is set, else an exhausted search."""

    labeling: Labeling | None
    certificate: MagicCertificate | None
    nodes: int

    @property
    def is_witness(self) -> bool:
        return self.labeling is not None

    @property
    def status(self) -> str:
        return "witness" if self.labeling is not None else "exhausted"


@dataclass(frozen=True)
class EmpiricalVerdict:
    """Catalog sweep result: first refuting group, or survival (evidence)."""

    refuted_by: GroupSpec | None
    nodes: int

    @property
    def survives(self) -> bool:
        return self.refuted_by is None


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


def _lattice_facts(neigh, pend, support) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """(d0, ((v, c, b), ...)) read from Hermite normal forms of the core
    system [R | -1].

    R holds Sum_{u in neigh(w)} x_u = mu for each core vertex w without a
    pendant bunch, and x_s = mu for each support s.  A support's own weight
    row is left out: its pendants' labels are free, so it is no exact
    equation on the core.  Every integer combination of the rows holds in
    every magic labeling, over every group.  A combination with a zero
    R-part yields d0 * mu = 0 (d0 = 0 when there is none), and one whose
    R-part is c times the unit vector of v yields the fact
    c * x_v + b * mu = 0, with b reduced mod d0.  A unit fact (c = 1) is
    read off the Hermite form itself.  For every other vertex v on which a
    basis row pivots (no other vertex has a fact), a second form, of the
    rows from that one on with v's column moved just before mu's, gives the
    least such c >= 2 (a torsion fact), if there is one.

    Those extra forms are skipped when d0 and the unit facts already close
    every slice over every group: d0 = 1 on a graph with a support (mu = 0,
    which a support's pendant rules out), or a unit fact with b = 0 (x_v = 0).

    Subtracting the rows x_s = mu clears the support columns of the other
    rows without changing the lattice.  A combination whose R-part vanishes,
    or is c * e_v for a vertex v that is no support, then uses no x_s = mu
    row, so the cleared rows alone give d0 and those facts.  A support's
    x_s = mu is the forcing the search applies anyway, so it is not listed.
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
    facts = []
    for r in basis:
        # the basis is fully reduced, so e_v lies in the projected lattice
        # exactly when some basis row is (e_v, b); then x_v + b * mu = 0
        if sum(map(abs, r[:c])) == 1:
            facts.append((r.index(1), 1, r[c]))
    if (d0 == 1 and any(support)) or any(b == 0 for _, _, b in facts):
        return d0, tuple(facts)
    fixed = {v for v, _, _ in facts}
    for i, r in enumerate(basis):
        v = next(u for u, a in enumerate(r) if a)
        if v == c or v in fixed:
            continue
        # a combination (c_v * e_v, b) leads at v, so it uses no basis row
        # that pivots before v, and v must be a pivot; moving v's column
        # next to mu's, the Hermite form of the rows from v's on has it as
        # the row that pivots on v, if there is one
        order = [*range(v + 1, c), v, c]
        for t in _hermite([[row[u] for u in order] for row in basis[i:]], len(order)):
            if t[-2] and not any(t[:-2]):
                facts.append((v, t[-2], t[-1]))
    return d0, tuple(facts)


# records are rechecked in any order, so the bound holds the whole standard
# grid (759 instances, ~0.9 KB each), not just the last few graphs
@lru_cache(maxsize=1024)
def _plan(g: Graph):
    """(core, neigh, pend, support, d0, facts, key), computed once per graph
    whatever the group: the vertices the search labels, their core
    neighbours (as core indices), the size of their pendant bunch, whether
    they are supports, the presolve's facts on that core system
    (`_lattice_facts`), and the slice key: the refuting pairs (c, b),
    sorted and without their vertices.  They are (0, d0), the facts' pairs,
    and (1, d0 - 1) when there is a support: -1 written mod d0, as the
    facts' b are, so a unit fact x_v = mu gives the same pair.  Tuples and
    ints only, so no caller can change a cached plan."""
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
    d0, facts = _lattice_facts(neigh, pend, support)
    pairs = {(0, d0), *[(c, b) for _, c, b in facts]}
    if any(support):
        pairs.add((1, d0 - 1))
    key = tuple(sorted(pairs))
    return core, neigh, pend, support, d0, facts, key


def lattice_facts(g: Graph) -> tuple[int, dict[int, int]]:
    """The presolve's unit facts over g's own vertices: (d0, {v: k_v}),
    i.e. d0 * mu = 0 and x_v = k_v * mu in every magic labeling over any
    group, for the core vertices that are no supports (a support's label is
    mu)."""
    core, _, _, _, d0, facts, _ = _plan(g)
    return d0, {core[v]: -b % d0 if d0 else -b for v, c, b in facts if c == 1}


def torsion_facts(g: Graph) -> dict[int, tuple[int, int]]:
    """The presolve's torsion facts over g's own vertices: {v: (c, b)} with
    c >= 2 and c * x_v + b * mu = 0 in every magic labeling over any group.
    Empty when d0 and the unit facts close every slice already (see
    `_lattice_facts`)."""
    core, _, _, _, _, facts, _ = _plan(g)
    return {core[v]: (c, b) for v, c, b in facts if c >= 2}


def _refutes(c: int, b: int, factors: tuple[int, ...], mu) -> bool:
    """Whether c * x = -b * mu has no nonzero solution x, for mu given by
    its residues.  Over Z_f, c * x = t is solvable iff gcd(c, f) divides t,
    and the solutions form a coset of A[c], which is {0} alone when every
    gcd(c, f) is 1 and every t is 0.  With c = 0 this reads b * mu != 0."""
    ts = [-b * r % f for r, f in zip(mu, factors)]
    gs = [gcd(c, f) for f in factors]
    if any(t % gf for t, gf in zip(ts, gs)):
        return True
    return not any(ts) and all(gf == 1 for gf in gs)


# keyed on the refuting pairs, not on the graph or the facts' vertices, so
# graphs whose facts refute alike share the slices; the standard grid over
# the catalog of order <= 16 has 22 keys, 528 entries with the 24 groups
@lru_cache(maxsize=4096)
def _open_slices(spec: GroupSpec, key) -> tuple[int, ...]:
    """The least mu of each Aut(A)-orbit, ascending, that no pair of the
    slice key (`_plan`) refutes."""
    rep, _ = mu_orbits(spec)
    # product runs through the residues in index order, as element_at does
    residues = product(*[range(f) for f in spec.factors])
    return tuple([
        mu for (mu, r), x in zip(enumerate(rep), residues)
        if r == mu and not any(_refutes(c, b, spec.factors, x) for c, b in key)
    ])


def _bunch_labels(m: int, add, neg, target: int, k: int) -> list[int]:
    """k nonzero element indices summing to target on the Cayley tables,
    lex-least as `abelian.decompose_sum` picks them: index 1 for every part
    but the last two, then the first nonzero index other than what is left,
    then what is left; over Z2, all ones.  The caller has checked that the
    bunch is feasible, and `verify_magic` certifies the labeling."""
    if m == 2:
        return [1] * k
    parts = [1] * (k - 2)
    for _ in parts:
        target = add[target * m + neg[1]]
    if k >= 2:
        first = 2 if target == 1 else 1
        parts.append(first)
        target = add[target * m + neg[first]]
    parts.append(target)
    return parts


def complete_labeling(
    g: Graph, spec: GroupSpec, values: list, mu: int
) -> tuple[Labeling, MagicCertificate]:
    """Fill every pendant bunch and certify the labeling: the one completion
    of search witnesses and recipe labelings alike.

    `values` holds an element index per vertex, or None for a pendant to
    fill, and is filled in place; mu is the constant's index.  Each bunch
    gets `_bunch_labels` of mu minus its support's labelled neighbours, in
    ascending pendant order.  An unlabeled vertex is a pendant, so no bunch
    reads another's labels and the order of the supports does not matter.
    Raises WitnessError when `verify_magic` rejects the result.
    """
    m, add, neg = cayley_tables(spec)
    bunches: dict[int, list[int]] = {}
    for w, x in enumerate(values):
        if x is None:
            bunches.setdefault(g.adj[w][0], []).append(w)
    for s, bunch in bunches.items():
        rest = mu
        for u in g.adj[s]:
            if values[u] is not None:
                rest = add[rest * m + neg[values[u]]]
        for w, x in zip(bunch, _bunch_labels(m, add, neg, rest, len(bunch))):
            values[w] = x
    elems = spec.elements()
    lab = Labeling(spec, tuple([elems[x] for x in values]))
    # an explicit raise, not an assert, so the check survives python -O
    cert = verify_magic(g, lab)
    if cert is None:
        raise WitnessError("labeling failed verification")
    return lab, cert


# the outcome when the presolve closes every slice; frozen, so one is shared
_CLOSED = SolveOutcome(None, None, 0)


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
    core, neigh, pend, support, _, _, key = _plan(g)
    # slices the presolve closes are skipped, at 0 nodes
    slices = _open_slices(spec, key)
    if not slices:
        return _CLOSED
    m, add, neg = cayley_tables(spec)
    nodes = 0
    for mu in slices:
        forced = [mu if s else -1 for s in support]
        labels, nd = kernels.search_exists(
            len(core), neigh, pend, forced, m, add, neg, mu
        )
        nodes += nd
        if labels is None:
            continue
        values: list = [None] * g.n
        for v, x in zip(core, labels):
            values[v] = x
        return SolveOutcome(*complete_labeling(g, spec, values, mu), nodes)
    return SolveOutcome(None, None, nodes)


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
    core, neigh, pend, support, _, _, key = _plan(g)
    total = 0
    for mu in _open_slices(spec, key):
        forced = [mu if s else -1 for s in support]
        cnt, _ = kernels.search_count(
            len(core), neigh, pend, forced, m, add, neg, mu
        )
        total += cnt * size[mu]
    return total


def z2_magic(g: Graph) -> bool:
    """Z2 criterion: magic over Z2 exactly when all degrees share a parity."""
    return degrees_same_parity(g)


def is_group_vertex_magic_empirical(
    g: Graph, catalog: tuple[GroupSpec, ...]
) -> EmpiricalVerdict:
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
