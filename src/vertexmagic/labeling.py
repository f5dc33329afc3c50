"""Vertex labelings over a finite abelian group and the magic-property check.

A labeling assigns every vertex a nonzero group element; its induced weight
at v is the sum of the labels over N(v).  A labeling is magic when all
weights coincide; the common value is the magic constant.  A zero label is
an *invalid labeling* (codomain violation), which is a different outcome
from a valid labeling that fails to be magic.

The check sums each vertex's neighbour residues per cyclic factor on plain
ints and reduces once modulo that factor; group elements are built only for
the certificate it returns.  It shares no code with the Cayley tables of
`abelian.cayley_tables`, which the search and the oracle use, so it stays an
independent check of both.

`fill_pendants` completes a partial labeling by the decomposition lemma; the
solver and the constructive recipes both finish their witnesses with it.
"""

from __future__ import annotations

from dataclasses import dataclass

from .abelian import GroupElement, GroupSpec, decompose_sum, parse_element
from .graphs import Graph, GraphError, pendant_bunches, support_vertices


class InvalidLabelingError(ValueError):
    """Labeling violates its contract (zero label or dimension mismatch)."""


@dataclass(frozen=True)
class Labeling:
    group: GroupSpec
    values: tuple[GroupElement, ...]

    def __post_init__(self):
        for v, x in enumerate(self.values):
            if x.spec != self.group:
                raise InvalidLabelingError(f"label of vertex {v} is from {x.spec}")

    def __getitem__(self, v: int) -> GroupElement:
        return self.values[v]

    def render(self) -> str:
        return ",".join(f"v{i}={x}" for i, x in enumerate(self.values))


@dataclass(frozen=True)
class MagicCertificate:
    constant: GroupElement

    def render(self) -> str:
        return f"mu={self.constant}"


def _sum_residues(factors: tuple[int, ...], rows) -> tuple[int, ...]:
    """Residues of the sum of the residue vectors `rows`, each factor
    summed on plain ints and reduced once."""
    return tuple(sum(r[i] for r in rows) % f for i, f in enumerate(factors))


def _check_length(g: Graph, lab: Labeling) -> None:
    if len(lab.values) != g.n:
        raise GraphError(
            f"labeling has {len(lab.values)} values for a graph on {g.n} vertices"
        )


def weight(g: Graph, lab: Labeling, v: int) -> GroupElement:
    _check_length(g, lab)
    rows = [lab.values[u].residues for u in g.adj[v]]
    return GroupElement(lab.group, _sum_residues(lab.group.factors, rows))


def verify_magic(g: Graph, lab: Labeling) -> MagicCertificate | None:
    """Certificate when all induced weights coincide, None otherwise."""
    _check_length(g, lab)
    residues = [x.residues for x in lab.values]
    for v, r in enumerate(residues):
        if not any(r):
            raise InvalidLabelingError(f"vertex {v} carries the zero element")
    factors = lab.group.factors
    mu = None
    for nbrs in g.adj:
        w = _sum_residues(factors, [residues[u] for u in nbrs])
        if mu is None:
            mu = w
        elif w != mu:
            return None
    return MagicCertificate(GroupElement(lab.group, mu))


def check_support_forcing(g: Graph, cert: MagicCertificate, lab: Labeling) -> bool:
    """Every support vertex must carry the magic constant; exposed self-check."""
    return all(lab.values[v] == cert.constant for v in support_vertices(g))


def fill_pendants(
    g: Graph, spec: GroupSpec, values: list, mu: GroupElement
) -> None:
    """Label every unlabeled pendant so that its support's weight is mu.

    `values` holds a label or None per vertex and is filled in place.  Each
    support, in ascending order, gives its unlabeled bunch the lex-least
    nonzero decomposition (`decompose_sum`) of mu minus the labels already
    around it, in ascending pendant order.
    """
    for s, bunch in enumerate(pendant_bunches(g)):
        todo = [p for p in bunch if values[p] is None]
        if not todo:
            continue
        rows = [values[w].residues for w in g.adj[s] if values[w] is not None]
        partial = GroupElement(spec, _sum_residues(spec.factors, rows))
        for p, x in zip(todo, decompose_sum(spec, mu - partial, len(todo))):
            values[p] = x


def _split_top_level(text: str) -> list[str]:
    """Split on commas outside parentheses, so `v0=(1,0)` stays whole."""
    chunks = []
    depth = 0
    cur = []
    for ch in text:
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth = max(0, depth - 1)
        if ch == "," and depth == 0:
            chunks.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    chunks.append("".join(cur))
    return chunks


def parse_labeling(spec: GroupSpec, text: str, n: int) -> Labeling:
    """Parse the CLI literal `v0=1,v1=2,...` (all n vertices required)."""
    values: dict[int, GroupElement] = {}
    chunks = _split_top_level(text) if "(" in text else text.split(",")
    for chunk in chunks:
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk or not chunk.startswith("v"):
            raise InvalidLabelingError(f"bad labeling chunk {chunk!r}")
        key, _, val = chunk.partition("=")
        try:
            idx = int(key[1:])
        except ValueError as exc:
            raise InvalidLabelingError(f"bad vertex name {key!r}") from exc
        values[idx] = parse_element(spec, val)
    if sorted(values) != list(range(n)):
        raise InvalidLabelingError(
            f"labeling must cover v0..v{n - 1} exactly, got {sorted(values)}"
        )
    return Labeling(spec, tuple(values[i] for i in range(n)))


def apply_automorphism(
    lab: Labeling, phi: dict[GroupElement, GroupElement]
) -> Labeling:
    return Labeling(lab.group, tuple(phi[x] for x in lab.values))
