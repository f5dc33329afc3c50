"""Vertex labelings over a finite abelian group and the magic-property check.

A labeling assigns every vertex a nonzero group element; its induced weight
at v is the sum of the labels over N(v).  A labeling is magic when all
weights coincide; the common value is the magic constant.  A zero label is
an *invalid labeling* (codomain violation), which is a different outcome
from a valid labeling that fails to be magic.

The check packs each label's residues into one int, one bit field per
cyclic factor, each field wide enough that a sum of n - 1 residues never
carries into the next.  It sums the packed labels around each vertex, edge
by edge, and reduces each distinct sum once per factor; group elements are
built only for the certificate it returns.  It shares no code with the
Cayley tables of `abelian.cayley_tables`, which the search and the oracle
use, so it stays an independent check of both.

Pendant bunches are filled by the decomposition lemma in one place,
`solver.complete_labeling`, for search witnesses and recipe labelings alike;
it certifies each labeling with `verify_magic`.

`parse_labeling` reads the literal `v0=1,v1=(1,0),...` that `Labeling.render`
writes, in which every vertex is named exactly once.  The rendered literal
itself is read in one regular-expression pass and one `str.split`, with its
labels looked up in the group's `abelian.literal_table`; any other text is
read chunk by chunk.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import lru_cache
from operator import lshift, mod

from .abelian import GroupElement, GroupSpec, literal_table, parse_element
from .graphs import Graph, GraphError


class InvalidLabelingError(ValueError):
    """Labeling violates its contract (zero label or dimension mismatch)."""


@dataclass(frozen=True)
class Labeling:
    group: GroupSpec
    values: tuple[GroupElement, ...]

    def __post_init__(self):
        group = self.group
        for v, x in enumerate(self.values):
            # labels mostly share one spec object, so identity settles the
            # check after at most one comparison by value
            if x.spec is not group:
                if x.spec != group:
                    raise InvalidLabelingError(f"label of vertex {v} is from {x.spec}")
                group = x.spec

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
    """The sum of the residue vectors `rows`, each factor summed on plain
    ints; the `GroupElement` built from it reduces it."""
    return tuple(map(sum, zip([0] * len(factors), *rows)))


def _check_length(g: Graph, lab: Labeling) -> None:
    if len(lab.values) != g.n:
        raise GraphError(
            f"labeling has {len(lab.values)} values for a graph on {g.n} vertices"
        )


def weight(g: Graph, lab: Labeling, v: int) -> GroupElement:
    _check_length(g, lab)
    rows = [lab.values[u].residues for u in g.adj[v]]
    return GroupElement(lab.group, _sum_residues(lab.group.factors, rows))


@lru_cache(maxsize=256)
def _fields(factors: tuple[int, ...], n: int):
    """(shifts, fields) of a packed label on a graph of order n: the bit
    offset of each factor's field, the last factor lowest, and per factor
    (offset, mask, f).  A field holds the sum of n - 1 residues of Z_f (at
    least one), the most any neighbourhood adds, so no sum carries out."""
    shifts = []
    fields = []
    at = 0
    for f in reversed(factors):
        width = (max(n - 1, 1) * (f - 1)).bit_length()
        shifts.append(at)
        fields.append((at, (1 << width) - 1, f))
        at += width
    return tuple(reversed(shifts)), tuple(reversed(fields))


def verify_magic(g: Graph, lab: Labeling) -> MagicCertificate | None:
    """Certificate when all induced weights coincide, None otherwise.

    Residues are reduced as they are packed, as `GroupElement` does too, so
    that this independent check rests on no other module's invariant: a
    residue out of range cannot spill into a neighbouring field.
    """
    _check_length(g, lab)
    factors = lab.group.factors
    shifts, fields = _fields(factors, g.n)
    if len(factors) == 1:
        f = factors[0]
        packed = [x.residues[0] % f for x in lab.values]
    else:
        packed = [
            sum(map(lshift, map(mod, x.residues, factors), shifts))
            for x in lab.values
        ]
    if 0 in packed:
        v = packed.index(0)
        raise InvalidLabelingError(f"vertex {v} carries the zero element")
    sums = [0] * g.n
    for u, v in g.edges:
        sums[u] += packed[v]
        sums[v] += packed[u]
    weights = {
        tuple([(s >> at & mask) % f for at, mask, f in fields]) for s in set(sums)
    }
    if len(weights) != 1:
        return None
    return MagicCertificate(GroupElement(lab.group, weights.pop()))


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


# the shape `Labeling.render` writes: `v<digits>=<value>` joined by commas,
# no value holding a `=` or a `v`
_RENDERED = re.compile(r"v[0-9]+=[^=v]*(?:,v[0-9]+=[^=v]*)*")


@lru_cache(maxsize=64)
def _names(n: int) -> list[str]:
    """The vertex numbers "0" .. str(n - 1); callers only read the list."""
    return [str(i) for i in range(n)]


def parse_labeling(spec: GroupSpec, text: str, n: int) -> Labeling:
    """Parse the CLI literal `v0=1,v1=2,...`: each of v0..v(n-1) named once.

    A vertex name is `v` followed by decimal digits; a malformed name, a
    vertex named twice or a missing vertex raises InvalidLabelingError, and
    a malformed element GroupError.

    A literal as `Labeling.render` writes it (v0..v(n-1) in order, each label
    a canonical literal of a group within `abelian.literal_table`'s bound)
    is read in one pass; any other text chunk by chunk, to the same result.
    """
    if _RENDERED.fullmatch(text):
        # kept beside the chunk path because rechecks read rendered
        # witnesses: 4.7-4.9 us against 17.6-22 us for the chunk path on a
        # 7-vertex Z2+Z8 witness.  In that shape each `=` ends a name and
        # each `,v` starts the next, so the parts alternate between vertex
        # numbers and labels
        parts = text[1:].replace(",v", "=").split("=")
        if parts[::2] == _names(n):
            table = literal_table(spec)
            try:
                return Labeling(spec, tuple(map(table.__getitem__, parts[1::2])))
            except KeyError:
                pass  # a label that is no canonical literal
    values: dict[int, GroupElement] = {}
    for chunk in _split_top_level(text):
        chunk = chunk.strip()
        if not chunk:
            continue
        if "=" not in chunk or not chunk.startswith("v"):
            raise InvalidLabelingError(f"bad labeling chunk {chunk!r}")
        key, _, val = chunk.partition("=")
        digits = key[1:].rstrip()
        if not (digits.isascii() and digits.isdigit()):
            raise InvalidLabelingError(f"bad vertex name {key!r}")
        idx = int(digits)
        if idx in values:
            raise InvalidLabelingError(f"vertex v{idx} is named twice")
        values[idx] = parse_element(spec, val)
    if sorted(values) != list(range(n)):
        raise InvalidLabelingError(
            f"labeling must cover v0..v{n - 1} exactly, got {sorted(values)}"
        )
    return Labeling(spec, tuple(values[i] for i in range(n)))
