"""Simple undirected connected graphs and the structural predicates used by
the labeling theorems: pendant/support classification, diameter, cycle rank,
degree parity, and the shared-neighborhood obstruction.

A graph's identity is n plus its normalised edges.  Its adjacency lists,
adjacency bitmasks and degrees are derived once, at construction, in one
pass over the sorted edges; `Graph.from_edges` adds only the connectivity
check, for graphs that come in from outside (`read_graph_file`,
`Graph.relabeled`): the family constructions and the enumeration seeds are
connected by construction.  The predicates work on the bitmasks:
breadth-first search expands whole frontiers at a time, and the
shared-neighborhood obstruction is a subset test between masks.

`pendant_bunches` is the one pendant/support analysis: which vertices are
pendants, whose they are, and which vertices are supports.  The solver and
the characterizations read it.
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass, field

from .abelian import _ascii_int

# the most vertices a graph file or a family instance literal may declare,
# checked before anything is built: adjacency is Theta(n^2) bits and the
# diameter check costs more, while the solver, canon and enumeration stop
# at n = 13 or below
INPUT_MAX_N = 1024


class GraphError(ValueError):
    """Bad graph construction or an operation outside its domain."""


@dataclass(frozen=True)
class Graph:
    """Immutable simple graph on vertices 0..n-1, identified by n and its
    edges: checked for range and loops, written (min, max), deduplicated and
    sorted.  `adj`, `masks` and `degrees` are derived from them and ignored
    by == and hash.  It may be disconnected; `from_edges` adds the
    connectivity check.
    """

    n: int
    edges: tuple[tuple[int, int], ...]
    adj: tuple[tuple[int, ...], ...] = field(init=False, compare=False, repr=False)
    masks: tuple[int, ...] = field(init=False, compare=False, repr=False)
    degrees: tuple[int, ...] = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        n = self.n
        if n < 1:
            raise GraphError("graph needs at least one vertex")
        norm = set()
        for u, v in self.edges:
            if not (0 <= u < n and 0 <= v < n):
                raise GraphError(f"edge ({u},{v}) out of range for n={n}")
            if u == v:
                raise GraphError(f"self-loop at {u}")
            norm.add((u, v) if u < v else (v, u))
        edges = tuple(sorted(norm))
        # every (w, v) with w < v sorts before every (v, w'), so each
        # neighbour list fills in ascending order
        adj: list[list[int]] = [[] for _ in range(n)]
        masks = [0] * n
        for u, v in edges:
            adj[u].append(v)
            adj[v].append(u)
            masks[u] |= 1 << v
            masks[v] |= 1 << u
        object.__setattr__(self, "edges", edges)
        object.__setattr__(self, "adj", tuple(map(tuple, adj)))
        object.__setattr__(self, "masks", tuple(masks))
        object.__setattr__(self, "degrees", tuple(map(len, adj)))

    @staticmethod
    def from_edges(n: int, edges) -> "Graph":
        """The connected graph `Graph(n, edges)`; GraphError if disconnected."""
        g = Graph(n, edges)
        if not g.is_connected():
            raise GraphError("graph must be connected")
        return g

    def degree(self, v: int) -> int:
        return self.degrees[v]

    @property
    def m(self) -> int:
        return len(self.edges)

    def is_connected(self) -> bool:
        masks = self.masks
        seen = frontier = 1
        while frontier:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= masks[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & ~seen
            seen |= frontier
        return seen == (1 << self.n) - 1

    def relabeled(self, perm: list[int]) -> "Graph":
        """Graph with vertex v renamed perm[v]."""
        return Graph.from_edges(self.n, [(perm[u], perm[v]) for u, v in self.edges])


@dataclass(frozen=True)
class StructuralProfile:
    degrees: tuple[int, ...]
    diameter: int
    cycle_rank: int


def eccentricities(g: Graph) -> list[int]:
    """Greatest distance from each vertex to any other, by one bitset BFS
    per vertex whose frontiers expand over `masks`."""
    masks = g.masks
    full = (1 << g.n) - 1
    out = []
    for v in range(g.n):
        seen = frontier = 1 << v
        depth = 0
        while seen != full:
            reach = 0
            while frontier:
                low = frontier & -frontier
                reach |= masks[low.bit_length() - 1]
                frontier ^= low
            frontier = reach & ~seen
            if not frontier:
                raise GraphError("diameter undefined for disconnected graph")
            seen |= frontier
            depth += 1
        out.append(depth)
    return out


def diameter(g: Graph) -> int:
    return max(eccentricities(g))


def twin_roots(masks: tuple[int, ...]) -> list[int]:
    """Least vertex of each vertex's twin class.

    u and v are twins when N(u) - {v} = N(v) - {u}, i.e. false twins (equal
    open neighbourhoods) or true twins (equal closed ones).  The relation is
    an equivalence: a false and a true twin pair cannot share a vertex.
    Swapping two twins is an automorphism.  Equal open masks mean
    non-adjacent twins and equal closed masks adjacent ones, so the root is
    the least vertex sharing either mask.
    """
    first_open: dict[int, int] = {}
    first_closed: dict[int, int] = {}
    roots = []
    for v, m in enumerate(masks):
        a = first_open.setdefault(m, v)
        b = first_closed.setdefault(m | 1 << v, v)
        roots.append(a if a < b else b)
    return roots


def pendant_bunches(g: Graph) -> tuple[tuple[int, ...], ...]:
    """For each vertex, its degree-1 neighbours in ascending order.

    The pendants are the members of the bunches and the support vertices
    are those with a nonempty bunch.  In K2 each end is the other's pendant.
    """
    bunches: list[tuple[int, ...]] = [()] * g.n
    for p, a in enumerate(g.adj):
        if len(a) == 1:
            bunches[a[0]] += (p,)
    return tuple(bunches)


def cycle_rank(g: Graph) -> int:
    return g.m - g.n + 1


def classify_vertices(g: Graph) -> StructuralProfile:
    """The degrees, diameter and cycle rank that `vmagic family build`
    prints."""
    return StructuralProfile(
        degrees=g.degrees, diameter=diameter(g), cycle_rank=cycle_rank(g)
    )


def lemma0_obstruction(g: Graph) -> tuple[int, int] | None:
    """Lex-least ordered pair (u, v) with |N(u) ∩ N(v)| = d(u) - 1 = d(v).

    With d(v) = d(u) - 1 the intersection has d(v) elements exactly when
    N(v) ⊆ N(u), so each u tests only the vertices one degree below it, in
    ascending order, for a mask with no bit outside its own.
    """
    masks, degrees = g.masks, g.degrees
    by_degree: dict[int, list[int]] = {}
    for v, d in enumerate(degrees):
        by_degree.setdefault(d, []).append(v)
    for u, mask in enumerate(masks):
        for v in by_degree.get(degrees[u] - 1, ()):
            if not masks[v] & ~mask:
                return (u, v)
    return None


def degrees_same_parity(g: Graph) -> bool:
    return len({d % 2 for d in g.degrees}) == 1


def to_dot(
    g: Graph, roles: Mapping[str, int] | None = None, name: str = "G"
) -> str:
    """Deterministic DOT export; vertices carry role names when available."""
    label = {}
    if roles:
        for role in sorted(roles):
            v = roles[role]
            label.setdefault(v, []).append(role)
    lines = [f"graph {name} {{"]
    for v in range(g.n):
        if v in label:
            lines.append(f'  {v} [label="{"/".join(label[v])}"];')
        else:
            lines.append(f"  {v};")
    for u, v in g.edges:
        lines.append(f"  {u} -- {v};")
    lines.append("}")
    return "\n".join(lines) + "\n"


def read_graph_file(text: str) -> Graph:
    """Parse the workbench graph format: first line n, then `u v` per line,
    each an ASCII numeral.

    n is checked before the graph is built: a connected graph has at least
    n - 1 edges, and n may not pass `INPUT_MAX_N`.
    """
    lines = [ln.strip() for ln in text.splitlines()]
    lines = [ln for ln in lines if ln and not ln.startswith("#")]
    if not lines:
        raise GraphError("empty graph file")
    try:
        n = _ascii_int(lines[0])
    except ValueError as exc:
        raise GraphError(f"bad vertex count line {lines[0]!r}") from exc
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if len(parts) != 2:
            raise GraphError(f"bad edge line {ln!r}")
        try:
            edges.append((_ascii_int(parts[0]), _ascii_int(parts[1])))
        except ValueError as exc:
            raise GraphError(f"bad edge line {ln!r}") from exc
    if n > len(edges) + 1:
        raise GraphError("graph must be connected")
    if n > INPUT_MAX_N:
        raise GraphError(
            f"graph file declares n = {n}, above the input bound {INPUT_MAX_N}"
        )
    return Graph.from_edges(n, edges)
