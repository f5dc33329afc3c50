"""Graph family atlas: parametric constructors, enumeration, recognition.

The figures that define the named families are not textually available, so
every template here is reconstructed from the weight equations quoted in the
corresponding proof.  The reconstruction is validated two ways:

* a provenance table mirrors each quoted equation as a neighbor-set
  assertion on the base template, checked mechanically by the test suite;
* the audit enumerates every small unicyclic/bicyclic graph of the relevant
  diameter and requires each one to be recognized into the atlas.

Some enumerated shapes provably match no drawn family (their pendants sit on
vertices no proof equation constrains).  Those are carried as named
*variants* of the structurally nearest family: the audit recognizes and
documents them, but they stay out of the theorem-prediction grid because no
closed-form statement governs them.

Every shape is one `_Def` (base edges, pendant slots, optional hub, drawing
symmetry; its roles and its class's diameter are derived): the drawn families
and variants are listed below, and the parametric cycle `CYCLE(k)` and
generalized sun `GENSUN(c1..ck)` get theirs from `_cycle_def`.  `_def_of`
finds the def of any instance, and the same def drives construction
(`_construct`, the one graph constructor), canonicalization (`_canon_params`)
and enumeration (`_instances_of_def`, which feeds both the recognition index
and the standard grid).
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field, replace
from functools import lru_cache
from types import MappingProxyType

from .abelian import PARSE_CACHE_SIZE, _ascii_int, _partitions
from .canon import CANON_MAX_N, canonical_code
from .graphs import (
    INPUT_MAX_N,
    Graph,
    GraphError,
    diameter,
    eccentricities,
    twin_roots,
)


class FamilyError(ValueError):
    """Parameters violate the family's structural constraints."""


@dataclass(frozen=True)
class FamilyInstance:
    family: str
    pendant_params: tuple[int, ...] = ()
    hub_subtrees: tuple[int, ...] = ()
    variant: str | None = None

    def render(self) -> str:
        if self.family == "CYCLE":
            return f"C{self.pendant_params[0]}"
        name = SHORT_NAMES.get(self.family, self.family)
        if self.variant:
            name = f"{name}:{self.variant}"
        body = ",".join(str(p) for p in self.pendant_params)
        if self.hub_subtrees:
            hub = ",".join(str(c) for c in self.hub_subtrees)
            return f"{name}({body};hub=[{hub}])"
        return f"{name}({body})"

    def __str__(self) -> str:
        return self.render()


# --- template definitions ---------------------------------------------------

# the paper's diameter classes, keyed by the family name's prefix
_CLASS_DIAMETER = {"FIG1": 2, "UD3": 3, "UD4": 4, "B3": 3}


@dataclass(frozen=True)
class _Def:
    family: str
    base_edges: tuple[tuple[str, str], ...]
    slots: tuple[str, ...]            # roles that take pendant bunches
    hub_at: str | None = None         # role needing depth-2 support children
    symmetry: str = "none"            # how drawings permute slots: _canon_params
    min_params: int = 0               # lower bound on every pendant slot
    variant: str | None = None
    provenance: tuple[tuple[str, tuple[str, ...]], ...] = ()
    note: str = ""
    # derived: the base edges' vertices v1..vk, and the family class's
    # diameter (None for CYCLE and GENSUN), checked on every build
    roles: tuple[str, ...] = field(init=False)
    diam: int | None = field(init=False)

    def __post_init__(self):
        used = {v for edge in self.base_edges for v in edge}
        roles = tuple(f"v{i + 1}" for i in range(len(used)))
        if used != set(roles):
            raise FamilyError(f"{self.name}: base edges are not on v1..vk")
        named = {*self.slots, self.hub_at} - {None}
        for role, neighbors in self.provenance:
            named.update((role, *neighbors))
        if not named <= used:
            raise FamilyError(f"{self.name}: non-roles {sorted(named - used)}")
        object.__setattr__(self, "roles", roles)
        object.__setattr__(
            self, "diam", _CLASS_DIAMETER.get(self.family.split("-", 1)[0])
        )

    @property
    def name(self) -> str:
        """`FAMILY` or `FAMILY:variant`, as the atlas and the audit list it."""
        return self.family if self.variant is None else f"{self.family}:{self.variant}"


def _tri(a, b, c):
    return ((a, b), (b, c), (c, a))


def _path(*vs):
    return tuple((vs[i], vs[i + 1]) for i in range(len(vs) - 1))


_DEFS: list[_Def] = [
    _Def(
        family="FIG1-G1",
        base_edges=_tri("v1", "v2", "v3"),
        slots=("v1",),
        note="triangle with one pendant bunch; the diameter-2 unicyclic class "
             "besides C4 and C5",
    ),
    _Def(
        family="UD3-G1",
        base_edges=_tri("v1", "v2", "v3"),
        slots=("v1", "v2", "v3"),
        symmetry="sorted",
        note="triangle sun; diameter 3 needs two bunches",
    ),
    _Def(
        family="UD3-G2",
        base_edges=_tri("v2", "v3", "v4") + (("v1", "v2"),),
        slots=("v1", "v2"),
        provenance=(
            ("v2", ("v1", "v3", "v4")),
            ("v3", ("v2", "v4")),
            ("v4", ("v2", "v3")),
        ),
        note="triangle with a pendant-tipped stalk",
    ),
    _Def(
        family="UD3-G3",
        base_edges=_path("v1", "v2", "v3", "v4") + (("v4", "v1"),),
        slots=("v1", "v2"),
        symmetry="sorted",
        note="C4 with bunches on adjacent vertices",
    ),
    _Def(
        family="UD3-G4",
        base_edges=_path("v1", "v2", "v3", "v4", "v5") + (("v5", "v1"),),
        slots=("v1", "v2"),
        symmetry="sorted",
        note="C5 with bunches on adjacent vertices",
    ),
    _Def(
        family="UD4-H1",
        base_edges=_tri("v2", "v3", "v4") + (("v1", "v2"),),
        slots=("v1", "v2"),
        hub_at="v1",
        provenance=(
            ("v2", ("v1", "v3", "v4")),
            ("v3", ("v2", "v4")),
            ("v4", ("v2", "v3")),
        ),
        note="triangle, off-cycle hub on the stalk carrying support children",
    ),
    _Def(
        family="UD4-H2",
        base_edges=_tri("v1", "v2", "v3"),
        slots=("v1", "v2", "v3"),
        hub_at="v1",
        symmetry="outer23",
        provenance=(
            ("v2", ("v1", "v3")),
            ("v3", ("v1", "v2")),
        ),
        note="triangle whose vertex v1 is the hub",
    ),
    _Def(
        family="UD4-H3",
        base_edges=_path("v1", "v2", "v3", "v4") + (("v4", "v1"),),
        slots=("v1", "v2", "v3"),
        hub_at="v2",
        symmetry="outer",
        provenance=(
            ("v4", ("v1", "v3")),
            ("v3", ("v2", "v4")),
            ("v1", ("v2", "v4")),
        ),
        note="C4 with on-cycle hub v2",
    ),
    _Def(
        family="UD4-H4",
        base_edges=_path("v1", "v2", "v3", "v4") + (("v4", "v1"),),
        slots=("v1", "v2", "v3", "v4"),
        symmetry="dihedral",
        min_params=1,
        note="C4 sun with every cycle vertex a support; the statement names "
             "three parameters but an all-support C4 sun needs four",
    ),
    _Def(
        family="UD4-H5",
        base_edges=_path("v1", "v2", "v3", "v4", "v5") + (("v5", "v1"),),
        slots=("v1", "v2", "v3"),
        hub_at="v2",
        symmetry="outer",
        provenance=(
            ("v5", ("v1", "v4")),
            ("v1", ("v2", "v5")),
            ("v3", ("v2", "v4")),
            ("v4", ("v3", "v5")),
        ),
        note="C5 with on-cycle hub v2",
    ),
    _Def(
        family="UD4-H6",
        base_edges=_path("v1", "v2", "v3", "v4", "v5") + (("v5", "v1"),),
        slots=("v1", "v2", "v3", "v4", "v5"),
        symmetry="dihedral",
        min_params=1,
        note="C5 sun with every cycle vertex a support",
    ),
    _Def(
        family="UD4-H7",
        base_edges=_path("v1", "v2", "v3", "v4") + (("v4", "v1"),),
        slots=("v1", "v2", "v3"),
        symmetry="outer",
        note="C4 sun with bare vertex v4; covers the opposite-pair and "
             "three-bunch shapes",
    ),
    _Def(
        family="UD4-H8",
        base_edges=_path("v1", "v2", "v3", "v4", "v5") + (("v5", "v1"),),
        slots=("v1", "v2", "v3"),
        symmetry="outer",
        note="C5 sun with bunches on three consecutive vertices (middle "
             "optional), covering the distance-2 pair",
    ),
    _Def(
        family="UD4-H9",
        base_edges=_path("v1", "v2", "v3", "v4", "v5", "v6") + (("v6", "v1"),),
        slots=("v1", "v2", "v3"),
        symmetry="window",
        note="C6 sun with bunches on up to three consecutive vertices",
    ),
    # --- bicyclic, diameter 3 ---
    _Def(
        family="B3-M1",
        base_edges=_tri("v1", "v2", "v3") + _tri("v1", "v4", "v5"),
        slots=("v1", "v2", "v3"),
        symmetry="outer23",
        provenance=(
            ("v4", ("v1", "v5")),
            ("v5", ("v1", "v4")),
            ("v2", ("v1", "v3")),
            ("v1", ("v2", "v3", "v4", "v5")),
        ),
        note="bowtie at v1",
    ),
    _Def(
        family="B3-M2",
        base_edges=(("v1", "v2"), ("v1", "v3"), ("v1", "v4"), ("v2", "v3"),
                    ("v3", "v4")),
        slots=("v1", "v2", "v3"),
        symmetry="outer",
        provenance=(
            ("v4", ("v1", "v3")),
            ("v2", ("v1", "v3")),
            ("v1", ("v2", "v3", "v4")),
            ("v3", ("v1", "v2", "v4")),
        ),
        note="K4 minus the edge v2v4; triangles share edge v1v3",
    ),
    _Def(
        family="B3-M3",
        base_edges=(("v1", "v2"), ("v2", "v3"), ("v3", "v1"), ("v3", "v4"),
                    ("v4", "v5"), ("v5", "v1")),
        slots=("v1", "v2", "v3"),
        symmetry="outer",
        provenance=(
            ("v5", ("v1", "v4")),
            ("v3", ("v1", "v2", "v4")),
        ),
        note="triangle and C4 sharing the edge v1v3",
    ),
    _Def(
        family="B3-M4",
        base_edges=_tri("v2", "v3", "v4") + _tri("v1", "v5", "v6")
        + (("v1", "v2"),),
        slots=("v1", "v2"),
        symmetry="sorted",
        provenance=(
            ("v5", ("v1", "v6")),
            ("v6", ("v1", "v5")),
            ("v3", ("v2", "v4")),
            ("v4", ("v2", "v3")),
            ("v2", ("v1", "v3", "v4")),
            ("v1", ("v2", "v5", "v6")),
        ),
        note="two triangles joined by the bridge v1v2",
    ),
    _Def(
        family="B3-M5",
        base_edges=(("v1", "v2"), ("v2", "v3"), ("v3", "v4"), ("v4", "v5"),
                    ("v5", "v1"), ("v3", "v5")),
        slots=("v1", "v2"),
        symmetry="sorted",
        provenance=(
            ("v1", ("v2", "v5")),
            ("v3", ("v2", "v4", "v5")),
            ("v5", ("v1", "v3", "v4")),
        ),
        note="triangle v3v4v5 and C4 sharing the edge v3v5",
    ),
    _Def(
        family="B3-M6",
        base_edges=(("v1", "v2"), ("v1", "v4"), ("v4", "v3"), ("v3", "v2"),
                    ("v1", "v5"), ("v5", "v6"), ("v6", "v2")),
        slots=("v1", "v2"),
        symmetry="sorted",
        provenance=(
            ("v4", ("v1", "v3")),
            ("v3", ("v4", "v2")),
        ),
        note="theta(3,3,1): adjacent branch vertices joined by two length-3 "
             "paths; exhibits the shared-neighborhood obstruction at (v1,v3)",
    ),
    _Def(
        family="B3-M7",
        base_edges=(("v1", "v2"), ("v1", "v3"), ("v3", "v4"), ("v4", "v5"),
                    ("v5", "v2"), ("v1", "v6"), ("v6", "v7"), ("v7", "v2")),
        slots=("v1", "v2"),
        symmetry="sorted",
        provenance=(
            ("v6", ("v1", "v7")),
            ("v7", ("v6", "v2")),
        ),
        note="theta(4,3,1); exhibits the shared-neighborhood obstruction at "
             "(v1,v7)",
    ),
    _Def(
        family="B3-M8",
        base_edges=(("v1", "v4"), ("v4", "v3"), ("v1", "v5"), ("v5", "v3"),
                    ("v1", "v2"), ("v2", "v6"), ("v6", "v3")),
        slots=("v1", "v2"),
        provenance=(
            ("v4", ("v1", "v3")),
            ("v6", ("v2", "v3")),
        ),
        note="theta(3,2,2): bunches on a branch vertex and on the long "
             "path's inner vertex next to it",
    ),
    _Def(
        family="B3-M9",
        base_edges=_tri("v1", "v3", "v4") + _tri("v1", "v5", "v6")
        + (("v1", "v2"),),
        slots=("v1", "v2"),
        provenance=(
            ("v5", ("v1", "v6")),
            ("v1", ("v2", "v3", "v4", "v5", "v6")),
        ),
        note="bowtie at v1 plus the neighbor v2",
    ),
    _Def(
        family="B3-M10",
        base_edges=_path("v1", "v2", "v3", "v4") + (("v4", "v1"),)
        + _tri("v1", "v5", "v6"),
        slots=("v2", "v4"),
        symmetry="sorted",
        provenance=(
            ("v5", ("v1", "v6")),
            ("v3", ("v2", "v4")),
            ("v1", ("v2", "v4", "v5", "v6")),
        ),
        note="C4 and triangle sharing v1; bunches sit on v1's C4 neighbors",
    ),
    _Def(
        family="B3-M11",
        base_edges=_tri("v1", "v2", "v3")
        + _path("v1", "v7", "v6", "v5", "v4") + (("v4", "v1"),),
        slots=("v1", "v4"),
        provenance=(
            ("v7", ("v1", "v6")),
            ("v6", ("v5", "v7")),
            ("v5", ("v4", "v6")),
        ),
        note="triangle and pentagon sharing v1",
    ),
    _Def(
        family="B3-M12",
        base_edges=(("v2", "v3"), ("v3", "v4"), ("v4", "v5"), ("v5", "v2"),
                    ("v2", "v4"), ("v1", "v2")),
        slots=("v1", "v2"),
        provenance=(
            ("v5", ("v2", "v4")),
            ("v4", ("v2", "v3", "v5")),
            ("v2", ("v1", "v3", "v4", "v5")),
        ),
        note="K4 minus the edge v3v5, on v2..v5, plus the stalk v1",
    ),
    _Def(
        family="B3-M13",
        base_edges=(("v1", "v2"), ("v1", "v3"), ("v1", "v5"), ("v4", "v2"),
                    ("v4", "v3"), ("v4", "v5")),
        slots=("v1", "v4"),
        symmetry="sorted",
        provenance=(
            ("v5", ("v1", "v4")),
            ("v2", ("v1", "v4")),
            ("v3", ("v1", "v4")),
        ),
        note="K2,3 with bunches on the branch vertices; the diameter bound "
             "admits only one nonzero bunch",
    ),
    _Def(
        family="B3-M14",
        base_edges=(("v1", "v2"), ("v2", "v4"), ("v4", "v5"), ("v5", "v6"),
                    ("v6", "v1"), ("v2", "v3"), ("v3", "v4")),
        slots=("v1", "v2"),
        provenance=(
            ("v6", ("v1", "v5")),
            ("v1", ("v2", "v6")),
            ("v3", ("v2", "v4")),
            ("v2", ("v1", "v3", "v4")),
            ("v5", ("v4", "v6")),
        ),
        note="C5 v1v2v4v5v6 with the chord triangle v2v3v4",
    ),
]


def _variant(family, variant, slots, note, symmetry="none", min_params=0):
    """A position variant on the drawn family's base edges (and so its roles
    and diameter), with slots of its own and no proof provenance."""
    drawn = next(d for d in _DEFS if d.family == family)
    return replace(
        drawn, variant=variant, slots=slots, note=note, symmetry=symmetry,
        min_params=min_params, provenance=(),
    )


# shapes present among enumerated graphs but matched by no proof equation:
# recognized and documented by the audit, excluded from the prediction grid
_VARIANT_DEFS: list[_Def] = [
    _variant(
        "B3-M13", "mid", ("v2",),
        "K2,3 with the bunch on a degree-2 vertex; no proof equation "
        "constrains this position",
    ),
    _variant(
        "B3-M13", "branch-mid", ("v1", "v2"),
        "K2,3 with bunches on a branch and an adjacent degree-2 vertex",
    ),
    _variant(
        "B3-M8", "short", ("v4",),
        "theta(3,2,2) with the bunch on a length-2 inner vertex",
    ),
    _variant(
        "B3-M8", "short-branch", ("v4", "v1"),
        "theta(3,2,2) with bunches on a length-2 inner vertex and an "
        "adjacent branch",
    ),
    _variant(
        "B3-M8", "long-pair", ("v2", "v6"),
        "theta(3,2,2) with bunches on both inner vertices of the "
        "length-3 path",
    ),
    _variant(
        "B3-M5", "support-branch", ("v1", "v5"),
        "theta(3,2,1) with bunches on a length-3 inner vertex and its "
        "adjacent branch",
    ),
    _variant(
        "B3-M10", "shared", ("v1",),
        "C4-triangle amalgam with the bunch on the shared vertex",
    ),
    _variant(
        "B3-M10", "shared-adj", ("v1", "v2"),
        "C4-triangle amalgam with bunches on the shared vertex and a "
        "C4 neighbor",
    ),
    _Def(
        family="B3-M6", variant="theta332",
        base_edges=(("v1", "v3"), ("v3", "v4"), ("v4", "v2"), ("v1", "v5"),
                    ("v5", "v6"), ("v6", "v2"), ("v1", "v7"), ("v7", "v2")),
        slots=("v1", "v7"),
        note="theta(3,3,2), an undrawn diameter-3 base",
    ),
    _Def(
        family="B3-M6", variant="theta333",
        base_edges=(("v1", "v3"), ("v3", "v4"), ("v4", "v2"), ("v1", "v5"),
                    ("v5", "v6"), ("v6", "v2"), ("v1", "v7"), ("v7", "v8"),
                    ("v8", "v2")),
        slots=("v1",),
        note="theta(3,3,3), an undrawn diameter-3 base",
    ),
    _Def(
        family="B3-M6", variant="theta422",
        base_edges=(("v1", "v3"), ("v3", "v4"), ("v4", "v5"), ("v5", "v2"),
                    ("v1", "v6"), ("v6", "v2"), ("v1", "v7"), ("v7", "v2")),
        slots=(),
        note="theta(4,2,2), an undrawn diameter-3 base",
    ),
    _Def(
        family="B3-M6", variant="theta432",
        base_edges=(("v1", "v3"), ("v3", "v4"), ("v4", "v5"), ("v5", "v2"),
                    ("v1", "v6"), ("v6", "v7"), ("v7", "v2"), ("v1", "v8"),
                    ("v8", "v2")),
        slots=(),
        note="theta(4,3,2), an undrawn diameter-3 base",
    ),
    _Def(
        family="B3-M6", variant="theta433",
        base_edges=(("v1", "v3"), ("v3", "v4"), ("v4", "v5"), ("v5", "v2"),
                    ("v1", "v6"), ("v6", "v7"), ("v7", "v2"), ("v1", "v8"),
                    ("v8", "v9"), ("v9", "v2")),
        slots=(),
        note="theta(4,3,3), an undrawn diameter-3 base",
    ),
    _variant(
        "B3-M14", "branch-pair", ("v2", "v4"),
        "theta(4,2,1) with bunches on both branch vertices; no proof "
        "equation constrains this pair",
        symmetry="sorted", min_params=1,
    ),
    _Def(
        family="B3-M7", variant="theta521",
        base_edges=(("v1", "v2"), ("v1", "v3"), ("v3", "v4"), ("v4", "v5"),
                    ("v5", "v6"), ("v6", "v2"), ("v1", "v7"), ("v7", "v2")),
        slots=(),
        note="theta(5,2,1), an undrawn diameter-3 base",
    ),
    _Def(
        family="B3-M7", variant="theta522",
        base_edges=(("v1", "v3"), ("v3", "v4"), ("v4", "v5"), ("v5", "v6"),
                    ("v6", "v2"), ("v1", "v7"), ("v7", "v2"), ("v1", "v8"),
                    ("v8", "v2")),
        slots=(),
        note="theta(5,2,2), an undrawn diameter-3 base",
    ),
]

SHORT_NAMES = {d.family: d.family.rsplit("-", 1)[-1] for d in _DEFS}

DEF_BY_KEY: dict[tuple[str, str | None], _Def] = {
    (d.family, d.variant): d for d in _DEFS + _VARIANT_DEFS
}

# one shared def per (family, k): a _Def is frozen, and the atlas index
# looks the same ones up for every instance it builds
@lru_cache(maxsize=PARSE_CACHE_SIZE)
def _cycle_def(family: str, k: int) -> _Def:
    """The parametric shapes on the k-cycle v1..vk: CYCLE is the bare cycle,
    GENSUN takes a pendant bunch on every cycle vertex.  Rotations and
    reflections of the cycle draw the same graph."""
    if k < 3:
        raise FamilyError(
            "cycles need length >= 3" if family == "CYCLE"
            else "generalized sun needs a cycle of length >= 3"
        )
    roles = tuple(f"v{i + 1}" for i in range(k))
    return _Def(
        family=family,
        base_edges=tuple((roles[i], roles[(i + 1) % k]) for i in range(k)),
        slots=roles if family == "GENSUN" else (),
        symmetry="dihedral",
    )


def _def_of(inst: FamilyInstance) -> _Def:
    """The template of any instance: a drawn family or variant, a cycle or a
    generalized sun."""
    if inst.family == "CYCLE":
        (k,) = inst.pendant_params
        return _cycle_def("CYCLE", k)
    if inst.family == "GENSUN":
        return _cycle_def("GENSUN", len(inst.pendant_params))
    d = DEF_BY_KEY.get((inst.family, inst.variant))
    if d is None:
        raise FamilyError(f"unknown family {inst.family!r} variant {inst.variant!r}")
    return d


def _canon_params(d: _Def, params: tuple[int, ...]) -> tuple[int, ...]:
    if d.symmetry == "sorted":
        return tuple(sorted(params, reverse=True))
    if d.symmetry == "outer" and len(params) == 3:
        return params if params[0] >= params[2] else (params[2], params[1], params[0])
    if d.symmetry == "outer23" and len(params) == 3:
        return (params[0],) + tuple(sorted(params[1:], reverse=True))
    if d.symmetry == "dihedral":
        return min(_dihedral_images(params))
    if d.symmetry == "window":
        # slots occupy a consecutive window of the cycle; placements that
        # differ by a cycle symmetry keeping all bunches inside the window
        # draw the same graph
        w = len(params)
        full = params + (0,) * (len(d.roles) - w)
        return min(
            cand[:w] for cand in _dihedral_images(full) if not any(cand[w:])
        )
    return params


def _dihedral_images(seq: tuple[int, ...]):
    """Every rotation of seq, then every rotation of its reversal."""
    for s in (seq, seq[::-1]):
        for r in range(len(s)):
            yield s[r:] + s[:r]


def canonical_instance(inst: FamilyInstance) -> FamilyInstance:
    """Normalize parameters under the family's drawing symmetry."""
    return FamilyInstance(
        inst.family,
        _canon_params(_def_of(inst), inst.pendant_params),
        tuple(sorted(inst.hub_subtrees, reverse=True)),
        inst.variant,
    )


# the standard grid has 759 instances and record rechecks visit them in any
# order; lru_cache stores no exception, so a rejected instance raises again
@lru_cache(maxsize=1024)
def build(inst: FamilyInstance) -> tuple[Graph, MappingProxyType[str, int]]:
    """Construct the instance; raises FamilyError on constraint violations,
    and on more than `INPUT_MAX_N` vertices before anything is built.

    Memoized: records are rechecked by rebuilding their instance and the
    predictors read degrees off the built graph, so the same instances come
    back again and again, and the all-pairs BFS of the diameter check is the
    costliest step.  The graph and the read-only roles mapping are made once
    per instance and shared by every caller.
    """
    g, roles = _instance_graph(inst)
    return g, MappingProxyType(roles)


def _instance_graph(inst: FamilyInstance) -> tuple[Graph, dict[str, int]]:
    """`build`'s uncached body: validate, construct, check the diameter."""
    if inst.family == "GENSUN" and (inst.variant is not None or inst.hub_subtrees):
        raise FamilyError("GENSUN takes no variant and no hub subtrees")
    n = _vertex_count(inst)
    if n > INPUT_MAX_N:
        raise FamilyError(
            f"{inst.render()} has {n} vertices, above the input bound "
            f"{INPUT_MAX_N}"
        )
    d = _def_of(inst)
    # a cycle's one parameter is its length, not a pendant count
    params = () if inst.family == "CYCLE" else inst.pendant_params
    if len(params) != len(d.slots):
        raise FamilyError(
            f"{inst.family} takes {len(d.slots)} pendant parameters, "
            f"got {len(params)}"
        )
    if any(p < d.min_params for p in params):
        raise FamilyError(
            f"{inst.family} pendant counts must be >= {d.min_params}"
        )
    if inst.family == "GENSUN" and sum(params) < 1:
        raise FamilyError("generalized sun needs at least one pendant")
    if inst.hub_subtrees and d.hub_at is None:
        raise FamilyError(f"{inst.family} takes no hub subtrees")
    if d.hub_at is not None and not inst.hub_subtrees:
        raise FamilyError(f"{inst.family} needs at least one hub subtree")
    if any(c < 1 for c in inst.hub_subtrees):
        raise FamilyError("hub support children need at least one pendant each")

    g, roles = _construct(d, params, inst.hub_subtrees)
    if d.diam is not None:
        got = diameter(g)
        if got != d.diam:
            raise FamilyError(
                f"{inst.render()} has diameter {got}, the family requires {d.diam}"
            )
    return g, roles


def _vertex_count(inst: FamilyInstance) -> int:
    """The vertices `_construct` would make, counted from the parameters
    before any graph, or a cycle's k roles, is made: a cycle's length, else
    the template's roles, the pendants, the hub children and their
    pendants."""
    if inst.family == "CYCLE":
        (k,) = inst.pendant_params
        return k
    roles, hub = len(_def_of(inst).roles), inst.hub_subtrees
    return roles + sum(inst.pendant_params) + len(hub) + sum(hub)


def _construct(
    d: _Def, params: tuple[int, ...], hub: tuple[int, ...]
) -> tuple[Graph, dict[str, int]]:
    """The template's base, then params[i] pendants on slot i, then one hub
    child per hub entry with that many pendants.  Vertices are numbered in
    that order, roles first."""
    roles = {r: i for i, r in enumerate(d.roles)}
    edges = [(roles[a], roles[b]) for a, b in d.base_edges]
    nxt = len(d.roles)
    for slot, count in zip(d.slots, params):
        for j in range(count):
            edges.append((roles[slot], nxt))
            roles[f"{slot}.p{j + 1}"] = nxt
            nxt += 1
    for ui, c in enumerate(hub):
        child = nxt
        roles[f"u{ui + 1}"] = child
        edges.append((roles[d.hub_at], child))
        nxt += 1
        for j in range(c):
            edges.append((child, nxt))
            roles[f"u{ui + 1}.p{j + 1}"] = nxt
            nxt += 1
    return Graph(nxt, edges), roles


def base_graph(family: str, variant: str | None = None) -> tuple[Graph, dict[str, int]]:
    """Bare template (no pendants, no hub) for provenance checking."""
    d = DEF_BY_KEY[(family, variant)]
    return _construct(d, (0,) * len(d.slots), ())


def atlas_entries() -> list[_Def]:
    """Every drawn family, then every variant: the templates the atlas lists."""
    return _DEFS + _VARIANT_DEFS


def atlas_markdown() -> str:
    """Render the atlas (adjacency, slots, provenance) as markdown."""
    lines = [
        "# Family atlas",
        "",
        "Base adjacency, pendant slots, and hub placement for every family",
        "template, with the neighbor-set facts each construction rests on.",
        "Entries named `FAMILY:variant` are shapes found by the exhaustive",
        "audit that no drawn family's equations constrain; they are",
        "recognized and documented but take no part in the prediction grid.",
        "",
        "`CYCLE(k)` and `GENSUN(c1..ck)` (a cycle with `c_i` pendants on",
        "vertex `i`) are parametric and not listed individually.",
        "",
    ]
    for e in atlas_entries():
        lines.append(f"## {e.name}")
        lines.append("")
        edges = ", ".join(f"{a}-{b}" for a, b in e.base_edges)
        lines.append(f"- base edges: {edges}")
        lines.append(f"- pendant slots: {', '.join(e.slots) if e.slots else 'none'}")
        if e.hub_at:
            lines.append(f"- hub (support children with pendants): {e.hub_at}")
        if e.provenance:
            facts = "; ".join(
                f"N({r}) = {{{', '.join(ns)}}}" for r, ns in e.provenance
            )
            lines.append(f"- neighbor-set facts: {facts}")
        if e.note:
            lines.append(f"- note: {e.note}")
        lines.append("")
    return "\n".join(lines)


# --- instance parsing --------------------------------------------------------

_INSTANCE_RE = re.compile(
    r"^(?P<name>[A-Za-z0-9:\-]+)\((?P<body>[^)]*)\)$"
)


@lru_cache(maxsize=PARSE_CACHE_SIZE)
def parse_instance(text: str) -> FamilyInstance:
    """Parse `M11(0,0)`, `H2(1,1,1;hub=[2,2])`, `G1(1,1,1)`, `C8`, ...

    Memoized like `abelian.parse_group`: the result is frozen, and a
    malformed literal is not cached, so it raises on every call.
    """
    s = text.strip()
    m = re.fullmatch(r"C(YCLE)?\((\d+)\)|C(\d+)", s, re.IGNORECASE | re.ASCII)
    if m:
        k = int(m.group(2) or m.group(3))
        return FamilyInstance("CYCLE", (k,))
    m = _INSTANCE_RE.fullmatch(s)
    if not m:
        raise FamilyError(f"cannot parse family instance {text!r}")
    name = m.group("name").upper()
    body = m.group("body")
    hub: tuple[int, ...] = ()
    if ";" in body:
        body, _, hub_part = body.partition(";")
        hm = re.fullmatch(r"\s*hub=\[([0-9,\s]*)\]\s*", hub_part, re.IGNORECASE)
        if not hm:
            raise FamilyError(f"cannot parse hub spec in {text!r}")
        hub = _ints(hm.group(1), text)
    params = _ints(body, text)
    variant = None
    if ":" in name:
        name, _, variant = name.partition(":")
        variant = variant.lower()
    if name == "GENSUN":
        if variant is not None or hub:
            raise FamilyError(
                f"GENSUN takes no variant and no hub spec, got {text!r}"
            )
        return FamilyInstance("GENSUN", params)
    full = _resolve_family_name(name, len(params))
    return FamilyInstance(full, params, hub, variant)


def _ints(body: str, text: str) -> tuple[int, ...]:
    """The comma-separated ASCII integers of body; text is the whole literal."""
    try:
        return tuple(_ascii_int(x) for x in body.split(",") if x.strip())
    except ValueError as exc:
        raise FamilyError(f"bad number in {text!r}") from exc


def _resolve_family_name(name: str, arity: int) -> str:
    if name in SHORT_NAMES:
        return name
    if name == "G1":
        return "FIG1-G1" if arity == 1 else "UD3-G1"
    for full, short in SHORT_NAMES.items():
        if short == name:
            return full
    raise FamilyError(f"unknown family name {name!r}")


# --- enumeration -------------------------------------------------------------

def _compositions(total: int, slots: int, max_part: int | None = None):
    """All tuples of `slots` nonnegative ints summing to `total`, with no
    part above `max_part` when it is given."""
    top = total if max_part is None else min(total, max_part)
    if slots == 0:
        if total == 0:
            yield ()
        return
    if slots == 1:
        if total <= top:
            yield (total,)
        return
    for first in range(top + 1):
        for rest in _compositions(total - first, slots - 1, max_part):
            yield (first,) + rest


def _bicyclic_bases(n_max: int) -> list[Graph]:
    """All bicyclic graphs with minimum degree >= 2: thetas, dumbbells, eights."""
    out = []
    # theta(a, b, c): internally disjoint paths of lengths a >= b >= c >= 1
    for a in range(2, n_max + 1):
        for b in range(2, a + 1):
            for c in range(1, b + 1):
                n = a + b + c - 1
                if n > n_max or n < 4:
                    continue
                edges = []
                nxt = 2  # 0, 1 are the branch vertices
                for length in (a, b, c):
                    prev = 0
                    for _ in range(length - 1):
                        edges.append((prev, nxt))
                        prev = nxt
                        nxt += 1
                    edges.append((prev, 1))
                out.append(Graph(n, edges))
    # dumbbell: cycles j, k joined by a bridge path of length ell >= 1
    for j in range(3, n_max + 1):
        for k in range(3, j + 1):
            for ell in range(1, n_max):
                n = j + k + ell - 1
                if n > n_max:
                    continue
                edges = [(i, (i + 1) % j) for i in range(j)]
                nxt = j
                prev = 0
                for _ in range(ell - 1):
                    edges.append((prev, nxt))
                    prev = nxt
                    nxt += 1
                ring = list(range(nxt, nxt + k))
                edges.append((prev, ring[0]))
                edges.extend((ring[i], ring[(i + 1) % k]) for i in range(k))
                out.append(Graph(n, edges))
    # figure-eight: cycles j, k sharing one vertex
    for j in range(3, n_max + 1):
        for k in range(3, j + 1):
            n = j + k - 1
            if n > n_max:
                continue
            edges = [(i, (i + 1) % j) for i in range(j)]
            ring = [0] + list(range(j, j + k - 1))
            for i in range(k):
                edges.append((ring[i], ring[(i + 1) % k]))
            out.append(Graph(n, edges))
    return out


def enumerate_connected(n_max: int, rank: int, diam: int) -> list[Graph]:
    """One representative per isomorphism class with the given cycle rank and
    diameter, n <= n_max, in canonical-code order: the `diam` entry of
    `classes_by_diameter`."""
    return list(classes_by_diameter(n_max, rank, diam).get(diam, {}).values())


def classes_by_diameter(
    n_max: int, rank: int, max_diam: int
) -> dict[int, dict[bytes, Graph]]:
    """For each diameter 0..max_diam, one representative per isomorphism
    class with the given cycle rank, that diameter and n <= n_max, keyed by
    canonical code in code order.

    Growth by pendant attachment from the minimum-degree-2 seeds of that
    rank; pendant attachment never shrinks the diameter, so branches past
    max_diam are pruned.  A pendant at v leaves the old distances unchanged,
    so the child's diameter is max(diam(g), ecc(v) + 1) from the parent's
    eccentricities.  Pendants on twins give isomorphic children, so only the
    least vertex of each twin class gets one; that child is the one the
    deduplication by canonical code would keep anyway.

    Each class takes its representative from the first parent, in code
    order, that grows it.  Every parent of a class has at most its diameter,
    so the representatives of one diameter do not depend on max_diam: one
    growth serves every diameter up to it.
    """
    if n_max > 11:
        raise GraphError("enumeration supports n_max <= 11")
    if rank == 1:
        seeds = [
            Graph(k, [(i, (i + 1) % k) for i in range(k)])
            for k in range(3, n_max + 1)
        ]
    elif rank == 2:
        seeds = _bicyclic_bases(n_max)
    else:
        raise GraphError("cycle rank must be 1 or 2")

    by_size: dict[int, dict[bytes, Graph]] = {}
    for s in seeds:
        if diameter(s) <= max_diam:
            by_size.setdefault(s.n, {})[canonical_code(s)] = s
    results: dict[int, dict[bytes, Graph]] = {
        d: {} for d in range(max_diam + 1)
    }
    for n in range(min(by_size, default=n_max + 1), n_max + 1):
        level = by_size.pop(n, {})
        for code, g in sorted(level.items()):
            ecc = eccentricities(g)
            g_diam = max(ecc)
            results[g_diam][code] = g
            if n == n_max:
                continue
            root = twin_roots(g.masks)
            for v in range(g.n):
                if root[v] != v or max(g_diam, ecc[v] + 1) > max_diam:
                    continue
                child = Graph(g.n + 1, list(g.edges) + [(v, g.n)])
                by_size.setdefault(n + 1, {}).setdefault(
                    canonical_code(child), child
                )
    return {
        d: {c: classes[c] for c in sorted(classes)}
        for d, classes in results.items()
    }


# --- recognition -------------------------------------------------------------

def _instances_of_def(
    d: _Def,
    n: int,
    max_param: int | None = None,
    hubs: tuple[tuple[int, ...], ...] | None = None,
):
    """Every instance of d on n vertices, once per drawing symmetry class:
    for each hub option (by hub size, then child count, then the children's
    pendant counts descending), the canonical pendant counts in composition
    order.  Instances the constructor rejects are not filtered out.

    `max_param` bounds every pendant count and `hubs` lists the hub options
    to keep.  A canonical tuple is a permutation of its composition, so the
    bounds drop exactly the instances a filter on the output would drop and
    keep the others in the same order.
    """
    budget = n - len(d.roles)
    if budget < 0:
        return
    hub_options: list[tuple[int, ...]] = [()]
    if d.hub_at is not None:
        # k support children carrying hub_total - k >= k pendants
        hub_options = [
            part
            for hub_total in range(2, budget + 1)
            for k in range(1, hub_total // 2 + 1)
            for part in _partitions(hub_total - k)
            if len(part) == k
        ]
    if hubs is not None:
        hub_options = [hub for hub in hub_options if hub in hubs]
    for hub in hub_options:
        rest = budget - (len(hub) + sum(hub))
        if rest < 0:
            continue
        seen = set()
        for comp in _compositions(rest, len(d.slots), max_param):
            canon = _canon_params(d, comp)
            if canon in seen:
                continue
            seen.add(canon)
            yield FamilyInstance(d.family, canon, hub, d.variant)


def _atlas_instances(n: int):
    """The atlas instances on n vertices in recognition preference: the
    cycle, the drawn families, their variants, then the generalized suns."""
    if n >= 3:
        yield FamilyInstance("CYCLE", (n,))
    for d in _DEFS + _VARIANT_DEFS:
        yield from _instances_of_def(d, n)
    for k in range(3, n):
        yield from _instances_of_def(_cycle_def("GENSUN", k), n)


@lru_cache(maxsize=None)
def _atlas_index(n: int) -> dict[bytes, FamilyInstance]:
    index: dict[bytes, FamilyInstance] = {}
    for inst in _atlas_instances(n):
        try:
            # build's uncached body: only the code is kept, and
            # canonical_code's memo keeps it too, so recognizing this labeled
            # graph again (a grid instance rebuilt by build) searches
            # nothing; in build's cache these graphs would evict instances
            # that are rebuilt
            g, _ = _instance_graph(inst)
        except (FamilyError, GraphError):
            continue
        code = canonical_code(g)
        index.setdefault(code, inst)
    return index


def recognize(g: Graph) -> FamilyInstance | None:
    """The atlas instance isomorphic to g, preferring drawn families."""
    if g.n > CANON_MAX_N:
        return None
    return recognize_code(g.n, canonical_code(g))


def recognize_code(n: int, code: bytes) -> FamilyInstance | None:
    """`recognize` for the graph on n <= 12 vertices with canonical code `code`."""
    return _atlas_index(n).get(code)
