"""Closed-form characterizations as executable predicates.

`predict` evaluates, per family and group, the exact condition under which
the instance admits a magic labeling; `construct_labeling` replays the
matching constructive recipe with deterministic element choices and returns
a verified labeling.  `classify_group_vertex_magic` stacks the structural
rules (regularity, the shared-neighborhood obstruction, the Z2 parity
criterion) ahead of the per-diameter characterizations.

Existential element conditions are decided by exhaustive sweep over the
group, which is exact at catalog scale.  Two predicates deviate knowingly
from their published statements because the published versions fail against
the search oracle; see the rule notes on Prop4.1 (groups whose elements all
have order dividing 6 but containing 3-torsion, e.g. Z3, admit squares yet
no labeling) and Prop4.4 (the magic constant may be 0 since the bare
instance has no support vertex).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache
from math import gcd

from .abelian import (
    GroupElement,
    GroupSpec,
    cauchy_element,
    decompose_sum,
    involutions,
    squares,
)
from .families import FamilyInstance, build, recognize
from .graphs import (
    Graph,
    cycle_rank,
    degrees_same_parity,
    diameter,
    is_generalized_sun,
    lemma0_obstruction,
    pendant_bunches,
    two_core,
)
from .labeling import Labeling, fill_pendants, verify_magic

Z2 = GroupSpec((2,))
Z3 = GroupSpec((3,))
V4 = GroupSpec((2, 2))

MAGIC = "magic"
NOT_MAGIC = "not_magic"
NOT_COVERED = "not_covered"


class ContractError(RuntimeError):
    """construct_labeling was called where predict does not say magic."""


@dataclass(frozen=True)
class TheoremVerdict:
    outcome: str
    rule: str
    detail: str = ""

    @property
    def is_magic(self) -> bool:
        return self.outcome == MAGIC


@dataclass(frozen=True)
class ClassifyVerdict:
    outcome: str  # "yes" | "no" | "not_covered"
    rule: str
    refuter: GroupSpec | None = None


@lru_cache(maxsize=None)
def _built(inst: FamilyInstance) -> tuple[Graph, dict[str, int]]:
    return build(inst)


def _deg(inst: FamilyInstance, role: str) -> int:
    g, roles = _built(inst)
    return g.degree(roles[role])


_SUN_FAMILIES = {
    "FIG1-G1", "UD3-G1", "UD3-G3", "UD3-G4",
    "UD4-H4", "UD4-H6", "UD4-H7", "UD4-H8", "UD4-H9", "GENSUN",
}


def predict(inst: FamilyInstance, spec: GroupSpec) -> TheoremVerdict:
    """Theorem verdict for one (instance, group) pair.

    Z2 is always answered by the parity criterion; variants carry no
    closed-form statement and come back NOT_COVERED.
    """
    if inst.variant is not None:
        return TheoremVerdict(NOT_COVERED, "NotCovered",
                              "position variant outside the drawn families")
    if spec.order == 2:
        g, _ = _built(inst)
        ok = degrees_same_parity(g)
        return TheoremVerdict(MAGIC if ok else NOT_MAGIC, "Z2-parity")

    fam = inst.family
    p = inst.pendant_params
    if fam == "CYCLE":
        return TheoremVerdict(MAGIC, "Prop2.2")
    if fam in _SUN_FAMILIES:
        g, _ = _built(inst)
        bunches = pendant_bunches(g)
        pendants = set().union(*bunches)
        all_support = all(bunches[v] for v in range(g.n) if v not in pendants)
        return TheoremVerdict(MAGIC if all_support else NOT_MAGIC, "Lemma2.5")

    if fam == "UD3-G2":
        ok = p[1] == 0 and spec.order % 2 == 0
        return TheoremVerdict(MAGIC if ok else NOT_MAGIC, "Prop3.2")

    if fam == "UD4-H1":
        if p[1] != 0:
            rule = "Prop3.4" if p[0] == 0 else "Prop3.5"
            return TheoremVerdict(NOT_MAGIC, rule)
        d1 = _deg(inst, "v1")
        if p[0] == 0:
            has_weak = any(c == 1 for c in inst.hub_subtrees)
            for g1 in spec.nonzero_elements():
                if ((d1 - 1) * g1).is_zero() or ((d1 - 2) * g1).is_zero():
                    continue
                if ((2 * d1 - 3) * g1).is_zero():
                    continue
                if has_weak and ((2 * d1 - 2) * g1).is_zero():
                    continue
                return TheoremVerdict(MAGIC, "Prop3.4")
            return TheoremVerdict(NOT_MAGIC, "Prop3.4")
        if any(c == 1 for c in inst.hub_subtrees):
            return TheoremVerdict(NOT_MAGIC, "Prop3.5")
        if p[0] == 1:
            for h in sorted(involutions(spec), key=spec.index_of):
                for g1 in spec.elements():
                    if g1.is_zero() or g1 == h:
                        continue
                    if (d1 - 2) * g1 != h:
                        return TheoremVerdict(MAGIC, "Prop3.5")
            return TheoremVerdict(NOT_MAGIC, "Prop3.5")
        ok = spec.order % 2 == 0
        return TheoremVerdict(MAGIC if ok else NOT_MAGIC, "Prop3.5")

    if fam == "UD4-H2":
        if p[1] == 0 and p[2] == 0:
            # a hub with two or more children keeps the diameter at 4 even
            # with v2, v3 bare, a case the published diameter argument
            # skips; the weight chain leaves l(v2)=l(v3)=t free subject to
            # 2t = (1-k)g
            if p[0] != 0:
                return TheoremVerdict(NOT_MAGIC, "Prop3.7")
            ok = _h2_bare_pair(spec, len(inst.hub_subtrees)) is not None
            return TheoremVerdict(
                MAGIC if ok else NOT_MAGIC, "Prop3.7",
                "bare-v2/v3 corner outside the published statement",
            )
        if p[1] == 0 or p[2] == 0:
            return TheoremVerdict(NOT_MAGIC, "Prop3.7")
        d1 = _deg(inst, "v1")
        strong_children = all(c >= 2 for c in inst.hub_subtrees)
        if p[0] == 0 and gcd(d1 - 1, spec.order) != 1:
            return TheoremVerdict(MAGIC, "Prop3.7")
        if p[0] == 1 and strong_children and any(
            not ((d1 - 2) * g1).is_zero() for g1 in spec.nonzero_elements()
        ):
            return TheoremVerdict(MAGIC, "Prop3.7")
        if p[0] >= 2 and strong_children:
            return TheoremVerdict(MAGIC, "Prop3.7")
        return TheoremVerdict(NOT_MAGIC, "Prop3.7")

    if fam == "UD4-H3":
        ok = p == (0, 0, 0) and gcd(_deg(inst, "v2") - 2, spec.order) != 1
        return TheoremVerdict(MAGIC if ok else NOT_MAGIC, "Prop3.9")

    if fam == "UD4-H5":
        if p != (0, 0, 0):
            return TheoremVerdict(NOT_MAGIC, "Prop3.10")
        d2 = _deg(inst, "v2")
        ok = any(
            2 * h == (3 - d2) * g1 and g1 != h
            for g1 in spec.nonzero_elements()
            for h in spec.nonzero_elements()
        )
        return TheoremVerdict(MAGIC if ok else NOT_MAGIC, "Prop3.10")

    if fam == "B3-M1":
        if p[0] != 0 or p[1] == 0 or p[2] == 0:
            return TheoremVerdict(NOT_MAGIC, "Prop4.1")
        ok = any(
            not (2 * y).is_zero() and not (3 * y).is_zero()
            for y in spec.nonzero_elements()
        )
        return TheoremVerdict(
            MAGIC if ok else NOT_MAGIC, "Prop4.1",
            "condition adjusted: needs an element with 2y != 0 and 3y != 0, "
            "not merely a square",
        )

    if fam == "B3-M2":
        ok = p[0] == 0 and p[2] == 0 and p[1] >= 2 and bool(squares(spec))
        return TheoremVerdict(MAGIC if ok else NOT_MAGIC, "Prop4.2")

    if fam == "B3-M3":
        return TheoremVerdict(NOT_MAGIC, "Prop4.3")

    if fam == "B3-M4":
        if p != (0, 0):
            return TheoremVerdict(NOT_MAGIC, "Prop4.4")
        ok = _m4_pair(spec) is not None
        return TheoremVerdict(
            MAGIC if ok else NOT_MAGIC, "Prop4.4",
            "condition adjusted: the magic constant g may be 0 because the "
            "bare instance has no support vertex",
        )

    if fam == "B3-M5":
        ok = p[0] >= 1 and p[1] >= 1 and bool(squares(spec))
        return TheoremVerdict(MAGIC if ok else NOT_MAGIC, "Prop4.5")

    if fam in ("B3-M6", "B3-M7", "B3-M8"):
        return TheoremVerdict(NOT_MAGIC, "Prop4.7")

    if fam == "B3-M9":
        if p[0] != 0:
            return TheoremVerdict(NOT_MAGIC, "Prop4.8")
        ok = any(
            (4 * (g1 - h)).is_zero() and g1 != h
            for g1 in spec.nonzero_elements()
            for h in spec.nonzero_elements()
        )
        return TheoremVerdict(MAGIC if ok else NOT_MAGIC, "Prop4.8")

    if fam == "B3-M10":
        ok = p == (0, 0) and spec.order % 2 == 0
        return TheoremVerdict(MAGIC if ok else NOT_MAGIC, "Prop4.9")

    if fam == "B3-M11":
        ok = p == (0, 0)
        return TheoremVerdict(MAGIC if ok else NOT_MAGIC, "Prop4.12")

    if fam == "B3-M12":
        if p[1] != 0:
            return TheoremVerdict(NOT_MAGIC, "Prop4.10")
        ok = any(
            not g1.is_zero() and not (h - g1).is_zero()
            for h in involutions(spec)
            for g1 in spec.elements()
        )
        return TheoremVerdict(MAGIC if ok else NOT_MAGIC, "Prop4.10")

    if fam == "B3-M13":
        return TheoremVerdict(NOT_MAGIC, "Prop4.14")

    if fam == "B3-M14":
        if p != (0, 0):
            return TheoremVerdict(NOT_MAGIC, "Prop4.13")
        ok = _m14_pair(spec) is not None
        return TheoremVerdict(MAGIC if ok else NOT_MAGIC, "Prop4.13")

    return TheoremVerdict(NOT_COVERED, "NotCovered", f"no rule for {fam}")


def _h2_bare_pair(
    spec: GroupSpec, k_children: int
) -> tuple[GroupElement, GroupElement] | None:
    for g1 in spec.nonzero_elements():
        for t in spec.nonzero_elements():
            if t != g1 and 2 * t == (1 - k_children) * g1:
                return g1, t
    return None


def _m4_pair(spec: GroupSpec) -> tuple[GroupElement, GroupElement] | None:
    for g1 in spec.elements():
        for h in spec.nonzero_elements():
            if g1 == h or g1 == 2 * h:
                continue
            if 2 * g1 == 2 * h or 3 * g1 != 3 * h:
                continue
            return g1, h
    return None


def _m14_pair(spec: GroupSpec) -> tuple[GroupElement, GroupElement] | None:
    for h1 in spec.nonzero_elements():
        for h2 in spec.nonzero_elements():
            if h1 != h2 and 2 * h1 == 2 * h2:
                return h1, h2
    return None


# --- constructive labelings --------------------------------------------------

def _first_nonzero(spec: GroupSpec) -> GroupElement:
    return spec.nonzero_elements()[0]


def _first_involution(spec: GroupSpec) -> GroupElement:
    return min(involutions(spec), key=spec.index_of)


def _finish(
    inst: FamilyInstance,
    spec: GroupSpec,
    core: dict[str, GroupElement],
    mu: GroupElement,
) -> Labeling:
    """Fill pendant bunches from the core labels and verify the result."""
    g, roles = _built(inst)
    values: list = [None] * g.n
    for r, x in core.items():
        values[roles[r]] = x
    pendants = set().union(*pendant_bunches(g))
    for v in range(g.n):
        if values[v] is None and v not in pendants:
            raise ContractError(f"recipe left non-pendant vertex {v} unlabeled")
    fill_pendants(g, spec, values, mu)
    lab = Labeling(spec, tuple(values))
    cert = verify_magic(g, lab)
    if cert is None or cert.constant != mu:
        raise ContractError(f"recipe for {inst.render()} over {spec} failed")
    return lab


def construct_labeling(inst: FamilyInstance, spec: GroupSpec) -> Labeling:
    """Deterministic witness following the matching proof recipe."""
    verdict = predict(inst, spec)
    if not verdict.is_magic:
        raise ContractError(
            f"no constructive recipe: predict({inst.render()}, {spec}) is "
            f"{verdict.outcome}"
        )
    g, roles = _built(inst)

    if spec.order == 2:
        one = spec.element((1,) * spec.rank)
        return _finish(
            inst, spec,
            {r: one for r, v in roles.items() if g.degree(v) > 1},
            spec.zero() if g.degree(0) % 2 == 0 else one,
        )

    fam = inst.family
    p = inst.pendant_params

    if fam == "CYCLE":
        x = _first_nonzero(spec)
        return _finish(inst, spec, {r: x for r in roles}, 2 * x)

    if fam in _SUN_FAMILIES:
        x = _first_nonzero(spec)
        core = {r: x for r, v in roles.items() if g.degree(v) > 1}
        return _finish(inst, spec, core, x)

    if fam == "UD3-G2":
        h = _first_involution(spec)
        gg = next(e for e in spec.nonzero_elements() if e != h)
        return _finish(
            inst, spec, {"v1": gg, "v2": gg - h, "v3": h, "v4": h}, gg
        )

    if fam == "UD4-H1":
        d1 = _deg(inst, "v1")
        kids = {f"u{i + 1}" for i in range(len(inst.hub_subtrees))}
        if p[0] == 0:
            has_weak = any(c == 1 for c in inst.hub_subtrees)
            gg = next(
                e for e in spec.nonzero_elements()
                if not ((d1 - 1) * e).is_zero()
                and not ((d1 - 2) * e).is_zero()
                and not ((2 * d1 - 3) * e).is_zero()
                and not (has_weak and ((2 * d1 - 2) * e).is_zero())
            )
            core = {
                "v1": (3 - 2 * d1) * gg,
                "v2": (2 - d1) * gg,
                "v3": (d1 - 1) * gg,
                "v4": (d1 - 1) * gg,
                **{k: gg for k in kids},
            }
            return _finish(inst, spec, core, gg)
        pick = None
        for h in sorted(involutions(spec), key=spec.index_of):
            for e in spec.elements():
                if e.is_zero() or e == h:
                    continue
                if p[0] >= 2 or (d1 - 2) * e != h:
                    pick = (h, e)
                    break
            if pick:
                break
        h, gg = pick
        core = {
            "v1": gg, "v2": gg - h, "v3": h, "v4": h, **{k: gg for k in kids},
        }
        return _finish(inst, spec, core, gg)

    if fam == "UD4-H2":
        d1 = _deg(inst, "v1")
        kids = {f"u{i + 1}" for i in range(len(inst.hub_subtrees))}
        if p[1] == 0 and p[2] == 0:
            gg, t = _h2_bare_pair(spec, len(inst.hub_subtrees))
            core = {"v1": gg - t, "v2": t, "v3": t, **{k: gg for k in kids}}
            return _finish(inst, spec, core, gg)
        if p[0] == 0:
            m = gcd(d1 - 1, spec.order)
            q = min(d for d in range(2, m + 1) if m % d == 0)
            gg = cauchy_element(spec, q)
            h = next(e for e in spec.nonzero_elements() if e != gg)
            core = {"v1": h, "v2": gg, "v3": gg, **{k: gg for k in kids}}
            return _finish(inst, spec, core, gg)
        if p[0] == 1:
            gg = next(
                e for e in spec.nonzero_elements()
                if not ((d1 - 2) * e).is_zero()
            )
        else:
            gg = _first_nonzero(spec)
        core = {"v1": gg, "v2": gg, "v3": gg, **{k: gg for k in kids}}
        return _finish(inst, spec, core, gg)

    if fam == "UD4-H3":
        d2 = _deg(inst, "v2")
        m = gcd(d2 - 2, spec.order)
        q = min(d for d in range(2, m + 1) if m % d == 0)
        gg = cauchy_element(spec, q)
        g1, g2 = decompose_sum(spec, gg, 2)
        kids = {f"u{i + 1}" for i in range(len(inst.hub_subtrees))}
        core = {
            "v1": g1, "v2": g1, "v3": g2, "v4": g2, **{k: gg for k in kids},
        }
        return _finish(inst, spec, core, gg)

    if fam == "UD4-H5":
        d2 = _deg(inst, "v2")
        gg, h = next(
            (e, f)
            for e in spec.nonzero_elements()
            for f in spec.nonzero_elements()
            if e != f and 2 * f == (3 - d2) * e
        )
        kids = {f"u{i + 1}" for i in range(len(inst.hub_subtrees))}
        core = {
            "v1": h, "v2": h, "v3": h, "v4": gg - h, "v5": gg - h,
            **{k: gg for k in kids},
        }
        return _finish(inst, spec, core, gg)

    if fam == "B3-M1":
        y = next(
            e for e in spec.nonzero_elements()
            if not (2 * e).is_zero() and not (3 * e).is_zero()
        )
        gg = -(2 * y)
        core = {"v1": -(3 * y), "v2": gg, "v3": gg, "v4": y, "v5": y}
        return _finish(inst, spec, core, gg)

    if fam == "B3-M2":
        h = next(e for e in spec.nonzero_elements() if not (2 * e).is_zero())
        gg = 2 * h
        core = {"v1": h, "v2": gg, "v3": h, "v4": -h}
        return _finish(inst, spec, core, gg)

    if fam == "B3-M4":
        gg, h = _m4_pair(spec)
        core = {
            "v1": 2 * h - gg, "v2": h, "v3": gg - h, "v4": gg - h,
            "v5": 2 * gg - 2 * h, "v6": 2 * gg - 2 * h,
        }
        return _finish(inst, spec, core, gg)

    if fam == "B3-M5":
        h = next(e for e in spec.nonzero_elements() if not (2 * e).is_zero())
        gg = 2 * h
        core = {"v1": gg, "v2": gg, "v3": h, "v4": -h, "v5": h}
        return _finish(inst, spec, core, gg)

    if fam == "B3-M9":
        gg, h = next(
            (e, f)
            for e in spec.nonzero_elements()
            for f in spec.nonzero_elements()
            if e != f and (4 * (e - f)).is_zero()
        )
        x = gg - h
        core = {"v1": h, "v2": gg, "v3": x, "v4": x, "v5": x, "v6": x}
        return _finish(inst, spec, core, gg)

    if fam == "B3-M10":
        h = _first_involution(spec)
        core = {r: h for r in ("v1", "v2", "v3", "v4", "v5", "v6")}
        return _finish(inst, spec, core, spec.zero())

    if fam == "B3-M11":
        x = _first_nonzero(spec)
        core = {
            "v1": x, "v4": x, "v7": x,
            "v2": -x, "v3": -x, "v5": -x, "v6": -x,
        }
        return _finish(inst, spec, core, spec.zero())

    if fam == "B3-M12":
        h = _first_involution(spec)
        g1 = next(e for e in spec.nonzero_elements() if e != h)
        g2 = h - g1
        gg = next(e for e in spec.nonzero_elements() if e != h)
        core = {"v1": gg, "v2": gg + h, "v3": g1, "v4": h, "v5": g2}
        return _finish(inst, spec, core, gg)

    if fam == "B3-M14":
        h1, h2 = _m14_pair(spec)
        core = {
            "v1": h1, "v5": h1, "v2": h2, "v4": h2, "v3": h2 - h1, "v6": h2,
        }
        return _finish(inst, spec, core, 2 * h1)

    raise ContractError(f"no recipe implemented for {fam}")


# --- group-vertex-magic classification ---------------------------------------

_NO_RULES = {
    "B3-M3": ("Prop4.3", Z2),
    "B3-M6": ("Prop4.7", Z2),
    "B3-M7": ("Prop4.7", Z2),
    "B3-M8": ("Prop4.7", Z2),
    "B3-M13": ("Prop4.14", Z2),
    "B3-M1": ("Cor4.6", V4),
    "B3-M2": ("Cor4.6", V4),
    "B3-M4": ("Cor4.6", V4),
    "B3-M5": ("Cor4.6", V4),
    "B3-M9": ("Cor4.11", Z3),
    "B3-M10": ("Cor4.11", Z3),
    "B3-M12": ("Cor4.11", Z3),
    "B3-M14": ("Cor4.11", Z3),
    "B3-M11": ("Thm4.15", Z2),
    "UD4-H1": ("Cor3.6", Z2),
    "UD4-H3": ("Thm3.12", Z2),
    "UD4-H5": ("Thm3.12", Z2),
    "UD4-H7": ("Thm3.12", Z2),
    "UD4-H8": ("Thm3.12", Z2),
    "UD4-H9": ("Thm3.12", Z2),
    "UD4-H4": ("Thm3.12", Z2),
    "UD4-H6": ("Thm3.12", Z2),
    "UD4-H2": ("Cor3.8", Z2),
    "FIG1-G1": ("Thm3.1", Z2),
    "UD3-G1": ("Thm3.3", Z2),
    "UD3-G2": ("Thm3.3", Z2),
    "UD3-G3": ("Thm3.3", Z2),
    "UD3-G4": ("Thm3.3", Z2),
    "GENSUN": ("Lemma2.5", Z2),
}


def classify_group_vertex_magic(g: Graph) -> ClassifyVerdict:
    """Is the graph magic over every nontrivial abelian group?

    Structural rules run first: regular graphs are always magic; the
    shared-neighborhood obstruction and a parity mismatch are always fatal.
    The per-diameter characterizations then dispatch on the recognized
    family.  Graphs outside the characterized classes come back
    not_covered.
    """
    degs = set(g.degrees)
    if len(degs) == 1:
        return ClassifyVerdict("yes", "Prop2.2")
    inst = recognize(g) if g.n <= 12 else None
    if lemma0_obstruction(g) is not None:
        # the obstruction is fatal for every group; when the shape is a
        # drawn family whose proposition says exactly that, cite it
        if inst is not None and inst.variant is None and inst.family in (
            "B3-M3", "B3-M6", "B3-M7", "B3-M8", "B3-M13",
        ):
            return ClassifyVerdict("no", _NO_RULES[inst.family][0], Z2)
        return ClassifyVerdict("no", "Lemma2.3", Z2)
    if not degrees_same_parity(g):
        # the parity mismatch itself is the refutation, so Z2 is the
        # certificate group regardless of which statement gets cited
        if inst is not None and inst.variant is None:
            fam = inst.family
            if fam in _NO_RULES:
                rule, _ = _NO_RULES[fam]
                return ClassifyVerdict("no", rule, Z2)
        if cycle_rank(g) == 2 and diameter(g) == 3:
            # the blanket bicyclic theorem covers undrawn position variants
            return ClassifyVerdict("no", "Thm4.15", Z2)
        return ClassifyVerdict("no", "Z2-parity", Z2)

    # same parity everywhere, not regular, no obstruction
    if inst is None:
        return ClassifyVerdict("not_covered", "NotCovered")
    fam = inst.family
    if inst.variant is not None:
        if cycle_rank(g) == 2 and diameter(g) == 3:
            return ClassifyVerdict("no", "Thm4.15", Z3)
        return ClassifyVerdict("not_covered", "NotCovered")
    if fam == "B3-M11" and inst.pendant_params == (0, 0):
        return ClassifyVerdict("yes", "Thm4.15")
    if fam == "UD3-G1":
        if all(q >= 1 and q % 2 == 1 for q in inst.pendant_params):
            return ClassifyVerdict("yes", "Thm3.3")
        return ClassifyVerdict("no", "Thm3.3", Z3)
    if fam == "UD4-H2":
        strong_v1 = inst.pendant_params[0] >= 2
        strong_children = all(c >= 2 for c in inst.hub_subtrees)
        if strong_v1 and strong_children:
            return ClassifyVerdict("yes", "Thm3.12(i)")
        return ClassifyVerdict("no", "Cor3.8", _h2_refuter(inst))
    if fam == "UD4-H4":
        return ClassifyVerdict("yes", "Thm3.12(ii)")
    if fam == "UD4-H6":
        return ClassifyVerdict("yes", "Thm3.12(iii)")
    if fam in _SUN_FAMILIES:
        bunches = pendant_bunches(g)
        core = two_core(g)
        if is_generalized_sun(g) and all(
            bunches[v] and g.degree(v) % 2 == 1 for v in core
        ):
            return ClassifyVerdict("yes", "Lemma2.5")
        return ClassifyVerdict("no", "Lemma2.5", Z3)
    if fam in _NO_RULES:
        rule, refuter = _NO_RULES[fam]
        return ClassifyVerdict("no", rule, refuter)
    return ClassifyVerdict("not_covered", "NotCovered")


def _h2_refuter(inst: FamilyInstance) -> GroupSpec:
    """The cyclic group the strong-support corollary names for this instance."""
    d1 = _deg(inst, "v1")
    if inst.pendant_params[0] == 0:
        return GroupSpec((d1,))
    if inst.pendant_params[0] == 1:
        return GroupSpec((d1 - 2,)) if d1 > 4 else Z2
    return Z3  # weak hub child: every group with |A| >= 3 refutes


def corollary_refuters() -> dict[str, GroupSpec]:
    """The specific refuting group each corollary names, per family."""
    return {
        "B3-M1": V4,
        "B3-M2": V4,
        "B3-M4": V4,
        "B3-M5": V4,
        "B3-M9": Z3,
        "B3-M10": Z3,
        "B3-M12": Z3,
        "B3-M14": Z3,
        "UD4-H1": Z2,
    }
