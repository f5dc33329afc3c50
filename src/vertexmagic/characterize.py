"""Closed-form characterizations as executable predicates.

Each "if" half of the paper's characterizations is proved by writing the
labeling down, so each family has one recipe in `_recipe`: it decides the
family's condition over the group and, where the condition holds, returns
the core labels and magic constant of the proof's labeling.  Existential
conditions are decided by exhaustive sweep over the group, exact at catalog
scale, and the elements a sweep finds are the ones the labeling uses.
`predict` reads only the verdict from the recipe; `construct_labeling`
fills the pendant bunches from the same core labels and verifies the
result.  Z2 is answered by the parity criterion and position variants are
not covered.  `classify_group_vertex_magic` stacks the structural rules
(regularity, the shared-neighborhood obstruction, the Z2 parity criterion)
ahead of the per-diameter characterizations.

Two predicates deviate knowingly from their published statements because
the published versions fail against the search oracle; see the rule notes
on Prop4.1 (groups whose elements all have order dividing 6 but containing
3-torsion, e.g. Z3, admit squares yet no labeling) and Prop4.4 (the magic
constant may be 0 since the bare instance has no support vertex).
"""

from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass
from math import gcd

from .abelian import (
    GroupElement,
    GroupSpec,
    cauchy_element,
    decompose_sum,
    involutions,
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


# a recipe's labels: the core's labels by role, and the magic constant
_Labels = tuple[dict[str, GroupElement], GroupElement]


_SUN_FAMILIES = {
    "FIG1-G1", "UD3-G1", "UD3-G3", "UD3-G4",
    "UD4-H4", "UD4-H6", "UD4-H7", "UD4-H8", "UD4-H9", "GENSUN",
}


def predict(inst: FamilyInstance, spec: GroupSpec) -> TheoremVerdict:
    """Theorem verdict for one (instance, group) pair.

    Z2 is always answered by the parity criterion; variants carry no
    closed-form statement and come back NOT_COVERED.
    """
    return _decide(inst, spec, *build(inst))[0]


def construct_labeling(inst: FamilyInstance, spec: GroupSpec) -> Labeling:
    """Deterministic witness following the matching proof recipe."""
    g, roles = build(inst)
    verdict, labels = _decide(inst, spec, g, roles)
    if labels is None:
        raise ContractError(
            f"no constructive recipe: predict({inst.render()}, {spec}) is "
            f"{verdict.outcome}"
        )
    return _finish(inst, spec, g, roles, *labels)


def _decide(
    inst: FamilyInstance, spec: GroupSpec, g: Graph, roles: Mapping[str, int]
) -> tuple[TheoremVerdict, _Labels | None]:
    """The verdict, and the recipe's (core, mu) when it says magic.

    `g, roles` is `build(inst)`, so an instance `build` rejects has raised
    FamilyError before any decision.
    """
    if inst.variant is not None:
        return TheoremVerdict(
            NOT_COVERED, "NotCovered",
            "position variant outside the drawn families",
        ), None
    found = _recipe(inst, spec, g, roles)
    if found is None:
        return TheoremVerdict(
            NOT_COVERED, "NotCovered", f"no rule for {inst.family}"
        ), None
    rule, detail, labels = found
    return TheoremVerdict(
        NOT_MAGIC if labels is None else MAGIC, rule, detail
    ), labels


def _recipe(
    inst: FamilyInstance, spec: GroupSpec, g: Graph, roles: Mapping[str, int]
) -> tuple[str, str, _Labels | None] | None:
    """(rule, detail, labels) of the statement covering a drawn instance
    built as `g, roles`.

    `labels` is the (core, mu) the proof writes down when the condition
    holds, and None when it fails; the core labels every non-pendant vertex
    by role.  Returns None for a family no statement covers.
    """
    fam = inst.family
    p = inst.pendant_params
    nonzero = spec.nonzero_elements()

    if spec.order == 2:
        if not degrees_same_parity(g):
            return "Z2-parity", "", None
        one = spec.element((1,) * spec.rank)
        mu = spec.zero() if g.degree(0) % 2 == 0 else one
        core = {r: one for r, v in roles.items() if g.degree(v) > 1}
        return "Z2-parity", "", (core, mu)

    if fam == "CYCLE":
        x = nonzero[0]
        return "Prop2.2", "", ({f"v{i + 1}": x for i in range(p[0])}, 2 * x)

    if fam in _SUN_FAMILIES:
        bunches = pendant_bunches(g)
        pendants = set().union(*bunches)
        if not all(bunches[v] for v in range(g.n) if v not in pendants):
            return "Lemma2.5", "", None
        x = nonzero[0]
        return "Lemma2.5", "", (
            {r: x for r, v in roles.items() if g.degree(v) > 1}, x
        )

    rule = _NO_RULES.get(fam, ("",))[0]
    if rule.startswith("Prop"):
        # the shared-neighborhood obstruction: never magic
        return rule, "", None

    if fam == "UD3-G2":
        if p[1] != 0 or spec.order % 2 == 1:
            return "Prop3.2", "", None
        h = cauchy_element(spec, 2)
        gg = next(e for e in nonzero if e != h)
        return "Prop3.2", "", ({"v1": gg, "v2": gg - h, "v3": h, "v4": h}, gg)

    if fam == "UD4-H1":
        rule = "Prop3.4" if p[0] == 0 else "Prop3.5"
        has_weak = any(c == 1 for c in inst.hub_subtrees)
        if p[1] != 0 or (p[0] >= 1 and has_weak):
            return rule, "", None
        d1 = g.degree(roles["v1"])
        if p[0] == 0:
            gg = _first(nonzero, lambda e: not (
                ((d1 - 1) * e).is_zero()
                or ((d1 - 2) * e).is_zero()
                or ((2 * d1 - 3) * e).is_zero()
                or (has_weak and ((2 * d1 - 2) * e).is_zero())
            ))
            if gg is None:
                return rule, "", None
            return rule, "", _with_hub(inst, {
                "v1": (3 - 2 * d1) * gg,
                "v2": (2 - d1) * gg,
                "v3": (d1 - 1) * gg,
                "v4": (d1 - 1) * gg,
            }, gg)
        pair = _first_pair(
            sorted(involutions(spec), key=spec.index_of), nonzero,
            lambda h, e: e != h and (p[0] >= 2 or (d1 - 2) * e != h),
        )
        if pair is None:
            return rule, "", None
        h, gg = pair
        core = {"v1": gg, "v2": gg - h, "v3": h, "v4": h}
        return rule, "", _with_hub(inst, core, gg)

    if fam == "UD4-H2":
        if p[1] == 0 and p[2] == 0:
            # a hub with two or more children keeps the diameter at 4 even
            # with v2, v3 bare, a case the published diameter argument
            # skips; the weight chain leaves l(v2)=l(v3)=t free subject to
            # 2t = (1-k)g
            if p[0] != 0:
                return "Prop3.7", "", None
            detail = "bare-v2/v3 corner outside the published statement"
            k = len(inst.hub_subtrees)
            pair = _first_pair(
                nonzero, nonzero, lambda e, t: t != e and 2 * t == (1 - k) * e
            )
            if pair is None:
                return "Prop3.7", detail, None
            gg, t = pair
            core = {"v1": gg - t, "v2": t, "v3": t}
            return "Prop3.7", detail, _with_hub(inst, core, gg)
        if p[1] == 0 or p[2] == 0:
            return "Prop3.7", "", None
        d1 = g.degree(roles["v1"])
        if p[0] == 0:
            m = gcd(d1 - 1, spec.order)
            if m == 1:
                return "Prop3.7", "", None
            gg = _prime_order_element(spec, m)
            h = next(e for e in nonzero if e != gg)
            core = {"v1": h, "v2": gg, "v3": gg}
            return "Prop3.7", "", _with_hub(inst, core, gg)
        if any(c < 2 for c in inst.hub_subtrees):
            return "Prop3.7", "", None
        gg = nonzero[0] if p[0] >= 2 else _first(
            nonzero, lambda e: not ((d1 - 2) * e).is_zero()
        )
        if gg is None:
            return "Prop3.7", "", None
        core = {"v1": gg, "v2": gg, "v3": gg}
        return "Prop3.7", "", _with_hub(inst, core, gg)

    if fam == "UD4-H3":
        m = gcd(g.degree(roles["v2"]) - 2, spec.order) if p == (0, 0, 0) else 1
        if m == 1:
            return "Prop3.9", "", None
        gg = _prime_order_element(spec, m)
        g1, g2 = decompose_sum(spec, gg, 2)
        core = {"v1": g1, "v2": g1, "v3": g2, "v4": g2}
        return "Prop3.9", "", _with_hub(inst, core, gg)

    if fam == "UD4-H5":
        if p != (0, 0, 0):
            return "Prop3.10", "", None
        d2 = g.degree(roles["v2"])
        pair = _first_pair(
            nonzero, nonzero, lambda e, h: e != h and 2 * h == (3 - d2) * e
        )
        if pair is None:
            return "Prop3.10", "", None
        gg, h = pair
        core = {"v1": h, "v2": h, "v3": h, "v4": gg - h, "v5": gg - h}
        return "Prop3.10", "", _with_hub(inst, core, gg)

    if fam == "B3-M1":
        if p[0] != 0 or p[1] == 0 or p[2] == 0:
            return "Prop4.1", "", None
        detail = ("condition adjusted: needs an element with 2y != 0 and "
                  "3y != 0, not merely a square")
        y = _first(
            nonzero, lambda e: not (2 * e).is_zero() and not (3 * e).is_zero()
        )
        if y is None:
            return "Prop4.1", detail, None
        gg = -(2 * y)
        core = {"v1": -(3 * y), "v2": gg, "v3": gg, "v4": y, "v5": y}
        return "Prop4.1", detail, (core, gg)

    if fam in ("B3-M2", "B3-M5"):
        # both take mu = 2h for the first h with 2h != 0 (a nonzero square)
        h = _first(nonzero, lambda e: not (2 * e).is_zero())
        if fam == "B3-M2":
            if p[0] != 0 or p[2] != 0 or p[1] < 2 or h is None:
                return "Prop4.2", "", None
            core = {"v1": h, "v2": 2 * h, "v3": h, "v4": -h}
            return "Prop4.2", "", (core, 2 * h)
        if p[0] < 1 or p[1] < 1 or h is None:
            return "Prop4.5", "", None
        core = {"v1": 2 * h, "v2": 2 * h, "v3": h, "v4": -h, "v5": h}
        return "Prop4.5", "", (core, 2 * h)

    if fam == "B3-M4":
        if p != (0, 0):
            return "Prop4.4", "", None
        detail = ("condition adjusted: the magic constant g may be 0 because "
                  "the bare instance has no support vertex")
        pair = _first_pair(spec.elements(), nonzero, lambda e, h: (
            e != h and e != 2 * h and 2 * e != 2 * h and 3 * e == 3 * h
        ))
        if pair is None:
            return "Prop4.4", detail, None
        gg, h = pair
        core = {
            "v1": 2 * h - gg, "v2": h, "v3": gg - h, "v4": gg - h,
            "v5": 2 * gg - 2 * h, "v6": 2 * gg - 2 * h,
        }
        return "Prop4.4", detail, (core, gg)

    if fam == "B3-M9":
        pair = p[0] == 0 and _first_pair(
            nonzero, nonzero, lambda e, h: e != h and (4 * (e - h)).is_zero()
        )
        if not pair:
            return "Prop4.8", "", None
        gg, h = pair
        x = gg - h
        core = {"v1": h, "v2": gg, "v3": x, "v4": x, "v5": x, "v6": x}
        return "Prop4.8", "", (core, gg)

    if fam == "B3-M10":
        if p != (0, 0) or spec.order % 2 == 1:
            return "Prop4.9", "", None
        h = cauchy_element(spec, 2)
        core = {r: h for r in ("v1", "v2", "v3", "v4", "v5", "v6")}
        return "Prop4.9", "", (core, spec.zero())

    if fam == "B3-M11":
        if p != (0, 0):
            return "Prop4.12", "", None
        x = nonzero[0]
        core = {
            "v1": x, "v4": x, "v7": x,
            "v2": -x, "v3": -x, "v5": -x, "v6": -x,
        }
        return "Prop4.12", "", (core, spec.zero())

    if fam == "B3-M12":
        # needs an involution h and some g not in {0, h}: even order >= 4
        if p[1] != 0 or spec.order % 2 == 1:
            return "Prop4.10", "", None
        h = cauchy_element(spec, 2)
        gg = next(e for e in nonzero if e != h)
        core = {"v1": gg, "v2": gg + h, "v3": gg, "v4": h, "v5": h - gg}
        return "Prop4.10", "", (core, gg)

    if fam == "B3-M14":
        pair = p == (0, 0) and _first_pair(
            nonzero, nonzero, lambda h1, h2: h1 != h2 and 2 * h1 == 2 * h2
        )
        if not pair:
            return "Prop4.13", "", None
        h1, h2 = pair
        core = {
            "v1": h1, "v5": h1, "v2": h2, "v4": h2, "v3": h2 - h1, "v6": h2,
        }
        return "Prop4.13", "", (core, 2 * h1)

    return None


def _first(xs, ok):
    """The first x with ok(x), or None."""
    return next((x for x in xs if ok(x)), None)


def _first_pair(xs, ys, ok):
    """The first (x, y), x-major, with ok(x, y), or None."""
    return next(((x, y) for x in xs for y in ys if ok(x, y)), None)


def _prime_order_element(spec: GroupSpec, m: int) -> GroupElement:
    """The least element whose order is the least prime factor of m > 1."""
    return cauchy_element(spec, min(d for d in range(2, m + 1) if m % d == 0))


def _with_hub(
    inst: FamilyInstance, core: dict[str, GroupElement], mu: GroupElement
) -> _Labels:
    """The core plus mu on every hub support child."""
    kids = {f"u{i + 1}": mu for i in range(len(inst.hub_subtrees))}
    return {**core, **kids}, mu


def _finish(
    inst: FamilyInstance,
    spec: GroupSpec,
    g: Graph,
    roles: Mapping[str, int],
    core: dict[str, GroupElement],
    mu: GroupElement,
) -> Labeling:
    """Fill pendant bunches of the built instance `g, roles` from the core
    labels and verify the result."""
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


# --- group-vertex-magic classification ---------------------------------------

# the refutation each family's statement cites; the Prop rows are the
# families no group makes magic, which `_recipe` reads too
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
    inst = recognize(g)
    drawn_rule = (
        _NO_RULES.get(inst.family, ("",))[0]
        if inst is not None and inst.variant is None else ""
    )
    if lemma0_obstruction(g) is not None:
        # the obstruction is fatal for every group; when the shape is a
        # drawn family whose proposition says exactly that, cite it
        if drawn_rule.startswith("Prop"):
            return ClassifyVerdict("no", drawn_rule, Z2)
        return ClassifyVerdict("no", "Lemma2.3", Z2)
    if not degrees_same_parity(g):
        # the parity mismatch itself is the refutation, so Z2 is the
        # certificate group regardless of which statement gets cited
        if drawn_rule:
            return ClassifyVerdict("no", drawn_rule, Z2)
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
    g, roles = build(inst)
    d1 = g.degree(roles["v1"])
    if inst.pendant_params[0] == 0:
        return GroupSpec((d1,))
    if inst.pendant_params[0] == 1:
        return GroupSpec((d1 - 2,)) if d1 > 4 else Z2
    return Z3  # weak hub child: every group with |A| >= 3 refutes


def corollary_refuters() -> dict[str, GroupSpec]:
    """The specific refuting group each corollary names, per family.

    UD4-H2 is left out: its corollary names a group that depends on the
    instance (`_h2_refuter`).
    """
    return {
        fam: refuter for fam, (rule, refuter) in _NO_RULES.items()
        if rule.startswith("Cor") and fam != "UD4-H2"
    }
