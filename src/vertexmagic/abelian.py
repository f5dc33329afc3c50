"""Finite abelian groups presented as direct sums of cyclic factors.

Elements are residue vectors with componentwise modular arithmetic; the
residues are reduced once, when a `GroupElement` is constructed.  The
canonical presentation is the invariant-factor chain d_1 | d_2 | ... | d_k,
which is unique per isomorphism class and therefore usable as a dictionary
key.  Element enumeration is always in lexicographic residue order, so the
zero element has index 0 and every "least such element" tie-break downstream
is reproducible.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from itertools import product
from math import gcd, lcm, prod
from operator import add, mod, neg, sub


class GroupError(ValueError):
    """Bad group construction or operation arguments."""


class MismatchedGroups(GroupError):
    """Elements of different groups were combined."""


class InfeasibleDecomposition(GroupError):
    """A nonzero-summand decomposition does not exist (Z2 corner cases)."""


class SelfCheckError(RuntimeError):
    """A group computation failed its own output check: a bug, not bad input."""


def _factorint(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _partitions(k: int) -> list[tuple[int, ...]]:
    """All integer partitions of k as non-increasing tuples."""
    if k == 0:
        return [()]
    out = []

    def rec(remaining, cap, acc):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for part in range(min(cap, remaining), 0, -1):
            acc.append(part)
            rec(remaining - part, part, acc)
            acc.pop()

    rec(k, k, [])
    return out


def _invariant_factors(primary) -> tuple[int, ...]:
    """The chain d_1 | d_2 | ... | d_k from (p, exponents) pairs, each
    exponent sequence non-increasing: d_k takes every prime's largest."""
    width = max(len(exps) for _, exps in primary)
    return tuple(
        prod(p ** exps[i] for p, exps in primary if i < len(exps))
        for i in reversed(range(width))
    )


def _is_prime(p: int) -> bool:
    if p < 2:
        return False
    d = 2
    while d * d <= p:
        if p % d == 0:
            return False
        d += 1
    return True


@dataclass(frozen=True, order=True)
class GroupSpec:
    """A finite abelian group Z_{n_1} + ... + Z_{n_k}, every n_i >= 2."""

    factors: tuple[int, ...]

    def __post_init__(self):
        if not self.factors:
            raise GroupError("a group needs at least one cyclic factor")
        if any(f < 2 for f in self.factors):
            raise GroupError(f"cyclic factors must be >= 2, got {self.factors}")

    @property
    def order(self) -> int:
        return prod(self.factors)

    @property
    def rank(self) -> int:
        return len(self.factors)

    def canonical(self) -> "GroupSpec":
        """Invariant-factor form d_1 | d_2 | ... | d_k."""
        primary: dict[int, list[int]] = {}
        for f in self.factors:
            for p, e in _factorint(f).items():
                primary.setdefault(p, []).append(e)
        return GroupSpec(_invariant_factors(
            [(p, sorted(exps, reverse=True)) for p, exps in primary.items()]
        ))

    def exponent(self) -> int:
        return lcm(*self.factors)

    def zero(self) -> "GroupElement":
        return GroupElement(self, (0,) * len(self.factors))

    def element(self, residues) -> "GroupElement":
        residues = (residues,) if isinstance(residues, int) else residues
        return GroupElement(self, tuple(map(int, residues)))

    def elements(self) -> tuple["GroupElement", ...]:
        return _elements_of(self)

    def nonzero_elements(self) -> tuple["GroupElement", ...]:
        return _elements_of(self)[1:]

    def index_of(self, a: "GroupElement") -> int:
        """Lexicographic index of an element (zero element is 0)."""
        if a.spec != self:
            raise MismatchedGroups("element belongs to a different group")
        idx = 0
        for r, f in zip(a.residues, self.factors):
            idx = idx * f + r
        return idx

    def element_at(self, idx: int) -> "GroupElement":
        residues = []
        for f in reversed(self.factors):
            idx, r = divmod(idx, f)
            residues.append(r)
        return GroupElement(self, tuple(reversed(residues)))

    def __str__(self) -> str:
        return "+".join(f"Z{f}" for f in self.factors)


@dataclass(frozen=True)
class GroupElement:
    """Residue vector in a GroupSpec, checked and reduced at construction."""

    spec: GroupSpec
    residues: tuple[int, ...]

    def __post_init__(self):
        factors = self.spec.factors
        if len(self.residues) != len(factors):
            raise GroupError(
                f"residue vector length {len(self.residues)} != rank {len(factors)}"
            )
        object.__setattr__(self, "residues", tuple(map(mod, self.residues, factors)))

    def _check(self, other: "GroupElement") -> None:
        if self.spec != other.spec:
            raise MismatchedGroups(
                f"cannot combine elements of {self.spec} and {other.spec}"
            )

    def __add__(self, other: "GroupElement") -> "GroupElement":
        self._check(other)
        return GroupElement(self.spec, tuple(map(add, self.residues, other.residues)))

    def __neg__(self) -> "GroupElement":
        return GroupElement(self.spec, tuple(map(neg, self.residues)))

    def __sub__(self, other: "GroupElement") -> "GroupElement":
        self._check(other)
        return GroupElement(self.spec, tuple(map(sub, self.residues, other.residues)))

    def __rmul__(self, k: int) -> "GroupElement":
        return GroupElement(self.spec, tuple([k * a for a in self.residues]))

    def __mul__(self, k: int) -> "GroupElement":
        return self.__rmul__(k)

    def is_zero(self) -> bool:
        return all(r == 0 for r in self.residues)

    def order(self) -> int:
        return lcm(
            *(f // gcd(f, r) for r, f in zip(self.residues, self.spec.factors))
        )

    def __str__(self) -> str:
        if len(self.residues) == 1:
            return str(self.residues[0])
        return "(" + ",".join(str(r) for r in self.residues) + ")"


@lru_cache(maxsize=None)
def _elements_of(spec: GroupSpec) -> tuple[GroupElement, ...]:
    return tuple(
        GroupElement(spec, res) for res in product(*(range(f) for f in spec.factors))
    )


def squares(spec: GroupSpec) -> frozenset[GroupElement]:
    """All nonzero g expressible as g = 2h."""
    return frozenset(2 * h for h in spec.elements() if not (2 * h).is_zero())


def involutions(spec: GroupSpec) -> frozenset[GroupElement]:
    """All nonzero h with 2h = 0; nonempty exactly for even group order."""
    return frozenset(
        h for h in spec.elements() if not h.is_zero() and (2 * h).is_zero()
    )


def cauchy_element(spec: GroupSpec, p: int) -> GroupElement:
    """Lexicographically least element of order exactly p (p prime, p | |A|)."""
    if not _is_prime(p):
        raise GroupError(f"{p} is not prime")
    if spec.order % p != 0:
        raise GroupError(f"{p} does not divide |A| = {spec.order}")
    for a in spec.elements():
        if a.order() == p:
            return a
    raise AssertionError("Cauchy's theorem violated; unreachable")


def decompose_sum(spec: GroupSpec, target: GroupElement, n: int) -> tuple[GroupElement, ...]:
    """n nonzero elements summing to target, greedily lex-least.

    For |A| >= 3 every (target, n >= 2) is feasible, and n = 1 needs a
    nonzero target.  Over Z2 the only nonzero element is 1, so feasibility
    reduces to the parity match target = n mod 2; the mismatched cases raise
    InfeasibleDecomposition rather than silently failing.
    """
    if target.spec != spec:
        raise MismatchedGroups("target belongs to a different group")
    if n < 1:
        raise GroupError(f"need n >= 1 summands, got {n}")
    if n == 1 and target.is_zero():
        raise GroupError("cannot write 0 as a single nonzero element")
    if spec.order == 2:
        one = spec.element((1,) * spec.rank)
        want = one if n % 2 == 1 else spec.zero()
        if want != target:
            raise InfeasibleDecomposition(
                f"over {spec} no {n} nonzero elements sum to {target}"
            )
        return (one,) * n

    nonzero = spec.nonzero_elements()
    parts: list[GroupElement] = []
    remaining = target
    for k in range(n, 0, -1):
        if k == 1:
            parts.append(remaining)
            break
        if k == 2:
            g1 = next(g for g in nonzero if g != remaining)
        else:
            g1 = nonzero[0]
        parts.append(g1)
        remaining = remaining - g1
    # an explicit raise, not an assert, so the check survives python -O
    if any(g.is_zero() for g in parts):
        raise SelfCheckError(f"decompose_sum produced a zero summand: {parts}")
    return tuple(parts)


def enumerate_abelian_groups(max_order: int) -> tuple[GroupSpec, ...]:
    """One invariant-factor form per abelian group of order in [2, max_order]."""
    if max_order < 2:
        raise GroupError("max_order must be >= 2")
    groups: list[GroupSpec] = []
    for m in range(2, max_order + 1):
        primary = _factorint(m)
        partition_choices = [
            [(p, part) for part in _partitions(e)] for p, e in sorted(primary.items())
        ]
        for combo in product(*partition_choices):
            groups.append(GroupSpec(_invariant_factors(combo)))
    groups.sort(key=lambda s: (s.order, s.factors))
    return tuple(groups)


def _strides(spec: GroupSpec) -> list[int]:
    """Index of each basis element e_i (the last factor varies fastest)."""
    out = [1] * spec.rank
    for i in range(spec.rank - 2, -1, -1):
        out[i] = out[i + 1] * spec.factors[i + 1]
    return out


def _extend(spec: GroupSpec, images) -> list[int]:
    """Index map a -> sum_i r_i * images[i] for a = (r_1, ..., r_k), where
    images[i] is the index of the image of e_i."""
    m, add, _ = cayley_tables(spec)
    phi = [0] * m
    block = 1
    for f, im in zip(reversed(spec.factors), reversed(images)):
        for idx in range(block, f * block):
            phi[idx] = add[phi[idx - block] * m + im]
        block *= f
    return phi


# --- parsing and rendering -------------------------------------------------

_ALIASES = {"V4": (2, 2)}
# distinct literals the record parsers remember; a standard ledger names a
# few hundred instances and a few dozen groups
PARSE_CACHE_SIZE = 1024


@lru_cache(maxsize=PARSE_CACHE_SIZE)
def parse_group(text: str) -> GroupSpec:
    """Parse `Z4`, `Z2+Z4`, `V4` (case-insensitive) into a GroupSpec.

    Memoized: a ledger names few groups over many rows, and the result is
    frozen.  A malformed literal is not cached, so it raises on every call.
    """
    s = text.strip().upper().replace(" ", "")
    if not s:
        raise GroupError("empty group spec")
    if s in _ALIASES:
        return GroupSpec(_ALIASES[s])
    factors = []
    for part in s.split("+"):
        if part in _ALIASES:
            factors.extend(_ALIASES[part])
            continue
        digits = part[1:]
        if not (part.startswith("Z") and digits.isascii() and digits.isdigit()):
            raise GroupError(f"cannot parse group factor {part!r} in {text!r}")
        factors.append(int(digits))
    return GroupSpec(tuple(factors))


# groups up to this order (the solver's bound) get a table of their
# elements' literals, built once from the element list; a larger group is
# never enumerated, so a literal over it costs its length, not the order
LITERAL_TABLE_MAX_ORDER = 256


@lru_cache(maxsize=PARSE_CACHE_SIZE)
def literal_table(spec: GroupSpec) -> dict[str, GroupElement]:
    """Each element's canonical literal `str(e)` mapped to the element, for
    a group of order <= LITERAL_TABLE_MAX_ORDER; empty for a larger one.
    Callers only read it."""
    if spec.order > LITERAL_TABLE_MAX_ORDER:
        return {}
    return {str(e): e for e in spec.elements()}


def _ascii_int(text: str) -> int:
    """int(text) for ASCII digits after an optional sign; any other numeral,
    such as `٣` or `1_0`, raises ValueError."""
    s = text.strip()
    digits = s[1:] if s[:1] in ("+", "-") else s
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not an ASCII numeral: {text!r}")
    return int(s)


def parse_element(spec: GroupSpec, text: str) -> GroupElement:
    """Parse `3` or `(1,0)` as an element of spec.

    A canonical literal (as `str` renders it) of a small group is looked up
    in `literal_table`; any other text, such as `" 1"`, `"5"` over Z4,
    `"(1, 0)"` or any literal over a group past LITERAL_TABLE_MAX_ORDER, is
    parsed and reduced, and a malformed one raises GroupError on every call.
    """
    hit = literal_table(spec).get(text)
    if hit is not None:
        return hit
    s = text.strip()
    is_tuple = s.startswith("(") and s.endswith(")")
    if not is_tuple and spec.rank != 1:
        raise GroupError(
            f"element of {spec} needs a {spec.rank}-tuple, got {text!r}"
        )
    try:
        if is_tuple:
            parts = [p for p in s[1:-1].split(",") if p.strip() != ""]
            residues = tuple(_ascii_int(p) for p in parts)
        else:
            residues = _ascii_int(s)
    except ValueError as exc:
        raise GroupError(f"bad number in element {text!r}") from exc
    return spec.element(residues)


@lru_cache(maxsize=None)
def cayley_tables(spec: GroupSpec) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
    """(order m, flat m*m addition table, negation table) over element indices.

    Built on indices alone, one cyclic factor at a time: with the factor
    Z_f appended to a group of order m, element a*f + b (the new factor
    varies fastest, as in `element_at`) adds as
    (a1*f + b1) + (a2*f + b2) = add[a1*m + a2]*f + (b1 + b2) mod f.
    The negation of i is the column of 0 in row i.
    """
    m, add = 1, [0]
    for f in spec.factors:
        shifts = [[(b1 + b2) % f for b2 in range(f)] for b1 in range(f)]
        grown = []
        for a1 in range(m):
            row = [c * f for c in add[a1 * m:(a1 + 1) * m]]
            for shift in shifts:
                grown.extend([c + t for c in row for t in shift])
        m, add = m * f, grown
    neg = tuple(add.index(0, i * m, (i + 1) * m) - i * m for i in range(m))
    return m, tuple(add), neg


def _generator_images(spec: GroupSpec):
    """Basis images (as indices) of the unit scalings and the elementary
    transvections.

    Unit scalings send e_i to u*e_i with gcd(u, d_i) = 1; transvections send
    e_j to e_j + c*e_i with c = d_i / gcd(d_i, d_j), the least c for which
    c*e_i has an order dividing d_j.  Identity maps are left out.
    """
    f = spec.factors
    basis = _strides(spec)
    for i, d in enumerate(f):
        for u in range(2, d):
            if gcd(u, d) == 1:
                yield basis[:i] + [u * basis[i]] + basis[i + 1:]
    for i, di in enumerate(f):
        for j, dj in enumerate(f):
            c = di // gcd(di, dj)
            if i != j and c < di:
                yield basis[:j] + [basis[j] + c * basis[i]] + basis[j + 1:]


@lru_cache(maxsize=None)
def mu_orbits(spec: GroupSpec) -> tuple[tuple[int, ...], tuple[int, ...]]:
    """Orbits of Aut(A) on element indices, as (rep, size).

    rep[i] is the least index in the orbit of element i and size[i] the
    orbit's length.  The orbits are the connected components of the unit
    scalings and elementary transvections (`_generator_images`), joined by
    union-find with the least index as root.  Each generator is checked to
    be a bijective homomorphism on the Cayley table before it is used, so
    every orbit is a union of genuine automorphism images: the orbits may
    be finer than the true Aut(A)-orbits, never coarser.
    """
    m, add, _ = cayley_tables(spec)
    basis = _strides(spec)
    parent = list(range(m))

    def find(x: int) -> int:
        while parent[x] != x:
            parent[x] = parent[parent[x]]
            x = parent[x]
        return x

    for images in _generator_images(spec):
        phi = _extend(spec, images)
        # additive on every e_i (hence a homomorphism) and bijective; an
        # explicit raise, not an assert, so the check survives python -O
        if len(set(phi)) != m or any(
            phi[add[a * m + b]] != add[phi[a] * m + phi[b]]
            for b in basis for a in range(m)
        ):
            raise SelfCheckError(
                f"basis images {images} are not an automorphism of {spec}"
            )
        for a in range(m):
            ra, rb = find(a), find(phi[a])
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
    rep = tuple(find(a) for a in range(m))
    size = Counter(rep)
    return rep, tuple(size[r] for r in rep)
