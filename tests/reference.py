"""Reference definitions the tests check the package against.

Each is written from the definition, on `GroupElement` arithmetic alone,
and shares no code with the package function it checks.
"""

from vertexmagic.abelian import GroupElement, GroupSpec


def automorphisms(spec: GroupSpec) -> list[dict[GroupElement, GroupElement]]:
    """Every automorphism of spec, as a map of its elements; for small groups.

    A homomorphism is fixed by the images b_i of the basis elements e_i,
    with f_i * b_i = 0 for the factor Z_{f_i}, and sends sum r_i * e_i to
    sum r_i * b_i.  The images are chosen one at a time, and a choice is
    kept when no nonzero multiple r * b_i, 0 < r < f_i, falls in the image
    of the subgroup generated so far: the map then stays one-to-one on it.
    """
    elems = spec.elements()
    out = []

    def grow(i, domain, images):
        # images[j] is the image of domain[j], over the subgroup <e_1..e_i>
        if i == spec.rank:
            out.append(dict(zip(domain, images)))
            return
        f = spec.factors[i]
        e = spec.element(tuple(int(j == i) for j in range(spec.rank)))
        taken = set(images)
        domain = [a + r * e for a in domain for r in range(f)]
        for b in elems:
            multiples = [r * b for r in range(f)]
            if (f * b).is_zero() and taken.isdisjoint(multiples[1:]):
                grow(i + 1, domain, [x + rb for x in images for rb in multiples])

    zero = spec.zero()
    grow(0, [zero], [zero])
    return out
