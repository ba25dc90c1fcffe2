"""Seeded random generators for property tests and randomized verification."""

from __future__ import annotations

from fractions import Fraction

from lpa import algebra, fields


def random_scalar(rng, field, nonzero=False):
    while True:
        k = _scalar_once(rng, field)
        if not nonzero or not k.is_zero():
            return k


def _scalar_once(rng, field):
    if field.kind == "Q":
        return fields.from_fraction(
            field, Fraction(rng.randint(-4, 4), rng.randint(1, 3))
        )
    if field.kind == "Fp":
        return fields.from_int(field, rng.randint(0, field.char - 1))
    if field.kind == "fraction":
        out = fields.from_int(field, rng.randint(-2, 2))
        for name in field.variables:
            if rng.random() < 0.5:
                v = fields.variable(field, name)
                if rng.random() < 0.25:
                    v = v.inverse()
                out = out + v * fields.from_int(field, rng.randint(-2, 2))
        return out
    # extension: random residue polynomial
    deg = len(field.modulus) - 1
    coeffs = [random_scalar(rng, field.base) for _ in range(deg)]
    out = fields.zero(field)
    xb = fields.xbar(field)
    for i, c in enumerate(coeffs):
        lifted = _lift(field, c)
        out = out + lifted * xb ** i
    return out


def _lift(field, base_elem):
    payload = (base_elem.payload,) if not base_elem.is_zero() else ()
    return fields.FieldElement(field, payload)


def random_reverse_path(rng, g, target, max_len):
    """A random path ending at ``target`` of length <= max_len."""
    edges = []
    cur = target
    for _ in range(rng.randint(0, max_len)):
        incoming = g.in_edges[cur]
        if not incoming:
            break
        e = rng.choice(incoming)
        edges.insert(0, e)
        cur = g.edge_map[e].src
    return tuple(edges)


def random_monomial(rng, g, max_len=3):
    v = rng.choice(g.vertices)
    lam = random_reverse_path(rng, g, v, max_len)
    nu = random_reverse_path(rng, g, v, max_len)
    return algebra.Monomial(lam, nu, v)


def random_element(rng, g, field, mode=algebra.LEAVITT, max_terms=3, max_len=3):
    acc = {}
    for _ in range(rng.randint(1, max_terms)):
        m = random_monomial(rng, g, max_len)
        k = random_scalar(rng, field, nonzero=True)
        acc[m] = acc.get(m, fields.zero(field)) + k
    return algebra.element(g, field, mode, {m: c for m, c in acc.items() if not c.is_zero()})
