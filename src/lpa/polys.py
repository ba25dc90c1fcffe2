"""Multivariate polynomial arithmetic over Q and F_p.

Polynomials are dicts mapping exponent tuples (one slot per variable) to
nonzero coefficients.  When the characteristic ``p`` is 0 a coefficient is an
``int`` while it is integral and a ``Fraction`` otherwise; in characteristic
``p`` it is an int in ``[0, p)``.  The zero polynomial is the
empty dict.  Monomials are ordered graded-lexicographically with the declared
variable order, which fixes leading terms and hence all the normalizations
below (monic gcds, monic denominators).
"""

from __future__ import annotations

import sys
from fractions import Fraction


class NotDivisibleError(ArithmeticError):
    pass


class RenderError(ValueError):
    """A coefficient too long to write out as text."""


# -- coefficient domain -------------------------------------------------

def _qnorm(x):
    """A rational in canonical form: the int itself while it is integral."""
    if type(x) is int:
        return x
    return x.numerator if x.denominator == 1 else x


def cadd(a, b, p):
    return (a + b) % p if p else _qnorm(a + b)


def csub(a, b, p):
    return (a - b) % p if p else _qnorm(a - b)


def cneg(a, p):
    return (-a) % p if p else -a


def cmul(a, b, p):
    return (a * b) % p if p else _qnorm(a * b)


def cinv(a, p):
    if p:
        if a % p == 0:
            raise ZeroDivisionError("inverse of 0 in F_p")
        return pow(a, p - 2, p)
    if a == 0:
        raise ZeroDivisionError("inverse of 0 in Q")
    return _qnorm(Fraction(1) / a)


def cfrom_int(n, p):
    return n % p if p else _qnorm(n)


# -- basic polynomial ops -----------------------------------------------

def pconst(c, nvars, p):
    if p:
        c = c % p
    if not c:
        return {}
    return {(0,) * nvars: c}


def pvar(i, nvars, p):
    e = [0] * nvars
    e[i] = 1
    return {tuple(e): 1}


def pis_const(a):
    return not a or (len(a) == 1 and not any(next(iter(a))))


def padd(a, b, p):
    out = dict(a)
    for e, c in b.items():
        s = cadd(out.get(e, 0), c, p)
        if s:
            out[e] = s
        else:
            out.pop(e, None)
    return out


def pneg(a, p):
    return {e: cneg(c, p) for e, c in a.items()}


def psub(a, b, p):
    return padd(a, pneg(b, p), p)


def pmul(a, b, p):
    out = {}
    for ea, ca in a.items():
        for eb, cb in b.items():
            e = tuple(x + y for x, y in zip(ea, eb))
            s = cadd(out.get(e, 0), cmul(ca, cb, p), p)
            if s:
                out[e] = s
            else:
                out.pop(e, None)
    return out


def pscale(a, c, p):
    if not c:
        return {}
    return {e: cmul(v, c, p) for e, v in a.items()}


def grlex_key(e):
    return (sum(e), e)


def plead(a):
    """Leading (exponent, coefficient) under grlex."""
    e = max(a, key=grlex_key)
    return e, a[e]


def pmonic(a, p):
    if not a:
        return a
    _, lc = plead(a)
    if lc == 1:
        return a
    return pscale(a, cinv(lc, p), p)


def pdivexact(a, b, p):
    """Divide a by b assuming the division is exact; raise otherwise."""
    if not b:
        raise ZeroDivisionError("division by zero polynomial")
    if not a:
        return {}
    eb, cb = plead(b)
    cbinv = cinv(cb, p)
    q = {}
    r = dict(a)
    while r:
        er, cr = plead(r)
        diff = tuple(x - y for x, y in zip(er, eb))
        if any(d < 0 for d in diff):
            raise NotDivisibleError("polynomial division is not exact")
        c = cmul(cr, cbinv, p)
        q[diff] = c
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(diff, e2))
            s = csub(r.get(e, 0), cmul(c, c2, p), p)
            if s:
                r[e] = s
            else:
                r.pop(e, None)
    return q


# -- gcd via primitive pseudo-remainder sequences -----------------------

def _to_univ(a):
    """Split off the first variable: dict degree -> poly in the rest."""
    out = {}
    for e, c in a.items():
        d = e[0]
        rest = e[1:]
        coeff = out.setdefault(d, {})
        coeff[rest] = c
    return out


def _from_univ(u):
    out = {}
    for d, coeff in u.items():
        for rest, c in coeff.items():
            out[(d,) + rest] = c
    return out


def _univ_content(u, p):
    cont = {}
    for coeff in u.values():
        cont = _gcd_rec(cont, coeff, p)
        if pis_const(cont) and cont:
            break
    return cont


def _prem(A, B, p):
    """Pseudo-remainder: lc(B)^(deg A - deg B + 1) * A mod B, both univariate
    with poly coefficients."""
    dB = max(B)
    lcB = B[dB]
    R = {d: dict(c) for d, c in A.items()}
    e = max(A) - dB + 1
    while R and max(R) >= dB:
        dR = max(R)
        lcR = R[dR]
        e -= 1
        newR = {}
        for d, c in R.items():
            if d == dR:
                continue
            v = pmul(c, lcB, p)
            if v:
                newR[d] = v
        for d, c in B.items():
            if d == dB:
                continue
            dd = d + dR - dB
            v = psub(newR.get(dd, {}), pmul(c, lcR, p), p)
            if v:
                newR[dd] = v
            else:
                newR.pop(dd, None)
        R = newR
    # pad to the exact power so the subresultant divisions stay exact
    for _ in range(e):
        R = {d: pmul(c, lcB, p) for d, c in R.items()}
    return R


def _coeff_pow(base, k, p, nv):
    out = {(0,) * nv: 1}
    for _ in range(k):
        out = pmul(out, base, p)
    return out


def _gcd_rec(a, b, p):
    """Some gcd of a and b (up to a unit); {} only when both are zero."""
    if not a:
        return b
    if not b:
        return a
    nvars = len(next(iter(a)))
    if nvars == 0:
        return {(): 1}
    if nvars == 1:
        # univariate over a field: plain Euclid
        while b:
            a, b = b, urem(a, b, p)
        return a
    A = _to_univ(a)
    B = _to_univ(b)
    ca = _univ_content(A, p)
    cb = _univ_content(B, p)
    cont = _gcd_rec(ca, cb, p)
    A = {d: pdivexact(c, ca, p) for d, c in A.items()}
    B = {d: pdivexact(c, cb, p) for d, c in B.items()}
    if max(A) < max(B):
        A, B = B, A
    if max(B) == 0:
        # a constant primitive part: the inputs share only their content
        return _from_univ({0: cont})
    # subresultant pseudo-remainder sequence: only exact divisions inside
    # the loop, so coefficients stay subresultant-sized
    nv = nvars - 1
    g = {(0,) * nv: 1}
    h = dict(g)
    while True:
        delta = max(A) - max(B)
        R = _prem(A, B, p)
        if not R:
            break
        if max(R) == 0:
            # coprime primitive parts: only the content survives
            return _from_univ({0: cont})
        divisor = pmul(g, _coeff_pow(h, delta, p, nv), p)
        R = {d: pdivexact(c, divisor, p) for d, c in R.items()}
        A, B = B, R
        g = A[max(A)]
        if delta:
            # h <- g^delta / h^(delta - 1), exact in the coefficient ring
            h = pdivexact(
                _coeff_pow(g, delta, p, nv), _coeff_pow(h, delta - 1, p, nv), p
            )
    cB = _univ_content(B, p)
    B = {d: pdivexact(c, cB, p) for d, c in B.items()}
    return _from_univ({d: pmul(c, cont, p) for d, c in B.items()})


def udivmod(a, b, p):
    """Quotient and remainder of univariate a by b over the coefficient field."""
    eb, cb = plead(b)
    db = eb[0]
    cbinv = cinv(cb, p)
    q = {}
    r = dict(a)
    while r:
        er, cr = plead(r)
        if er[0] < db:
            break
        c = cmul(cr, cbinv, p)
        shift = er[0] - db
        q[(shift,)] = c
        for e2, c2 in b.items():
            e = (e2[0] + shift,)
            s = csub(r.get(e, 0), cmul(c, c2, p), p)
            if s:
                r[e] = s
            else:
                r.pop(e, None)
    return q, r


def urem(a, b, p):
    """Remainder of univariate a mod b over the coefficient field."""
    return udivmod(a, b, p)[1]


def uegcd(a, b, p):
    """Monic gcd g of univariate a and b, and s with s*a = g mod b."""
    r0, r1 = a, b
    s0, s1 = {(0,): 1}, {}
    while r1:
        q, r = udivmod(r0, r1, p)
        r0, r1 = r1, r
        s0, s1 = s1, psub(s0, pmul(q, s1, p), p)
    if not r0:
        return {}, {}
    inv = cinv(plead(r0)[1], p)
    return pscale(r0, inv, p), pscale(s0, inv, p)


def pgcd(a, b, p):
    """The monic gcd of a and b under grlex; {} iff both are zero."""
    if not a:
        return pmonic(b, p)
    if not b:
        return pmonic(a, p)
    # fast path: monomial operands reduce to componentwise minima
    if len(a) == 1 or len(b) == 1:
        mina = [min(e[i] for e in a) for i in range(len(next(iter(a))))]
        minb = [min(e[i] for e in b) for i in range(len(next(iter(b))))]
        e = tuple(min(x, y) for x, y in zip(mina, minb))
        return {e: 1}
    return pmonic(_gcd_rec(a, b, p), p)


# -- canonical form and rendering ---------------------------------------

def pcanon(a):
    """Hashable canonical form: terms sorted grlex-descending."""
    return tuple(sorted(a.items(), key=lambda t: grlex_key(t[0]), reverse=True))


def pfrom_canon(t):
    return dict(t)


def pstr(a, names):
    """Render deterministically, grlex-descending, e.g. '2*s^2*t - 1/3'."""
    if not a:
        return "0"
    parts = []
    for e, c in sorted(a.items(), key=lambda t: grlex_key(t[0]), reverse=True):
        mono = "*".join(
            n if k == 1 else f"{n}^{k}" for n, k in zip(names, e) if k
        )
        if not mono:
            term = cstr(c)
        elif c == 1:
            term = mono
        elif c == -1:
            term = "-" + mono
        else:
            term = f"{cstr(c)}*{mono}"
        parts.append(term)
    return signed_sum(parts)


def cstr(c):
    """A coefficient as text, or RenderError past the interpreter's digit limit."""
    try:
        return str(c)
    except ValueError:
        raise RenderError(f"coefficient exceeds {sys.get_int_max_str_digits()} digits") from None


def signed_sum(parts):
    """Join rendered terms with ' + ', or with ' - ' before a term that
    starts with a minus sign."""
    return parts[0] + "".join(
        f" - {t[1:]}" if t.startswith("-") else f" + {t}" for t in parts[1:]
    )
