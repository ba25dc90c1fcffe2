"""Exact coefficient fields: Q, F_p, rational function fields, simple extensions.

Every element carries its field descriptor and a canonical payload, so equal
elements have identical payloads and everything is hashable (``Fraction(2)``
equals and hashes like ``2``, so a caller-built ``Fraction`` payload still
compares equal):

* Q           -- ``int`` while integral, ``Fraction`` otherwise
* F_p         -- int in ``[0, p)``
* K(t1,..,tk) -- reduced pair of polynomial term-tuples, denominator monic
                 under grlex (see :mod:`lpa.polys`)
* K[x]/(f)    -- tuple of base payloads of degree < deg(f), no trailing zeros

Function-field arithmetic reduces by a polynomial gcd only when it must.  A
monomial denominator c x^d shares with any numerator only a monomial x^m, m
the componentwise minimum exponent, so the fraction is reduced by an exponent
shift and a scale by 1/c; sums and products of fractions with monomial
denominators (the Laurent polynomials K[t1, 1/t1, ..]) put their numerators
over x^max(d,e) or x^(d+e) the same way.  Every other denominator takes the
general gcd path.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from typing import Optional

from . import polys
from .polys import _qnorm


class FieldError(ValueError):
    pass


class FieldMismatchError(FieldError):
    pass


class ReducibleModulusError(FieldError):
    """The extension modulus factors, found when the field is built or when
    a nonzero residue has no inverse."""


@dataclass(frozen=True)
class FieldDescriptor:
    kind: str                       # "Q" | "Fp" | "fraction" | "ext"
    char: int
    variables: tuple = ()
    base: Optional["FieldDescriptor"] = None
    modulus: tuple = ()             # base payloads, degree-ascending

    def __str__(self):
        return descriptor_str(self)

    @cached_property
    def ops(self):
        """``(add, mul, neg, zero)`` on raw payloads of this field; the
        only payload arithmetic for ``+``, ``*`` and ``-``."""
        return _payload_ops(self)


@dataclass(frozen=True)
class FieldElement:
    field: FieldDescriptor
    payload: object

    def __add__(self, other):
        _check(self, other)
        return FieldElement(self.field, self.field.ops[0](self.payload, other.payload))

    def __sub__(self, other):
        _check(self, other)
        return self + (-other)

    def __neg__(self):
        return FieldElement(self.field, self.field.ops[2](self.payload))

    def __mul__(self, other):
        _check(self, other)
        return FieldElement(self.field, self.field.ops[1](self.payload, other.payload))

    def __truediv__(self, other):
        return self * other.inverse()

    def inverse(self):
        if self.is_zero():
            raise ZeroDivisionError(f"division by zero in {self.field}")
        return FieldElement(self.field, _inv(self.field, self.payload))

    def __pow__(self, n):
        if n < 0:
            return self.inverse() ** (-n)
        out = one(self.field)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def is_zero(self):
        if self.field.kind == "fraction":
            return not self.payload[0]
        return not self.payload

    def __bool__(self):
        return not self.is_zero()

    def __str__(self):
        return element_str(self)

    def __repr__(self):
        return f"<{element_str(self)} in {self.field}>"


def _check(a, b):
    if not isinstance(b, FieldElement) or a.field != b.field:
        raise FieldMismatchError("operands lie in different fields")


def add_term(acc, key, c, add, zero):
    """``acc[key] += c`` on a sparse dict of payloads, with the field's
    ``add`` and ``zero`` from ``FieldDescriptor.ops``: a key whose sum is zero
    is dropped, so ``acc`` never holds a zero."""
    prev = acc.get(key)
    if prev is not None:
        c = add(prev, c)
    if c == zero:
        acc.pop(key, None)
    else:
        acc[key] = c


# -- descriptors ---------------------------------------------------------

def rationals():
    return FieldDescriptor("Q", 0)


# Miller-Rabin over the first thirteen primes is exact below _PSI13, the
# least strong pseudoprime to all of them; from there on every base up to
# 2 ln(n)^2 is tried (Miller's test, exact under GRH).  Primes from
# MAX_PRIME on are refused so that the test stays fast.
_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_PSI13 = 3317044064679887385961981
MAX_PRIME = 2 ** 128


def _is_prime(n):
    if n < 2:
        return False
    for q in _SMALL_PRIMES:
        if n % q == 0:
            return n == q
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    bases = _SMALL_PRIMES if n < _PSI13 else range(2, int(2 * math.log(n) ** 2) + 1)
    for a in bases:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def prime_field(p):
    if p >= MAX_PRIME:
        raise FieldError(f"prime fields need p < 2^128, got {p}")
    if not _is_prime(p):
        raise FieldError(f"{p} is not prime")
    return FieldDescriptor("Fp", p)


def function_field(base, names):
    if base.kind not in ("Q", "Fp"):
        raise FieldError("function-field base must be Q or F_p")
    names = tuple(names)
    if len(set(names)) != len(names):
        raise FieldError("function-field variable names must be distinct")
    if not names:
        raise FieldError("function field needs at least one variable")
    return FieldDescriptor("fraction", base.char, variables=names, base=base)


# The rational-root search over Q gives up past this many trial divisions
# or candidates; such a modulus is trusted, and reducibility surfaces later
# as a non-invertible residue.  F_p moduli are decided by Rabin's test.
IRREDUCIBILITY_BUDGET = 10_000


def extension(base, coeffs):
    """Simple extension of ``base`` (Q or F_p) by a monic-or-not nonconstant
    squarefree modulus; over F_p it must be irreducible, and over Q one of
    degree >= 2 must have no rational root.

    ``coeffs`` are base-field elements (or ints), degree-ascending.
    """
    if base.kind not in ("Q", "Fp"):
        raise FieldError("extension base must be Q or F_p (no towers, no function fields)")
    lifted = []
    for c in coeffs:
        if isinstance(c, int):
            c = from_int(base, c)
        elif c.field != base:
            raise FieldError("modulus coefficient outside the base field")
        lifted.append(c)
    while lifted and lifted[-1].is_zero():
        lifted.pop()
    if len(lifted) < 2:
        raise FieldError("extension modulus must be nonconstant")
    modulus = tuple(c.payload for c in lifted)
    p = base.char
    f = _upoly(modulus)
    df = {(i - 1,): polys.cmul(c, polys.cfrom_int(i, p), p) for (i,), c in f.items() if i}
    df = {e: c for e, c in df.items() if c}
    if polys.uegcd(f, df, p)[0] != {(0,): polys.cone(p)}:
        raise ReducibleModulusError(
            f"extension modulus {_upoly_str(base, modulus, 'x')} is not squarefree"
        )
    if p:
        _check_irreducible_fp(p, f)
    if not p and len(modulus) > 2:
        root = _rational_root(modulus)
        if root is not None:
            raise ReducibleModulusError(
                f"modulus {_upoly_str(base, modulus, 'x')} factors over Q: it has the root {root}"
            )
    return FieldDescriptor("ext", p, base=base, modulus=modulus)


def _rational_root(coeffs):
    """A rational root of the Q polynomial with degree-ascending ``coeffs``,
    or None when it has none or the search is over budget.

    With denominators cleared to integers a_0..a_n, a quadratic has a
    rational root exactly when its discriminant is a square.  From degree 3
    on, a root d/e in lowest terms has d | a_0 and e | a_n; past
    IRREDUCIBILITY_BUDGET trial divisions or candidates the modulus is
    trusted.
    """
    scale = math.lcm(*(c.denominator for c in coeffs))
    a = [int(c * scale) for c in coeffs]
    n = len(a) - 1
    if a[0] == 0:
        return 0
    if n == 2:
        disc = a[1] ** 2 - 4 * a[0] * a[2]
        s = math.isqrt(disc) if disc > 0 else 0
        return Fraction(s - a[1], 2 * a[2]) if s * s == disc else None
    if math.isqrt(abs(a[0])) + math.isqrt(abs(a[n])) > IRREDUCIBILITY_BUDGET:
        return None
    nums, dens = _divisors(abs(a[0])), _divisors(abs(a[n]))
    if 2 * len(nums) * len(dens) > IRREDUCIBILITY_BUDGET:
        return None
    for d in nums:
        for e in dens:
            if math.gcd(d, e) != 1:
                continue
            for r in (d, -d):
                if not sum(c * r ** i * e ** (n - i) for i, c in enumerate(a)):
                    return Fraction(r, e)
    return None


def _divisors(n):
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def _check_irreducible_fp(p, f):
    """Rabin's test (Rabin 1980): a squarefree f of degree n over F_p is
    irreducible exactly when x^(p^n) = x mod f and gcd(x^(p^(n/q)) - x, f) = 1
    for every prime q dividing n."""
    n = max(f)[0]
    x = polys.urem({(1,): 1}, f, p)
    # g -> g^p mod f is F_p-linear, (sum c_i x^i)^p = sum c_i (x^p)^i, so one
    # table of (x^p)^i mod f, i < n, gives every further power of Frobenius
    xp = _powmod(x, p, f, p)
    frob = [{(0,): 1}]
    for _ in range(1, n):
        frob.append(polys.urem(polys.pmul(frob[-1], xp, p), f, p))
    checkpoints = {n // q for q in _prime_factors(n)}
    h = x
    for k in range(1, n + 1):
        out = {}
        for (i,), c in h.items():
            out = polys.padd(out, polys.pscale(frob[i], c, p), p)
        h = out
        if k in checkpoints and polys.uegcd(polys.psub(h, x, p), f, p)[0] != {(0,): 1}:
            raise ReducibleModulusError(
                f"modulus {polys.pstr(f, ('x',))} factors over F_{p}: "
                f"it has a factor of degree dividing {k}"
            )
    if h != x:
        raise ReducibleModulusError(f"modulus {polys.pstr(f, ('x',))} factors over F_{p}")


def _powmod(a, e, f, p):
    """a^e mod f over F_p by square-and-multiply."""
    out = {(0,): 1}
    while e:
        if e & 1:
            out = polys.urem(polys.pmul(out, a, p), f, p)
        e >>= 1
        if e:
            a = polys.urem(polys.pmul(a, a, p), f, p)
    return out


def _prime_factors(n):
    out, q = set(), 2
    while q * q <= n:
        while n % q == 0:
            out.add(q)
            n //= q
        q += 1
    if n > 1:
        out.add(n)
    return out


def characteristic(field):
    return field.char


def profile(field):
    """Characteristic plus the by-construction independent generators."""
    gens = []
    if field.kind == "fraction":
        gens = [variable(field, n) for n in field.variables]
    return {"characteristic": field.char, "independent_generators": gens}


# -- payload arithmetic --------------------------------------------------

def _zero_payload(field):
    if field.kind in ("Q", "Fp"):
        return polys.czero(field.char)
    if field.kind == "fraction":
        return (polys.pcanon({}), _one_poly_canon(field))
    return ()


def _one_poly_canon(field):
    n = len(field.variables)
    return polys.pcanon({(0,) * n: polys.cone(field.char)})


def zero(field):
    return FieldElement(field, _zero_payload(field))


def one(field):
    return from_int(field, 1)


def from_int(field, n):
    c = polys.cfrom_int(n, field.char)
    if field.kind in ("Q", "Fp"):
        return FieldElement(field, c)
    if field.kind == "fraction":
        num = polys.pconst(c, len(field.variables), field.char)
        return FieldElement(field, (polys.pcanon(num), _one_poly_canon(field)))
    return FieldElement(field, (c,) if c else ())


def from_fraction(field, fr):
    return from_int(field, fr.numerator) / from_int(field, fr.denominator)


def variable(field, name):
    if field.kind != "fraction" or name not in field.variables:
        raise FieldError(f"{name!r} is not a variable of {field}")
    i = field.variables.index(name)
    num = polys.pvar(i, len(field.variables), field.char)
    return FieldElement(field, (polys.pcanon(num), _one_poly_canon(field)))


def xbar(field):
    if field.kind != "ext":
        raise FieldError(f"{field} is not an extension field")
    p = field.char
    if len(field.modulus) == 2:
        # degree-1 modulus: xbar is the base root itself
        a0, a1 = field.modulus
        root = polys.cneg(polys.cmul(a0, polys.cinv(a1, p), p), p)
        return FieldElement(field, (root,) if root else ())
    return FieldElement(field, (polys.czero(p), polys.cone(p)))


def _frac_make(field, num, den):
    p = field.char
    if not num:
        return _zero_payload(field)
    if not den:
        raise ZeroDivisionError("zero denominator in function field")
    if len(den) == 1:
        # den = c x^d: gcd(num, den) is x^m, m the componentwise minimum of d
        # and every numerator exponent, so shift and scale instead of pgcd
        ((d, c),) = den.items()
        m = tuple(map(min, d, *num))
        if any(m):
            num = {_shift(e, m): v for e, v in num.items()}
            d = _shift(d, m)
        if c != polys.cone(p):
            num = polys.pscale(num, polys.cinv(c, p), p)
        return (polys.pcanon(num), ((d, polys.cone(p)),))
    g = polys.pgcd(num, den, p)
    ge, gc = polys.plead(g)
    if any(ge) or gc != polys.cone(p) or len(g) > 1:
        num = polys.pdivexact(num, g, p)
        den = polys.pdivexact(den, g, p)
    _, lc = polys.plead(den)
    if lc != polys.cone(p):
        inv = polys.cinv(lc, p)
        num = polys.pscale(num, inv, p)
        den = polys.pscale(den, inv, p)
    return (polys.pcanon(num), polys.pcanon(den))


def _shift(e, m):
    """The exponent of x^e / x^m."""
    return tuple(map(operator.sub, e, m))


def _over(num, top, d):
    """The canonical numerator ``num`` of ``num / x^d`` put over ``x^top``."""
    if top == d:
        return polys.pfrom_canon(num)
    up = _shift(top, d)
    return {tuple(map(operator.add, e, up)): c for e, c in num}


# _add, _neg and _mul serve the function fields and extensions through
# FieldDescriptor.ops; Q and F_p use the closures of _payload_ops

def _add(field, a, b):
    if field.kind == "fraction":
        p = field.char
        if len(a[1]) == 1 == len(b[1]):
            # canonical denominators are monic, so these are x^d and x^e
            d, e = a[1][0][0], b[1][0][0]
            top = tuple(map(max, d, e))
            num = polys.padd(_over(a[0], top, d), _over(b[0], top, e), p)
            return _frac_make(field, num, {top: polys.cone(p)})
        an, ad = polys.pfrom_canon(a[0]), polys.pfrom_canon(a[1])
        bn, bd = polys.pfrom_canon(b[0]), polys.pfrom_canon(b[1])
        num = polys.padd(polys.pmul(an, bd, p), polys.pmul(bn, ad, p), p)
        den = polys.pmul(ad, bd, p)
        return _frac_make(field, num, den)
    return _dense(polys.padd(_upoly(a), _upoly(b), field.char), field.char)


def _neg(field, a):
    if field.kind == "fraction":
        p = field.char
        return (polys.pcanon(polys.pneg(polys.pfrom_canon(a[0]), p)), a[1])
    return _dense(polys.pneg(_upoly(a), field.char), field.char)


def _mul(field, a, b):
    if field.kind == "fraction":
        p = field.char
        num = polys.pmul(polys.pfrom_canon(a[0]), polys.pfrom_canon(b[0]), p)
        if len(a[1]) == 1 == len(b[1]):
            # monic monomial denominators x^d and x^e multiply to x^(d+e)
            den = {tuple(map(operator.add, a[1][0][0], b[1][0][0])): polys.cone(p)}
        else:
            den = polys.pmul(polys.pfrom_canon(a[1]), polys.pfrom_canon(b[1]), p)
        return _frac_make(field, num, den)
    p = field.char
    prod = polys.pmul(_upoly(a), _upoly(b), p)
    return _dense(polys.urem(prod, _upoly(field.modulus), p), p)


def _inv(field, a):
    kind = field.kind
    if kind in ("Q", "Fp"):
        return polys.cinv(a, field.char)
    if kind == "fraction":
        return _frac_make(
            field, polys.pfrom_canon(a[1]), polys.pfrom_canon(a[0])
        )
    # extended gcd of the residue against the modulus
    p = field.char
    g, inv = polys.uegcd(_upoly(a), _upoly(field.modulus), p)
    if g != {(0,): polys.cone(p)}:
        raise ReducibleModulusError(
            "nonzero residue is not invertible: the extension modulus is reducible"
        )
    return _dense(inv, p)


def _payload_ops(field):
    zero = _zero_payload(field)
    if field.kind == "Q":
        return (lambda a, b: _qnorm(a + b)), (lambda a, b: _qnorm(a * b)), operator.neg, zero
    if field.kind == "Fp":
        p = field.char
        return (lambda a, b: (a + b) % p), (lambda a, b: a * b % p), (lambda a: -a % p), zero
    return partial(_add, field), partial(_mul, field), partial(_neg, field), zero


# residues of K[x]/(f) are dense payload tuples; polys computes on
# one-variable dicts

def _upoly(t):
    return {(i,): c for i, c in enumerate(t) if c}


def _dense(a, p):
    if not a:
        return ()
    z = polys.czero(p)
    out = [z] * (max(a)[0] + 1)
    for (i,), c in a.items():
        out[i] = c
    return tuple(out)


# -- parsing -------------------------------------------------------------

_DESC_RE = re.compile(
    r"^\s*(Q|F(?P<p>\d+))\s*"
    r"(?:\(\s*(?P<vars>[A-Za-z_]\w*(?:\s*,\s*[A-Za-z_]\w*)*)\s*\))?"
    r"(?:\[\s*(?P<ext>[A-Za-z_]\w*)\s*\]\s*/\s*\(\s*(?P<mod>[^)]*)\s*\))?\s*$"
)


def parse_descriptor(text):
    """Parse ``Q``, ``F<p>``, ``Q(t1,..)``, ``F<p>(t1,..)``, ``Q[x]/(poly)``."""
    m = _DESC_RE.match(text)
    if not m:
        raise FieldError(f"cannot parse field descriptor {text!r}")
    base = prime_field(int(m.group("p"))) if m.group("p") else rationals()
    if m.group("vars"):
        names = [v.strip() for v in m.group("vars").split(",")]
        base = function_field(base, names)
    if m.group("ext"):
        if base.kind == "fraction":
            raise FieldError("extension of a function field is not supported in descriptors")
        coeffs = _parse_upoly(m.group("mod"), m.group("ext"), base)
        base = extension(base, coeffs)
    return base


_TERM_RE = re.compile(
    r"\s*(?P<sign>[+-])?\s*"
    r"(?:(?P<num>\d+)(?:/(?P<den>\d+))?)?\s*\*?\s*"
    r"(?:(?P<var>[A-Za-z_]\w*)(?:\s*\^\s*(?P<exp>\d+))?)?\s*"
)


def _parse_upoly(text, varname, base):
    """Parse a univariate integer/fraction-coefficient polynomial."""
    pos = 0
    coeffs = {}
    first = True
    while pos < len(text):
        m = _TERM_RE.match(text, pos)
        if not m or m.end() == pos:
            raise FieldError(f"cannot parse modulus near {text[pos:]!r}")
        if m.group("num") is None and m.group("var") is None:
            raise FieldError(f"cannot parse modulus near {text[pos:]!r}")
        if not first and m.group("sign") is None:
            raise FieldError(f"missing +/- in modulus near {text[pos:]!r}")
        sign = -1 if m.group("sign") == "-" else 1
        if m.group("num") is not None:
            c = Fraction(int(m.group("num")), int(m.group("den") or 1))
        else:
            c = Fraction(1)
        if m.group("var") is not None:
            if m.group("var") != varname:
                raise FieldError(
                    f"unknown variable {m.group('var')!r} in modulus (expected {varname!r})"
                )
            e = int(m.group("exp") or 1)
        else:
            e = 0
        coeffs[e] = coeffs.get(e, Fraction(0)) + sign * c
        pos = m.end()
        first = False
    deg = max(coeffs, default=0)
    return [from_fraction(base, coeffs.get(i, Fraction(0))) for i in range(deg + 1)]


_INT_RE = re.compile(r"^[+-]?\d+$")
_FRAC_RE = re.compile(r"^([+-]?\d+)/(\d+)$")


def parse_element(field, text):
    """Parse a scalar literal: integer, a/b, variable name, or ``xbar``."""
    text = text.strip()
    if _INT_RE.match(text):
        return from_int(field, int(text))
    m = _FRAC_RE.match(text)
    if m:
        try:
            return from_int(field, int(m.group(1))) / from_int(field, int(m.group(2)))
        except ZeroDivisionError:
            raise FieldError(f"zero denominator in scalar literal {text!r} over {field}") from None
    if text == "xbar" and field.kind == "ext":
        return xbar(field)
    if field.kind == "fraction" and text in field.variables:
        return variable(field, text)
    raise FieldError(f"cannot parse scalar literal {text!r} over {field}")


# -- rendering -----------------------------------------------------------

def descriptor_str(field):
    if field.kind == "Q":
        return "Q"
    if field.kind == "Fp":
        return f"F{field.char}"
    if field.kind == "fraction":
        return f"{descriptor_str(field.base)}({','.join(field.variables)})"
    mod = _upoly_str(field.base, field.modulus, "x")
    return f"{descriptor_str(field.base)}[x]/({mod})"


def _upoly_str(base, t, varname):
    if not t:
        return "0"
    parts = []
    for i in range(len(t) - 1, -1, -1):
        c = FieldElement(base, t[i])
        if c.is_zero():
            continue
        cs = element_str(c)
        if i == 0:
            parts.append(cs)
        else:
            head = varname if i == 1 else f"{varname}^{i}"
            if cs == "1":
                parts.append(head)
            elif cs == "-1":
                parts.append(f"-{head}")
            elif re.match(r"^-?\d+(/\d+)?$", cs):
                parts.append(f"{cs}*{head}")
            else:
                parts.append(f"({cs})*{head}")
    out = parts[0]
    for term in parts[1:]:
        if term.startswith("-"):
            out += " - " + term[1:]
        else:
            out += " + " + term
    return out


def element_str(x):
    field, payload = x.field, x.payload
    if field.kind in ("Q", "Fp"):
        return str(payload)
    if field.kind == "fraction":
        num = polys.pfrom_canon(payload[0])
        den = polys.pfrom_canon(payload[1])
        ns = polys.pstr(num, field.variables)
        if len(den) == 1 and not any(next(iter(den))):
            return ns
        ds = polys.pstr(den, field.variables)
        if len(num) > 1:
            ns = f"({ns})"
        return f"{ns}/({ds})"
    return _upoly_str(field.base, payload, "xbar")


def is_literal_scalar(x):
    """True when ``element_str`` round-trips through ``parse_element``."""
    try:
        return parse_element(x.field, element_str(x)) == x
    except FieldError:
        return False
