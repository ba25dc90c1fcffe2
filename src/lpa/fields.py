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
import sys
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property, partial
from typing import Optional

from . import polys
from .polys import RenderError, _qnorm    # writing out an element may raise RenderError


class FieldError(ValueError):
    pass


class FieldMismatchError(FieldError):
    pass


class ReducibleModulusError(FieldError):
    """The extension modulus factors, found when the field is built or when
    a nonzero residue has no inverse."""


class UncertifiedModulusError(FieldError):
    """A Q modulus that is not proved irreducible: it may be irreducible, but
    no prime below CERTIFICATE_BOUND certifies it."""


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

    @cached_property
    def signs(self):
        """The payloads ``(1, -1)``."""
        return int_payload(self, 1), int_payload(self, -1)


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


class Combination:
    """A finite linear combination over ``field``: ``terms`` is a sorted tuple
    of ``(key, payload)`` with no zero payload.

    The linear structure runs on raw payloads through ``field.ops``; a
    ``FieldElement`` is built only where a coefficient is read out.  Every
    sum and scaling is one ``add_scaled``, assembled once.  A subclass
    supplies ``field``, its domain ``error`` class, ``_check(other)``, which
    raises that error unless ``other`` lies in the same space, and
    ``_make(acc)``, the element of a sparse payload dict.
    """

    def is_zero(self):
        return not self.terms

    def coeff(self, key):
        for k, c in self.terms:
            if k == key:
                return FieldElement(self.field, c)
        return zero(self.field)

    def add_scaled(self, scaled):
        """``self + k1 x1 + ... + kn xn`` for ``(x, k)`` pairs of a combination
        of this space and a raw payload; a scale of 1 or -1 costs no product."""
        add, mul, neg, z = self.field.ops
        one, minus_one = self.field.signs
        acc = dict(self.terms)
        for x, k in scaled:
            self._check(x)
            if k != z:
                for key, c in x.terms:
                    if k != one:
                        c = neg(c) if k == minus_one else mul(c, k)
                    add_term(acc, key, c, add, z)
        return self._make(acc)

    def __add__(self, other):
        return self.add_scaled(((other, self.field.signs[0]),))

    def __neg__(self):
        return self.scale_payload(self.field.signs[1])

    def __sub__(self, other):
        return self.add_scaled(((other, self.field.signs[1]),))

    def scale(self, k):
        if not isinstance(k, FieldElement) or k.field != self.field:
            raise self.error("scalar lies in the wrong field")
        return self.scale_payload(k.payload)

    def scale_payload(self, k):
        """The combination times the raw payload ``k`` of ``field``."""
        return self._make({}).add_scaled(((self, k),))


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


# The rational-root search over Q gives up past this many trial divisions or
# candidates; a cubic with no rational root found within it, and any modulus
# of degree >= 4, needs a certificate prime below CERTIFICATE_BOUND.
IRREDUCIBILITY_BUDGET = 10_000
CERTIFICATE_BOUND = 1000
# The certificate search runs a Rabin test per prime, so its cost grows
# steeply with the degree: Q moduli past this degree are refused.
MAX_Q_MODULUS_DEGREE = 8


def extension(base, coeffs):
    """Simple extension of ``base`` (Q or F_p) by a monic-or-not nonconstant
    squarefree modulus, proved irreducible: by Rabin's test over F_p; over Q
    by the absence of a rational root in degree 2 and 3, and otherwise by a
    certificate prime.  A Q modulus has degree at most MAX_Q_MODULUS_DEGREE.

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
    _check_degree(p, len(modulus) - 1)
    f = _upoly(modulus)
    if not _squarefree(f, p):
        raise ReducibleModulusError(
            f"extension modulus {polys.pstr(f, ('x',))} is not squarefree"
        )
    if p:
        reason = _check_irreducible_fp(p, f)
        if reason is not None:
            raise ReducibleModulusError(
                f"modulus {polys.pstr(f, ('x',))} factors over F_{p}: {reason}"
            )
    elif len(modulus) > 2:
        _check_irreducible_q(modulus)
    return FieldDescriptor("ext", p, base=base, modulus=modulus)


def _check_degree(p, deg):
    if not p and deg > MAX_Q_MODULUS_DEGREE:
        raise FieldError(f"Q moduli may have degree at most {MAX_Q_MODULUS_DEGREE}, "
                         f"got degree {deg}")


def _squarefree(f, p):
    """gcd(f, f') = 1 for a one-variable polynomial dict f over Q or F_p."""
    df = {(i - 1,): polys.cmul(c, polys.cfrom_int(i, p), p) for (i,), c in f.items() if i}
    df = {e: c for e, c in df.items() if c}
    return polys.uegcd(f, df, p)[0] == {(0,): 1}


def _check_irreducible_q(modulus):
    """Refuse a Q modulus of degree >= 2 with a rational root, or one that is
    not proved irreducible.

    With denominators cleared to integers a_0..a_n, a quadratic or cubic
    without a rational root is irreducible.  Otherwise the proof is a prime
    p < CERTIFICATE_BOUND with p not dividing a_n, modulo which f is
    squarefree and irreducible: a factorization over Q reduces modulo such a
    p to one with factors of the same degrees (Gauss's lemma).  Some
    irreducible moduli have no such prime, x^4 + 1 among them, since it
    splits modulo every prime; they are refused.
    """
    name = polys.pstr(_upoly(modulus), ("x",))
    scale = math.lcm(*(c.denominator for c in modulus))
    a = [int(c * scale) for c in modulus]
    root, searched = _rational_root(a)
    if root is not None:
        raise ReducibleModulusError(
            f"modulus {name} factors over Q: it has the root {polys.cstr(root)}")
    if len(a) == 3 or (len(a) == 4 and searched) or _certificate_prime(a):
        return
    raise UncertifiedModulusError(
        f"modulus {name} is not proved irreducible over Q: it is irreducible "
        f"modulo no prime p < {CERTIFICATE_BOUND} that leaves it squarefree"
    )


def _certificate_prime(a):
    """The least prime p < CERTIFICATE_BOUND, not dividing a_n, modulo which
    the integer polynomial a_0..a_n is squarefree and irreducible, or None."""
    for p in range(2, CERTIFICATE_BOUND):
        if a[-1] % p == 0 or not _is_prime(p):
            continue
        f = {(i,): c % p for i, c in enumerate(a) if c % p}
        if _squarefree(f, p) and _check_irreducible_fp(p, f) is None:
            return p
    return None


def _rational_root(a):
    """``(root, searched)`` for the integer polynomial a_0..a_n: a rational
    root or None, and whether None proves there is none.

    A quadratic has a rational root exactly when its discriminant is a
    square.  From degree 3 on, a root d/e in lowest terms has d | a_0 and
    e | a_n; past IRREDUCIBILITY_BUDGET trial divisions or candidates the
    search gives up.
    """
    n = len(a) - 1
    if a[0] == 0:
        return 0, True
    if n == 2:
        disc = a[1] ** 2 - 4 * a[0] * a[2]
        s = math.isqrt(disc) if disc > 0 else 0
        return (Fraction(s - a[1], 2 * a[2]) if s * s == disc else None), True
    if math.isqrt(abs(a[0])) + math.isqrt(abs(a[n])) > IRREDUCIBILITY_BUDGET:
        return None, False
    nums, dens = _divisors(abs(a[0])), _divisors(abs(a[n]))
    if 2 * len(nums) * len(dens) > IRREDUCIBILITY_BUDGET:
        return None, False
    for d in nums:
        for e in dens:
            if math.gcd(d, e) != 1:
                continue
            for r in (d, -d):
                if not sum(c * r ** i * e ** (n - i) for i, c in enumerate(a)):
                    return Fraction(r, e), True
    return None, True


def _divisors(n):
    small = [d for d in range(1, math.isqrt(n) + 1) if n % d == 0]
    return small + [n // d for d in reversed(small) if d * d != n]


def _check_irreducible_fp(p, f):
    """Rabin's test (Rabin 1980): a squarefree f of degree n over F_p is
    irreducible exactly when x^(p^n) = x mod f and gcd(x^(p^(n/q)) - x, f) = 1
    for every prime q dividing n.  None when f is irreducible, otherwise the
    reason it is not."""
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
            return f"it has a factor of degree dividing {k}"
    return None if h == x else f"it has a factor of degree not dividing {n}"


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


def profile(field):
    """Characteristic plus the by-construction independent generators."""
    gens = []
    if field.kind == "fraction":
        gens = [variable(field, n) for n in field.variables]
    return {"characteristic": field.char, "independent_generators": gens}


# -- payload arithmetic --------------------------------------------------

def int_payload(field, n):
    """The payload of the integer n in ``field``."""
    c = polys.cfrom_int(n, field.char)
    if field.kind in ("Q", "Fp"):
        return c
    if field.kind == "fraction":
        num = polys.pconst(c, len(field.variables), field.char)
        return (polys.pcanon(num), _one_poly_canon(field))
    return (c,) if c else ()


def _one_poly_canon(field):
    n = len(field.variables)
    return polys.pcanon({(0,) * n: 1})


def zero(field):
    return from_int(field, 0)


def one(field):
    return from_int(field, 1)


def from_int(field, n):
    return FieldElement(field, int_payload(field, n))


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
    return FieldElement(field, (0, 1))


def _frac_make(field, num, den):
    p = field.char
    if not num:
        return int_payload(field, 0)
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
        if c != 1:
            num = polys.pscale(num, polys.cinv(c, p), p)
        return (polys.pcanon(num), ((d, 1),))
    g = polys.pgcd(num, den, p)
    ge, gc = polys.plead(g)
    if any(ge) or gc != 1 or len(g) > 1:
        num = polys.pdivexact(num, g, p)
        den = polys.pdivexact(den, g, p)
    _, lc = polys.plead(den)
    if lc != 1:
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
            return _frac_make(field, num, {top: 1})
        an, ad = polys.pfrom_canon(a[0]), polys.pfrom_canon(a[1])
        bn, bd = polys.pfrom_canon(b[0]), polys.pfrom_canon(b[1])
        num = polys.padd(polys.pmul(an, bd, p), polys.pmul(bn, ad, p), p)
        den = polys.pmul(ad, bd, p)
        return _frac_make(field, num, den)
    return _dense(polys.padd(_upoly(a), _upoly(b), field.char))


def _neg(field, a):
    if field.kind == "fraction":
        p = field.char
        return (polys.pcanon(polys.pneg(polys.pfrom_canon(a[0]), p)), a[1])
    return _dense(polys.pneg(_upoly(a), field.char))


def _mul(field, a, b):
    if field.kind == "fraction":
        p = field.char
        num = polys.pmul(polys.pfrom_canon(a[0]), polys.pfrom_canon(b[0]), p)
        if len(a[1]) == 1 == len(b[1]):
            # monic monomial denominators x^d and x^e multiply to x^(d+e)
            den = {tuple(map(operator.add, a[1][0][0], b[1][0][0])): 1}
        else:
            den = polys.pmul(polys.pfrom_canon(a[1]), polys.pfrom_canon(b[1]), p)
        return _frac_make(field, num, den)
    p = field.char
    prod = polys.pmul(_upoly(a), _upoly(b), p)
    return _dense(polys.urem(prod, _upoly(field.modulus), p))


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
    if g != {(0,): 1}:
        raise ReducibleModulusError(
            "nonzero residue is not invertible: the extension modulus is reducible"
        )
    return _dense(inv)


def _payload_ops(field):
    zero = int_payload(field, 0)
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


def _dense(a):
    if not a:
        return ()
    out = [0] * (max(a)[0] + 1)
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
    base = prime_field(parse_int(m.group("p"))) if m.group("p") else rationals()
    if m.group("vars"):
        names = [v.strip() for v in m.group("vars").split(",")]
        base = function_field(base, names)
    if m.group("ext"):
        if base.kind == "fraction":
            raise FieldError("extension of a function field is not supported in descriptors")
        try:
            coeffs = _parse_upoly(m.group("mod"), m.group("ext"), base)
        except ZeroDivisionError:
            raise FieldError(
                f"zero denominator in modulus {m.group('mod')!r} over {base}"
            ) from None
        base = extension(base, coeffs)
        descriptor_str(base)    # RenderError now if like terms summed past the digit limit
    return base


def parse_int(digits):
    """``int(digits)``, or FieldError past the interpreter's digit limit."""
    try:
        return int(digits)
    except ValueError:
        raise FieldError(f"integer literal exceeds {sys.get_int_max_str_digits()} digits") from None


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
            c = Fraction(parse_int(m.group("num")), parse_int(m.group("den") or "1"))
        else:
            c = Fraction(1)
        if m.group("var") is not None:
            if m.group("var") != varname:
                raise FieldError(
                    f"unknown variable {m.group('var')!r} in modulus (expected {varname!r})"
                )
            e = parse_int(m.group("exp") or "1")
        else:
            e = 0
        coeffs[e] = coeffs.get(e, Fraction(0)) + sign * c
        pos = m.end()
        first = False
    deg = max((e for e, c in coeffs.items() if c), default=0)
    _check_degree(base.char, deg)    # before the dense list is built
    return [from_fraction(base, coeffs.get(i, Fraction(0))) for i in range(deg + 1)]


_INT_RE = re.compile(r"^[+-]?\d+$")
_FRAC_RE = re.compile(r"^([+-]?\d+)/(\d+)$")


def parse_element(field, text):
    """Parse a scalar literal: integer, a/b, variable name, or ``xbar``."""
    text = text.strip()
    if _INT_RE.match(text):
        return from_int(field, parse_int(text))
    m = _FRAC_RE.match(text)
    if m:
        try:
            return from_int(field, parse_int(m.group(1))) / from_int(field, parse_int(m.group(2)))
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
    mod = polys.pstr(_upoly(field.modulus), ("x",))
    return f"{descriptor_str(field.base)}[x]/({mod})"


def element_str(x):
    field, payload = x.field, x.payload
    if field.kind in ("Q", "Fp"):
        return polys.cstr(payload)
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
    return polys.pstr(_upoly(payload), ("xbar",))


def is_literal_scalar(x):
    """True when ``element_str`` round-trips through ``parse_element``."""
    try:
        return parse_element(x.field, element_str(x)) == x
    except FieldError:
        return False
