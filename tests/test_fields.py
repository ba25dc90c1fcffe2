"""Field-layer checks: exact arithmetic, canonical payloads, profiles."""

import itertools
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from lpa import fields
from lpa.sampling import random_scalar
import random


def test_rational_examples(Q):
    half = fields.from_fraction(Q, Fraction(1, 2))
    third = fields.from_fraction(Q, Fraction(1, 3))
    assert fields.element_str(half + third) == "5/6"
    assert fields.from_fraction(Q, Fraction(2, 4)) == fields.from_fraction(Q, Fraction(1, 2))


def test_prime_field_examples(F5):
    two, three = fields.from_int(F5, 2), fields.from_int(F5, 3)
    assert (two + three).is_zero()
    with pytest.raises(fields.FieldError):
        fields.prime_field(6)


def test_function_field_examples(Qt):
    t = fields.variable(Qt, "t")
    one = fields.one(Qt)
    assert t / (t + one) + one / (t + one) == one
    assert fields.element_str(t.inverse()) == "1/(t)"
    assert t * t.inverse() == one


def test_extension_examples(Qi):
    i = fields.xbar(Qi)
    assert i * i == -fields.one(Qi)
    assert i.inverse() == -i
    assert fields.element_str(i.inverse()) == "-xbar"


def test_reducible_modulus_rejected_over_fp():
    with pytest.raises(fields.ReducibleModulusError):
        fields.parse_descriptor("F2[x]/(x^2+1)")
    # irreducible passes and gives a working F_4
    F4 = fields.parse_descriptor("F2[x]/(x^2+x+1)")
    w = fields.xbar(F4)
    assert (w * w + w + fields.one(F4)).is_zero()


def test_extension_inverse_via_egcd(Qi):
    x = fields.xbar(Qi) + fields.from_int(Qi, 2)      # 2 + i
    assert x * x.inverse() == fields.one(Qi)


def test_mismatch_raises(Q, F5):
    with pytest.raises(fields.FieldMismatchError):
        fields.from_int(Q, 1) + fields.from_int(F5, 1)


def test_zero_division(Qt):
    with pytest.raises(ZeroDivisionError):
        fields.zero(Qt).inverse()


@pytest.mark.parametrize(
    "desc", ["Q", "F5", "Q(t)", "F5(s,t)", "Q[x]/(x^2+1)", "F7(u)"]
)
def test_descriptor_roundtrip(desc):
    d = fields.parse_descriptor(desc)
    assert fields.parse_descriptor(fields.descriptor_str(d)) == d


def test_profile(Q, F5st, Qt):
    assert fields.profile(Q) == {"characteristic": 0, "independent_generators": []}
    prof = fields.profile(F5st)
    assert prof["characteristic"] == 5
    assert [fields.element_str(x) for x in prof["independent_generators"]] == ["s", "t"]
    assert fields.profile(Qt)["characteristic"] == 0


def _axiom_check(field, a, b, c):
    one = fields.one(field)
    assert (a + b) + c == a + (b + c)
    assert (a * b) * c == a * (b * c)
    assert a * (b + c) == a * b + a * c
    assert a + b == b + a
    assert a * b == b * a
    if not a.is_zero():
        assert a * a.inverse() == one
    assert a + (-a) == fields.zero(field)


@pytest.mark.parametrize(
    "desc", ["Q", "F5", "Q(t)", "F5(s,t)", "Q[x]/(x^2+1)"]
)
def test_field_axioms_randomized(desc):
    field = fields.parse_descriptor(desc)
    rng = random.Random(hash(desc) & 0xFFFF)
    for _ in range(60):
        a, b, c = (random_scalar(rng, field) for _ in range(3))
        _axiom_check(field, a, b, c)


@pytest.mark.parametrize("desc", ["Q(t)", "F5(s,t)"])
def test_addition_order_gives_identical_payloads(desc):
    field = fields.parse_descriptor(desc)
    rng = random.Random(99)
    for _ in range(40):
        a, b = random_scalar(rng, field), random_scalar(rng, field)
        assert (a + b).payload == (b + a).payload


@given(n=st.integers(-40, 40), d=st.integers(1, 40))
def test_literal_roundtrip_rationals(n, d):
    Q = fields.rationals()
    x = fields.from_fraction(Q, Fraction(n, d))
    assert fields.parse_element(Q, fields.element_str(x)) == x


def test_literal_forms(Qt, Qi, F5st):
    assert fields.parse_element(Qt, "t") == fields.variable(Qt, "t")
    assert fields.parse_element(Qt, "-3") == fields.from_int(Qt, -3)
    assert fields.parse_element(Qi, "xbar") == fields.xbar(Qi)
    assert fields.parse_element(F5st, "2/3") == fields.from_int(
        F5st, 2
    ) / fields.from_int(F5st, 3)
    with pytest.raises(fields.FieldError):
        fields.parse_element(Qt, "nope")


def test_no_small_algebraic_relation_f5_s_t(F5st):
    """No nonzero polynomial over F_5 of total degree <= 3 vanishes on (s, t):
    the generators are independent by construction, checked exhaustively."""
    s = fields.variable(F5st, "s")
    t = fields.variable(F5st, "t")
    monos = [
        (i, j) for i in range(4) for j in range(4) if 0 < i + j <= 3
    ]
    powers = {(i, j): (s ** i) * (t ** j) for i, j in monos}
    # every monomial is stored under its own exponent key, so no linear
    # combination can cancel unless all coefficients vanish
    keys = set()
    for (i, j), x in powers.items():
        num = x.payload[0]
        assert len(num) == 1 and num[0][0] == (i, j)
        keys.add(num[0][0])
    assert len(keys) == len(monos)
    # a relation with all coefficients on distinct monomials cannot vanish:
    # check every single- and two-term combination plus random longer ones
    for (m1, m2) in itertools.combinations(monos, 2):
        for c1 in range(1, 5):
            for c2 in range(1, 5):
                val = powers[m1] * fields.from_int(F5st, c1) + powers[m2] * fields.from_int(F5st, c2)
                assert not val.is_zero()
    rng = random.Random(5)
    for _ in range(200):
        total = fields.zero(F5st)
        nonzero = False
        for m in monos:
            c = rng.randint(0, 4)
            if c:
                nonzero = True
                total = total + powers[m] * fields.from_int(F5st, c)
        if nonzero:
            assert not total.is_zero()


def test_extension_needs_nonconstant_modulus(Q):
    with pytest.raises(fields.FieldError):
        fields.extension(Q, [fields.from_int(Q, 3)])
    with pytest.raises(fields.FieldError):
        fields.extension(fields.parse_descriptor("Q[x]/(x^2+1)"), [1, 0, 1])


def test_function_field_validation(Q):
    with pytest.raises(fields.FieldError):
        fields.function_field(Q, ["t", "t"])
    with pytest.raises(fields.FieldError):
        fields.function_field(fields.parse_descriptor("Q(t)"), ["u"])


def test_extension_modulus_must_be_squarefree(Q, Qt):
    for desc in ("Q[x]/(x^2)", "Q[x]/(x^4+2*x^2+1)", "F7[x]/(x^2)", "F101[x]/(x^4+2*x^2+1)"):
        with pytest.raises(fields.FieldError):
            fields.parse_descriptor(desc)
    # the squarefree check comes before Rabin's irreducibility test
    with pytest.raises(fields.FieldError, match="squarefree"):
        fields.parse_descriptor("F101[x]/(x^4+2*x^2+1)")
    with pytest.raises(fields.FieldError):
        fields.extension(Qt, [1, 0, 1])


def test_extension_modulus_must_have_no_rational_root():
    for desc, root in (("Q[x]/(x^2-1)", "1"), ("Q[x]/(x^3-8)", "2"),
                       ("Q[x]/(4*x^2-1)", "1/2"), ("Q[x]/(1/2*x^2-1/8)", "1/2"),
                       ("Q[x]/(1/2*x^3-1/3*x)", "0")):
        with pytest.raises(fields.ReducibleModulusError, match=f"root -?{root}$"):
            fields.parse_descriptor(desc)
    for desc in ("Q[x]/(x^2+1)", "Q[x]/(x^3-2)", "Q[x]/(2*x-1)", "Q[x]/(x^2-2)"):
        assert fields.parse_descriptor(desc).kind == "ext"
    # quadratics are decided by the discriminant at any size
    big = 10 ** 32
    with pytest.raises(fields.ReducibleModulusError, match="root 10000000000000000$"):
        fields.parse_descriptor(f"Q[x]/(x^2-{big})")
    assert fields.parse_descriptor(f"Q[x]/(x^2-{2 * big})").kind == "ext"
    # a cubic past the trial-division budget is not searched but needs a
    # certificate prime (x^3 - 2*10^32 stays irreducible modulo 7)
    assert fields.parse_descriptor(f"Q[x]/(x^3-{2 * big})").kind == "ext"


def test_q_moduli_past_the_root_search_need_a_certificate():
    from lpa import cli

    # the least certificate prime of x^3 - 2*10^32; x^4 + 1 is irreducible
    # but splits modulo every prime, so it has none and is refused
    assert fields._certificate_prime([-2 * 10 ** 32, 0, 0, 1]) == 7
    assert fields._certificate_prime([1, 0, 0, 0, 1]) is None
    with pytest.raises(fields.UncertifiedModulusError, match=r"modulus x\^4 \+ 1 "):
        fields.parse_descriptor("Q[x]/(x^4+1)")
    assert fields.parse_descriptor("Q[x]/(x^4-2)").kind == "ext"
    # (x^2+1)(x^2+2) has no rational root, and x^3 - 10^30 has the root 10^10
    # past the search budget: both used to print 0 for a product of nonzero
    # scalars
    ten10 = 10 ** 10
    for field, expr in (
        ("Q[x]/(x^4+3*x^2+2)", "(xbar xbar + 1)(xbar xbar + 2) u"),
        (f"Q[x]/(x^3-{ten10 ** 3})",
         f"(xbar - {ten10})(xbar xbar + {ten10} xbar + {ten10 ** 2}) u"),
    ):
        assert cli.main(["nf", "--graph", "toeplitz", "--field", field, "--expr", expr]) == 2


def test_accepted_q_moduli_are_irreducible_by_sympy():
    import sympy

    x = sympy.symbols("x")
    rng = random.Random(13)

    def draw(n):
        return [rng.randint(-4, 4) for _ in range(n)] + [rng.choice((-3, -1, 1, 2))]

    outcomes = {"accepted": 0, "reducible": 0, "uncertified": 0}
    for _ in range(150):
        n = rng.randint(2, 8)
        if rng.random() < 0.3:
            # a product of two factors, to exercise the refusals
            a, b = draw(rng.randint(1, n - 1)), draw(1)
            while len(a) + len(b) - 1 < n + 1:
                b = b + [rng.choice((-1, 1))]
            coeffs = [sum(a[i] * b[k - i] for i in range(len(a)) if 0 <= k - i < len(b))
                      for k in range(len(a) + len(b) - 1)]
        else:
            coeffs = draw(n)
        irreducible = sympy.Poly(list(reversed(coeffs)), x, domain=sympy.QQ).is_irreducible
        try:
            fields.extension(fields.rationals(), coeffs)
        except fields.ReducibleModulusError:
            assert not irreducible, coeffs
            outcomes["reducible"] += 1
            continue
        except fields.UncertifiedModulusError:
            outcomes["uncertified"] += 1
            continue
        assert irreducible, coeffs
        outcomes["accepted"] += 1
    assert outcomes["accepted"] > 50 and outcomes["reducible"] > 20, outcomes


def test_is_prime_matches_sympy_and_is_fast():
    import sympy

    for n in range(-2, 3000):
        assert fields._is_prime(n) == sympy.isprime(n), n
    # strong pseudoprimes to the leading prime bases, including the least
    # one to all of 2..41, and primes on either side of that bound
    for n in (3215031751, 318665857834031151167461, 3317044064679887385961981,
              2 ** 61 - 1, 2 ** 89 - 1, 10 ** 30 + 57, 10 ** 30 + 59, 2 ** 127 - 1):
        assert fields._is_prime(n) == sympy.isprime(n), n
    assert fields.prime_field(10 ** 30 + 57).char == 10 ** 30 + 57
    with pytest.raises(fields.FieldError):
        fields.prime_field(2 ** 521 - 1)


EXTENSIONS = [
    ("Q[x]/(x^2+1)", 0, [1, 0, 1]),
    ("Q[x]/(x^3-2)", 0, [-2, 0, 0, 1]),
    ("Q[x]/(2*x-1)", 0, [-1, 2]),
    ("F2[x]/(x^2+x+1)", 2, [1, 1, 1]),
    ("F3[x]/(x^3-x+1)", 3, [1, -1, 0, 1]),
]


@pytest.mark.parametrize("desc, p, modulus", EXTENSIONS)
def test_extension_arithmetic_matches_matrix_oracle(desc, p, modulus):
    import oracles

    K = fields.parse_descriptor(desc)
    n = len(modulus) - 1
    rng = random.Random(31)

    def draw():
        if p:
            return [rng.randrange(p) for _ in range(n)]
        return [Fraction(rng.randint(-9, 9), rng.randint(1, 4)) for _ in range(n)]

    def element(coords):
        payload = list(coords)
        while payload and not payload[-1]:
            payload.pop()
        return fields.FieldElement(K, tuple(payload))

    def coords(x):
        zero = 0 if p else Fraction(0)
        return list(x.payload) + [zero] * (n - len(x.payload))

    def matrix(c):
        return oracles.multiplication_matrix(c, modulus, p)

    identity = matrix([1] + [0] * (n - 1))
    for _ in range(60):
        a, b = draw(), draw()
        x, y = element(a), element(b)
        assert coords(x + y) == [(s + t) % p if p else s + t for s, t in zip(a, b)]
        assert coords(-x) == [-s % p if p else -s for s in a]
        assert matrix(coords(x * y)) == oracles.mat_mul(matrix(a), matrix(b), p)
        if any(a):
            assert oracles.mat_mul(matrix(a), matrix(coords(x.inverse())), p) == identity


def test_fp_moduli_decided_by_rabin_match_sympy():
    import sympy

    x = sympy.symbols("x")
    rng = random.Random(11)
    for p in (2, 3, 5, 7):
        F = fields.prime_field(p)
        for _ in range(60):
            n = rng.randint(1, 9)
            coeffs = [rng.randrange(p) for _ in range(n)] + [rng.randrange(1, p)]
            irreducible = sympy.Poly(list(reversed(coeffs)), x, modulus=p).is_irreducible
            try:
                fields.extension(F, coeffs)
                accepted = True
            except fields.ReducibleModulusError:
                accepted = False
            assert accepted == irreducible, (p, coeffs)


def test_fp_modulus_of_high_degree_is_checked():
    # x = 2 is a root of x^12 + x + 2 mod 5
    with pytest.raises(fields.ReducibleModulusError, match="degree dividing"):
        fields.parse_descriptor("F5[x]/(x^12+x+2)")
    # irreducible moduli of degree 12 over F5 and 127 over F2 are accepted
    assert fields.parse_descriptor("F5[x]/(x^12+x+4)").kind == "ext"
    assert fields.parse_descriptor("F2[x]/(x^127+x+1)").kind == "ext"
