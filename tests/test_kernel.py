"""The flat coefficient kernel: payload products against FieldElement slow
paths, the int-or-Fraction rule for Q, and field checks that fail closed."""

import random
from fractions import Fraction

import pytest
from hypothesis import example, given, settings, strategies as st

import oracles
from lpa import algebra, corpus, fields, linalg, polys, reps, sampling, toeplitz

KERNEL_FIELDS = ["Q", "F7", "Q(t)", "F5(s,t)", "Q[x]/(x^2+1)"]


@pytest.mark.parametrize("mode", [algebra.LEAVITT, algebra.COHN])
@pytest.mark.parametrize("desc", KERNEL_FIELDS)
def test_algebra_product_matches_term_by_term_oracle(desc, mode):
    K = fields.parse_descriptor(desc)
    rng = random.Random(desc + mode)
    for name in ("toeplitz", "r2", "r3", "ex35", "ex62"):
        g = corpus.load(name)
        for _ in range(12):
            x = sampling.random_element(rng, g, K, mode, max_terms=4)
            y = sampling.random_element(rng, g, K, mode, max_terms=4)
            assert dict((x * y).terms) == oracles.algebra_product(x, y), (name, str(x), str(y))


@pytest.mark.parametrize("desc", KERNEL_FIELDS)
def test_matrix_product_matches_row_by_column_oracle(desc):
    K = fields.parse_descriptor(desc)
    rng = random.Random(desc)
    for n in (1, 2, 3, 4):
        for _ in range(6):
            a, b = (
                linalg.from_rows(K, [[sampling.random_scalar(rng, K) for _ in range(n)]
                                     for _ in range(n)])
                for _ in range(2)
            )
            assert (a * b).rows == oracles.matrix_product(a, b)


def _canonical_q(x):
    """An integral rational is an int, any other one a Fraction."""
    return type(x) is (int if x.denominator == 1 else Fraction)


_fracs = st.fractions(min_value=-60, max_value=60, max_denominator=12)


@given(_fracs, _fracs)
@example(Fraction(4, 2), Fraction(1, 3))
@settings(max_examples=150, deadline=None)
def test_q_payloads_are_int_while_integral(a, b):
    Q = fields.rationals()
    x, y = fields.from_fraction(Q, a), fields.from_fraction(Q, b)
    results = [x, y, x + y, x - y, -x, x * y, x ** 2]
    if b:
        results += [y.inverse(), x / y]
    for r in results:
        assert _canonical_q(r.payload), (a, b, r.payload)
    add, mul, neg, zero = Q.ops
    assert _canonical_q(add(x.payload, y.payload)) and _canonical_q(mul(x.payload, y.payload))
    assert _canonical_q(neg(x.payload)) and _canonical_q(zero)
    pa, pb = polys._qnorm(a), polys._qnorm(b)
    coeffs = [polys.cadd(pa, pb, 0), polys.csub(pa, pb, 0), polys.cneg(pa, 0),
              polys.cmul(pa, pb, 0)]
    if b:
        coeffs.append(polys.cinv(pb, 0))
    s = {(1,): pa, (0,): pb} if pa and pb else {(0,): 1}
    coeffs += list(polys.pmul(s, s, 0).values()) + list(polys.padd(s, s, 0).values())
    for c in coeffs:
        assert _canonical_q(c), (a, b, c)


def test_caller_built_fraction_payload_acts_like_the_int():
    Q = fields.rationals()
    assert type(fields.zero(Q).payload) is int and type(polys.cfrom_int(5, 0)) is int
    two = fields.FieldElement(Q, Fraction(2))
    assert two == fields.from_int(Q, 2) and hash(two) == hash(fields.from_int(Q, 2))
    assert str(two) == "2"
    assert fields.FieldElement(Q, Fraction(0)).is_zero()


def test_mixed_field_matrix_entry_raises(Q):
    F7 = fields.prime_field(7)
    with pytest.raises(linalg.MatrixError):
        linalg.from_rows(Q, [[fields.one(Q), fields.one(F7)], [0, 1]])
    with pytest.raises(linalg.MatrixError):
        linalg.matrix_unit(Q, 2, 1, 2, fields.one(F7))
    with pytest.raises(linalg.MatrixError):
        linalg.from_rows(Q, [[Fraction(1, 2)]])
    with pytest.raises(toeplitz.ToeplitzError):
        toeplitz.fin_unit(Q, 1, 2, fields.one(F7))


@pytest.mark.parametrize("i, j", [(3, 1), (1, 3), (0, 1), (1, 0)])
def test_matrix_unit_outside_shape_raises(Q, i, j):
    with pytest.raises(linalg.MatrixError, match="outside"):
        linalg.matrix_unit(Q, 2, i, j)


def test_mixed_field_algebra_coefficient_raises(Q):
    g = corpus.load("toeplitz")
    F7 = fields.prime_field(7)
    u = algebra.Monomial((), (), "u")
    with pytest.raises(algebra.AlgebraError):
        algebra.element(g, Q, algebra.LEAVITT, {u: fields.one(F7)})
    with pytest.raises(algebra.AlgebraError):
        algebra.identity(g, Q).scale(fields.one(F7))


# -- the linear-combination core shared by elements, vectors and matrices ------

CORE_FIELDS = ["Q", "F7", "Q(t)", "Q[x]/(x^2+1)"]


def _random_combination(kind, K, rng):
    """A random algebra element, sink-module vector or finitary matrix over K."""
    if kind == "algebra":
        return sampling.random_element(rng, corpus.load("toeplitz"), K, max_terms=4)
    terms = [sampling.random_scalar(rng, K, nonzero=True) for _ in range(rng.randint(0, 4))]
    if kind == "module":
        module = reps.sink_module(corpus.load("toeplitz"), K, "v")
        basis = reps.sample_basis(module, 5)
        out = reps.basis_vector(module, basis[0]).scale(fields.zero(K))
        for k in terms:
            out = out + reps.basis_vector(module, rng.choice(basis)).scale(k)
        return out
    out = toeplitz.fin_zero(K)
    for k in terms:
        out = out + toeplitz.fin_unit(K, rng.randint(1, 3), rng.randint(1, 3), k)
    return out


@pytest.mark.parametrize("desc", CORE_FIELDS)
@pytest.mark.parametrize("kind, error", [("algebra", algebra.AlgebraError),
                                         ("module", reps.ModuleError),
                                         ("finitary", toeplitz.ToeplitzError)])
def test_combination_core_matches_term_by_term_oracle(kind, error, desc):
    K = fields.parse_descriptor(desc)
    F5 = fields.prime_field(5)
    rng = random.Random(kind + desc)
    one, minus_one, zero = fields.one(K), -fields.one(K), fields.zero(K)
    for _ in range(12):
        x, y = (_random_combination(kind, K, rng) for _ in range(2))
        k = sampling.random_scalar(rng, K)
        assert dict((-x).terms) == oracles.linear_combination(K, (minus_one, x))
        assert dict((x - y).terms) == oracles.linear_combination(K, (one, x), (minus_one, y))
        assert dict((x + y).terms) == oracles.linear_combination(K, (one, x), (one, y))
        assert dict(x.scale(k).terms) == oracles.linear_combination(K, (k, x))
        assert x.scale(zero).is_zero() and (x - x).is_zero()
        expect = oracles.linear_combination(K, (one, x))
        for key, _ in x.terms + y.terms:
            assert x.coeff(key) == expect.get(key, zero)
        # a foreign operand or scalar raises the class's own error
        foreign = _random_combination(kind, F5, rng)
        for bad in (lambda: x + foreign, lambda: x - foreign, lambda: x + k,
                    lambda: x.scale(fields.one(F5)), lambda: x.scale(1)):
            with pytest.raises(error):
                bad()
        if kind != "module":
            with pytest.raises(error):
                x * foreign


# -- function-field payloads: the monomial-denominator path against the gcd ----

FRACTION_FIELDS = ["F5(s,t)", "F7(t)", "Q(t)", "Q(s,t)"]


def _poly_st(K, min_size=0, max_size=4):
    p = K.char
    coeff = (st.integers(1, p - 1) if p else
             st.fractions(-5, 5, max_denominator=4).filter(bool).map(polys._qnorm))
    exps = st.tuples(*[st.integers(0, 3)] * len(K.variables))
    return st.dictionaries(exps, coeff, min_size=min_size, max_size=max_size)


def _den_st(K):
    """Monomial denominators, monic or not, and general ones."""
    return st.one_of(_poly_st(K, 1, 1), _poly_st(K, 1, 4))


def _sympy_poly(K, poly):
    import sympy

    gens = sympy.symbols(K.variables)
    domain = sympy.GF(K.char) if K.char else sympy.QQ
    terms = {e: sympy.Rational(c.numerator, c.denominator) for e, c in poly.items()}
    return sympy.Poly.from_dict(terms or {(0,) * len(gens): 0}, gens, domain=domain)


def _agrees_with_sympy(K, num, den, payload):
    """payload is num/den in lowest terms, by sympy's cancel and gcd."""
    import sympy

    n, d = (_sympy_poly(K, dict(t)) for t in payload)
    cn, cd = _sympy_poly(K, num).cancel(_sympy_poly(K, den), include=True)
    assert n * cd == cn * d
    assert sympy.gcd(n, d).total_degree() == 0 and payload[1][0][1] == 1


def _check_fraction_ops(K, num, den, other):
    p = K.char
    a = fields._frac_make(K, dict(num), dict(den))
    assert a == oracles.frac_reduce(p, num, den), (num, den)
    _agrees_with_sympy(K, num, den, a)
    b = oracles.frac_reduce(p, *other)
    assert fields._add(K, a, b) == oracles.frac_add(p, a, b), (a, b)
    assert fields._mul(K, a, b) == oracles.frac_mul(p, a, b), (a, b)
    if a[0]:
        assert fields._inv(K, a) == oracles.frac_inv(p, a), a


@pytest.mark.parametrize("desc", FRACTION_FIELDS)
@given(data=st.data())
@settings(max_examples=60, deadline=None)
def test_fraction_ops_match_gcd_oracle(desc, data):
    K = fields.parse_descriptor(desc)
    num, den = data.draw(_poly_st(K)), data.draw(_den_st(K))
    other = data.draw(_poly_st(K)), data.draw(_den_st(K))
    _check_fraction_ops(K, num, den, other)


def test_fraction_ops_named_cases():
    F5st, Qt = fields.parse_descriptor("F5(s,t)"), fields.parse_descriptor("Q(t)")
    s3t_2s2t2 = {(3, 1): 1, (2, 2): 2}
    cases = [
        (F5st, s3t_2s2t2, {(2, 1): 3}, ({(0, 1): 1}, {(1, 0): 1})),       # / 3 s^2 t
        (F5st, {}, {(2, 1): 3}, (s3t_2s2t2, {(1, 0): 1, (0, 1): 4})),     # zero / 3 s^2 t
        (F5st, {(1, 0): 2, (0, 0): 1}, {(1, 1): 4}, ({}, {(0, 0): 1})),   # (2s + 1) / 4 s t
        (Qt, {(2,): Fraction(1, 2)}, {(1,): -3}, ({(1,): 1, (0,): 1}, {(2,): 2})),
        (Qt, {(2,): 1, (0,): -1}, {(1,): 1, (0,): -1}, ({(0,): 1}, {(0,): Fraction(2, 3)})),
    ]
    for K, num, den, other in cases:
        _check_fraction_ops(K, num, den, other)
    # (s^3 t + 2 s^2 t^2) / (3 s^2 t) = (s + 2t) / 3 = 2s + 4t over F5
    payload = fields._frac_make(F5st, s3t_2s2t2, {(2, 1): 3})
    assert payload == ((((1, 0), 2), ((0, 1), 4)), (((0, 0), 1),))
