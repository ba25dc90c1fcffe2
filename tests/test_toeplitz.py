"""Finitary matrices, the global determinant, and the Toeplitz realization."""

import random

import pytest

import oracles
import sampling
from lpa import algebra, fields, linalg, toeplitz as tp


def unit(field, i, j, k=1):
    return tp.fin_unit(field, i, j, fields.from_int(field, k))


def test_fin_matrix_units(Q):
    e12, e21 = unit(Q, 1, 2), unit(Q, 2, 1)
    assert e12 * e21 == unit(Q, 1, 1)
    assert (e21 * e12) == unit(Q, 2, 2)
    assert (e12 * e12).terms == ()


def test_aug_mul_inverse_pair(Q):
    a = tp.aug_from_units(Q, [(1, 2, fields.from_int(Q, 1))])
    b = tp.aug_from_units(Q, [(1, 2, fields.from_int(Q, -1))])
    assert (a * b).is_identity()
    assert (b * a).is_identity()


def test_fin_mul_vs_dense_oracle(Q, rng):
    for _ in range(40):
        entries_a = {}
        entries_b = {}
        for _ in range(4):
            entries_a[(rng.randint(1, 6), rng.randint(1, 6))] = sampling.random_scalar(rng, Q, nonzero=True)
            entries_b[(rng.randint(1, 6), rng.randint(1, 6))] = sampling.random_scalar(rng, Q, nonzero=True)
        A = linalg.finitary(Q, {pos: c.payload for pos, c in entries_a.items()})
        B = linalg.finitary(Q, {pos: c.payload for pos, c in entries_b.items()})
        assert (A * B).dense(6).rows == oracles.matrix_product(A.dense(6), B.dense(6))
        assert (A + B).dense(6) == A.dense(6) + B.dense(6)


def test_global_det_examples(Q, Qt):
    assert tp.global_det(tp.aug_identity(Q)) == fields.one(Q)
    t = fields.variable(Qt, "t")
    u = tp.aug_from_units(Qt, [(1, 1, t - fields.one(Qt))])
    assert tp.global_det(u) == t
    degenerate = tp.aug_from_units(Q, [(1, 1, fields.from_int(Q, -1))])
    assert tp.global_det(degenerate).is_zero()
    assert not tp.in_GL_inf(degenerate)
    assert tp.in_SL_inf(tp.aug_from_units(Q, [(1, 2, fields.from_int(Q, 5))]))
    assert tp.in_GL_inf(tp.aug_identity(Q)) and tp.in_SL_inf(tp.aug_identity(Q))


def _random_aug(rng, field, support=6, entries=4):
    acc = {}
    for _ in range(entries):
        acc[(rng.randint(1, support), rng.randint(1, support))] = (
            sampling.random_scalar(rng, field, nonzero=True)
        )
    return tp.AugmentedMatrix(linalg.finitary(field, {pos: c.payload for pos, c in acc.items()}))


def test_global_det_multiplicative_vs_cofactor_oracle(Q):
    rng = random.Random(17)
    for _ in range(40):
        u = _random_aug(rng, Q)
        v = _random_aug(rng, Q)
        du, dv, duv = tp.global_det(u), tp.global_det(v), tp.global_det(u * v)
        assert duv == du * dv
        n = max(u.perturbation.support_bound, 1)
        assert du == oracles.det_cofactor(u.dense(n))


def test_sl_closed_under_commutators(Q):
    rng = random.Random(23)
    for _ in range(10):
        a = tp.aug_from_units(Q, [(rng.randint(1, 4), rng.randint(5, 8), fields.from_int(Q, rng.randint(1, 5)))])
        b = tp.aug_from_units(Q, [(rng.randint(5, 8), rng.randint(1, 4), fields.from_int(Q, rng.randint(1, 5)))])
        assert tp.in_SL_inf(a) and tp.in_SL_inf(b)
        assert tp.in_SL_inf(a * b)


def test_jacobson_relations(Q):
    g = tp.toeplitz_graph()
    X, Y = tp.shift_generators(g, Q)
    one = algebra.identity(g, Q)
    u = algebra.vertex_element(g, Q, "u")
    assert X * Y == one
    assert Y * X == u
    assert Y * X != one


def test_matrix_unit_values(Q):
    assert algebra.render(tp.toeplitz_matrix_units(1, 1, Q)) == "v"
    assert algebra.render(tp.toeplitz_matrix_units(2, 1, Q)) == "f"
    assert algebra.render(tp.toeplitz_matrix_units(1, 2, Q)) == "f*"


def test_matrix_unit_relations_up_to_four(Q):
    g = tp.toeplitz_graph()
    F = {
        (i, j): tp.toeplitz_matrix_units(i, j, Q)
        for i in range(1, 5)
        for j in range(1, 5)
    }
    zero = algebra.zero(g, Q)
    for (i, j), fij in F.items():
        for (k, l), fkl in F.items():
            expect = F[(i, l)] if j == k else zero
            assert fij * fkl == expect, (i, j, k, l)


def test_matrix_unit_shift_relations(Q):
    g = tp.toeplitz_graph()
    X, Y = tp.shift_generators(g, Q)
    for i in range(1, 4):
        for j in range(1, 4):
            fij = tp.toeplitz_matrix_units(i, j, Q)
            assert Y * fij == tp.toeplitz_matrix_units(i + 1, j, Q)
            if i > 1:
                assert X * fij == tp.toeplitz_matrix_units(i - 1, j, Q)
            else:
                assert (X * fij).is_zero()      # F_{0,j} = 0
    # F_ij coincides with Y^{i-1} v X^{j-1}
    v = algebra.vertex_element(g, Q, "v")
    assert tp.toeplitz_matrix_units(3, 2, Q) == Y * Y * v * X


def test_embed_images(Q):
    g = tp.toeplitz_graph()
    v = algebra.vertex_element(g, Q, "v")
    assert tp.toeplitz_embed(v, 5) == unit(Q, 1, 1)
    f = algebra.edge_element(g, Q, "f")
    assert tp.toeplitz_embed(f, 5) == unit(Q, 2, 1)
    assert tp.toeplitz_embed(algebra.star(f), 5) == unit(Q, 1, 2)
    u = algebra.vertex_element(g, Q, "u")
    assert tp.toeplitz_embed(u, 4) == linalg.finitary(
        Q, {(i, i): fields.one(Q).payload for i in (2, 3, 4)}
    )


def test_embed_ghost_order(Q):
    """A two-edge ghost path: (ef)* maps through f* then e*."""
    g = tp.toeplitz_graph()
    e = algebra.edge_element(g, Q, "e")
    f = algebra.edge_element(g, Q, "f")
    N = 7
    path = e * f                     # e then f: u -> u -> v
    m = tp.toeplitz_embed(algebra.star(path), N)
    expect = tp.toeplitz_embed(algebra.star(f), N) * tp.toeplitz_embed(
        algebra.star(e), N
    )
    # exact away from the truncation corner
    assert m.dense(N).block(N - 2) == expect.dense(N).block(N - 2)


def test_embed_xy_identity_block(Q):
    g = tp.toeplitz_graph()
    X, Y = tp.shift_generators(g, Q)
    N = 9
    emb = tp.toeplitz_embed(X * Y, N).dense(N)
    I = linalg.identity_matrix(Q, N)
    assert emb.block(N - 2) == I.block(N - 2)


def test_embed_homomorphism_on_leading_block(Q, rng):
    g = tp.toeplitz_graph()
    N = 12
    for _ in range(25):
        x = sampling.random_element(rng, g, Q, max_terms=2, max_len=2)
        y = sampling.random_element(rng, g, Q, max_terms=2, max_len=2)
        k = 4    # monomials carry at most 4 edge letters each
        lhs = tp.toeplitz_embed(x * y, N).dense(N)
        rhs = (tp.toeplitz_embed(x, N) * tp.toeplitz_embed(y, N)).dense(N)
        assert lhs.block(N - k) == rhs.block(N - k)


def test_embed_rejects_small_or_foreign(Q, graphs_by_name):
    g = tp.toeplitz_graph()
    with pytest.raises(tp.ToeplitzError):
        tp.toeplitz_embed(algebra.identity(g, Q), 1)
    with pytest.raises(tp.ToeplitzError):
        tp.toeplitz_embed(algebra.identity(g, Q), tp.MAX_SIZE + 1)
    other = graphs_by_name["a3"]
    with pytest.raises(tp.ToeplitzError):
        tp.toeplitz_embed(algebra.identity(other, Q), 6)


def test_dense_det_oracle_agreement(Q, rng):
    for n in (2, 3, 4):
        for _ in range(10):
            rows = [
                [sampling.random_scalar(rng, Q) for _ in range(n)]
                for _ in range(n)
            ]
            m = linalg.from_rows(Q, rows)
            assert linalg.det_gauss(m) == oracles.det_cofactor(m)
