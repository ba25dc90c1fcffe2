"""The global determinant and the realization of the Toeplitz-graph algebra
inside row/column-finite matrices.

A finitary matrix (``linalg.FinitaryMatrix``) touches finitely many entries
of an N x N array; an augmented matrix is the infinite identity plus a
finitary perturbation.  The global determinant of ``I + M`` is the common
value of all corner determinants once the corner contains the support of
``M``.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import algebra, corpus, fields, linalg
from .linalg import FinitaryMatrix, ToeplitzError


def fin_zero(field):
    return linalg.finitary(field, {})


def fin_unit(field, i, j, value=None):
    if i < 1 or j < 1:
        raise ToeplitzError("finitary indices start at 1")
    value = fields.one(field) if value is None else value
    if not isinstance(value, fields.FieldElement) or value.field != field:
        raise ToeplitzError(f"entry {value!r} does not lie in {field}")
    if value.is_zero():
        return fin_zero(field)
    return linalg.finitary(field, {(i, j): value.payload})


@dataclass(frozen=True)
class AugmentedMatrix:
    """I_infinity + M for a finitary M; equality is entrywise on M."""
    perturbation: FinitaryMatrix

    @property
    def field(self):
        return self.perturbation.field

    def __mul__(self, other):
        m, n = self.perturbation, other.perturbation
        return AugmentedMatrix(m + n + m * n)

    def is_identity(self):
        return self.perturbation.is_zero()

    def entry(self, i, j):
        base = fields.one(self.field) if i == j else fields.zero(self.field)
        return base + self.perturbation.entry(i, j)

    def dense(self, n):
        return linalg.identity_matrix(self.field, n) + self.perturbation.dense(n)

    def __str__(self):
        if self.is_identity():
            return "I"
        return f"I + [{self.perturbation}]"


def aug_identity(field):
    return AugmentedMatrix(fin_zero(field))


def aug_from_units(field, units):
    """I + sum of (i, j, value) entries."""
    m = fin_zero(field)
    for i, j, value in units:
        m = m + fin_unit(field, i, j, value)
    return AugmentedMatrix(m)


def global_det(u):
    """det of I + M at any corner containing the support; computed at the
    support bound and checked at the next size up."""
    n = u.perturbation.support_bound
    if n == 0:
        return fields.one(u.field)
    d = linalg.det_gauss(u.dense(n))
    d_next = linalg.det_gauss(u.dense(n + 1))
    if d != d_next:
        raise ToeplitzError("global determinant is not stable under enlarging n")
    return d


def in_GL_inf(u):
    return not global_det(u).is_zero()


def in_SL_inf(u):
    return global_det(u) == fields.one(u.field)


# -- the Toeplitz-graph realization -----------------------------------------

def toeplitz_graph():
    return corpus.load("toeplitz")


def shift_generators(g, field):
    """X = e* + f* and Y = e + f, with XY = 1 and YX = u."""
    e = algebra.edge_element(g, field, "e")
    f = algebra.edge_element(g, field, "f")
    return algebra.star(e) + algebra.star(f), e + f


def toeplitz_matrix_units(i, j, field, g=None):
    """Y^{i-1} X^{j-1} - Y^i X^j, the (i,j) matrix unit inside the algebra."""
    if i < 1 or j < 1:
        raise ToeplitzError("matrix-unit indices start at 1")
    g = g or toeplitz_graph()
    X, Y = shift_generators(g, field)
    one = algebra.identity(g, field)

    def power(a, k):
        out = one
        for _ in range(k):
            out = out * a
        return out

    return power(Y, i - 1) * power(X, j - 1) - power(Y, i) * power(X, j)


def toeplitz_embed(x, N):
    """Truncate the row/column-finite realization at N.

    v -> E11, f -> E21, f* -> E12, u -> sum_{2<=i<=N} Eii,
    e -> sum_{2<=i<=N-1} E_{i+1,i}, e* the transpose.  An element whose
    monomials carry at most k edge letters perturbs at most k diagonals, so
    products of such elements are exact on the leading (N - k) corner.
    """
    if N < 2:
        raise ToeplitzError("embedding needs N >= 2")
    g, field = x.graph, x.field
    if tuple(sorted(g.vertices)) != ("u", "v") or sorted(g.edge_map) != ["e", "f"]:
        raise ToeplitzError("toeplitz_embed expects the Toeplitz graph")
    one = fields.one(field).payload
    images = {
        "u": linalg.finitary(field, {(i, i): one for i in range(2, N + 1)}),
        "v": linalg.finitary(field, {(1, 1): one}),
        "e": linalg.finitary(field, {(i + 1, i): one for i in range(2, N)}),
        "f": linalg.finitary(field, {(2, 1): one}),
    }
    ghosts = {
        name: linalg.finitary(field, {(j, i): c.payload for (i, j), c in m.terms})
        for name, m in images.items()
    }
    return algebra.substitute(x, images, images, ghosts, fin_zero(field))
