"""Exact sparse matrices of FieldElement entries: finitary matrices over an
N x N array and n x n matrices, with one product on raw payloads through the
field's ``ops``, and the two determinants."""

from __future__ import annotations

from dataclasses import dataclass

from . import fields


class MatrixError(ValueError):
    pass


class ToeplitzError(ValueError):
    pass


@dataclass(frozen=True)
class FinitaryMatrix(fields.Combination):
    field: fields.FieldDescriptor
    terms: tuple        # (((i, j), FieldElement), ...) row-major, indices >= 1

    error = ToeplitzError

    def _check(self, other):
        if type(other) is not FinitaryMatrix or self.field != other.field:
            raise ToeplitzError("matrices over different fields")

    def _make(self, acc):
        return FinitaryMatrix(self.field, _terms(self.field, acc))

    @property
    def support_bound(self):
        return max((max(i, j) for (i, j), _ in self.terms), default=0)

    def entry(self, i, j):
        return self.coeff((i, j))

    def __mul__(self, other):
        self._check(other)
        add, mul, _, zero = self.field.ops
        cols = {}
        for (i, j), c in other.terms:
            cols.setdefault(i, []).append((j, c.payload))
        acc = {}
        for (i, k), a in self.terms:
            a = a.payload
            for j, b in cols.get(k, ()):
                fields.add_term(acc, (i, j), mul(a, b), add, zero)
        return self._make(acc)

    def dense(self, n):
        """The leading n x n corner."""
        return DenseMatrix(
            self.field, tuple(t for t in self.terms if max(t[0]) <= n), n
        )

    def __str__(self):
        if not self.terms:
            return "0"
        return " ".join(
            f"({i},{j},{fields.element_str(c)})" for (i, j), c in self.terms
        )


@dataclass(frozen=True)
class DenseMatrix(FinitaryMatrix):
    """An n x n matrix: a finitary matrix supported in the leading n x n
    corner, which mixes only with matrices of its own field and size."""
    n: int

    error = MatrixError

    def _check(self, other):
        if type(other) is not DenseMatrix or (self.field, self.n) != (other.field, other.n):
            raise MatrixError("matrix shape or field mismatch")

    def _make(self, acc):
        return DenseMatrix(self.field, _terms(self.field, acc), self.n)

    @property
    def rows(self):
        z = fields.zero(self.field)
        rows = [[z] * self.n for _ in range(self.n)]
        for (i, j), c in self.terms:
            rows[i - 1][j - 1] = c
        return tuple(map(tuple, rows))

    def block(self, k):
        """Leading k x k corner."""
        return self.dense(k)

    def __str__(self):
        return "\n".join(
            "[" + ", ".join(fields.element_str(a) for a in row) + "]"
            for row in self.rows
        )


def _terms(field, acc):
    """The sorted terms of the sparse payload dict ``acc``."""
    return tuple((pos, fields.FieldElement(field, acc[pos])) for pos in sorted(acc))


def finitary(field, acc):
    """The finitary matrix of the sparse payload dict ``acc``."""
    return FinitaryMatrix(field, _terms(field, acc))


def square(field, n, acc):
    """The n x n matrix of the sparse payload dict ``acc``."""
    return DenseMatrix(field, _terms(field, acc), n)


def _entry(field, a):
    """A matrix entry of ``field``; products skip the per-entry field check,
    so a foreign entry is refused here."""
    if isinstance(a, int):
        return fields.from_int(field, a)
    if not isinstance(a, fields.FieldElement) or a.field != field:
        raise MatrixError(f"matrix entry {a!r} does not lie in {field}")
    return a


def identity_matrix(field, n):
    one = fields.one(field)
    return DenseMatrix(field, tuple(((i, i), one) for i in range(1, n + 1)), n)


def matrix_unit(field, n, i, j, value=None):
    """E_ij (1-indexed), optionally scaled."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise MatrixError(f"matrix unit ({i}, {j}) lies outside the {n} x {n} shape")
    value = fields.one(field) if value is None else _entry(field, value)
    return DenseMatrix(field, () if value.is_zero() else (((i, j), value),), n)


def from_rows(field, rows):
    rows = [[_entry(field, a) for a in row] for row in rows]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise MatrixError("matrix must be square")
    return DenseMatrix(field, tuple(
        ((i, j), a)
        for i, row in enumerate(rows, start=1)
        for j, a in enumerate(row, start=1)
        if not a.is_zero()
    ), n)


def det_gauss(m):
    """Determinant by exact Gaussian elimination with pivoting."""
    field = m.field
    n = m.n
    rows = [list(r) for r in m.rows]
    det = fields.one(field)
    for col in range(n):
        pivot = next((r for r in range(col, n) if not rows[r][col].is_zero()), None)
        if pivot is None:
            return fields.zero(field)
        if pivot != col:
            rows[col], rows[pivot] = rows[pivot], rows[col]
            det = -det
        det = det * rows[col][col]
        inv = rows[col][col].inverse()
        for r in range(col + 1, n):
            if rows[r][col].is_zero():
                continue
            factor = rows[r][col] * inv
            for c in range(col, n):
                rows[r][c] = rows[r][c] - factor * rows[col][c]
    return det


def det_cofactor(m):
    """Cofactor-expansion determinant; the independent (slow) oracle."""
    n = m.n
    field = m.field
    if n == 0:
        return fields.one(field)
    rows = m.rows
    if n == 1:
        return rows[0][0]
    total = fields.zero(field)
    for j in range(n):
        a = rows[0][j]
        if a.is_zero():
            continue
        minor = from_rows(field, (row[:j] + row[j + 1:] for row in rows[1:]))
        term = a * det_cofactor(minor)
        total = total + term if j % 2 == 0 else total - term
    return total
