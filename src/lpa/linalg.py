"""Exact sparse matrices of field payloads: finitary matrices over an
N x N array and n x n matrices, with one product on raw payloads through the
field's ``ops``, and the Gauss determinant."""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from . import fields


class MatrixError(ValueError):
    pass


class ToeplitzError(ValueError):
    pass


@dataclass(frozen=True)
class FinitaryMatrix(fields.Combination):
    field: fields.FieldDescriptor
    terms: tuple        # (((i, j), payload), ...) row-major, indices >= 1

    error = ToeplitzError

    def _check(self, other):
        if type(other) is not FinitaryMatrix or self.field != other.field:
            raise ToeplitzError("matrices over different fields")

    def _make(self, acc):
        return finitary(self.field, acc)

    @property
    def support_bound(self):
        return max((max(i, j) for (i, j), _ in self.terms), default=0)

    def entry(self, i, j):
        return self.coeff((i, j))

    @cached_property
    def _row_index(self):
        """Row i -> [(j, payload)], read when this matrix is a right factor."""
        rows = {}
        for (i, j), c in self.terms:
            rows.setdefault(i, []).append((j, c))
        return rows

    def __mul__(self, other):
        self._check(other)
        add, mul, _, zero = self.field.ops
        rows = other._row_index
        acc = {}
        for (i, k), a in self.terms:
            for j, b in rows.get(k, ()):
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
            f"({i},{j},{fields.FieldElement(self.field, c)})" for (i, j), c in self.terms
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
        return square(self.field, self.n, acc)

    @property
    def rows(self):
        z = fields.zero(self.field)
        rows = [[z] * self.n for _ in range(self.n)]
        for (i, j), c in self.terms:
            rows[i - 1][j - 1] = fields.FieldElement(self.field, c)
        return tuple(map(tuple, rows))

    def block(self, k):
        """Leading k x k corner."""
        return self.dense(k)

    def __str__(self):
        return "\n".join(
            "[" + ", ".join(fields.element_str(a) for a in row) + "]"
            for row in self.rows
        )


def finitary(field, acc):
    """The finitary matrix of the sparse payload dict ``acc``."""
    return FinitaryMatrix(field, tuple(sorted(acc.items())))


def square(field, n, acc):
    """The n x n matrix of the sparse payload dict ``acc``."""
    return DenseMatrix(field, tuple(sorted(acc.items())), n)


def _entry(field, a):
    """A matrix entry of ``field``; products skip the per-entry field check,
    so a foreign entry is refused here."""
    if isinstance(a, int):
        return fields.from_int(field, a)
    if not isinstance(a, fields.FieldElement) or a.field != field:
        raise MatrixError(f"matrix entry {a!r} does not lie in {field}")
    return a


def identity_matrix(field, n):
    one = fields.int_payload(field, 1)
    return square(field, n, {(i, i): one for i in range(1, n + 1)})


def matrix_unit(field, n, i, j, value=None):
    """E_ij (1-indexed), optionally scaled."""
    if not (1 <= i <= n and 1 <= j <= n):
        raise MatrixError(f"matrix unit ({i}, {j}) lies outside the {n} x {n} shape")
    value = fields.one(field) if value is None else _entry(field, value)
    return square(field, n, {} if value.is_zero() else {(i, j): value.payload})


def from_rows(field, rows):
    rows = [[_entry(field, a) for a in row] for row in rows]
    n = len(rows)
    if any(len(r) != n for r in rows):
        raise MatrixError("matrix must be square")
    return square(field, n, {
        (i, j): a.payload
        for i, row in enumerate(rows, start=1)
        for j, a in enumerate(row, start=1)
        if not a.is_zero()
    })


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
