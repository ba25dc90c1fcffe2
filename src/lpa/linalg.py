"""Small dense exact matrices of FieldElement entries; products run on raw
payloads through the field's ``ops``."""

from __future__ import annotations

from dataclasses import dataclass

from . import fields


class MatrixError(ValueError):
    pass


@dataclass(frozen=True)
class DenseMatrix:
    field: fields.FieldDescriptor
    rows: tuple     # tuple of row tuples of FieldElement

    @property
    def n(self):
        return len(self.rows)

    def entry(self, i, j):
        """1-indexed."""
        return self.rows[i - 1][j - 1]

    def __add__(self, other):
        _check(self, other)
        return DenseMatrix(
            self.field,
            tuple(
                tuple(a + b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            ),
        )

    def __sub__(self, other):
        _check(self, other)
        return DenseMatrix(
            self.field,
            tuple(
                tuple(a - b for a, b in zip(ra, rb))
                for ra, rb in zip(self.rows, other.rows)
            ),
        )

    def __mul__(self, other):
        _check(self, other)
        field = self.field
        add, mul, _, zero = field.ops
        cols = tuple(zip(*((b.payload for b in row) for row in other.rows)))
        out = []
        for row in self.rows:
            row = [a.payload for a in row]
            cells = []
            for col in cols:
                s = zero
                for a, b in zip(row, col):
                    s = add(s, mul(a, b))
                cells.append(fields.FieldElement(field, s))
            out.append(tuple(cells))
        return DenseMatrix(field, tuple(out))

    def scale(self, k):
        return DenseMatrix(
            self.field, tuple(tuple(a * k for a in row) for row in self.rows)
        )

    def block(self, k):
        """Leading k x k corner."""
        return DenseMatrix(
            self.field, tuple(tuple(row[:k]) for row in self.rows[:k])
        )

    def __str__(self):
        return "\n".join(
            "[" + ", ".join(fields.element_str(a) for a in row) + "]"
            for row in self.rows
        )


def _check(a, b):
    if a.field != b.field or a.n != b.n:
        raise MatrixError("matrix shape or field mismatch")


def _entry(field, a):
    """A matrix entry of ``field``; products skip the per-entry field check,
    so a foreign entry is refused here."""
    if isinstance(a, int):
        return fields.from_int(field, a)
    if not isinstance(a, fields.FieldElement) or a.field != field:
        raise MatrixError(f"matrix entry {a!r} does not lie in {field}")
    return a


def zeros(field, n):
    z = fields.zero(field)
    return DenseMatrix(field, tuple(tuple(z for _ in range(n)) for _ in range(n)))


def identity_matrix(field, n):
    z, o = fields.zero(field), fields.one(field)
    return DenseMatrix(
        field,
        tuple(tuple(o if i == j else z for j in range(n)) for i in range(n)),
    )


def matrix_unit(field, n, i, j, value=None):
    """E_ij (1-indexed), optionally scaled."""
    value = fields.one(field) if value is None else _entry(field, value)
    z = fields.zero(field)
    return DenseMatrix(
        field,
        tuple(
            tuple(value if (r, c) == (i - 1, j - 1) else z for c in range(n))
            for r in range(n)
        ),
    )


def from_rows(field, rows):
    out = [tuple(_entry(field, a) for a in row) for row in rows]
    if any(len(r) != len(out) for r in out):
        raise MatrixError("matrix must be square")
    return DenseMatrix(field, tuple(out))


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
    if n == 1:
        return m.rows[0][0]
    total = fields.zero(field)
    for j in range(n):
        a = m.rows[0][j]
        if a.is_zero():
            continue
        minor = DenseMatrix(
            field,
            tuple(
                tuple(row[c] for c in range(n) if c != j) for row in m.rows[1:]
            ),
        )
        term = a * det_cofactor(minor)
        total = total + term if j % 2 == 0 else total - term
    return total
