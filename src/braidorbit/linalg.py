"""Exact dense linear algebra over Cyclotomic entries.

Plain rational Gaussian elimination with eager reduction; matrices in
this project are at most 6x6, so coefficient growth stays tame.  Kernel
and eigenspace bases come back in reduced row-echelon form, which makes
subspaces directly comparable and usable as hash keys.
"""

from __future__ import annotations

from fractions import Fraction

from .cyclo import Cyclotomic, cyc

ZERO = cyc(0)
ONE = cyc(1)


class DimensionMismatch(ValueError):
    pass


class SingularMatrix(ValueError):
    pass


class Mat:
    __slots__ = ("rows", "cols", "entries")

    def __init__(self, rows, cols, entries):
        entries = tuple(cyc(e) for e in entries)
        if len(entries) != rows * cols:
            raise DimensionMismatch(f"{rows}x{cols} needs {rows*cols} entries")
        self.rows = rows
        self.cols = cols
        self.entries = entries

    @staticmethod
    def from_rows(rows):
        r = len(rows)
        c = len(rows[0])
        if any(len(row) != c for row in rows):
            raise DimensionMismatch("ragged rows")
        return Mat(r, c, [e for row in rows for e in row])

    @staticmethod
    def identity(n):
        return Mat(n, n, [ONE if i == j else ZERO for i in range(n) for j in range(n)])

    @staticmethod
    def zero(r, c):
        return Mat(r, c, [ZERO] * (r * c))

    def __getitem__(self, ij):
        i, j = ij
        return self.entries[i * self.cols + j]

    def row(self, i):
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def to_rows(self):
        return [list(self.row(i)) for i in range(self.rows)]

    def __eq__(self, other):
        if not isinstance(other, Mat):
            return NotImplemented
        return (
            self.rows == other.rows
            and self.cols == other.cols
            and all(a == b for a, b in zip(self.entries, other.entries))
        )

    __hash__ = None

    def __matmul__(self, other):
        if isinstance(other, Mat):
            if self.cols != other.rows:
                raise DimensionMismatch(f"{self.rows}x{self.cols} @ {other.rows}x{other.cols}")
            out = []
            for i in range(self.rows):
                ri = self.row(i)
                for j in range(other.cols):
                    acc = ZERO
                    for k in range(self.cols):
                        a = ri[k]
                        if not a.is_zero():
                            acc = acc + a * other[k, j]
                    out.append(acc)
            return Mat(self.rows, other.cols, out)
        if isinstance(other, (tuple, list)):
            return self.apply(other)
        return NotImplemented

    def apply(self, vec):
        if len(vec) != self.cols:
            raise DimensionMismatch("vector length mismatch")
        # multiply and add only where both factors are nonzero
        nonzero = [(k, v) for k, v in enumerate(map(cyc, vec)) if not v.is_zero()]
        out = []
        for i in range(self.rows):
            ri = self.row(i)
            acc = ZERO
            for k, v in nonzero:
                e = ri[k]
                if not e.is_zero():
                    acc = acc + e * v
            out.append(acc)
        return tuple(out)

    def __add__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch("shape mismatch")
        return Mat(self.rows, self.cols, [a + b for a, b in zip(self.entries, other.entries)])

    def __sub__(self, other):
        if self.rows != other.rows or self.cols != other.cols:
            raise DimensionMismatch("shape mismatch")
        return Mat(self.rows, self.cols, [a - b for a, b in zip(self.entries, other.entries)])

    def scale(self, c):
        c = cyc(c)
        return Mat(self.rows, self.cols, [c * e for e in self.entries])

    def transpose(self):
        return Mat(self.cols, self.rows, [self[j, i] for i in range(self.cols) for j in range(self.rows)])

    def conj(self):
        """Entrywise complex conjugation (zeta -> zeta^-1)."""
        return Mat(self.rows, self.cols, [e.conj() for e in self.entries])

    def trace(self):
        if self.rows != self.cols:
            raise DimensionMismatch("trace of a non-square matrix")
        t = ZERO
        for i in range(self.rows):
            t = t + self[i, i]
        return t

    def is_identity(self):
        return self == Mat.identity(self.rows)

    def is_scalar(self):
        if self.rows != self.cols:
            return False
        d = self[0, 0]
        for i in range(self.rows):
            for j in range(self.cols):
                e = self[i, j]
                if i == j:
                    if e != d:
                        return False
                elif not e.is_zero():
                    return False
        return not d.is_zero()

    def det(self):
        if self.rows != self.cols:
            raise DimensionMismatch("determinant of a non-square matrix")
        a = self.to_rows()
        n = self.rows
        d = ONE
        for col in range(n):
            pivot = next((r for r in range(col, n) if not a[r][col].is_zero()), None)
            if pivot is None:
                return ZERO
            if pivot != col:
                a[col], a[pivot] = a[pivot], a[col]
                d = -d
            d = d * a[col][col]
            inv = a[col][col].inverse()
            for r in range(col + 1, n):
                f = a[r][col] * inv
                if not f.is_zero():
                    for c in range(col, n):
                        a[r][c] = a[r][c] - f * a[col][c]
        return d

    def inverse(self):
        """M^-1: the right half of rref([M | I]), whose left half is then I.

        Raises SingularMatrix when one of M's columns has no pivot.
        """
        if self.rows != self.cols:
            raise DimensionMismatch("inverse of a non-square matrix")
        n = self.rows
        ident = Mat.identity(n)
        red, pivots = Mat.from_rows([self.row(i) + ident.row(i) for i in range(n)]).rref()
        if pivots != tuple(range(n)):
            raise SingularMatrix("matrix is singular")
        return Mat(n, n, [red[i, j] for i in range(n) for j in range(n, 2 * n)])

    def adjugate(self):
        """adj(M), with adj(M) M = M adj(M) = det(M) I, singular M included.

        Faddeev-LeVerrier: with M_1 = I and M_k = A M_(k-1) + c_(n-k+1) I,
        where c_(n-j) = -tr(A M_j) / j, adj(A) = (-1)^(n+1) M_n.  It uses
        ring operations and division by the integers 1 .. n-1 only, no
        Cyclotomic inverse.  For n = 2 that is tr(A) I - A, which is taken
        in its closed form [[d, -b], [-c, a]].  As a projective map adj(M)
        is M^-1 for every invertible M.
        """
        if self.rows != self.cols:
            raise DimensionMismatch("adjugate of a non-square matrix")
        n = self.rows
        if n == 2:
            a, b, c, d = self.entries
            return Mat(2, 2, [d, -b, -c, a])
        m = Mat.identity(n)
        am = self  # A M_(k-1)
        for k in range(2, n + 1):
            c = am.trace() * Fraction(-1, k - 1)
            entries = list(am.entries)
            for i in range(0, n * n, n + 1):
                entries[i] = entries[i] + c
            m = Mat(n, n, entries)
            if k < n:
                am = self @ m
        if n % 2 == 0:
            m = Mat(n, n, [-e for e in m.entries])
        return m

    def rref(self):
        """Reduced row-echelon form; returns (Mat, pivot column tuple)."""
        a = self.to_rows()
        pivots = []
        r = 0
        for col in range(self.cols):
            pivot = next((i for i in range(r, self.rows) if not a[i][col].is_zero()), None)
            if pivot is None:
                continue
            a[r], a[pivot] = a[pivot], a[r]
            inv = a[r][col].inverse()
            a[r] = [e * inv for e in a[r]]
            for i in range(self.rows):
                if i != r and not a[i][col].is_zero():
                    f = a[i][col]
                    a[i] = [x - f * y for x, y in zip(a[i], a[r])]
            pivots.append(col)
            r += 1
            if r == self.rows:
                break
        return Mat(self.rows, self.cols, [e for row in a for e in row]), tuple(pivots)

    def rank(self):
        return len(self.rref()[1])

    def kernel(self):
        """Canonical basis of the right kernel, as a list of row vectors.

        The basis is the reduced row-echelon form of the kernel, so two
        equal subspaces always produce identical bases.
        """
        red, pivots = self.rref()
        free = [c for c in range(self.cols) if c not in pivots]
        basis = []
        for fc in free:
            v = [ZERO] * self.cols
            v[fc] = ONE
            for r, pc in enumerate(pivots):
                v[pc] = -red[r, fc]
            basis.append(v)
        if not basis:
            return []
        reduced, _ = Mat.from_rows(basis).rref()
        return [list(reduced.row(i)) for i in range(len(basis))]

    def __repr__(self):
        rows = "; ".join(", ".join(str(e) for e in self.row(i)) for i in range(self.rows))
        return f"Mat[{rows}]"


def eigenspace(m, eigenvalue):
    """Canonical basis of ker(m - eigenvalue * I)."""
    if m.rows != m.cols:
        raise DimensionMismatch("eigenspace of a non-square matrix")
    shifted = m - Mat.identity(m.rows).scale(eigenvalue)
    return shifted.kernel()


def is_complex_reflection(m):
    """(True, nontrivial eigenvalue) iff rank(m - I) = 1, else (False, None).

    The nontrivial eigenvalue of a reflection is trace(m) - (dim - 1).
    """
    if m.rows != m.cols:
        raise DimensionMismatch("reflection test needs a square matrix")
    if (m - Mat.identity(m.rows)).rank() != 1:
        return False, None
    return True, m.trace() - (m.rows - 1)


def matrix_order(m, bound):
    """Smallest k <= bound with m^k = I, else None."""
    ident = Mat.identity(m.rows)
    p = m
    for k in range(1, bound + 1):
        if p == ident:
            return k
        p = p @ m
    return None


def projective_order(m, bound):
    """Smallest k <= bound with m^k scalar, else None."""
    p = m
    for k in range(1, bound + 1):
        if p.is_scalar():
            return k
        p = p @ m
    return None


def mat_parallel(v, w):
    """True iff vectors v, w are proportional (including the zero vector)."""
    if len(v) != len(w):
        raise DimensionMismatch("vector length mismatch")
    for i in range(len(v)):
        for j in range(i + 1, len(v)):
            if cyc(v[i]) * cyc(w[j]) != cyc(v[j]) * cyc(w[i]):
                return False
    return True
