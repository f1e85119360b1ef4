"""Exact scalar arithmetic and row reduction over the Gaussian rationals,
plus Smith normal form for integer matrices.

Everything here is exact: scalars are pairs of ``fractions.Fraction`` and
integer work uses Python's arbitrary-precision ints.  No floats anywhere.
All values are immutable and the functions are pure, so concurrent use is
safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Optional, Sequence, Union

Scalar = Union[int, Fraction, "GaussianRational"]


class GaussianRational:
    """A number a + b*i with exact rational a, b.

    ``Fraction`` already stores fully reduced values with positive
    denominators, so equality and hashing are exact.  Instances compare equal
    to plain ints and Fractions when the imaginary part is zero.
    """

    __slots__ = ("re", "im")

    def __init__(self, re=0, im=0):
        object.__setattr__(self, "re", Fraction(re))
        object.__setattr__(self, "im", Fraction(im))

    def __setattr__(self, name, value):
        raise AttributeError("GaussianRational is immutable")

    @staticmethod
    def coerce(value: Scalar) -> "GaussianRational":
        if isinstance(value, GaussianRational):
            return value
        return GaussianRational(value)

    def __bool__(self) -> bool:
        return bool(self.re) or bool(self.im)

    def __eq__(self, other) -> bool:
        if isinstance(other, GaussianRational):
            return self.re == other.re and self.im == other.im
        if isinstance(other, (int, Fraction)):
            return self.im == 0 and self.re == other
        return NotImplemented

    def __hash__(self):
        # A real value must hash like its Fraction so x == n implies equal hashes.
        if self.im == 0:
            return hash(self.re)
        return hash((self.re, self.im))

    def __add__(self, other):
        other = GaussianRational.coerce(other)
        return GaussianRational(self.re + other.re, self.im + other.im)

    __radd__ = __add__

    def __neg__(self):
        return GaussianRational(-self.re, -self.im)

    def __sub__(self, other):
        return self + (-GaussianRational.coerce(other))

    def __rsub__(self, other):
        return GaussianRational.coerce(other) + (-self)

    def __mul__(self, other):
        other = GaussianRational.coerce(other)
        return GaussianRational(
            self.re * other.re - self.im * other.im,
            self.re * other.im + self.im * other.re,
        )

    __rmul__ = __mul__

    def __truediv__(self, other):
        other = GaussianRational.coerce(other)
        norm = other.re * other.re + other.im * other.im
        if not norm:
            raise ZeroDivisionError("division by zero Gaussian rational")
        conj = other.conjugate()
        prod = self * conj
        return GaussianRational(prod.re / norm, prod.im / norm)

    def __rtruediv__(self, other):
        return GaussianRational.coerce(other) / self

    def conjugate(self) -> "GaussianRational":
        return GaussianRational(self.re, -self.im)

    def sort_key(self):
        """Deterministic total order used for canonical tie-breaking only.

        Complex numbers have no field order; this is lexicographic on
        (re, im) and must not be read as a magnitude comparison.
        """
        return (self.re, self.im)

    def __repr__(self):
        return f"GaussianRational({self.re!r}, {self.im!r})"

    def __str__(self):
        if self.im == 0:
            return str(self.re)
        if self.re == 0:
            return _imag_str(self.im)
        sign = "+" if self.im > 0 else "-"
        return f"{self.re}{sign}{_imag_str(abs(self.im))}"


def _imag_str(im: Fraction) -> str:
    if im == 1:
        return "i"
    if im == -1:
        return "-i"
    return f"{im}i"


ZERO = GaussianRational(0)
ONE = GaussianRational(1)
I = GaussianRational(0, 1)


def gauss(re: Union[int, Fraction, str] = 0, im: Union[int, Fraction, str] = 0) -> GaussianRational:
    """Shorthand constructor; accepts anything Fraction does."""
    return GaussianRational(Fraction(re), Fraction(im))


@dataclass(frozen=True)
class Matrix:
    """Immutable row-major matrix over the Gaussian rationals."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[Scalar]], cols: Optional[int] = None) -> "Matrix":
        rows = [tuple(GaussianRational.coerce(x) for x in r) for r in rows]
        if rows:
            cols = len(rows[0])
            if any(len(r) != cols for r in rows):
                raise ValueError("ragged rows")
        elif cols is None:
            cols = 0
        flat = tuple(x for r in rows for x in r)
        return cls(len(rows), cols, flat)

    def entry(self, i: int, j: int) -> GaussianRational:
        return self.entries[i * self.cols + j]

    def row(self, i: int) -> tuple:
        return self.entries[i * self.cols : (i + 1) * self.cols]

    def iter_rows(self) -> Iterable[tuple]:
        for i in range(self.rows):
            yield self.row(i)

    def transpose(self) -> "Matrix":
        return Matrix.from_rows(
            [[self.entry(i, j) for i in range(self.rows)] for j in range(self.cols)],
            cols=self.rows,
        )

    def __str__(self):
        return "\n".join(" ".join(str(x) for x in r) for r in self.iter_rows())


def rref(m: Matrix) -> tuple[Matrix, int, tuple[int, ...]]:
    """Reduced row echelon form of ``m``.

    Returns ``(reduced, rank, pivot_columns)``.  The reduced form is unique
    for a given row space, which is what makes it usable as a canonical key
    for affine subspaces.  Zero rows are kept so the shape is preserved.
    """
    work = [list(r) for r in m.iter_rows()]
    pivots: list[int] = []
    lead = 0
    for col in range(m.cols):
        pivot_row = None
        for i in range(lead, m.rows):
            if work[i][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[lead], work[pivot_row] = work[pivot_row], work[lead]
        inv = work[lead][col]
        if inv != ONE:
            work[lead] = [x / inv for x in work[lead]]
        for i in range(m.rows):
            if i != lead and work[i][col]:
                factor = work[i][col]
                work[i] = [a - factor * b for a, b in zip(work[i], work[lead])]
        pivots.append(col)
        lead += 1
        if lead == m.rows:
            break
    flat = tuple(x for r in work for x in r)
    return Matrix(m.rows, m.cols, flat), len(pivots), tuple(pivots)


def matrix_rank(m: Matrix) -> int:
    return rref(m)[1]


def solve_affine(m: Matrix, rhs: Sequence[Scalar]):
    """Solve ``m @ x = rhs`` exactly.

    Returns ``None`` when the system is inconsistent, otherwise a pair
    ``(witness, kernel_basis)``: one particular solution plus a basis of the
    homogeneous solution space.  The witness sets every free variable to
    zero and the kernel basis has a 1 in each free column, so the output is
    deterministic.
    """
    rhs = [GaussianRational.coerce(x) for x in rhs]
    if len(rhs) != m.rows:
        raise ValueError(f"rhs length {len(rhs)} != row count {m.rows}")
    augmented = Matrix.from_rows(
        [list(r) + [b] for r, b in zip(m.iter_rows(), rhs)], cols=m.cols + 1
    )
    reduced, rank, pivots = rref(augmented)
    if m.cols in pivots:
        return None
    witness = [ZERO] * m.cols
    for i, p in enumerate(pivots):
        witness[p] = reduced.entry(i, m.cols)
    pivot_set = set(pivots)
    basis = []
    for free in range(m.cols):
        if free in pivot_set:
            continue
        vec = [ZERO] * m.cols
        vec[free] = ONE
        for i, p in enumerate(pivots):
            vec[p] = -reduced.entry(i, free)
        basis.append(tuple(vec))
    return tuple(witness), tuple(basis)


@dataclass(frozen=True)
class IntegerMatrix:
    """Immutable row-major matrix with (arbitrary-precision) integer entries."""

    rows: int
    cols: int
    entries: tuple

    def __post_init__(self):
        if len(self.entries) != self.rows * self.cols:
            raise ValueError(
                f"expected {self.rows * self.cols} entries, got {len(self.entries)}"
            )

    @classmethod
    def from_rows(cls, rows: Sequence[Sequence[int]], cols: Optional[int] = None) -> "IntegerMatrix":
        rows = [tuple(int(x) for x in r) for r in rows]
        if rows:
            cols = len(rows[0])
            if any(len(r) != cols for r in rows):
                raise ValueError("ragged rows")
        elif cols is None:
            cols = 0
        return cls(len(rows), cols, tuple(x for r in rows for x in r))

    def entry(self, i: int, j: int) -> int:
        return self.entries[i * self.cols + j]


def smith_normal_form(m: IntegerMatrix) -> tuple[int, ...]:
    """Invariant factors d_1 | d_2 | ... of an integer matrix.

    Classical pivoting elimination; the pivot is always an entry of smallest
    nonzero absolute value in the remaining submatrix, which keeps
    intermediate growth tame at the matrix sizes produced by order
    complexes.  The result is nonnegative and zero-padded to
    ``min(rows, cols)``.
    """
    R, C = m.rows, m.cols
    a = [[m.entry(i, j) for j in range(C)] for i in range(R)]
    size = min(R, C)
    factors: list[int] = []

    for k in range(size):
        while True:
            pivot = _smallest_nonzero(a, k, R, C)
            if pivot is None:
                # everything left is zero
                return tuple(factors) + (0,) * (size - len(factors))
            pi, pj = pivot
            if pi != k:
                a[k], a[pi] = a[pi], a[k]
            if pj != k:
                for row in a:
                    row[k], row[pj] = row[pj], row[k]
            if a[k][k] < 0:
                a[k] = [-x for x in a[k]]
            p = a[k][k]

            dirty = False
            for i in range(k + 1, R):
                if a[i][k]:
                    q = a[i][k] // p
                    a[i] = [x - q * y for x, y in zip(a[i], a[k])]
                    if a[i][k]:
                        dirty = True
            for j in range(k + 1, C):
                if a[k][j]:
                    q = a[k][j] // p
                    for row in a:
                        row[j] -= q * row[k]
                    if a[k][j]:
                        dirty = True
            if dirty:
                continue

            # pivot row and column are clear; force divisibility of the rest
            offender = None
            for i in range(k + 1, R):
                for j in range(k + 1, C):
                    if a[i][j] % p:
                        offender = i
                        break
                if offender is not None:
                    break
            if offender is None:
                break
            a[k] = [x + y for x, y in zip(a[k], a[offender])]
        factors.append(a[k][k])

    return tuple(factors)


def _smallest_nonzero(a, k, R, C):
    best = None
    best_abs = None
    for i in range(k, R):
        for j in range(k, C):
            v = a[i][j]
            if v:
                av = abs(v)
                if best_abs is None or av < best_abs:
                    best, best_abs = (i, j), av
                    if av == 1:
                        return best
    return best


def integer_rank(m: IntegerMatrix) -> int:
    """Rank over Q, read off the Smith normal form."""
    return sum(1 for d in smith_normal_form(m) if d)
