"""Exact scalar arithmetic and row reduction over the Gaussian rationals,
plus Smith normal form for integer matrices.

Everything here is exact and uses no floats.  Values are
``GaussianRational`` scalars, pairs of ``fractions.Fraction``.
Elimination does not work on them directly: a row is first scaled by the
lcm of its denominators into a Gaussian-integer row, a pair of lists of
Python ints (real and imaginary parts), and is reduced without division.
Only results are turned back into Gaussian rationals.  The same integer
rows give ``projective_key``, which identifies a row up to a nonzero
scalar.  All values are immutable and the functions are pure, so
concurrent use is safe.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, lcm
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
        # Fractions are immutable, so exact ones are kept as they are
        object.__setattr__(self, "re", re if type(re) is Fraction else Fraction(re))
        object.__setattr__(self, "im", im if type(im) is Fraction else Fraction(im))

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


def _integer_row(row) -> tuple[list[int], list[int]]:
    """Clear the denominators of a Gaussian-rational row: scale it by the
    lcm of all of them and return the real and imaginary parts as ints."""
    scale = lcm(*(x.re.denominator for x in row), *(x.im.denominator for x in row))
    return (
        [x.re.numerator * (scale // x.re.denominator) for x in row],
        [x.im.numerator * (scale // x.im.denominator) for x in row],
    )


def _primitive_key(re: Sequence[int], im: Sequence[int]) -> tuple:
    """Normalize a nonzero Gaussian-integer row up to Q(i)-scaling.

    Multiplying by the conjugate of a non-real leading entry, or negating
    a negative real one, makes the lead a positive integer; what is left
    is a positive rational factor, removed by the integer content.
    """
    lead = 0
    while not (re[lead] or im[lead]):
        lead += 1
    a, b = re[lead], im[lead]
    if b:
        re, im = (
            [x * a + y * b for x, y in zip(re, im)],
            [y * a - x * b for x, y in zip(re, im)],
        )
    elif a < 0:
        re, im = [-x for x in re], [-y for y in im]
    re, im = _without_content(re, im)
    return (*re, *im)


def _without_content(re: list[int], im: list[int]) -> tuple[list[int], list[int]]:
    """Divide a Gaussian-integer row by the gcd of all its parts."""
    g = gcd(*re, *im)
    if g > 1:
        return [x // g for x in re], [y // g for y in im]
    return re, im


def projective_key(row) -> tuple:
    """A tuple of ints that two nonzero Gaussian-rational rows share
    exactly when one is a nonzero Q(i)-multiple of the other."""
    return _primitive_key(*_integer_row(row))


def rref(m: Matrix) -> tuple[Matrix, int, tuple[int, ...]]:
    """Reduced row echelon form of ``m``.

    Returns ``(reduced, rank, pivot_columns)``.  The reduced form is unique
    for a given row space, which is what makes it usable as a canonical key
    for affine subspaces.  Zero rows are kept so the shape is preserved.

    The elimination runs on Gaussian-integer rows without division: each
    row is cleared against the pivot row p as ``row <- p[col]*row -
    row[col]*p`` and then divided by its integer content.  Only the final
    rows are divided by their pivots, once, back into Gaussian rationals.
    """
    work = [_integer_row(r) for r in m.iter_rows()]
    pivots: list[int] = []
    lead = 0
    for col in range(m.cols):
        pivot_row = None
        for i in range(lead, m.rows):
            if work[i][0][col] or work[i][1][col]:
                pivot_row = i
                break
        if pivot_row is None:
            continue
        work[lead], work[pivot_row] = work[pivot_row], work[lead]
        pre, pim = work[lead]
        a, b = pre[col], pim[col]
        for i in range(m.rows):
            re, im = work[i]
            c, d = re[col], im[col]
            if i == lead or not (c or d):
                continue
            work[i] = _without_content(
                [a * x - b * y - c * u + d * v for x, y, u, v in zip(re, im, pre, pim)],
                [a * y + b * x - c * v - d * u for x, y, u, v in zip(re, im, pre, pim)],
            )
        pivots.append(col)
        lead += 1
        if lead == m.rows:
            break
    entries = []
    for (re, im), col in zip(work, pivots):
        a, b = re[col], im[col]
        # x / (a + bi) = x * (a - bi) / (a^2 + b^2)
        norm = a * a + b * b
        for x, y in zip(re, im):
            if x or y:
                entries.append(
                    GaussianRational(Fraction(x * a + y * b, norm), Fraction(y * a - x * b, norm))
                )
            else:
                entries.append(ZERO)
    entries.extend([ZERO] * (m.cols * (m.rows - len(pivots))))
    return Matrix(m.rows, m.cols, tuple(entries)), len(pivots), tuple(pivots)


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
