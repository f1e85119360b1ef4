import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest

from arrcomp import (
    GaussianRational,
    IntegerMatrix,
    Matrix,
    gauss,
    integer_rank,
    matrix_rank,
    rref,
    smith_normal_form,
    solve_affine,
)
from arrcomp.linalg import I, ONE, ZERO


def rand_scalar(rng):
    return gauss(
        Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
        Fraction(rng.randint(-6, 6), rng.randint(1, 4)),
    )


class TestGaussianRational:
    def test_coercion_and_equality(self):
        assert GaussianRational.coerce(3) == gauss(3, 0)
        assert gauss(Fraction(1, 2), 0) == Fraction(1, 2)
        assert gauss(2, 0) == 2
        assert gauss(2, 1) != 2
        assert gauss(0, 0) == 0

    def test_hash_matches_real_values(self):
        assert hash(gauss(3, 0)) == hash(gauss(3, 0))
        values = {gauss(3, 0), 3}
        assert len(values) == 1

    def test_immutable(self):
        value = gauss(1, 2)
        with pytest.raises(AttributeError):
            value.re = Fraction(5)

    def test_arithmetic(self):
        # (1+i)(1-i) = 2 and i^2 = -1
        assert gauss(1, 1) * gauss(1, -1) == gauss(2, 0)
        assert I * I == gauss(-1, 0)
        assert gauss(1, 1) / gauss(1, -1) == I
        assert gauss(1, 1) - gauss(1, 1) == ZERO
        assert gauss(1, 1).conjugate() == gauss(1, -1)

    def test_division_by_zero(self):
        with pytest.raises(ZeroDivisionError):
            gauss(1, 0) / ZERO

    def test_str_forms(self):
        assert str(gauss(1, 0)) == "1"
        assert str(gauss(0, 1)) == "i"
        assert str(gauss(Fraction(1, 2), -1)) == "1/2-i"
        assert str(gauss(-1, -2)) == "-1-2i"
        assert str(ZERO) == "0"

    def test_field_axioms_randomized(self):
        rng = random.Random(7)
        for _ in range(200):
            a, b, c = (rand_scalar(rng) for _ in range(3))
            assert (a + b) + c == a + (b + c)
            assert (a * b) * c == a * (b * c)
            assert a * (b + c) == a * b + a * c
            assert a + b == b + a
            assert a * b == b * a
            if a != ZERO:
                assert (b / a) * a == b


def rows_matrix(rows):
    return Matrix.from_rows([[GaussianRational.coerce(x) for x in row] for row in rows])


class TestRref:
    def test_identity_fixed(self):
        m = rows_matrix([[1, 0], [0, 1]])
        reduced, rank, pivots = rref(m)
        assert reduced == m
        assert rank == 2
        assert pivots == (0, 1)

    def test_dependent_rows(self):
        m = rows_matrix([[1, 1], [2, 2]])
        reduced, rank, pivots = rref(m)
        assert rank == 1
        assert pivots == (0,)
        assert reduced.row(0) == (ONE, ONE)
        assert reduced.row(1) == (ZERO, ZERO)

    def test_complex_dependent_rows(self):
        # second row is i times the first
        m = Matrix.from_rows([[ONE, I], [I, -ONE]])
        _, rank, _ = rref(m)
        assert rank == 1

    def test_idempotent(self):
        rng = random.Random(11)
        for _ in range(25):
            rows = [[rand_scalar(rng) for _ in range(4)] for _ in range(3)]
            m = Matrix.from_rows(rows)
            once, rank, pivots = rref(m)
            twice, rank2, pivots2 = rref(once)
            assert once == twice
            assert (rank, pivots) == (rank2, pivots2)

    def test_rank_equals_transpose_rank(self):
        rng = random.Random(13)
        for _ in range(25):
            rows = [[rand_scalar(rng) for _ in range(3)] for _ in range(4)]
            m = Matrix.from_rows(rows)
            assert matrix_rank(m) == matrix_rank(m.transpose())


class TestSolveAffine:
    def test_parallel_hyperplanes_inconsistent(self):
        m = rows_matrix([[1], [1]])
        rhs = [GaussianRational.coerce(0), GaussianRational.coerce(1)]
        assert solve_affine(m, rhs) is None

    def test_braid_line(self):
        # x0 = x1 and x0 = x2 meet in the diagonal line of C^3
        m = rows_matrix([[1, -1, 0], [1, 0, -1]])
        rhs = [ZERO, ZERO]
        witness, kernel = solve_affine(m, rhs)
        assert witness == (ZERO, ZERO, ZERO)
        assert len(kernel) == 1
        direction = kernel[0]
        assert direction[0] == direction[1] == direction[2] != ZERO

    def test_empty_system(self):
        m = Matrix.from_rows([], cols=2)
        witness, kernel = solve_affine(m, [])
        assert witness == (ZERO, ZERO)
        assert len(kernel) == 2

    def test_unique_solution(self):
        m = rows_matrix([[1, 1], [1, -1]])
        rhs = [GaussianRational.coerce(2), GaussianRational.coerce(0)]
        witness, kernel = solve_affine(m, rhs)
        assert witness == (ONE, ONE)
        assert kernel == ()


def det(rows):
    n = len(rows)
    total = 0
    for perm in permutations(range(n)):
        sign = 1
        seen = list(perm)
        for i in range(n):
            for j in range(i + 1, n):
                if seen[i] > seen[j]:
                    sign = -sign
        term = 1
        for i in range(n):
            term *= rows[i][perm[i]]
        total += sign * term
    return total


def determinantal_divisor(rows, k):
    """Gcd of all k-by-k minors; 0 when every minor vanishes."""
    import math

    n_rows = len(rows)
    n_cols = len(rows[0])
    value = 0
    for row_pick in combinations(range(n_rows), k):
        for col_pick in combinations(range(n_cols), k):
            minor = det([[rows[i][j] for j in col_pick] for i in row_pick])
            value = math.gcd(value, abs(minor))
    return value


class TestSmithNormalForm:
    def test_already_diagonal(self):
        m = IntegerMatrix(rows=2, cols=2, entries=(2, 0, 0, 4))
        assert smith_normal_form(m) == (2, 4)

    def test_reduction_needed(self):
        m = IntegerMatrix(rows=2, cols=2, entries=(2, 4, 4, 8))
        assert smith_normal_form(m) == (2, 0)

    def test_zero_matrix(self):
        m = IntegerMatrix(rows=3, cols=2, entries=(0,) * 6)
        assert smith_normal_form(m) == (0, 0)

    def test_padding_to_min_dimension(self):
        m = IntegerMatrix(rows=1, cols=4, entries=(3, 6, 9, 12))
        assert smith_normal_form(m) == (3,)

    def test_divisibility_chain_randomized(self):
        rng = random.Random(17)
        for _ in range(40):
            entries = tuple(rng.randint(-9, 9) for _ in range(12))
            m = IntegerMatrix(rows=3, cols=4, entries=entries)
            factors = smith_normal_form(m)
            assert len(factors) == 3
            assert all(d >= 0 for d in factors)
            for a, b in zip(factors, factors[1:]):
                if b != 0:
                    assert a != 0 and b % a == 0

    def test_matches_minor_gcd_oracle(self):
        rng = random.Random(19)
        for _ in range(40):
            rows = [[rng.randint(-6, 6) for _ in range(3)] for _ in range(3)]
            m = IntegerMatrix(
                rows=3, cols=3, entries=tuple(x for row in rows for x in row)
            )
            factors = smith_normal_form(m)
            previous = 1
            for k in range(1, 4):
                divisor = determinantal_divisor(rows, k)
                if divisor == 0:
                    assert factors[k - 1] == 0
                    previous = 0
                else:
                    assert previous != 0
                    assert factors[k - 1] == divisor // previous
                    previous = divisor

    def test_matches_sympy(self):
        sympy = pytest.importorskip("sympy")
        from sympy.matrices.normalforms import smith_normal_form as sympy_snf

        rng = random.Random(23)
        for trial in range(150):
            rows, cols = rng.randint(0, 5), rng.randint(0, 5)
            entries = [rng.randint(-9, 9) for _ in range(rows * cols)]
            if trial % 5 == 0:
                entries = [0] * (rows * cols)
            elif trial % 5 == 1 and rows > 1:
                # repeat a multiple of the first row: rank deficient
                entries[cols : 2 * cols] = [3 * x for x in entries[:cols]]
            ours = smith_normal_form(IntegerMatrix(rows, cols, tuple(entries)))
            theirs = sympy_snf(sympy.Matrix(rows, cols, entries), domain=sympy.ZZ)
            size = min(rows, cols)
            assert ours == tuple(abs(int(theirs[i, i])) for i in range(size)), entries

    def test_integer_rank(self):
        m = IntegerMatrix(rows=2, cols=3, entries=(1, 2, 3, 2, 4, 6))
        assert integer_rank(m) == 1
