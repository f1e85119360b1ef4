import random
from fractions import Fraction
from itertools import combinations, permutations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrcomp import (
    GaussianRational,
    Hyperplane,
    IntegerMatrix,
    Matrix,
    gauss,
    matrix_rank,
    rref,
    smith_normal_form,
    solve_affine,
)
from arrcomp.linalg import I, ONE, ZERO, projective_key
from oracles import rref_by_fractions


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


    def test_matches_sympy(self):
        sympy = pytest.importorskip("sympy")

        def to_sympy(z):
            return sympy.Rational(z.re.numerator, z.re.denominator) + sympy.I * sympy.Rational(
                z.im.numerator, z.im.denominator
            )

        def from_sympy(x):
            re, im = sympy.expand(x).as_real_imag()
            return gauss(Fraction(str(re)), Fraction(str(im)))

        rng = random.Random(29)
        for trial in range(100):
            rows, cols = rng.randint(1, 4), rng.randint(1, 6)
            entries = [
                [ZERO if rng.random() < 0.3 else rand_scalar(rng) for _ in range(cols)]
                for _ in range(rows)
            ]
            kind = trial % 4
            if kind == 0:
                # unit pivots on the diagonal, zeros below it
                for i in range(min(rows, cols)):
                    entries[i][i] = ONE
                    for below in range(i + 1, rows):
                        entries[below][i] = ZERO
            elif kind == 1:
                # a non-unit complex pivot in the first column
                entries[0][0] = gauss(rng.choice((2, -1, 3)), rng.choice((1, -2)))
            elif kind == 2:
                entries[rng.randrange(rows)] = [ZERO] * cols
            elif rows > 1:
                # the last row is i times the first plus the second: rank deficient
                entries[-1] = [I * a + b for a, b in zip(entries[0], entries[1 % (rows - 1)])]
            m = Matrix.from_rows(entries)
            reduced, rank, pivots = rref(m)
            theirs, their_pivots = sympy.Matrix(
                rows, cols, [to_sympy(x) for x in m.entries]
            ).rref()
            assert pivots == tuple(their_pivots), entries
            assert rank == len(their_pivots), entries
            assert reduced.entries == tuple(from_sympy(x) for x in theirs), entries

    def test_matches_fraction_oracle(self):
        rng = random.Random(31)
        big = 10**40

        def scalar(huge):
            if rng.random() < 0.3:
                return ZERO
            if huge:
                # 40-digit parts exercise coefficient growth and content division
                return gauss(
                    Fraction(rng.randrange(-big, big), rng.randrange(1, big)),
                    Fraction(rng.randrange(-big, big), rng.randrange(1, big)),
                )
            return rand_scalar(rng)

        for trial in range(2000):
            rows, cols = rng.randint(1, 5), rng.randint(1, 7)
            entries = [[scalar(trial % 25 == 0) for _ in range(cols)] for _ in range(rows)]
            kind = trial % 5
            if kind == 0:
                # a non-unit complex pivot in the first column
                entries[0][0] = gauss(rng.choice((2, -1, 3)), rng.choice((1, -2)))
            elif kind == 1:
                entries[rng.randrange(rows)] = [ZERO] * cols
            elif kind == 2:
                column = rng.randrange(cols)
                for row in entries:
                    row[column] = ZERO
            elif kind == 3 and rows > 1:
                # the last row is a complex multiple of the first plus the second
                factor = gauss(rng.randint(-3, 3), rng.randint(1, 3))
                entries[-1] = [factor * a + b for a, b in zip(entries[0], entries[1 % (rows - 1)])]
            m = Matrix.from_rows(entries)
            assert rref(m) == rref_by_fractions(m), entries


small_rationals = st.builds(Fraction, st.integers(-20, 20), st.integers(1, 12))
gaussians = st.one_of(
    st.builds(gauss, small_rationals), st.builds(gauss, small_rationals, small_rationals)
)
normals = st.lists(gaussians, min_size=1, max_size=4).filter(any)
nonzero_scalars = st.one_of(
    gaussians.filter(bool),
    st.builds(lambda p, q: gauss(Fraction(-p, q)), st.integers(1, 20), st.integers(1, 12)),
    st.builds(lambda p, q: gauss(0, Fraction(p, q)), st.integers(1, 20), st.integers(1, 12)),
)


def test_projective_key_properties():
    branches = set()

    @settings(derandomize=True, database=None, max_examples=100, deadline=None)
    @given(
        normal=normals,
        constant=gaussians,
        scale=nonzero_scalars,
        other=st.tuples(normals, gaussians),
        relation=st.sampled_from(("unrelated", "multiple", "perturbed")),
    )
    def check(normal, constant, scale, other, relation):
        row = tuple(normal) + (constant,)
        scaled = tuple(scale * x for x in row)
        for lead in (next(x for x in r if x) for r in (row, scaled)):
            branches.add("conjugate" if lead.im else "sign" if lead.re < 0 else "positive")
        assert projective_key(scaled) == projective_key(row)

        if relation == "unrelated":
            other_row = tuple(other[0]) + (other[1],)
        else:
            other_row = list(scaled)
            if relation == "perturbed":
                other_row[len(normal) - 1] += ONE
            other_row = tuple(other_row)
        if not any(other_row[:-1]):
            return
        same_hyperplane = (
            Hyperplane.make(row[:-1], row[-1]).canonical_form()
            == Hyperplane.make(other_row[:-1], other_row[-1]).canonical_form()
        )
        assert (projective_key(row) == projective_key(other_row)) == same_hyperplane

    check()
    assert {"conjugate", "sign"} <= branches


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
