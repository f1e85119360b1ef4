import random

import pytest

from arrcomp import (
    DimensionMismatchError,
    DuplicateHyperplaneError,
    FlatNotFoundError,
    IndexOutOfRangeError,
    ZeroNormalError,
    braid_arrangement,
    deletion,
    gauss,
    intersection_poset,
    make_arrangement,
    restriction,
)
from arrcomp.errors import InvalidParameterError
from arrcomp.linalg import Matrix, rref
from oracles import flats_by_subsets, random_gaussian_arrangements


class TestMakeArrangement:
    def test_single_point_in_line(self):
        a = make_arrangement(1, [((1,), 0)])
        assert a.ambient_dim == 1
        assert a.size == 1
        assert a.is_central()

    def test_zero_normal_rejected(self):
        with pytest.raises(ZeroNormalError):
            make_arrangement(2, [((0, 0), 1)])

    def test_scalar_multiple_rejected(self):
        with pytest.raises(DuplicateHyperplaneError):
            make_arrangement(2, [((1, 0), 0), ((2, 0), 0)])

    def test_complex_scalar_multiple_rejected(self):
        # i * (x + iy = 0) defines the same hyperplane
        with pytest.raises(DuplicateHyperplaneError):
            make_arrangement(2, [((1, gauss(0, 1)), 0), ((gauss(0, 1), -1), 0)])

    def test_parallel_forms_are_distinct(self):
        a = make_arrangement(1, [((1,), 0), ((1,), 1)])
        assert a.size == 2
        assert not a.is_central()

    def test_wrong_length_normal(self):
        with pytest.raises(DimensionMismatchError):
            make_arrangement(3, [((1, 0), 0)])

    def test_label_count_must_match(self):
        with pytest.raises(DimensionMismatchError):
            make_arrangement(1, [((1,), 0)], labels=["a", "b"])

    def test_empty_arrangement(self):
        a = make_arrangement(4, [])
        assert a.size == 0
        assert a.is_central()

    def test_default_labels(self):
        a = make_arrangement(2, [((1, 0), 0), ((0, 1), 0)])
        assert a.label(1) == "H1"


class TestBraidArrangement:
    def test_hyperplane_counts(self):
        for n in range(1, 11):
            a = braid_arrangement(n)
            assert a.ambient_dim == n + 1
            assert a.size == n * (n + 1) // 2

    def test_labels(self):
        a = braid_arrangement(2)
        assert a.labels == ("H_{01}", "H_{02}", "H_{12}")

    def test_rejects_zero(self):
        with pytest.raises(InvalidParameterError):
            braid_arrangement(0)

    def test_forms_are_differences(self):
        a = braid_arrangement(3)
        for h in a.hyperplanes:
            coeffs = [c for c in h.normal if c]
            assert len(coeffs) == 2
            assert coeffs[0] + coeffs[1] == 0
            assert h.constant == 0


class TestIntersectionPoset:
    def test_braid2_five_flats(self):
        poset = intersection_poset(braid_arrangement(2))
        assert len(poset) == 5
        assert {c: len(ids) for c, ids in poset.rank_layers.items()} == {0: 1, 1: 3, 2: 1}
        top = poset.top_id()
        assert top is not None
        assert poset.flats[top].codim == 2
        # the triple line lies on all three hyperplanes
        assert poset.flats[top].generators == frozenset({0, 1, 2})

    def test_parallel_points_have_no_join(self):
        a = make_arrangement(1, [((1,), 0), ((1,), 1)])
        poset = intersection_poset(a)
        assert len(poset) == 3
        assert poset.top_id() is None
        one, two = poset.rank_layers[1]
        assert poset.join(one, two) is None
        assert poset.meet(one, two) == 0

    def test_coordinate_lines(self):
        a = make_arrangement(2, [((1, 0), 0), ((0, 1), 0)])
        poset = intersection_poset(a)
        assert len(poset) == 4
        assert poset.rank == 2

    def test_codim_equals_normal_rank(self, corpus_posets):
        from arrcomp.linalg import Matrix, matrix_rank

        for name, poset in corpus_posets.items():
            arrangement = poset.arrangement
            for flat in poset.flats:
                rows = [
                    list(arrangement.hyperplanes[i].normal)
                    for i in sorted(flat.generators)
                ]
                m = Matrix.from_rows(rows, cols=arrangement.ambient_dim)
                assert matrix_rank(m) == flat.codim, name

    def test_permutation_invariance(self):
        base = [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0), ((1, 1, 1), 0)]
        reference = intersection_poset(make_arrangement(3, base))
        reference_keys = {f.key() for f in reference.flats}
        rng = random.Random(3)
        for _ in range(6):
            shuffled = base[:]
            rng.shuffle(shuffled)
            poset = intersection_poset(make_arrangement(3, shuffled))
            assert {f.key() for f in poset.flats} == reference_keys
            assert {c: len(ids) for c, ids in poset.rank_layers.items()} == {
                c: len(ids) for c, ids in reference.rank_layers.items()
            }

    def test_intersecting_flats_have_joins(self, corpus_posets):
        # pairs whose subspaces share a point must have a least upper bound
        for name, poset in corpus_posets.items():
            for x in poset.flats:
                for y in poset.flats:
                    join = poset.join(x.id, y.id)
                    if join is None:
                        continue
                    assert poset.leq(x.id, join) and poset.leq(y.id, join)
                    for candidate in poset.flats:
                        if poset.leq(x.id, candidate.id) and poset.leq(
                            y.id, candidate.id
                        ):
                            assert poset.leq(join, candidate.id), name

    def test_flats_match_subset_oracle(self, corpus_arrangements):
        randoms = list(random_gaussian_arrangements(11, 40))
        arrangements = (
            list(corpus_arrangements.values())
            + [braid_arrangement(n) for n in (1, 2, 3)]
            + randoms
        )
        for a in arrangements:
            poset = intersection_poset(a)
            expected = flats_by_subsets(a)
            assert len(poset) == len(expected), a
            assert {(f.codim, f.generators) for f in poset.flats} == expected, a
            width = a.ambient_dim + 1
            for flat in poset.flats:
                rows = [
                    a.hyperplanes[k].normal + (a.hyperplanes[k].constant,)
                    for k in sorted(flat.generators)
                ]
                reduced, rank, _ = rref(Matrix.from_rows(rows, cols=width))
                assert flat.system == Matrix(rank, width, reduced.entries[: rank * width])
        # parallel pairs exercise covers that turn out empty
        parallel = sum(
            len({h.canonical_form()[:-1] for h in a.hyperplanes}) < a.size
            for a in randoms
        )
        assert parallel >= 5

    def test_flat_lookup_error(self):
        poset = intersection_poset(braid_arrangement(1))
        with pytest.raises(FlatNotFoundError):
            poset.flat(99)


class TestDeletionRestriction:
    def test_deletion_drops_one(self):
        a = braid_arrangement(2)
        for h in range(3):
            d = deletion(a, h)
            assert d.size == 2
            assert d.ambient_dim == 3

    def test_braid2_restriction_merges(self):
        # both remaining hyperplanes cut the same line on H_{01}
        a = braid_arrangement(2)
        r = restriction(a, 0)
        assert r.ambient_dim == 2
        assert r.size == 1

    def test_generic_lines_restriction(self):
        a = make_arrangement(2, [((1, 0), 0), ((0, 1), 0)])
        r = restriction(a, 0)
        assert r.ambient_dim == 1
        assert r.size == 1

    def test_parallel_hyperplane_skipped(self):
        a = make_arrangement(1, [((1,), 0), ((1,), 1)])
        r = restriction(a, 0)
        assert r.ambient_dim == 0
        assert r.size == 0

    def test_bad_index(self):
        a = braid_arrangement(1)
        with pytest.raises(IndexOutOfRangeError):
            deletion(a, 5)
        with pytest.raises(IndexOutOfRangeError):
            restriction(a, -1)
