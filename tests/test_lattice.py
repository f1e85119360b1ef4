import gc
import weakref

import pytest

from arrcomp import (
    FlatNotFoundError,
    betti_numbers,
    braid_arrangement,
    char_poly,
    deletion,
    fiber_type,
    intersection_poset,
    is_modular,
    make_arrangement,
    mobius,
    restriction,
)
from oracles import (
    expand_tower_product,
    mobius_by_chains,
    mobius_by_subsets,
    random_arrangements,
    random_gaussian_arrangements,
)


class TestMobius:
    def test_single_hyperplane(self):
        poset = intersection_poset(make_arrangement(1, [((1,), 0)]))
        assert mobius(poset) == {0: 1, 1: -1}

    def test_braid2_triple_line(self):
        poset = intersection_poset(braid_arrangement(2))
        table = mobius(poset)
        top = poset.top_id()
        assert table[top] == 2

    def test_coordinate_origin(self):
        poset = intersection_poset(make_arrangement(2, [((1, 0), 0), ((0, 1), 0)]))
        table = mobius(poset)
        assert table[poset.top_id()] == 1

    def test_recursion_identity(self, corpus_posets):
        for name, poset in corpus_posets.items():
            table = mobius(poset)
            for flat in poset.flats:
                total = sum(
                    table[other.id]
                    for other in poset.flats
                    if poset.leq(other.id, flat.id)
                )
                expected = 1 if flat.codim == 0 else 0
                assert total == expected, name

    def test_chain_count_oracle(self, corpus_posets):
        for name, poset in corpus_posets.items():
            assert len(poset) <= 30, name
            table = mobius(poset)
            for flat in poset.flats:
                assert table[flat.id] == mobius_by_chains(poset, flat.id), name

    def test_subset_oracle(self, corpus_arrangements, corpus_posets):
        for name, arrangement in corpus_arrangements.items():
            poset = corpus_posets[name]
            assert mobius(poset) == mobius_by_subsets(arrangement, poset), name


class TestCharPoly:
    def test_empty_arrangement(self):
        a = make_arrangement(3, [])
        assert char_poly(a) == [0, 0, 0, 1]

    def test_braid2(self):
        assert char_poly(braid_arrangement(2)) == [0, 2, -3, 1]

    def test_generic4(self):
        a = make_arrangement(
            3, [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0), ((1, 1, 1), 0)]
        )
        assert char_poly(a) == [-3, 6, -4, 1]

    def test_monic(self, corpus_arrangements, corpus_posets):
        for name, a in corpus_arrangements.items():
            coeffs = char_poly(a, corpus_posets[name])
            assert len(coeffs) == a.ambient_dim + 1, name
            assert coeffs[-1] == 1, name

    def test_deletion_restriction_randomized(self):
        for a in random_arrangements(23, 50):
            chi = char_poly(a)
            for h in range(a.size):
                smaller = char_poly(deletion(a, h))
                induced = char_poly(restriction(a, h))
                assert chi == [
                    s - i for s, i in zip(smaller, list(induced) + [0])
                ]


class TestBetti:
    def test_single_hyperplane(self):
        assert betti_numbers(make_arrangement(4, [((1, 0, 0, 0), 0)])) == [1, 1, 0, 0, 0]

    def test_braid2(self):
        assert betti_numbers(braid_arrangement(2)) == [1, 3, 2, 0]

    def test_two_parallel_points(self):
        a = make_arrangement(1, [((1,), 0), ((1,), 1)])
        assert betti_numbers(a) == [1, 2]

    def test_braid_b1_counts(self, braid_data):
        for n, (arrangement, poset, _, _) in braid_data.items():
            betti = betti_numbers(arrangement, poset)
            assert betti[0] == 1
            assert betti[1] == n * (n + 1) // 2

    def test_vanishing_above_rank(self, corpus_arrangements, corpus_posets):
        for name, a in corpus_arrangements.items():
            poset = corpus_posets[name]
            betti = betti_numbers(a, poset)
            for k in range(poset.rank + 1, a.ambient_dim + 1):
                assert betti[k] == 0, name

    def test_mobius_signs_and_per_codim_sums(self, corpus_arrangements):
        # betti_numbers reads |chi(t)| coefficientwise, which is the sum of
        # |mu| over each codimension only if mu(X) has sign (-1)^codim(X)
        inputs = (
            list(corpus_arrangements.values())
            + [braid_arrangement(n) for n in range(1, 5)]
            + list(random_gaussian_arrangements(11, 40))
            + list(random_arrangements(5, 40))
        )
        assert sum(not a.is_central() for a in inputs) >= 5
        for a in inputs:
            poset = intersection_poset(a)
            table = mobius(poset)
            by_codim = [0] * (a.ambient_dim + 1)
            for flat in poset.flats:
                assert (-1) ** flat.codim * table[flat.id] > 0
                by_codim[flat.codim] += abs(table[flat.id])
            assert betti_numbers(a, poset) == by_codim


class TestModular:
    def test_bottom_always_modular(self, corpus_posets):
        for poset in corpus_posets.values():
            assert is_modular(poset, 0)

    def test_rank2_hyperplanes_modular(self):
        poset = intersection_poset(
            make_arrangement(2, [((1, 0), 0), ((0, 1), 0), ((1, 1), 0)])
        )
        for fid in poset.rank_layers[1]:
            assert is_modular(poset, fid)

    def test_generic4_line_not_modular(self):
        a = make_arrangement(
            3, [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0), ((1, 1, 1), 0)]
        )
        poset = intersection_poset(a)
        # the line x = y = 0 is cut by hyperplanes 0 and 1 only
        target = None
        for fid in poset.rank_layers[2]:
            if poset.flats[fid].generators == frozenset({0, 1}):
                target = fid
        assert target is not None
        assert not is_modular(poset, target)

    def test_unknown_flat(self):
        poset = intersection_poset(braid_arrangement(1))
        with pytest.raises(FlatNotFoundError):
            is_modular(poset, 42)


class TestFiberType:
    def test_point_in_line(self):
        tower = fiber_type(make_arrangement(1, [((1,), 0)]))
        assert tower is not None
        assert tower.fiber_ranks == (1,)
        assert not tower.affine

    def test_search_frees_the_poset_without_the_cycle_collector(self):
        arrangement = braid_arrangement(3)
        poset = intersection_poset(arrangement)
        alive = weakref.ref(poset)
        gc.disable()
        try:
            assert fiber_type(arrangement, poset) is not None
            del poset
            assert alive() is None
        finally:
            gc.enable()

    def test_braid_towers(self, braid_data):
        for n, (_, _, tower, _) in braid_data.items():
            assert tower is not None
            assert tower.fiber_ranks == tuple(range(1, n + 1))
            assert sum(tower.fiber_ranks) == n * (n + 1) // 2

    def test_generic4_absent(self):
        a = make_arrangement(
            3, [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0), ((1, 1, 1), 0)]
        )
        assert fiber_type(a) is None

    def test_affine_flag_on_translated_center(self, corpus_arrangements):
        tower = fiber_type(corpus_arrangements["shifted-center"])
        assert tower is not None
        assert tower.affine
        assert tower.fiber_ranks == (1, 2)

    def test_no_common_point_absent(self, corpus_arrangements):
        assert fiber_type(corpus_arrangements["parallel-mixed"]) is None
        assert fiber_type(corpus_arrangements["two-points"]) is None

    def test_chain_is_modular_and_nested(self, corpus_arrangements, corpus_posets):
        for name, a in corpus_arrangements.items():
            poset = corpus_posets[name]
            tower = fiber_type(a, poset)
            if tower is None or not tower.chain:
                continue
            previous = None
            for level, fid in enumerate(tower.chain, start=1):
                assert poset.flats[fid].codim == level, name
                assert is_modular(poset, fid), name
                if previous is not None:
                    assert poset.lt(previous, fid), name
                previous = fid
            assert fid == poset.top_id(), name
            assert sum(tower.fiber_ranks) == a.size, name

    def test_factorization_witness(self, corpus_arrangements, corpus_posets, braid_data):
        for name, a in corpus_arrangements.items():
            poset = corpus_posets[name]
            tower = fiber_type(a, poset)
            if tower is None:
                continue
            expected = expand_tower_product(a.ambient_dim, tower.fiber_ranks)
            assert char_poly(a, poset) == expected, name
        for n, (a, poset, tower, _) in braid_data.items():
            expected = expand_tower_product(a.ambient_dim, tower.fiber_ranks)
            assert char_poly(a, poset) == expected
