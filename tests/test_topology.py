import gc
import weakref
from itertools import combinations

import pytest

from arrcomp import (
    FlatNotFoundError,
    SimplicialComplex,
    betti_numbers,
    braid_arrangement,
    gm_wedge,
    intersection_poset,
    make_arrangement,
    order_complex_below,
    reduced_homology,
    suspension_wedge,
)
from arrcomp.errors import InvalidParameterError
from oracles import random_gaussian_arrangements, wedge_by_homology


class TestSimplicialComplex:
    def test_from_faces_closes_downward(self):
        c = SimplicialComplex.from_faces([(1, 2, 3)])
        assert c.dimension == 2
        assert len(c.simplices) == 7
        assert c.faces_of_dim(0) == [(1,), (2,), (3,)]

    def test_missing_face_rejected(self):
        with pytest.raises(InvalidParameterError):
            SimplicialComplex(
                vertices=(1, 2), simplices=frozenset({frozenset({1, 2})})
            )

    def test_empty(self):
        c = SimplicialComplex(vertices=(), simplices=frozenset())
        assert c.is_empty
        assert c.dimension == -1


class TestOrderComplexBelow:
    def test_hyperplane_flat_is_empty(self):
        poset = intersection_poset(braid_arrangement(2))
        for fid in poset.rank_layers[1]:
            assert order_complex_below(poset, fid).is_empty

    def test_braid2_top_three_points(self):
        poset = intersection_poset(braid_arrangement(2))
        c = order_complex_below(poset, poset.top_id())
        assert len(c.vertices) == 3
        assert c.dimension == 0

    def test_triple_line_origin_three_points(self):
        a = make_arrangement(2, [((1, 0), 0), ((0, 1), 0), ((1, 1), 0)])
        poset = intersection_poset(a)
        c = order_complex_below(poset, poset.top_id())
        assert len(c.vertices) == 3
        assert c.dimension == 0

    def test_coords3_origin_is_hexagon(self):
        a = make_arrangement(3, [((1, 0, 0), 0), ((0, 1, 0), 0), ((0, 0, 1), 0)])
        poset = intersection_poset(a)
        c = order_complex_below(poset, poset.top_id())
        assert len(c.faces_of_dim(0)) == 6
        assert len(c.faces_of_dim(1)) == 6
        assert c.dimension == 1

    def test_unknown_flat(self):
        poset = intersection_poset(braid_arrangement(1))
        with pytest.raises(FlatNotFoundError):
            order_complex_below(poset, 9)

    def test_frees_the_poset_without_the_cycle_collector(self):
        poset = intersection_poset(braid_arrangement(3))
        alive = weakref.ref(poset)
        gc.disable()
        try:
            assert order_complex_below(poset, poset.top_id()).dimension == 1
            del poset
            assert alive() is None
        finally:
            gc.enable()


class TestReducedHomology:
    def test_empty_complex_trivial(self):
        h = reduced_homology(SimplicialComplex(vertices=(), simplices=frozenset()))
        assert h.groups == ()
        assert h.is_trivial

    def test_three_points(self):
        c = SimplicialComplex.from_faces([(1,), (2,), (3,)])
        h = reduced_homology(c)
        assert h.free_rank(0) == 2
        assert h.torsion(0) == ()

    def test_hollow_triangle(self):
        c = SimplicialComplex.from_faces([(1, 2), (1, 3), (2, 3)])
        h = reduced_homology(c)
        assert h.free_rank(0) == 0
        assert h.free_rank(1) == 1

    def test_simplex_boundaries(self):
        # boundary of a k-simplex is a (k-1)-sphere for k up to 4
        for k in range(1, 5):
            vertices = tuple(range(k + 1))
            faces = list(combinations(vertices, k))
            h = reduced_homology(SimplicialComplex.from_faces(faces))
            for degree in range(k):
                expected = 1 if degree == k - 1 else 0
                assert h.free_rank(degree) == expected, k
                assert h.torsion(degree) == (), k

    def test_filled_simplex_contractible(self):
        h = reduced_homology(SimplicialComplex.from_faces([(1, 2, 3, 4)]))
        assert h.is_trivial

    def test_projective_plane_torsion(self):
        faces = [
            (1, 2, 5), (1, 2, 6), (1, 3, 4), (1, 3, 6), (1, 4, 5),
            (2, 3, 4), (2, 3, 5), (2, 4, 6), (3, 5, 6), (4, 5, 6),
        ]
        h = reduced_homology(SimplicialComplex.from_faces(faces))
        assert h.free_rank(0) == 0
        assert h.free_rank(1) == 0
        assert h.torsion(1) == (2,)
        assert h.free_rank(2) == 0


class TestSuspensionWedge:
    def test_single_hyperplane(self):
        w = suspension_wedge(make_arrangement(1, [((1,), 0)]))
        assert w.sphere_dims == (2,)

    def test_braid2(self):
        assert suspension_wedge(braid_arrangement(2)).sphere_dims == (2, 2, 2)

    def test_empty_arrangement(self):
        assert suspension_wedge(make_arrangement(3, [])).sphere_dims == ()

    def test_always_n_two_spheres(self, corpus_arrangements):
        for name, a in corpus_arrangements.items():
            w = suspension_wedge(a)
            assert w.sphere_dims == (2,) * a.size, name
            assert w.warnings == (), name


class TestGmWedge:
    def test_single_hyperplane_high_dim(self):
        w = gm_wedge(make_arrangement(4, [((1, 0, 0, 0), 0)]))
        assert w.sphere_dims == (2,)
        assert w.warnings == ()

    def test_braid2(self):
        w = gm_wedge(braid_arrangement(2))
        assert w.sphere_dims == (2, 2, 2, 3, 3)
        assert any("diverges" in msg for msg in w.warnings)

    def test_coords2(self):
        w = gm_wedge(make_arrangement(2, [((1, 0), 0), ((0, 1), 0)]))
        assert w.sphere_dims == (2, 2, 3)

    def test_codim_one_layer_matches_suspension(self, corpus_arrangements, corpus_posets):
        for name, a in corpus_arrangements.items():
            w = gm_wedge(a, corpus_posets[name])
            assert w.counts().get(2, 0) == a.size, name

    def test_counts_match_betti(self, corpus_arrangements, corpus_posets):
        for name, a in corpus_arrangements.items():
            poset = corpus_posets[name]
            w = gm_wedge(a, poset)
            betti = betti_numbers(a, poset)
            counts = w.counts()
            for k in range(1, a.ambient_dim + 1):
                assert counts.get(k + 1, 0) == betti[k], name

    def test_no_warning_without_deep_flats(self, corpus_arrangements, corpus_posets):
        for name in ("point", "two-points"):
            w = gm_wedge(corpus_arrangements[name], corpus_posets[name])
            assert w.warnings == (), name
            assert w.sphere_dims == suspension_wedge(corpus_arrangements[name]).sphere_dims

    def test_matches_order_complex_homology_on_corpus(
        self, corpus_arrangements, corpus_posets
    ):
        for name, a in corpus_arrangements.items():
            poset = corpus_posets[name]
            dims, torsion = wedge_by_homology(poset)
            assert torsion == [], name
            assert gm_wedge(a, poset).sphere_dims == dims, name

    def test_matches_order_complex_homology_on_random_inputs(self):
        complex_, affine, parallel = 0, 0, 0
        for a in random_gaussian_arrangements(11, 40):
            poset = intersection_poset(a)
            dims, torsion = wedge_by_homology(poset)
            assert torsion == [], a
            assert gm_wedge(a, poset).sphere_dims == dims, a
            complex_ += any(x.im for h in a.hyperplanes for x in h.normal)
            affine += not a.is_central()
            directions = {h.canonical_form()[:-1] for h in a.hyperplanes}
            parallel += len(directions) < a.size
        # the stream must exercise every kind of input it is meant to
        assert min(complex_, affine, parallel) >= 5
