import pytest
from hypothesis import given, strategies as st

from cellposet.checkers import (check_manifold_h, check_rp_h, check_sphere_h,
                                h_beta, r_value, sphere_h_geq)
from cellposet.constructions import (boundary_of_simplex,
                                     cross_polytope_quotient,
                                     parallel_edges_graph)
from cellposet.homology import betti_gf2, h_double_prime
from cellposet.posets import f_vector, from_graph, h_vector


class TestSphereH:
    def test_negative_entry(self):
        res = check_sphere_h((1, 0, 6, -1))
        assert not res and res.failed_condition == "nonnegativity"

    def test_simplex_boundary_vector(self):
        assert check_sphere_h((1, 1, 1, 1))

    def test_internal_zero_with_odd_sum(self):
        res = check_sphere_h((1, 0, 1, 0, 1))
        assert not res and "odd" in res.failed_condition

    def test_internal_zero_with_even_sum(self):
        assert check_sphere_h((1, 0, 0, 1))

    def test_asymmetric(self):
        assert not check_sphere_h((1, 2, 3, 1))

    def test_wrong_ends(self):
        assert not check_sphere_h((1, 5, 2))

    def test_too_short(self):
        with pytest.raises(ValueError):
            check_sphere_h((1,))

    @given(st.lists(st.integers(1, 9), min_size=0, max_size=3))
    def test_positive_symmetric_vectors_pass(self, half):
        body = half + half[::-1]
        assert check_sphere_h((1, *body, 1))

    def test_order_by_membership(self):
        assert sphere_h_geq((1, 2, 2, 1), (1, 1, 1, 1))
        assert not sphere_h_geq((1, 1, 1, 1), (1, 2, 2, 1))


class TestRValue:
    def test_even_case(self):
        assert r_value(4, 2) == 6

    def test_odd_case(self):
        assert r_value(3, 1) == 0

    def test_top_odd(self):
        assert r_value(3, 3) == -1

    def test_top_even(self):
        assert r_value(4, 4) == 0

    def test_out_of_range(self):
        with pytest.raises(ValueError):
            r_value(3, 0)
        with pytest.raises(ValueError):
            r_value(3, 4)


class TestRpH:
    def test_projective_plane_h(self):
        assert check_rp_h((1, 0, 3, 0), 3)

    def test_negative_shift_fails(self):
        res = check_rp_h((1, 0, 0, 0), 3)
        assert not res and "nonnegativity" in res.failed_condition

    @pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
    def test_quotient_h_vectors_pass(self, n):
        h = h_vector(f_vector(cross_polytope_quotient(n)))
        assert check_rp_h(h, n)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            check_rp_h((1, 0, 3, 0), 4)


class TestHBeta:
    def test_torus_data(self):
        assert h_beta((1, 0, 6, -1), (1, 2, 1)) == (1, 0, 0, 1)

    def test_trivial_beta_is_identity(self):
        h = (1, 4, -2, 7, 1)
        assert h_beta(h, (1, 0, 0, 0)) == h

    def test_matches_h_double_prime_on_manifolds(self, torus_graph):
        fixtures = [
            from_graph(torus_graph),
            boundary_of_simplex(3),
            cross_polytope_quotient(4),
            from_graph(parallel_edges_graph(4)),
        ]
        for p in fixtures:
            h = h_vector(f_vector(p))
            betti = betti_gf2(p)
            assert h_beta(h, (1,) + betti[1:]) == \
                   h_double_prime(h, betti)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            h_beta((1, 0, 0, 1), (1, 0, 0, 0))

    def test_beta_must_start_with_one(self):
        with pytest.raises(ValueError):
            h_beta((1, 0, 0, 1), (0, 1, 1))


class TestManifoldH:
    def test_sphere_vector(self):
        res = check_manifold_h((1, 0, 0, 0, 1), 4)
        assert res and res.witness == (1, 0, 0, 0)

    def test_search_finds_a_witness(self):
        res = check_manifold_h((1, 0, 6, 0, 1), 4)
        assert res and res.witness == (1, 0, 0, 0)

    def test_nontrivial_betti_needed(self):
        # at d = 6 the entry h_3 can be lifted by beta_1 > beta_2; this
        # vector is rejected with beta = 0 but accepted at (1,1,0,0,1,0)
        res = check_manifold_h((1, 0, 15, -20, 15, 0, 1), 6)
        assert res and res.witness == (1, 1, 0, 0, 1, 0)
        assert h_beta((1, 0, 15, -20, 15, 0, 1), res.witness) == \
               (1, 0, 0, 0, 0, 0, 1)

    def test_exhaustive_rejection(self):
        res = check_manifold_h((1, 0, 1, 1, 1), 4)
        assert not res and res.witness is None

    def test_odd_d_rejected(self):
        with pytest.raises(ValueError):
            check_manifold_h((1, 0, 0, 1), 3)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            check_manifold_h((1, 0, 0, 1), 4)

    def test_monotone_under_sphere_sums(self):
        # adding a sphere h-vector (minus the overlap) keeps acceptance
        base = (1, 0, 6, 0, 1)
        sphere = (1, 3, 3, 3, 1)
        summed = tuple(
            b + s - c for b, s, c in zip(base, sphere, (1, 0, 0, 0, 1)))
        assert check_manifold_h(base, 4)
        assert check_manifold_h(summed, 4)
