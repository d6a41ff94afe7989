from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from cellposet.checkers import (CheckResult, check_manifold_h, check_rp_h,
                                check_sphere_h, r_value, sphere_h_geq)
from cellposet.constructions import (boundary_of_simplex,
                                     cross_polytope_quotient,
                                     parallel_edges_graph,
                                     product_spheres_graph)
from cellposet.homology import betti_gf2, h_double_prime
from cellposet.posets import f_vector, from_graph, h_vector

NO_BETTI_VECTOR = ("no symmetric Betti vector makes the transform a sphere "
                   "h-vector")


def h_beta(h, beta) -> tuple[int, ...]:
    """The transform of `h` (even d = len(h) - 1) by a symmetric Betti
    vector beta = (1, beta_1, ..., beta_{d-1}): h'' of `h` with beta_0 = 0
    and the top Betti number read off h_d.  Entry 0 is 1 whatever h_0 is.
    """
    d = len(h) - 1
    return h_double_prime(h, (0, *beta[1:d - 1], h[d]))


def search_manifold_h(h, d: int) -> CheckResult:
    """Oracle for check_manifold_h: exhaustive search, in lexicographic
    order, over nonnegative symmetric Betti vectors beta with
    beta_{d-1} = 0 for one whose transform passes check_sphere_h.
    Nonnegativity of transform entry k+1 bounds the choice of beta_k, so
    the search ends, but its run time grows with the entries of h."""
    h = tuple(h)
    n_free = (d - 2) // 2           # beta_1 .. beta_{(d-2)/2}; mirrors fill the rest

    def full_beta(free: list[int]) -> tuple[int, ...]:
        beta = [0] * d
        beta[0] = 1
        for i, val in enumerate(free, start=1):
            beta[i] = val
            beta[d - 1 - i] = val
        return tuple(beta)

    def search(free: list[int], partial_sum: int) -> tuple[int, ...] | None:
        k = len(free) + 1
        if len(free) == n_free:
            beta = full_beta(free)
            return beta if check_sphere_h(h_beta(h, beta)) else None
        # transform entry k+1 must stay nonnegative:
        #   sum_{l<=k+1} (-1)^(l-k-1) beta_{l-1} <= h_{k+1} / C(d, k+1)
        bound = h[k + 1] // comb(d, k + 1) + partial_sum
        for val in range(0, bound + 1):
            found = search(free + [val], val - partial_sum)
            if found is not None:
                return found
        return None

    witness = search([], 0) if h[0] == 1 else None
    if witness is None:
        return CheckResult(False, NO_BETTI_VECTOR)
    return CheckResult(True, witness=witness)


def explicit_rp_h(h, n: int) -> bool:
    """Oracle for check_rp_h: the sphere conditions written out on the
    shifted entries, with the parity test on the unshifted sum(h)."""
    shifted = [h[0]] + [h[i] - r_value(n, i) for i in range(1, n + 1)]
    return (all(x >= 0 for x in shifted[1:n])
            and shifted[0] == shifted[n] == 1
            and all(shifted[i] == shifted[n - i] for i in range(1, n))
            and not (0 in shifted[1:n] and sum(h) % 2 == 1))


@st.composite
def rp_candidates(draw):
    """(h, n) whose shifted vector has small entries, zeros and negatives,
    and is mostly symmetric."""
    n = draw(st.integers(2, 7))
    half = [draw(st.sampled_from([1, 1, 1, 0]))]
    half += [draw(st.integers(-1, 2)) for _ in range(n // 2)]
    shifted = half + half[:n + 1 - len(half)][::-1]
    if draw(st.integers(0, 4)) == 0:
        shifted[draw(st.integers(0, n))] += draw(st.sampled_from([-1, 1]))
    return ((shifted[0],) + tuple(shifted[i] + r_value(n, i)
                                  for i in range(1, n + 1)), n)


@st.composite
def manifold_candidates(draw):
    """Vectors near the boundary of acceptance: entries k >= 2 within a
    few units of a multiple of C(d, k), mostly symmetric, with negative
    entries and the occasional wrong end."""
    d = draw(st.sampled_from([2, 4, 6, 8]))
    half = [draw(st.sampled_from([1, 1, 1, 1, 0, 2])),
            draw(st.integers(-2, 4))]
    for k in range(2, d // 2 + 1):
        half.append(comb(d, k) * draw(st.integers(-2, 3))
                    + draw(st.integers(-2, 2)))
    h = half + half[:-1][::-1]
    if draw(st.integers(0, 9)) == 0:
        i = draw(st.integers(0, d))
        h[i] += draw(st.sampled_from([-1, 1]))
    return tuple(h), d


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

    @given(rp_candidates())
    def test_is_the_sphere_test_on_the_shifted_vector(self, case):
        h, n = case
        shifted = (h[0],) + tuple(h[i] - r_value(n, i) for i in range(1, n + 1))
        res, sphere = check_rp_h(h, n), check_sphere_h(shifted)
        assert res.ok == sphere.ok == explicit_rp_h(h, n)
        if not res:
            assert res.failed_condition == "shifted " + sphere.failed_condition


def odd_dimensional_manifolds() -> list:
    """Closed manifolds of odd dimension d - 1 (even d): S^3 twice, RP^3,
    RP^5, S^1 x S^2 and S^2 x S^3."""
    return [boundary_of_simplex(4), from_graph(parallel_edges_graph(4)),
            cross_polytope_quotient(4), cross_polytope_quotient(6),
            from_graph(product_spheres_graph(1, 2)),
            from_graph(product_spheres_graph(2, 3))]


class TestHBeta:
    """The oracle's transform."""

    def test_trivial_beta_is_identity(self):
        h = (1, 4, -2, 7, 1)
        assert h_beta(h, (1, 0, 0, 0)) == h

    def test_matches_h_double_prime_on_manifolds(self):
        for p in odd_dimensional_manifolds():
            h = h_vector(f_vector(p))
            betti = betti_gf2(p)
            assert h_beta(h, (1,) + betti[1:]) == h_double_prime(h, betti)


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
        assert res.failed_condition == NO_BETTI_VECTOR

    def test_large_asymmetric_d8_vector_is_rejected(self):
        # the search of the oracle does not finish on this vector
        res = check_manifold_h((1, 80, 2800, 56000, 70000, 56000, 2800, 81, 1), 8)
        assert not res and res.witness is None

    @settings(max_examples=500)
    @given(manifold_candidates())
    def test_matches_the_search_oracle(self, case):
        h, d = case
        assert check_manifold_h(h, d) == search_manifold_h(h, d)

    def test_accepts_odd_dimensional_manifolds(self):
        for p in odd_dimensional_manifolds():
            h = h_vector(f_vector(p))
            res = check_manifold_h(h, p.d)
            assert res and check_sphere_h(h_beta(h, res.witness))

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
