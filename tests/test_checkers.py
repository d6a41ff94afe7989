import time
from math import comb

import pytest
from hypothesis import given, settings, strategies as st

from cellposet.checkers import (CheckResult, check_manifold_h, check_rp_h,
                                check_sphere_h)
from cellposet.constructions import (boundary_of_simplex,
                                     cross_polytope_quotient,
                                     parallel_edges_graph,
                                     product_spheres_graph)
from cellposet.homology import betti_gf2, h_double_prime
from cellposet.posets import f_vector, from_graph, h_vector

from conftest import r_value

NO_BETTI_VECTOR = ("no symmetric Betti vector makes the transform a sphere "
                   "h-vector")


def search_manifold_h(h, d: int) -> CheckResult:
    """Oracle for check_manifold_h: exhaustive search, in lexicographic
    order, over reduced Betti vectors beta = (0, beta_1, ..., beta_{d-2}, 1)
    with a nonnegative symmetric interior for one that makes
    h_double_prime(h, beta) pass check_sphere_h.  That h'' has the ends 1
    and beta_{d-1} = 1 whatever h is, so h_0 = h_d = 1 is checked apart.
    Nonnegativity of h'' entry k+1 bounds the choice of beta_k, so the
    search ends, but its run time grows with the entries of h."""
    h = tuple(h)
    n_free = (d - 2) // 2           # beta_1 .. beta_{(d-2)/2}; mirrors fill the rest

    def full_beta(free: list[int]) -> tuple[int, ...]:
        beta = [0] * d
        beta[d - 1] = 1
        for i, val in enumerate(free, start=1):
            beta[i] = val
            beta[d - 1 - i] = val
        return tuple(beta)

    def search(free: list[int], partial_sum: int) -> tuple[int, ...] | None:
        k = len(free) + 1
        if len(free) == n_free:
            beta = full_beta(free)
            return beta if check_sphere_h(h_double_prime(h, beta)) else None
        # h'' entry k+1 must stay nonnegative:
        #   sum_{l<=k+1} (-1)^(l-k-1) beta_{l-1} <= h_{k+1} / C(d, k+1)
        bound = h[k + 1] // comb(d, k + 1) + partial_sum
        for val in range(0, bound + 1):
            found = search(free + [val], val - partial_sum)
            if found is not None:
                return found
        return None

    witness = search([], 0) if h[0] == h[d] == 1 else None
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


class TestRValue:
    """The closed form of r(n, i) in the tests, checked by hand."""

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


def rp_h_double_prime(h, n: int) -> CheckResult:
    """The sphere test on h'' of `h` under the reduced Betti vector
    (0, 1, ..., 1) of RP^(n-1)."""
    return check_sphere_h(h_double_prime(h, (0,) + (1,) * (n - 1)))


@pytest.mark.parametrize("decide,failed", [
    (check_manifold_h, None), (check_rp_h, "shifted nonnegativity"),
    (rp_h_double_prime, "nonnegativity")])
def test_deciders_take_linear_time(decide, failed):
    # a binomial per entry took over 30 s at this size
    start = time.perf_counter()
    result = decide((1,) * 20001, 20000)
    assert time.perf_counter() - start < 2
    assert (result.ok, result.failed_condition) == (failed is None, failed)


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

    @pytest.mark.parametrize("n,h", [(0, (1,)), (-5, (1, 2)), (-1, ())])
    def test_n_below_one_is_refused_first(self, n, h):
        with pytest.raises(ValueError, match=rf"^need n >= 1, got n={n}$"):
            check_rp_h(h, n)

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


class TestManifoldH:
    def test_sphere_vector(self):
        res = check_manifold_h((1, 0, 0, 0, 1), 4)
        assert res and res.witness == (0, 0, 0, 1)

    def test_search_finds_a_witness(self):
        res = check_manifold_h((1, 0, 6, 0, 1), 4)
        assert res and res.witness == (0, 0, 0, 1)

    def test_nontrivial_betti_needed(self):
        # at d = 6 the entry h_3 can be lifted by beta_1 > beta_2; this
        # vector is rejected with the sphere's beta but accepted at
        # (0,1,0,0,1,1)
        res = check_manifold_h((1, 0, 15, -20, 15, 0, 1), 6)
        assert res and res.witness == (0, 1, 0, 0, 1, 1)
        assert h_double_prime((1, 0, 15, -20, 15, 0, 1), res.witness) == \
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
        res = check_manifold_h(h, d)
        assert res == search_manifold_h(h, d)
        if res:
            beta = res.witness
            assert beta[0] == 0 and beta[d - 1] == 1
            assert beta[1:d - 1] == beta[d - 2:0:-1]
            assert check_sphere_h(h_double_prime(h, beta))

    def test_accepts_odd_dimensional_manifolds(self):
        for p in odd_dimensional_manifolds():
            h = h_vector(f_vector(p))
            res = check_manifold_h(h, p.d)
            assert res and check_sphere_h(h_double_prime(h, res.witness))
            # the manifold's own Betti vector is a witness too
            assert check_sphere_h(h_double_prime(h, betti_gf2(p)))

    def test_odd_d_rejected(self):
        with pytest.raises(ValueError):
            check_manifold_h((1, 0, 0, 1), 3)

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            check_manifold_h((1, 0, 0, 1), 4)

    @pytest.mark.parametrize("d,h", [(0, (1,)), (-2, (1, 2)), (-4, ())])
    def test_d_below_two_is_refused_first(self, d, h):
        with pytest.raises(ValueError, match=rf"^need d >= 2, got d={d}$"):
            check_manifold_h(h, d)

    def test_monotone_under_sphere_sums(self):
        # adding a sphere h-vector (minus the overlap) keeps acceptance
        base = (1, 0, 6, 0, 1)
        sphere = (1, 3, 3, 3, 1)
        summed = tuple(
            b + s - c for b, s, c in zip(base, sphere, (1, 0, 0, 0, 1)))
        assert check_manifold_h(base, 4)
        assert check_manifold_h(summed, 4)
