from math import comb

import pytest

from cellposet.constructions import (block_label, boundary_of_simplex,
                                     connected_sum, cross_polytope_quotient,
                                     parallel_edges_graph,
                                     product_spheres_graph)
from cellposet.checkers import r_value
from cellposet.graphs import validate_admissible
from cellposet.homology import (betti_gf2, betti_order_complex,
                                h_double_prime, is_homology_manifold,
                                is_homology_sphere)
from cellposet.posets import (f_vector, from_graph, h_vector,
                              induced_coloring, to_graph, validate_poset)
from cellposet.reduction import colors_between


def product_betti(n, m):
    """Reduced GF(2) Betti vector of S^n x S^m."""
    out = [0] * (n + m + 1)
    out[n] += 1
    out[m] += 1
    out[n + m] += 1
    return tuple(out)


class TestProductSpheresGraph:
    def test_vertex_count_and_admissibility(self):
        for n, m in [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3)]:
            g = product_spheres_graph(n, m)
            assert len(g.vertices) == 4 * comb(n + m, n)
            assert validate_admissible(g) == []

    def test_block_pair_colors_from_worked_example(self):
        g = product_spheres_graph(2, 2)
        assert colors_between(g, "A:{1,2}", "B:{1,2}") == {4, 5}
        assert colors_between(g, "A:{1,2}", "C:{1,2}") == {1, 2}
        assert colors_between(g, "A:{2,3}", "A:{1,3}") == {2}

    def test_small_product_is_a_torus(self):
        p = from_graph(product_spheres_graph(1, 1))
        assert betti_gf2(p) == (0, 2, 1)

    def test_rainbow_degree(self):
        g = product_spheres_graph(2, 2)
        seen = {}
        for u, v, c in g.edges:
            for x in (u, v):
                key = (x, c)
                seen[key] = seen.get(key, 0) + 1
        assert all(seen.get((v, c), 0) == 1
                   for v in g.vertices for c in range(1, g.d + 1))

    @pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3)])
    def test_poset_has_product_homology(self, n, m):
        p = from_graph(product_spheres_graph(n, m))
        assert betti_gf2(p) == product_betti(n, m)

    @pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (2, 2)])
    def test_poset_is_a_homology_manifold(self, n, m):
        assert is_homology_manifold(from_graph(product_spheres_graph(n, m)))

    def test_bad_dimensions(self):
        with pytest.raises(ValueError):
            product_spheres_graph(0, 1)


class TestCrossPolytopeQuotient:
    def test_small_counts(self):
        assert f_vector(cross_polytope_quotient(2)) == (1, 2, 2)
        assert f_vector(cross_polytope_quotient(3)) == (1, 3, 6, 4)

    def test_counts_general(self):
        for n in range(2, 7):
            f = f_vector(cross_polytope_quotient(n))
            assert f[1] == n
            assert f[n] == 2 ** (n - 1)

    def test_valid_simplicial_poset(self):
        assert validate_poset(cross_polytope_quotient(4)) == []

    def test_rp3_homology_and_hpp(self):
        p = cross_polytope_quotient(4)
        assert betti_gf2(p) == (0, 1, 1, 1)
        assert h_double_prime(h_vector(f_vector(p)), betti_gf2(p)) == \
               (1, 0, 0, 0, 1)

    def test_h_matches_the_r_shift(self):
        for n in range(2, 7):
            p = cross_polytope_quotient(n)
            h = h_vector(f_vector(p))
            hpp = h_double_prime(h, (0,) + (1,) * (n - 1))
            assert hpp == tuple([h[0]] + [h[i] - r_value(n, i)
                                          for i in range(1, n + 1)])

    def test_quotient_is_graphical_and_round_trips(self):
        p = cross_polytope_quotient(3)
        from cellposet.posets import proper_coloring
        colors, conflict = proper_coloring(p)
        assert conflict is None
        g = to_graph(p, colors)
        assert validate_admissible(g) == []
        assert len(g.vertices) == 4 and len(g.edges) == 6

    def test_too_small(self):
        with pytest.raises(ValueError):
            cross_polytope_quotient(1)


class TestBoundaryOfSimplex:
    def test_f_and_h(self):
        assert f_vector(boundary_of_simplex(3)) == (1, 4, 6, 4)
        assert h_vector(f_vector(boundary_of_simplex(2))) == (1, 1, 1)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_is_homology_sphere(self, d):
        p = boundary_of_simplex(d)
        assert f_vector(p) == tuple(comb(d + 1, i) for i in range(d + 1))
        assert is_homology_sphere(p)


class TestConnectedSum:
    def test_face_count_identity(self, torus_graph):
        p = from_graph(torus_graph)
        q = boundary_of_simplex(3)
        s = connected_sum(p, q, p.facets()[0], q.facets()[0])
        fp, fq, fs = f_vector(p), f_vector(q), f_vector(s)
        d = 3
        for i in range(d):
            assert fs[i] == fp[i] + fq[i] - comb(d, i)
        assert fs[d] == fp[d] + fq[d] - 2
        assert validate_poset(s) == []

    def test_h_additivity_below_top(self, torus_graph):
        p = from_graph(torus_graph)
        q = boundary_of_simplex(3)
        s = connected_sum(p, q, p.facets()[0], q.facets()[0])
        hp, hq, hs = (h_vector(f_vector(x)) for x in (p, q, s))
        assert hs[0] == 1
        assert hs[1:3] == tuple(a + b for a, b in zip(hp[1:3], hq[1:3]))
        assert hs[3] == hp[3] + hq[3] - 1

    def test_sphere_summand_preserves_hpp(self, torus_graph):
        p = from_graph(torus_graph)
        q = from_graph(parallel_edges_graph(3))
        s = connected_sum(p, q, p.facets()[0], q.facets()[0])
        hpp = h_double_prime(h_vector(f_vector(s)), betti_gf2(s))
        assert hpp == h_double_prime(h_vector(f_vector(p)), betti_gf2(p))

    def test_double_torus_homology(self, torus_graph):
        p = from_graph(torus_graph)
        s = connected_sum(p, p, p.facets()[0], p.facets()[1])
        assert betti_gf2(s) == (0, 4, 1)
        assert betti_order_complex(s) == (0, 4, 1)
        assert is_homology_manifold(s)

    def test_explicit_vertex_map(self, torus_graph):
        p = from_graph(torus_graph)
        q = boundary_of_simplex(3)
        sigma, tau = p.facets()[0], q.facets()[0]
        vmap = dict(zip(sorted(p.vertex_sets[sigma]),
                        sorted(q.vertex_sets[tau])))
        s = connected_sum(p, q, sigma, tau, vmap)
        assert f_vector(s)[3] == 8

    def test_rank_mismatch(self, torus_graph):
        p = from_graph(torus_graph)
        with pytest.raises(ValueError, match="rank mismatch"):
            connected_sum(p, boundary_of_simplex(2), p.facets()[0], 1)

    def test_non_facet_rejected(self, torus_graph):
        p = from_graph(torus_graph)
        with pytest.raises(ValueError, match="facet"):
            connected_sum(p, p, 0, p.facets()[0])

    def test_bad_map_rejected(self, torus_graph):
        p = from_graph(torus_graph)
        sigma, tau = p.facets()[0], p.facets()[1]
        vs = sorted(p.vertex_sets[sigma])
        bad = {v: sorted(p.vertex_sets[tau])[0] for v in vs}
        with pytest.raises(ValueError, match="bijection"):
            connected_sum(p, p, sigma, tau, bad)

    def test_degenerate_rank_rejected(self):
        p = from_graph(parallel_edges_graph(1))
        with pytest.raises(ValueError, match="rank at least 2"):
            connected_sum(p, p, p.facets()[0], p.facets()[1])
