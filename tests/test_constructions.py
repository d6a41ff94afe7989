import time
from collections import Counter
from itertools import combinations, product
from math import comb
from operator import mul

import pytest
from hypothesis import given, strategies as st

from cellposet import homology, posets
from cellposet.constructions import (_rp_graph, boundary_of_simplex,
                                     connected_sum, cross_polytope_quotient,
                                     parallel_edges_graph,
                                     product_spheres_graph, set_label)
from cellposet.graphs import validate_admissible
from cellposet.homology import (betti_gf2, h_double_prime,
                                is_homology_manifold, validate_poset)
from cellposet.posets import (SimplicialPoset, f_vector, from_graph,
                              h_vector, poset_to_json)

from conftest import (admissible_graphs, betti_order_complex, colors_between,
                      facets, is_homology_sphere, proper_coloring, r_value,
                      reference_connected_sum,
                      reference_product_spheres_graph,
                      rewired_simplex_boundary, to_graph, two_pillows)


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

    def test_matches_the_reference_builder(self):
        for n in range(1, 8):
            for m in range(1, 9 - n):
                g = product_spheres_graph(n, m)
                assert g == reference_product_spheres_graph(n, m)
                # each edge end is one of the vertices' label objects
                assert {id(x) for u, v, _ in g.edges for x in (u, v)} \
                    <= set(map(id, g.vertices))

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

    def test_size_limit_counts_the_edges_it_would_build(self, monkeypatch):
        # 2*C(5, 2)*6 = 120 edges: allowed at a limit of 120, refused below
        monkeypatch.setattr(posets, "MAX_OUTPUT_SIZE", 120)
        assert len(product_spheres_graph(2, 3).edges) == 120
        monkeypatch.setattr(posets, "MAX_OUTPUT_SIZE", 119)
        with pytest.raises(ValueError, match=r"^the graph of S\^2 x S\^3 "
                                             r"has at least 120 edges, more "
                                             r"than the limit of 119$"):
            product_spheres_graph(2, 3)

    @pytest.mark.parametrize("n,m", [(21, 21), (500000, 500000),
                                     (1, 10 ** 9)])
    def test_huge_dimensions_are_refused_at_once(self, n, m):
        # the exact count C(10^6, 5*10^5) alone takes seconds
        start = time.perf_counter()
        with pytest.raises(ValueError, match="more than the limit"):
            product_spheres_graph(n, m)
        assert time.perf_counter() - start < 0.5


def sorting_cross_polytope_quotient(n: int) -> SimplicialPoset:
    """Oracle for cross_polytope_quotient: every sign vector is enumerated,
    and an orbit's key is the lexicographically smaller of F and -F, each
    sorted into support order."""
    def rep(face):
        a = tuple(sorted(face, key=lambda x: (abs(x), -x)))
        b = tuple(sorted((-x for x in face), key=lambda x: (abs(x), -x)))
        return min(a, b)

    by_rank = [[] for _ in range(n + 1)]
    seen = set()
    for size in range(1, n + 1):
        for support in combinations(range(1, n + 1), size):
            for signs in range(1 << size):
                r = rep(frozenset(-v if (signs >> i) & 1 else v
                                  for i, v in enumerate(support)))
                if r not in seen:
                    seen.add(r)
                    by_rank[size].append(r)
        by_rank[size].sort()
    ids, ranks, covers, labels = {}, [0], [()], ["0"]
    for size in range(1, n + 1):
        for r in by_rank[size]:
            ids[r] = len(ranks)
            ranks.append(size)
            labels.append(set_label(r))
            face = frozenset(r)
            covers.append((0,) if size == 1 else tuple(sorted(
                ids[rep(face - {x})] for x in face)))
    return SimplicialPoset(n, ranks, covers, labels)


def rp_face(label: str) -> frozenset[int]:
    """The sign vector a cell of `cross_polytope_quotient` stands for, up
    to sign: v's entries outside S for a cell labeled ``{S}@v``, the whole
    vector for a facet labeled ``v``."""
    colors, _, signs = label.rpartition("@")
    outside = set(range(1, len(signs) + 1)) - set(
        map(int, colors.strip("{}").split(",") if colors else ()))
    return frozenset(i if signs[i - 1] == "+" else -i for i in outside)


def antipode(face: frozenset[int]) -> frozenset[int]:
    return frozenset(-x for x in face)


def rp_cells_by_face(p: SimplicialPoset) -> dict[frozenset[int], int]:
    """Every sign vector F and -F that a cell of the quotient `p` stands
    for, keyed to that cell; no sign vector is keyed twice."""
    cell_of = {}
    for c in range(1, p.n_cells):
        face = rp_face(p.labels[c])
        for f in (face, antipode(face)):
            assert cell_of.setdefault(f, c) == c, (p.labels[c], sorted(f))
    return cell_of


class TestCrossPolytopeQuotient:
    # RP^7 (n = 8) is the input of the recognize benchmark
    @pytest.mark.parametrize("n", range(2, 10))
    def test_matches_the_sorting_construction(self, n):
        # each cell maps to the oracle's cell of the same orbit {F, -F};
        # the map is a bijection that keeps ranks and covers
        p, q = cross_polytope_quotient(n), sorting_cross_polytope_quotient(n)
        oracle = {}
        for c in range(1, q.n_cells):
            face = frozenset(map(int, q.labels[c].strip("{}").split(",")))
            oracle[face] = oracle[antipode(face)] = c
        image = [0] + [oracle.get(rp_face(label)) for label in p.labels[1:]]
        unmatched = [p.labels[c] for c, i in enumerate(image) if i is None]
        assert unmatched[:5] == []
        assert p.n_cells == q.n_cells == len(set(image))
        wrong = [p.labels[c] for c in range(p.n_cells)
                 if p.ranks[c] != q.ranks[image[c]]
                 or sorted(map(image.__getitem__, p.covers[c]))
                 != list(q.covers[image[c]])]
        assert wrong[:5] == []

    @pytest.mark.parametrize("n", range(2, 7))
    def test_a_face_and_its_antipode_share_a_cell(self, n):
        # every sign vector F, not only a representative, is named by
        # exactly one of F and -F, and that cell covers the cells of the
        # faces of F
        p = cross_polytope_quotient(n)
        cell_of = rp_cells_by_face(p)
        assert len(cell_of) == 3 ** n - 1
        for size in range(1, n + 1):
            for support in combinations(range(1, n + 1), size):
                for signs in product((1, -1), repeat=size):
                    face = frozenset(map(mul, signs, support))
                    c = cell_of[face]
                    below = (0,) if size == 1 else tuple(sorted(
                        cell_of[face - {x}] for x in face))
                    assert (p.ranks[c], tuple(sorted(p.covers[c]))) == \
                           (size, below)

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
        # graph -> poset -> graph gives back the graph the poset is built
        # from, edge for edge
        for n in range(2, 7):
            g = _rp_graph(n)
            p = cross_polytope_quotient(n)
            colors, conflict = proper_coloring(p)
            assert conflict is None
            back = to_graph(p, colors)
            assert validate_admissible(back) == []
            assert len(back.vertices) == 2 ** (n - 1)
            assert set(back.vertices) == set(g.vertices)
            assert Counter((frozenset(e[:2]), e[2]) for e in back.edges) == \
                   Counter((frozenset(e[:2]), e[2]) for e in g.edges)

    def test_too_small(self):
        with pytest.raises(ValueError):
            cross_polytope_quotient(1)

    def test_size_limit_counts_the_cells_it_would_build(self, monkeypatch):
        # (3^4 + 1)/2 = 41 cells with the minimum, as `from_graph` counts
        # them: allowed at a limit of 41 only
        monkeypatch.setattr(posets, "MAX_OUTPUT_SIZE", 41)
        assert cross_polytope_quotient(4).n_cells == 41
        monkeypatch.setattr(posets, "MAX_OUTPUT_SIZE", 40)
        with pytest.raises(ValueError, match=r"^the cell decomposition of "
                                             r"RP\^3 has at least 41 cells, "
                                             r"more than the limit of 40$"):
            cross_polytope_quotient(4)

    def test_huge_n_is_refused_at_once(self):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="more than the limit"):
            cross_polytope_quotient(10 ** 9)
        assert time.perf_counter() - start < 0.5


class TestBoundaryOfSimplex:
    def test_f_and_h(self):
        assert f_vector(boundary_of_simplex(3)) == (1, 4, 6, 4)
        assert h_vector(f_vector(boundary_of_simplex(2))) == (1, 1, 1)

    @pytest.mark.parametrize("d", [1, 2, 3, 4])
    def test_is_homology_sphere(self, d):
        p = boundary_of_simplex(d)
        assert f_vector(p) == tuple(comb(d + 1, i) for i in range(d + 1))
        assert is_homology_sphere(p)

    def test_size_limit_counts_the_cells_it_would_build(self, monkeypatch):
        # 2^4 - 1 = 15 cells: allowed at a limit of 15 only
        monkeypatch.setattr(posets, "MAX_OUTPUT_SIZE", 15)
        assert boundary_of_simplex(3).n_cells == 15
        monkeypatch.setattr(posets, "MAX_OUTPUT_SIZE", 14)
        with pytest.raises(ValueError, match=r"^the boundary of the "
                                             r"3-simplex has at least 15 "
                                             r"cells, more than the limit "
                                             r"of 14$"):
            boundary_of_simplex(3)

    @pytest.mark.parametrize("d,n_cells", [(19, 1048575),
                                           (10 ** 9, 2199023255551)])
    def test_huge_d_is_refused_at_once(self, d, n_cells):
        # 2^(d+1) - 1 cells, the exponent capped at 41
        start = time.perf_counter()
        with pytest.raises(ValueError, match=rf"^the boundary of the "
                                             rf"{d}-simplex has at least "
                                             rf"{n_cells} cells, more than "
                                             rf"the limit of 1000000$"):
            boundary_of_simplex(d)
        assert time.perf_counter() - start < 1


class TestParallelEdgesGraph:
    def test_size_limit_counts_the_edges_it_would_build(self, monkeypatch):
        monkeypatch.setattr(posets, "MAX_OUTPUT_SIZE", 3)
        assert len(parallel_edges_graph(3).edges) == 3
        monkeypatch.setattr(posets, "MAX_OUTPUT_SIZE", 2)
        with pytest.raises(ValueError, match=r"^the two-vertex graph of 3 "
                                             r"colors has 3 edges, more "
                                             r"than the limit of 2$"):
            parallel_edges_graph(3)

    @pytest.mark.parametrize("d", [10 ** 6 + 1, 10 ** 18])
    def test_huge_d_is_refused_at_once(self, d):
        start = time.perf_counter()
        with pytest.raises(ValueError, match=rf"^the two-vertex graph of "
                                             rf"{d} colors has {d} edges, "
                                             rf"more than the limit of "
                                             rf"1000000$"):
            parallel_edges_graph(d)
        assert time.perf_counter() - start < 1


@st.composite
def connected_sum_summands(draw):
    """(p, q, sigma, tau): p a graph poset of rank 2 or 3, q another one or
    the simplex boundary of that rank, and a facet drawn from each."""
    d = draw(st.sampled_from([2, 3]))
    p = from_graph(draw(admissible_graphs(colors=(d,))))
    q = draw(st.one_of(st.just(boundary_of_simplex(d)),
                       admissible_graphs(colors=(d,)).map(from_graph)))
    return (p, q, draw(st.sampled_from(facets(p))),
            draw(st.sampled_from(facets(q))))


@st.composite
def graph_poset_pairs(draw):
    """(p, q, sigma, tau): graph posets of one rank from 2 to 4, q drawn
    anew or p itself, and a facet drawn from each."""
    d = draw(st.sampled_from([2, 3, 4]))
    p = from_graph(draw(admissible_graphs(colors=(d,))))
    q = draw(st.one_of(st.just(p),
                       admissible_graphs(colors=(d,)).map(from_graph)))
    return (p, q, draw(st.sampled_from(facets(p))),
            draw(st.sampled_from(facets(q))))


class TestConnectedSum:
    def test_face_count_identity(self, torus_graph):
        p = from_graph(torus_graph)
        q = boundary_of_simplex(3)
        s = connected_sum(p, q, facets(p)[0], facets(q)[0])
        fp, fq, fs = f_vector(p), f_vector(q), f_vector(s)
        d = 3
        for i in range(d):
            assert fs[i] == fp[i] + fq[i] - comb(d, i)
        assert fs[d] == fp[d] + fq[d] - 2
        assert validate_poset(s) == []

    def test_h_additivity_below_top(self, torus_graph):
        p = from_graph(torus_graph)
        q = boundary_of_simplex(3)
        s = connected_sum(p, q, facets(p)[0], facets(q)[0])
        hp, hq, hs = (h_vector(f_vector(x)) for x in (p, q, s))
        assert hs[0] == 1
        assert hs[1:3] == tuple(a + b for a, b in zip(hp[1:3], hq[1:3]))
        assert hs[3] == hp[3] + hq[3] - 1

    def test_sphere_summand_preserves_hpp(self, torus_graph):
        p = from_graph(torus_graph)
        q = from_graph(parallel_edges_graph(3))
        s = connected_sum(p, q, facets(p)[0], facets(q)[0])
        hpp = h_double_prime(h_vector(f_vector(s)), betti_gf2(s))
        assert hpp == h_double_prime(h_vector(f_vector(p)), betti_gf2(p))

    def test_double_torus_homology(self, torus_graph):
        p = from_graph(torus_graph)
        s = connected_sum(p, p, facets(p)[0], facets(p)[1])
        assert betti_gf2(s) == (0, 4, 1)
        assert betti_order_complex(s) == (0, 4, 1)
        assert is_homology_manifold(s)

    def test_rank_mismatch(self, torus_graph):
        p = from_graph(torus_graph)
        with pytest.raises(ValueError, match="rank mismatch"):
            connected_sum(p, boundary_of_simplex(2), facets(p)[0], 1)

    def test_non_facet_rejected(self, torus_graph):
        p = from_graph(torus_graph)
        with pytest.raises(ValueError, match="facet"):
            connected_sum(p, p, 0, facets(p)[0])

    def test_degenerate_rank_rejected(self):
        p = from_graph(parallel_edges_graph(1))
        with pytest.raises(ValueError, match="rank at least 2"):
            connected_sum(p, p, facets(p)[0], facets(p)[1])

    @pytest.mark.parametrize("share_edge", [False, True])
    def test_interval_with_too_many_or_few_cells_rejected(self, share_edge):
        # the top cell of either pillow poset has 18 or 15 cells below it;
        # as either summand, the pillows get the simplicial walk's message
        p, q = two_pillows(share_edge), boundary_of_simplex(4)
        (message,) = validate_poset(p)
        for args in ((p, q, facets(p)[0], facets(q)[0]),
                     (q, p, facets(q)[0], facets(p)[0])):
            with pytest.raises(ValueError) as info:
                connected_sum(*args)
            assert str(info.value) == message
            assert message.startswith("not a simplicial poset: cell ")

    def test_interval_with_two_cells_on_one_vertex_set_rejected(self):
        # facet 13 has 8 cells below it, but edges 5 and 7 span vertices
        # 1 and 2 both
        p, q = rewired_simplex_boundary(), boundary_of_simplex(3)
        with pytest.raises(ValueError) as info:
            connected_sum(q, p, facets(q)[0], 13)
        assert str(info.value) == (
            "not a simplicial poset: boundary squared is nonzero at cell "
            "12; lower intervals are not boolean")

    def test_a_summand_that_is_not_simplicial_is_refused(self):
        # below facet 11 of the rewired boundary lie 8 cells on the 8
        # subsets of its 3 vertices, so no test of that interval alone
        # refuses it; the sum would be no simplicial poset
        p, q = rewired_simplex_boundary(), boundary_of_simplex(3)
        with pytest.raises(ValueError) as info:
            connected_sum(p, q, 11, facets(q)[0])
        assert str(info.value) == (
            "not a simplicial poset: boundary squared is nonzero at cell "
            "12; lower intervals are not boolean")

    def test_facet_on_more_than_d_vertices_rejected(self):
        # 16 cells on distinct vertex sets below a rank-4 cell on 5
        # vertices: edges {1,2}, {2,3}, {1,3}, {3,4}, {4,5} and four
        # triangles on three edges each
        p = SimplicialPoset(
            4, (0,) + (1,) * 5 + (2,) * 5 + (3,) * 4 + (4,),
            ((),) + ((0,),) * 5 + ((1, 2), (2, 3), (1, 3), (3, 4), (4, 5))
            + ((6, 7, 8), (6, 7, 9), (7, 9, 10), (8, 9, 10), (11, 12, 13, 14)),
            tuple(map(str, range(16))))
        q = boundary_of_simplex(4)
        with pytest.raises(ValueError) as info:
            connected_sum(p, q, 15, facets(q)[0])
        assert str(info.value) == (
            "not a simplicial poset: boundary squared is nonzero at cell "
            "12; lower intervals are not boolean")

    def test_graph_summands_take_the_gate_without_the_walk(self, monkeypatch,
                                                          torus_graph):
        # a poset from_graph marked is proved by its construction; an
        # unmarked summand is walked once
        calls = []
        monkeypatch.setattr(homology, "_check_simplicial", calls.append)
        p, q = from_graph(torus_graph), boundary_of_simplex(3)
        connected_sum(p, p, facets(p)[0], facets(p)[1])
        assert calls == []
        connected_sum(p, q, facets(p)[0], facets(q)[0])
        assert calls == [q]

    @given(graph_poset_pairs())
    def test_matches_the_reference(self, case):
        assert poset_to_json(connected_sum(*case)) == \
            poset_to_json(reference_connected_sum(*case))

    @given(connected_sum_summands())
    def test_face_identity_and_homology(self, case):
        p, q, sigma, tau = case
        s = connected_sum(p, q, sigma, tau)
        fp, fq, fs = f_vector(p), f_vector(q), f_vector(s)
        d = p.d
        assert fs == tuple(fp[i] + fq[i] - comb(d, i) for i in range(d)) \
            + (fp[d] + fq[d] - 2,)
        assert validate_poset(s) == []
        assert betti_gf2(s) == betti_order_complex(s)
        if is_homology_manifold(p) and is_homology_manifold(q):
            assert is_homology_manifold(s)
