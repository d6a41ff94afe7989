import inspect
import json
import time
from itertools import combinations
from math import comb
from unittest import mock

import pytest
from hypothesis import example, given, settings, strategies as st

from cellposet.constructions import (_rp_graph, boundary_of_simplex,
                                     connected_sum, cross_polytope_quotient,
                                     parallel_edges_graph,
                                     product_spheres_graph)
from cellposet.graphs import ColoredGraph, require_admissible
from cellposet import homology, posets
from cellposet.homology import (_RowsOnDemand, _check_simplicial,
                                _require_simplicial, _upward_pass,
                                betti_gf2, is_homology_manifold,
                                link_bettis, validate_poset)
from cellposet.posets import (SimplicialPoset, f_vector, from_graph,
                              h_vector, is_pseudomanifold, is_pure,
                              poset_from_dict, poset_to_json)

from conftest import (SIMPLICIAL_BASES, admissible_graphs,
                      betti_order_complex, bfs_roots, boolean_by_definition,
                      boundary_rows, census_graphs, complex_from_facets,
                      coverers, facets, gf2_rank, json_labels, link,
                      poset_to_dict, proper_coloring, rewired_posets,
                      rewired_simplex_boundary, shuffled, to_graph,
                      two_pillows, unmarked)


def h_by_polynomial_expansion(f):
    """Oracle: literally expand sum_i f_i t^i (1-t)^(d-i) by convolution."""
    d = len(f) - 1
    total = [0] * (d + 1)
    for i, fi in enumerate(f):
        poly = [0] * i + [fi]          # f_i t^i
        for _ in range(d - i):         # times (1 - t)
            poly = [a - b for a, b in zip(poly + [0], [0] + poly)]
        for k, c in enumerate(poly):
            total[k] += c
    return tuple(total)


def f_from_h(h: tuple[int, ...]) -> tuple[int, ...]:
    """The inverse transform of `h_vector`:
    f_k = sum_i C(d-i, k-i) h_i."""
    if not h:
        raise ValueError("empty h-vector")
    d = len(h) - 1
    return tuple(
        sum(comb(d - i, k - i) * h[i] for i in range(k + 1))
        for k in range(d + 1))


def reference_from_graph(g: ColoredGraph) -> SimplicialPoset:
    """Oracle for from_graph: the components of every color subset from
    its own breadth-first search, with nothing carried between subsets."""
    d = g.d
    colors = tuple(range(1, d + 1))
    roots = {frozenset(sub): bfs_roots(g, sub)
             for size in range(d + 1) for sub in combinations(colors, size)}
    cell_id = {}
    ranks, covers, labels = [], [], []
    for rank in range(d + 1):
        for missing in combinations(colors, rank):
            s = frozenset(colors) - set(missing)
            for root in sorted(set(roots[s])):
                cell_id[s, root] = len(ranks)
                ranks.append(rank)
                if rank == d:
                    labels.append(g.vertices[root])
                elif rank == 0:
                    labels.append("0")
                else:
                    labels.append("{%s}@%s" % (",".join(map(str, sorted(s))),
                                               g.vertices[root]))
                covers.append(tuple(cell_id[s | {i}, roots[s | {i}][root]]
                                    for i in missing))
    return SimplicialPoset(d, ranks, covers, labels)


def same_poset(p: SimplicialPoset, q: SimplicialPoset) -> bool:
    return (p.d, p.ranks, p.covers, p.labels) == \
           (q.d, q.ranks, q.covers, q.labels)


def edge_multiset(g: ColoredGraph) -> list[tuple[str, str, int]]:
    """The edges of `g` as a sorted list of (u, v, color) with u <= v, so
    that graphs differing only in edge order and orientation compare
    equal."""
    return sorted(tuple(sorted(e[:2])) + (e[2],) for e in g.edges)


def parse_cell_label(label: str) -> tuple[frozenset[int], str]:
    """The color set S and the least vertex of a cell labelled {S}@v."""
    colors, root = label[1:].split("}@")
    return frozenset(map(int, colors.split(","))), root


def is_normal(p: SimplicialPoset) -> bool:
    """A pseudomanifold whose cells of rank <= d - 2 have connected links:
    reduced beta_0 = 0, read from `link_bettis` (the minimum's link is `p`
    itself, connected as a pseudomanifold)."""
    return is_pseudomanifold(p) and all(
        betti[0] == 0 for c, betti in link_bettis(p)
        if p.ranks[c] <= p.d - 2)


def assert_passes_the_constructor_checks(p: SimplicialPoset) -> None:
    """`from_graph` skips the checks of the `SimplicialPoset` constructor
    and the simplicial proof, and marks its output: that output must pass
    the checks, and `validate_poset` too, whose walk ignores the mark."""
    assert p._proved
    assert SimplicialPoset(p.d, p.ranks, p.covers, p.labels) == p
    with mock.patch.object(homology, "_check_simplicial",
                           wraps=homology._check_simplicial) as walk:
        assert validate_poset(p) == []
    walk.assert_called_once_with(p)


class TestFromGraph:
    @pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3)])
    def test_products_pass_the_constructor_checks(self, n, m):
        assert_passes_the_constructor_checks(
            from_graph(product_spheres_graph(n, m)))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_quotients_pass_the_constructor_checks(self, n):
        assert_passes_the_constructor_checks(cross_polytope_quotient(n))

    @given(admissible_graphs(colors=(2, 3, 4)))
    def test_matches_the_per_subset_reference(self, g):
        assert same_poset(from_graph(g), reference_from_graph(g))

    @given(admissible_graphs(max_pairs=6, colors=(5, 6)))
    def test_many_colors_match_the_per_subset_reference(self, g):
        # the color sets of three or more colors merge per component of
        # their two least colors: at d = 5, 6 most sets take that path
        assert same_poset(from_graph(g), reference_from_graph(g))

    @pytest.mark.parametrize("n", range(3, 8))
    def test_quotients_match_the_reference(self, n):
        assert same_poset(cross_polytope_quotient(n),
                          reference_from_graph(_rp_graph(n)))

    @pytest.mark.parametrize("n,m", [(1, 2), (2, 2), (1, 4)])
    def test_product_graphs_match_the_reference(self, n, m):
        g = product_spheres_graph(n, m)
        assert same_poset(from_graph(g), reference_from_graph(g))

    @pytest.mark.parametrize("n,m,seed",
                             [(2, 3, 1), (2, 3, 2), (3, 3, 1), (3, 4, 1)])
    def test_shuffled_product_graphs_match_the_reference(self, n, m, seed):
        g = shuffled(product_spheres_graph(n, m), seed)
        assert same_poset(from_graph(g), reference_from_graph(g))

    def test_torus_f_vector(self, torus_graph):
        assert f_vector(from_graph(torus_graph)) == (1, 3, 9, 6)

    def test_facets_and_ridges_count_the_graph(self, torus_graph):
        p = from_graph(torus_graph)
        assert len(p.cells_by_rank[3]) == len(torus_graph.vertices)
        assert len(p.cells_by_rank[2]) == len(torus_graph.edges)

    def test_two_vertex_graph_gives_two_facet_sphere(self):
        for d in (2, 3, 4):
            p = from_graph(parallel_edges_graph(d))
            f = f_vector(p)
            assert f[d] == 2
            assert f[:d] == tuple(comb(d, k) for k in range(d))

    def test_rank_is_colors_minus_subset_size(self, torus_graph):
        # rank d: S is empty; rank 0: S holds all d colors
        p = from_graph(torus_graph)
        for c in range(p.n_cells):
            if 0 < p.ranks[c] < p.d:
                s, root = parse_cell_label(p.labels[c])
                assert p.ranks[c] == p.d - len(s)
                assert root in torus_graph.vertices

    def test_boolean_intervals(self, torus_graph):
        assert validate_poset(from_graph(torus_graph)) == []

    def test_too_large_to_check_is_no_violation(self, monkeypatch):
        # the rows of the boundary of the 3-simplex take
        # 4*1 + 6*4 + 4*6 = 52 bits
        p = boundary_of_simplex(3)
        monkeypatch.setattr(posets, "MAX_ROW_BITS", 52)
        assert validate_poset(p) == []
        monkeypatch.setattr(posets, "MAX_ROW_BITS", 51)
        with pytest.raises(ValueError, match="52 bits of boundary rows"):
            validate_poset(p)

    def test_d_above_every_rank_is_reported(self):
        p = boundary_of_simplex(2)
        assert validate_poset(p) == []
        with pytest.raises(ValueError, match="^d is 10, but the greatest "
                           "cell rank is 2$"):
            SimplicialPoset(10, p.ranks, p.covers, p.labels)

    def test_rejects_inadmissible(self):
        g = ColoredGraph(2, ("a", "b"), (("a", "b", 1),))
        with pytest.raises(ValueError, match="not admissible"):
            from_graph(g)

    def test_size_limit_counts_a_cell_per_color_set(self, monkeypatch):
        # d = 3: 2^3 color sets, so 8 cells at least, refused below 8
        # before any component is computed; the exact count, 9 here, is
        # refused below 9 once the components are known
        monkeypatch.setattr(posets, "MAX_OUTPUT_SIZE", 9)
        assert from_graph(parallel_edges_graph(3)).n_cells == 9
        monkeypatch.setattr(posets, "MAX_OUTPUT_SIZE", 8)
        with pytest.raises(ValueError, match=r"^the cell poset of this "
                                             r"3-colored graph has 9 cells, "
                                             r"more than the limit of 8$"):
            from_graph(parallel_edges_graph(3))
        monkeypatch.setattr(posets, "MAX_OUTPUT_SIZE", 7)
        with pytest.raises(ValueError, match=r"^the cell poset of a 3-colored "
                                             r"graph has at least 8 cells, "
                                             r"more than the limit of 7$"):
            from_graph(parallel_edges_graph(3))

    def test_size_limit_is_exact_past_the_color_sets(self, monkeypatch):
        # S^2 x S^2: 2^5 = 32 color sets but 179 cells
        g = product_spheres_graph(2, 2)
        monkeypatch.setattr(posets, "MAX_OUTPUT_SIZE", 179)
        assert from_graph(g).n_cells == 179
        monkeypatch.setattr(posets, "MAX_OUTPUT_SIZE", 100)
        with pytest.raises(ValueError, match="has 179 cells, more than the "
                                             "limit of 100$"):
            from_graph(g)

    def test_row_bit_limit_bounds_the_two_vertex_graph(self, monkeypatch):
        # d = 3: the rows take at least C(6, 4) = 15 bits, refused below 15
        # before any component is computed; the exact 3 + 9 + 6 = 18 bits
        # are refused below 18 once the components are known
        monkeypatch.setattr(posets, "MAX_ROW_BITS", 18)
        assert f_vector(from_graph(parallel_edges_graph(3))) == (1, 3, 3, 2)
        monkeypatch.setattr(posets, "MAX_ROW_BITS", 17)
        with pytest.raises(ValueError, match=r"^the chain complex of this "
                                             r"3-colored graph has 18 bits "
                                             r"of boundary rows, more than "
                                             r"the limit of 17$"):
            from_graph(parallel_edges_graph(3))
        monkeypatch.setattr(posets, "MAX_ROW_BITS", 14)
        with pytest.raises(ValueError, match=r"^the chain complex of a "
                                             r"3-colored graph has at least "
                                             r"15 bits of boundary rows, more "
                                             r"than the limit of 14$"):
            from_graph(parallel_edges_graph(3))

    def test_row_bit_limit_is_exact_past_the_color_sets(self, monkeypatch):
        # S^2 x S^2: at least C(10, 6) = 210 bits, but its rows take 6 738
        g = product_spheres_graph(2, 2)
        monkeypatch.setattr(posets, "MAX_ROW_BITS", 6738)
        assert from_graph(g).n_cells == 179
        monkeypatch.setattr(posets, "MAX_ROW_BITS", 6737)
        with pytest.raises(ValueError, match="has 6738 bits of boundary "
                                             "rows, more than the limit of "
                                             "6737$"):
            from_graph(g)

    def test_one_row_bit_limit_bounds_every_engine(self, monkeypatch):
        # a poset built under the default limit is refused by the engines
        # once the one constant is lowered below its 6 738 bits
        g = product_spheres_graph(2, 2)
        p = from_graph(g)
        monkeypatch.setattr(posets, "MAX_ROW_BITS", 6737)
        with pytest.raises(ValueError, match="^the chain complex of this "
                                             "5-colored graph has 6738 bits"):
            from_graph(g)
        for engine in (betti_gf2, validate_poset, link_bettis,
                       is_homology_manifold):
            with pytest.raises(ValueError, match=(
                    r"^the chain complex has 6738 bits of boundary rows, "
                    r"more than the limit of 6737$")):
                engine(p)

    # d = 18 and 19 pass the cell limit (2^19 < 10^6), not the row limit
    @pytest.mark.parametrize("d", [18, 19, 20, 24, 100])
    def test_many_colors_are_refused_at_once(self, d):
        start = time.perf_counter()
        with pytest.raises(ValueError, match="more than the limit"):
            from_graph(parallel_edges_graph(d))
        assert time.perf_counter() - start < 0.5

    @given(admissible_graphs())
    def test_random_graphs_give_normal_pseudomanifolds(self, g):
        p = from_graph(g)
        assert_passes_the_constructor_checks(p)
        assert is_normal(p)
        assert len(p.cells_by_rank[p.d]) == len(g.vertices)
        assert len(p.cells_by_rank[p.d - 1]) == len(g.edges)


def partner_table_from_facets(p: SimplicialPoset) -> list[list[int]]:
    """The partner table read off `p` by the contract of the `posets`
    docstring: facet i is vertex i, and its covers are its ridges, one per
    color, in ascending order; each ridge lies in two facets."""
    facets = p.cells_by_rank[p.d]
    ends: dict[int, list[int]] = {}
    for i, f in enumerate(facets):
        for ridge in p.covers[f]:
            ends.setdefault(ridge, []).append(i)
    assert all(len(two) == 2 for two in ends.values())
    return [[sum(ends[p.covers[f][c]]) - i for i, f in enumerate(facets)]
            for c in range(p.d)]


def assert_the_facets_give_the_partner_table(g: ColoredGraph) -> None:
    p = from_graph(g)
    assert [p.labels[f] for f in p.cells_by_rank[p.d]] == list(g.vertices)
    assert partner_table_from_facets(p) == require_admissible(g)


class TestThePartnerTableContract:
    """`from_graph` makes facet i of vertex i and lists its covers as its
    ridges by color, so the facets' covers give back the partner table of
    `require_admissible`, which the vertex-link certificate of `homology`
    reads."""

    @pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3),
                                     (3, 3), (3, 4)])
    def test_products(self, n, m):
        g = product_spheres_graph(n, m)
        assert_the_facets_give_the_partner_table(g)
        assert_the_facets_give_the_partner_table(shuffled(g, n + m))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_quotients(self, n):
        assert_the_facets_give_the_partner_table(_rp_graph(n))

    @pytest.mark.parametrize("d,n_vertices", [(4, 6), (5, 4)])
    def test_census(self, d, n_vertices):
        for g in census_graphs(d, n_vertices):
            assert_the_facets_give_the_partner_table(g)

    @given(admissible_graphs(max_pairs=5, colors=(2, 3, 4, 5)))
    def test_random_graphs(self, g):
        assert_the_facets_give_the_partner_table(g)


class TestHVector:
    def test_torus_values(self):
        assert h_vector((1, 3, 9, 6)) == (1, 0, 6, -1)

    def test_point(self):
        assert h_vector((1,)) == (1,)

    def test_simplex_boundary_by_hand_expansion(self):
        f = (1, 4, 6, 4)
        assert h_by_polynomial_expansion(f) == (1, 1, 1, 1)
        assert h_vector(f) == (1, 1, 1, 1)

    def test_inverse_transform(self):
        assert f_from_h((1, 0, 6, -1)) == (1, 3, 9, 6)

    @given(st.lists(st.integers(min_value=0, max_value=50), min_size=0, max_size=7))
    def test_matches_polynomial_oracle_and_round_trips(self, tail):
        f = (1, *tail)
        h = h_vector(f)
        assert h == h_by_polynomial_expansion(f)
        assert f_from_h(h) == f
        assert sum(h) == f[-1]

    def test_requires_leading_one(self):
        with pytest.raises(ValueError):
            h_vector((2, 3))


class TestLink:
    def test_link_of_minimum_is_the_poset(self, torus_graph):
        p = from_graph(torus_graph)
        lk = link(p, 0)
        assert lk.ranks == p.ranks and lk.covers == p.covers

    def test_torus_vertex_links_are_cycles(self, torus_graph):
        p = from_graph(torus_graph)
        for v in p.cells_by_rank[1]:
            f = f_vector(link(p, v))
            assert len(f) == 3 and f[1] == f[2] and f[1] >= 3

    def test_link_in_graph_poset_is_the_component_poset(self, torus_graph):
        p = from_graph(torus_graph)
        # pick a rank-1 cell: component H of a 2-color restriction
        v = p.cells_by_rank[1][0]
        s, root = parse_cell_label(p.labels[v])
        roots = bfs_roots(torus_graph, s)
        comp = tuple(u for u, r in zip(torus_graph.vertices, roots)
                     if r == roots[torus_graph.index[root]])
        relabel = {c: i + 1 for i, c in enumerate(sorted(s))}
        edges = tuple((u, w, relabel[c]) for u, w, c in torus_graph.edges
                      if c in s and u in comp and w in comp)
        h_graph = ColoredGraph(len(s), comp, edges)
        assert f_vector(link(p, v)) == f_vector(from_graph(h_graph))

    def test_unknown_cell(self, torus_graph):
        with pytest.raises(ValueError):
            link(from_graph(torus_graph), 10 ** 6)


def two_disjoint_bigons() -> SimplicialPoset:
    # two 2-gons sharing only the minimum: pure but not strongly connected
    return SimplicialPoset(
        2,
        (0, 1, 1, 1, 1, 2, 2, 2, 2),
        ((), (0,), (0,), (0,), (0,),
         (1, 2), (1, 2), (3, 4), (3, 4)),
        ("0", "a", "b", "c", "d", "e1", "e2", "e3", "e4"))


class TestRequireSimplicial:
    """The simplicial check of _check_simplicial: the vertex-set law and the
    boundary squaring to zero, in one walk over the covers."""

    @pytest.mark.parametrize("share_edge,vertices,distinct",
                             [(False, 6, 2), (True, 4, 2)])
    def test_pillows_are_refused(self, share_edge, vertices, distinct):
        p = two_pillows(share_edge)
        assert validate_poset(p)
        with pytest.raises(ValueError, match=(
                f"cell {p.n_cells - 1} \\(rank 4\\) has {vertices} vertices "
                f"and {distinct} distinct vertex sets")):
            _check_simplicial(p)

    def test_non_boolean_interval_is_refused(self):
        # two edges on the same two vertices under one triangle
        p = SimplicialPoset(3, (0, 1, 1, 1, 2, 2, 2, 3),
                            ((), (0,), (0,), (0,), (1, 2), (1, 2), (2, 3),
                             (4, 5, 6)), tuple("abcdefgh"))
        with pytest.raises(ValueError, match="not a simplicial poset"):
            _check_simplicial(p)

    @given(admissible_graphs(colors=(2, 3, 4)))
    def test_graph_posets_pass(self, g):
        _check_simplicial(from_graph(g))

    def test_small_posets_pass(self, torus_graph):
        for p in (from_graph(torus_graph), boundary_of_simplex(3),
                  two_disjoint_bigons(), from_graph(parallel_edges_graph(1))):
            assert not validate_poset(p)
            _check_simplicial(p)


class TestSimplicialOracle:
    def test_oracle_on_the_bases(self, torus_graph):
        for p in SIMPLICIAL_BASES + (from_graph(torus_graph),
                                     two_disjoint_bigons()):
            assert boolean_by_definition(p)
            assert validate_poset(p) == []
        for share_edge in (False, True):
            assert not boolean_by_definition(two_pillows(share_edge))

    def test_rewired_simplex_boundary_is_reported(self):
        p = rewired_simplex_boundary()
        assert not boolean_by_definition(p)
        assert validate_poset(p) == [
            "not a simplicial poset: boundary squared is nonzero at cell "
            "12; lower intervals are not boolean"]

    @settings(max_examples=300)
    @given(rewired_posets())
    def test_validation_matches_the_definition(self, p):
        assert (validate_poset(p) == []) == boolean_by_definition(p)


def rows_on_demand(p: SimplicialPoset) -> list[list[int]]:
    """Every row `betti_gf2` may build for `p`, by rank."""
    return [[_RowsOnDemand(p, cells)[i] for i in range(len(cells))]
            for cells in p.cells_by_rank[1:]]


def assert_the_row_sources_agree(p: SimplicialPoset) -> None:
    """The marked `p` and its unmarked copy give `betti_gf2` and
    `_upward_pass`, run after the gate, the same results, though the gate
    returns their two marks, and `betti_gf2` the rows of the oracle."""
    q = unmarked(p)
    assert rows_on_demand(p) == boundary_rows(p)
    assert (_require_simplicial(p), _require_simplicial(q)) == (True, False)
    assert _upward_pass(p) == _upward_pass(q)
    assert betti_gf2(p) == betti_gf2(q)
    if p.n_cells < 200:     # the order complex grows as d! per facet
        assert betti_gf2(p) == betti_order_complex(p)


NOT_SIMPLICIAL = (two_pillows, lambda: two_pillows(True),
                  rewired_simplex_boundary)
NOT_SIMPLICIAL_IDS = ("pillows", "pillows-sharing-an-edge", "rewired")


class TestTheProofMark:
    """`from_graph` marks its output simplicial by construction, and
    `betti_gf2` and the link test then skip the proof; `betti_gf2` builds
    the uncleared rows only, of any poset."""

    def test_only_from_graph_marks_its_output(self, torus_graph):
        p = from_graph(torus_graph)
        s = boundary_of_simplex(3)
        assert p._proved and cross_polytope_quotient(4)._proved
        for q in (unmarked(p), poset_from_dict(poset_to_dict(p)), s,
                  connected_sum(s, s, facets(s)[0], facets(s)[1]),
                  reference_from_graph(torus_graph)):
            assert not q._proved
        # the mark is no field: equality, repr and JSON do not see it
        assert p == unmarked(p) and repr(p) == repr(unmarked(p))
        assert poset_to_json(p) == poset_to_json(unmarked(p))
        assert "_proved" not in inspect.signature(SimplicialPoset).parameters

    @given(admissible_graphs(colors=(2, 3, 4)))
    def test_the_mark_is_honest_and_the_row_sources_agree(self, g):
        p, q = from_graph(g), reference_from_graph(g)
        assert boolean_by_definition(p)
        assert rows_on_demand(p) == boundary_rows(p)
        assert (_require_simplicial(p), _require_simplicial(q)) == (
            True, False)
        assert _upward_pass(p) == _upward_pass(q)
        assert betti_gf2(p) == betti_gf2(q) == betti_order_complex(p)

    @pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (2, 2), (1, 3), (2, 3)])
    def test_products(self, n, m):
        assert_the_row_sources_agree(from_graph(product_spheres_graph(n, m)))

    @pytest.mark.parametrize("n", range(2, 9))
    def test_quotients(self, n):
        assert_the_row_sources_agree(cross_polytope_quotient(n))

    @given(admissible_graphs(colors=(2, 3, 4)))
    def test_cleared_rows_are_never_built(self, g):
        # degree d reads every row, degree k < d the f_k - rank(d_{k+1})
        # rows off the pivots of degree k + 1, on a marked poset as on an
        # unmarked one
        p = from_graph(g)
        ranks = [gf2_rank(rows) for rows in boundary_rows(p)]
        for q in (p, unmarked(p)):
            with mock.patch.object(
                    _RowsOnDemand, "__getitem__", autospec=True,
                    side_effect=_RowsOnDemand.__getitem__) as read:
                betti_gf2(q)
            assert read.call_count == p.n_cells - 1 - sum(ranks[1:])

    @pytest.mark.parametrize("build", NOT_SIMPLICIAL, ids=NOT_SIMPLICIAL_IDS)
    def test_validate_poset_ignores_the_mark(self, build):
        # a forged mark on a poset that is not simplicial: the walk still
        # runs and reports it
        p = build()
        violations = validate_poset(p)
        p.__dict__["_proved"] = True
        assert validate_poset(p) == violations != []

    @pytest.mark.parametrize("build", NOT_SIMPLICIAL, ids=NOT_SIMPLICIAL_IDS)
    def test_every_engine_refuses_with_the_walks_text(self, build):
        p = build()
        (violation,) = validate_poset(p)
        for engine in (betti_gf2, link_bettis, is_homology_manifold):
            with pytest.raises(ValueError) as refusal:
                engine(p)
            assert str(refusal.value) == violation


class TestPredicates:
    def test_torus_poset(self, torus_graph):
        p = from_graph(torus_graph)
        assert is_pure(p) and is_pseudomanifold(p) and is_normal(p)

    @given(admissible_graphs(max_pairs=3))
    def test_graph_posets_are_normal(self, g):
        assert is_normal(from_graph(g))

    def test_disjoint_facets_are_not_strongly_connected(self):
        p = two_disjoint_bigons()
        assert is_pure(p)
        assert not is_pseudomanifold(p)

    def test_simplex_boundary_is_pseudomanifold(self):
        assert is_normal(boundary_of_simplex(3))


def pseudomanifold_by_definition(p: SimplicialPoset) -> bool:
    """Oracle for `is_pseudomanifold`, by cell id: d >= 1, every maximal
    cell of rank d, every ridge under exactly two of them, and a search
    across shared ridges from one facet reaching all."""
    up = coverers(p)
    facets = [c for c in range(p.n_cells) if not up[c]]
    if p.d < 1 or any(p.ranks[f] != p.d for f in facets) or any(
            len(up[ridge]) != 2 for ridge in p.cells_by_rank[p.d - 1]):
        return False
    reached, stack = {facets[0]}, [facets[0]]
    while stack:
        for ridge in p.covers[stack.pop()]:
            for f in set(up[ridge]) - reached:
                reached.add(f)
                stack.append(f)
    return len(reached) == len(facets)


# every engine that reads a poset's cached position or up table
TABLE_READERS = (betti_gf2, validate_poset, is_homology_manifold,
                 lambda p: list(link_bettis(p)), is_pure, is_pseudomanifold)


def outcome(reader, p: SimplicialPoset):
    """`reader(p)`, or the text of the ValueError it raises."""
    try:
        return reader(p)
    except ValueError as exc:
        return f"ValueError: {exc}"


class TestUpTable:
    """The upward cover table by position, and its readers, against the
    by-id cover scan of `conftest.coverers`."""

    @staticmethod
    def assert_the_tables_match_the_oracle(p: SimplicialPoset) -> None:
        """`p._up_table`, read by id, is `coverers(p)`, and `p._positions`
        a fresh copy's."""
        by_id = coverers(p)
        assert [[[p.cells_by_rank[r + 1][i] for i in cov] for cov in level]
                for r, level in enumerate(p._up_table)] == [
                    [list(by_id[c]) for c in cells]
                    for cells in p.cells_by_rank]
        assert p._positions == unmarked(p)._positions

    def assert_matches_the_oracle(self, p: SimplicialPoset) -> None:
        self.assert_the_tables_match_the_oracle(p)
        # purity read from the table is the maximal cells' ranks all d
        assert is_pure(p) == all(p.ranks[c] == p.d for c in facets(p))
        assert is_pseudomanifold(p) == pseudomanifold_by_definition(p)

    @settings(max_examples=100)
    @given(rewired_posets())
    def test_rewired_posets(self, p):
        self.assert_matches_the_oracle(p)

    @settings(max_examples=100)
    @given(st.one_of(rewired_posets(),
                     admissible_graphs(colors=(2, 3, 4)).map(from_graph)))
    def test_no_reader_writes_the_cached_tables(self, p):
        # each reader twice, on the poset and on its unmarked copy: the
        # second call sees the tables the first left, and after each call
        # they still match the oracle
        for q in (p, unmarked(p)):
            for reader in TABLE_READERS:
                results = []
                for _ in range(2):
                    results.append(outcome(reader, q))
                    self.assert_the_tables_match_the_oracle(q)
                assert results[0] == results[1]

    @given(admissible_graphs(colors=(2, 3, 4)))
    def test_graph_posets(self, g):
        self.assert_matches_the_oracle(from_graph(g))

    def test_small_posets(self, torus_graph):
        for p in (from_graph(torus_graph), two_disjoint_bigons(),
                  from_graph(parallel_edges_graph(1)),
                  # three triangles on one edge, two cycles through
                  # vertex 3 (every vertex on two edges or more), and a
                  # hanging edge
                  complex_from_facets(3, [(1, 2, 3), (1, 2, 4), (1, 2, 5)]),
                  complex_from_facets(2, [(1, 3), (3, 4), (1, 4), (2, 3),
                                          (3, 5), (2, 5)]),
                  complex_from_facets(3, [(1, 2, 3), (1, 4)]),
                  SimplicialPoset(0, (0,), ((),), ("0",))):
            self.assert_matches_the_oracle(p)


class TestProperColoring:
    def test_torus_recovers_the_induced_coloring(self, torus_graph):
        p = from_graph(torus_graph)
        colors, conflict = proper_coloring(p)
        assert conflict is None
        assert edge_multiset(to_graph(p, colors)) == edge_multiset(torus_graph)

    def test_two_facet_sphere_colors_trivially(self):
        p = from_graph(parallel_edges_graph(4))
        colors, conflict = proper_coloring(p)
        assert conflict is None
        assert sorted(colors.values()) == [1, 2, 3, 4]

    def test_simplex_boundary_is_not_colorable(self):
        # d+1 mutually adjacent vertices cannot take d colors
        colors, conflict = proper_coloring(boundary_of_simplex(3))
        assert colors is None and conflict is not None

    @given(admissible_graphs(max_pairs=3))
    def test_graph_posets_recover_their_coloring(self, g):
        p = from_graph(g)
        colors, conflict = proper_coloring(p)
        assert conflict is None
        assert edge_multiset(to_graph(p, colors)) == edge_multiset(g)


class TestToGraph:
    def test_round_trip_torus(self, torus_graph):
        p = from_graph(torus_graph)
        g2 = to_graph(p, proper_coloring(p)[0])
        assert set(g2.vertices) == set(torus_graph.vertices)
        assert edge_multiset(g2) == edge_multiset(torus_graph)

    def test_two_vertex_round_trip(self):
        g = parallel_edges_graph(3)
        p = from_graph(g)
        g2 = to_graph(p, proper_coloring(p)[0])
        assert set(g2.vertices) == {"P", "Q"}
        assert sorted(e[2] for e in g2.edges) == [1, 2, 3]

    @given(admissible_graphs(max_pairs=3))
    def test_round_trip_random(self, g):
        p = from_graph(g)
        assert edge_multiset(to_graph(p, proper_coloring(p)[0])) == \
               edge_multiset(g)

    def test_rejects_non_pseudomanifold(self):
        with pytest.raises(ValueError, match="pseudomanifold"):
            to_graph(two_disjoint_bigons(), {})

    def test_rejects_improper_coloring(self, torus_graph):
        p = from_graph(torus_graph)
        bad = {v: 1 for v in p.cells_by_rank[1]}
        with pytest.raises(ValueError, match="rainbow"):
            to_graph(p, bad)

    def test_rejects_partial_coloring(self, torus_graph):
        p = from_graph(torus_graph)
        partial, _ = proper_coloring(p)
        v = p.cells_by_rank[1][-1]
        del partial[v]
        with pytest.raises(ValueError, match=f"vertex {v} .* uncolored"):
            to_graph(p, partial)


def relabelled(p: SimplicialPoset):
    """Strategy: `p` with every cell labelled by JSON-hostile text."""
    return st.lists(json_labels, min_size=p.n_cells, max_size=p.n_cells).map(
        lambda labels: SimplicialPoset(p.d, p.ranks, p.covers, labels))


class TestJson:
    def test_round_trip(self, torus_graph):
        p = from_graph(torus_graph)
        q = poset_from_dict(json.loads(poset_to_json(p)))
        assert (q.d, q.ranks, q.covers, q.labels) == \
               (p.d, p.ranks, p.covers, p.labels)

    @given(st.one_of(admissible_graphs().map(from_graph),
                     st.integers(min_value=1, max_value=4).map(
                         boundary_of_simplex)).flatmap(relabelled))
    @example(SimplicialPoset(0, (0,), ((),), ("0",)))
    def test_json_is_json_dumps_of_the_dict(self, p):
        text = poset_to_json(p)
        assert text == json.dumps(poset_to_dict(p), sort_keys=True, indent=2)
        assert '"covers": [],' in text      # the minimum's

    def test_d_above_every_rank_is_refused(self):
        data = poset_to_dict(boundary_of_simplex(2))
        data["d"] = 3
        with pytest.raises(ValueError,
                           match="d is 3, but the greatest cell rank is 2"):
            poset_from_dict(data)

    def test_minimum_is_cell_zero(self, torus_graph):
        data = json.loads(poset_to_json(from_graph(torus_graph)))
        cell0 = next(c for c in data["cells"] if c["id"] == 0)
        assert cell0["rank"] == 0 and cell0["covers"] == []
