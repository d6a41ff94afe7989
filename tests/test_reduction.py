import json
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, strategies as st

from cellposet.constructions import (cross_polytope_quotient,
                                     parallel_edges_graph,
                                     product_spheres_graph)
from cellposet.graphs import ColoredGraph, validate_admissible
from cellposet.homology import betti_gf2
from cellposet.posets import f_vector, from_graph, proper_coloring, to_graph
from cellposet.reduction import (CancellationError, Dipole, cancel,
                                 cancellation_schedule, check_dipole,
                                 colors_between, find_dipoles, greedy_reduce,
                                 reduce_product_spheres, rlex_greater,
                                 run_schedule)

from conftest import admissible_graphs

EXPECTED_2_2 = [
    (1, (2, 3), ("A:{2,3}", "A:{1,3}")),
    (1, (2, 4), ("A:{2,4}", "A:{1,4}")),
    (1, (3, 4), ("A:{3,4}", "B:{1,4}")),
    (2, (3,), ("B:{1,3}", "B:{1,2}")),
    (2, (4,), ("B:{2,4}", "B:{2,3}")),
]


def reach(g: ColoredGraph, start: str, colors) -> set[str]:
    """Oracle: labels reachable from `start` by a DFS over edges colored in
    `colors`."""
    seen, stack = {start}, [start]
    while stack:
        x = stack.pop()
        for u, v, c in g.edges:
            if c in colors and x in (u, v):
                w = v if u == x else u
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return seen


def brute_dipoles(g: ColoredGraph) -> tuple[Dipole, ...]:
    """Oracle for find_dipoles: every vertex pair in index order, colors by
    scanning the edge list, components by DFS, sizes ordered by each
    component's least vertex index."""
    out = []
    for i, x in enumerate(g.vertices):
        for y in g.vertices[i + 1:]:
            cols = frozenset(c for u, v, c in g.edges if {u, v} == {x, y})
            if not cols:
                continue
            rest = set(range(1, g.d + 1)) - cols
            cx = reach(g, x, rest)
            if y in cx:
                continue
            pair = sorted((cx, reach(g, y, rest)),
                          key=lambda comp: min(map(g.vertices.index, comp)))
            out.append(Dipole(x, y, cols, (len(pair[0]), len(pair[1]))))
    return tuple(out)


def naive_greedy(g: ColoredGraph):
    """Oracle for greedy_reduce: cancel the first cancellable dipole of the
    brute-force list until none is left."""
    pairs = []
    while True:
        for dip in brute_dipoles(g):
            try:
                g = cancel(g, dip.x, dip.y)
            except CancellationError:
                continue
            pairs.append((dip.x, dip.y))
            break
        else:
            return g, pairs


def staged(sched) -> list:
    """The entries as (stage j, subset, pair); stage j holds the subsets of
    size n + 1 - j."""
    return [(sched.n + 1 - len(e.subset), e.subset, e.pair)
            for e in sched.entries]


def k4_graph() -> ColoredGraph:
    """Properly 3-edge-colored K4; adjacent pairs stay connected after
    removing their edge color, so nothing here is a dipole."""
    return ColoredGraph(3, ("x", "y", "u", "v"), (
        ("x", "y", 1), ("u", "v", 1),
        ("x", "u", 2), ("y", "v", 2),
        ("x", "v", 3), ("y", "u", 3)))


class TestColorsBetween:
    def test_double_edge_in_product_graph(self):
        g = product_spheres_graph(2, 2)
        assert colors_between(g, "A:{1,2}", "B:{1,2}") == {4, 5}

    def test_disjoint_vertices(self, torus_graph):
        assert colors_between(torus_graph, "1", "2") == frozenset()

    def test_single_slide_edge(self):
        g = product_spheres_graph(2, 2)
        assert colors_between(g, "A:{2,3}", "A:{1,3}") == {2}


class TestCheckDipole:
    def test_first_scheduled_pair_is_a_dipole(self):
        g = product_spheres_graph(2, 2)
        dip = check_dipole(g, "A:{2,3}", "A:{1,3}")
        assert dip is not None
        assert dip.colors == {2}
        assert sum(dip.component_sizes) <= len(g.vertices)

    def test_two_vertex_graph_is_one_big_dipole(self):
        g = parallel_edges_graph(3)
        dip = check_dipole(g, "P", "Q")
        assert dip is not None and dip.colors == {1, 2, 3}
        assert dip.component_sizes == (1, 1)

    def test_adjacent_but_still_connected_is_not_a_dipole(self):
        g = k4_graph()
        assert validate_admissible(g) == []
        assert check_dipole(g, "x", "y") is None

    def test_disconnection_claim_verified_by_component_search(self):
        g = product_spheres_graph(2, 2)
        roots = g.component_roots(frozenset(range(1, 6)) - {2})
        x, y = g.index["A:{2,3}"], g.index["A:{1,3}"]
        assert roots[x] != roots[y]
        dip = check_dipole(g, "A:{2,3}", "A:{1,3}")
        assert dip.component_sizes == (roots.count(min(roots[x], roots[y])),
                                       roots.count(max(roots[x], roots[y])))

    def test_unknown_vertex(self, torus_graph):
        with pytest.raises(ValueError, match="unknown vertex 'zz'"):
            check_dipole(torus_graph, "1", "zz")


class TestCancel:
    def test_rewires_partners_and_drops_the_pair(self):
        g = product_spheres_graph(2, 2)
        x, y = "A:{2,3}", "A:{1,3}"
        expected_new = {
            (i, frozenset((g.color_partner(x, i), g.color_partner(y, i))))
            for i in range(1, 6) if i != 2}
        g2 = cancel(g, x, y)
        assert len(g2.vertices) == 22
        assert x not in g2.vertices and y not in g2.vertices
        kept = [e for e in g.edges if x not in e[:2] and y not in e[:2]]
        added = [e for e in g2.edges if e not in kept]
        assert {(c, frozenset((u, v))) for u, v, c in added} == expected_new

    def test_cancelling_a_dipole_preserves_homology(self):
        g = product_spheres_graph(1, 1)
        before = betti_gf2(from_graph(g))
        g2 = cancel(g, "A:{2}", "A:{1}")
        assert betti_gf2(from_graph(g2)) == before

    def test_cancelling_a_non_dipole_can_change_the_space(self, torus_graph):
        # 1 and 6 are joined by one edge but stay connected without it:
        # cancelling crushes the torus down to a sphere
        assert check_dipole(torus_graph, "1", "6") is None
        g2 = cancel(torus_graph, "1", "6")
        assert validate_admissible(g2) == []
        assert betti_gf2(from_graph(g2)) == (0, 0, 1)

    def test_self_cancel_rejected(self, torus_graph):
        with pytest.raises(ValueError):
            cancel(torus_graph, "1", "1")

    def test_emptying_the_graph_is_an_error(self):
        with pytest.raises(CancellationError, match="disconnected"):
            cancel(parallel_edges_graph(2), "P", "Q")

    @given(st.integers(2, 4))
    def test_matchings_survive_any_cancellation(self, d):
        g = product_spheres_graph(1, 1) if d == 2 else product_spheres_graph(1, d - 1)
        x, y = g.vertices[0], g.vertices[1]
        try:
            g2 = cancel(g, x, y)
        except CancellationError:
            return
        for c in range(1, g2.d + 1):
            assert all(len(comp) == 2 for comp in g2.components({c}))


class TestRlex:
    def test_definition_cases(self):
        assert rlex_greater({2, 3}, {2, 4})
        assert rlex_greater({2, 4}, {3, 4})
        assert not rlex_greater({3, 4}, {2, 3})

    @given(st.sets(st.integers(1, 8), min_size=1, max_size=4),
           st.sets(st.integers(1, 8), min_size=1, max_size=4))
    def test_matches_colex_comparison(self, s, t):
        if s == t:
            assert not rlex_greater(s, t)
            return
        colex = tuple(sorted(s, reverse=True)) < tuple(sorted(t, reverse=True))
        if len(s) == len(t):
            assert rlex_greater(s, t) == colex


class TestSchedule:
    def test_2_2_matches_the_worked_example(self):
        assert staged(cancellation_schedule(2, 2)) == EXPECTED_2_2

    def test_1_1_single_pair(self):
        assert staged(cancellation_schedule(1, 1)) == [
            (1, (2,), ("A:{2}", "A:{1}"))]

    def test_1_2_and_2_1_by_hand(self):
        assert [e.pair for e in cancellation_schedule(1, 2).entries] == [
            ("A:{2}", "A:{1}"), ("A:{3}", "B:{1}")]
        assert [e.pair for e in cancellation_schedule(2, 1).entries] == [
            ("A:{2,3}", "A:{1,3}"), ("B:{1,3}", "B:{1,2}")]

    @pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)])
    def test_length_and_disjointness(self, n, m):
        sched = cancellation_schedule(n, m)
        assert len(sched.entries) == comb(n + m, n) - 1
        touched = [v for e in sched.entries for v in e.pair]
        assert len(touched) == len(set(touched))
        assert all(v[0] in "AB" for v in touched)

    @pytest.mark.parametrize("n,m", [(1, 2), (2, 2), (2, 3), (3, 3), (1, 3)])
    def test_survivors_match_the_parity_rule(self, n, m):
        sched = cancellation_schedule(n, m)
        touched = {v for e in sched.entries for v in e.pair}
        subsets = list(combinations(range(1, n + m + 1), n))
        a_left = [s for s in subsets
                  if f"A:{{{','.join(map(str, s))}}}" not in touched]
        b_left = [s for s in subsets
                  if f"B:{{{','.join(map(str, s))}}}" not in touched]
        if n % 2 == 0:
            assert a_left == [tuple(range(1, n + 1))]
            assert b_left == [tuple(range(m + 1, m + n + 1))]
        else:
            assert a_left == []
            assert sorted(b_left) == sorted([
                tuple(range(m, m + n)), tuple(range(m + 1, m + n + 1))])


class TestReduceProductSpheres:
    @pytest.mark.parametrize("n,m,expect", [
        (1, 1, 6), (1, 2, 8), (2, 2, 14), (2, 3, 22)])
    def test_final_vertex_counts(self, n, m, expect):
        final, steps = reduce_product_spheres(n, m)
        assert len(final.vertices) == expect == 2 + 2 * comb(n + m, n)
        assert len(steps) == comb(n + m, n) - 1
        assert steps[-1].vertices_after == expect

    def test_1_1_reduces_to_the_minimal_torus(self, torus_graph):
        final, _ = reduce_product_spheres(1, 1)
        p = from_graph(final)
        assert f_vector(p) == f_vector(from_graph(torus_graph)) == (1, 3, 9, 6)
        assert betti_gf2(p) == (0, 2, 1)

    def test_2_2_homology_invariant_across_all_steps(self):
        g = product_spheres_graph(2, 2)
        reference = betti_gf2(from_graph(g))
        for entry in cancellation_schedule(2, 2).entries:
            assert check_dipole(g, *entry.pair) is not None
            g = cancel(g, *entry.pair)
            assert betti_gf2(from_graph(g)) == reference == (0, 0, 2, 0, 1)

    def test_certificate_serialization(self):
        _, steps = reduce_product_spheres(1, 2)
        payload = json.loads(json.dumps([s.to_dict() for s in steps]))
        assert payload[0].keys() == {"step", "pair", "colors",
                                     "vertices_after"}
        assert payload[-1]["vertices_after"] == 8

    def test_final_graph_is_a_crystallization(self):
        final, _ = reduce_product_spheres(2, 2)
        full = range(1, final.d + 1)
        for i in full:
            rest = [c for c in full if c != i]
            assert len(final.components(rest)) == 1
        assert f_vector(from_graph(final))[1] == 5

    def test_schedule_is_wrecked_by_shuffling(self):
        # applying a late pair first must fail the per-step dipole check
        sched = cancellation_schedule(2, 2)
        shuffled = type(sched)(2, 2, sched.entries[::-1])
        with pytest.raises(CancellationError, match="not a dipole"):
            run_schedule(product_spheres_graph(2, 2), shuffled)

    def test_schedule_rejects_a_graph_that_is_not_admissible(self):
        # the same error from_graph raises; nothing is cancelled
        g = ColoredGraph(5, ("x",), ())
        with pytest.raises(ValueError, match=r"^graph is not admissible: "
                                             r"no edge has color 1\.\.5$"):
            run_schedule(g, cancellation_schedule(2, 2))


class TestFindDipoles:
    def test_product_graph_contains_the_first_scheduled_pair(self):
        g = product_spheres_graph(2, 2)
        pairs = {frozenset((d.x, d.y)) for d in find_dipoles(g)}
        assert frozenset(("A:{2,3}", "A:{1,3}")) in pairs

    def test_minimal_torus_has_none(self):
        final, _ = reduce_product_spheres(1, 1)
        assert tuple(find_dipoles(final)) == ()

    def test_two_vertex_graph_has_exactly_one(self):
        g = parallel_edges_graph(4)
        dips = tuple(find_dipoles(g))
        assert len(dips) == 1 and dips[0].colors == {1, 2, 3, 4}

    def test_scan_order_is_deterministic(self):
        g = product_spheres_graph(1, 2)
        assert tuple(find_dipoles(g)) == tuple(find_dipoles(g))

    @given(admissible_graphs())
    def test_matches_the_brute_force_scan(self, g):
        assert tuple(find_dipoles(g)) == brute_dipoles(g)

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 2)])
    def test_product_graph_matches_the_brute_force_scan(self, n, m):
        g = product_spheres_graph(n, m)
        assert tuple(find_dipoles(g)) == brute_dipoles(g)


class TestGreedy:
    def test_greedy_matches_the_minimal_size_on_small_products(self):
        for n, m in [(1, 1), (1, 2)]:
            final, steps = greedy_reduce(product_spheres_graph(n, m))
            assert len(final.vertices) == 2 + 2 * comb(n + m, n)
            assert betti_gf2(from_graph(final)) == \
                   betti_gf2(from_graph(product_spheres_graph(n, m)))

    @pytest.mark.parametrize("n,m", [(1, 2), (2, 2)])
    def test_greedy_matches_the_naive_loop(self, n, m):
        final, steps = greedy_reduce(product_spheres_graph(n, m))
        oracle_final, oracle_pairs = naive_greedy(product_spheres_graph(n, m))
        assert [s.pair for s in steps] == oracle_pairs
        assert final == oracle_final

    @pytest.mark.parametrize("g", [
        ColoredGraph(1, (), ()),
        ColoredGraph(2, ("x", "y"), (("x", "y", 1),)),
    ])
    def test_greedy_rejects_a_graph_that_is_not_admissible(self, g):
        with pytest.raises(ValueError, match="^graph is not admissible: "):
            greedy_reduce(g)

    def test_greedy_is_a_no_op_without_dipoles(self, torus_graph):
        final, steps = greedy_reduce(torus_graph)
        assert final == torus_graph and steps == ()
