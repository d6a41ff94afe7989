import json
import time
from collections import Counter
from itertools import combinations
from math import comb
from typing import NamedTuple

import pytest
from hypothesis import given, strategies as st

from cellposet import posets, reduction
from cellposet.constructions import (parallel_edges_graph,
                                     product_spheres_graph)
from cellposet.graphs import (ColoredGraph, require_admissible,
                             validate_admissible)
from cellposet.homology import betti_gf2, is_homology_manifold
from cellposet.posets import f_vector, from_graph
from cellposet.reduction import (CancellationError, CancellationStep, _Table,
                                 cancellation_schedule, greedy_reduce,
                                 reduce_product_spheres, run_schedule,
                                 steps_to_json)

from conftest import (admissible_graphs, betti_order_complex, bfs_roots,
                      census_graphs, color_partner, colors_between,
                      insert_dipole, json_labels, shuffled)

EXPECTED_2_2 = [
    (1, ("A:{2,3}", "A:{1,3}")),
    (1, ("A:{2,4}", "A:{1,4}")),
    (1, ("A:{3,4}", "B:{1,4}")),
    (2, ("B:{1,3}", "B:{1,2}")),
    (2, ("B:{2,4}", "B:{2,3}")),
]


class Dipole(NamedTuple):
    """A dipole: its two vertices and the colors joining them."""

    x: str
    y: str
    colors: frozenset[int]


def check_dipole(g: ColoredGraph, x: str, y: str) -> Dipole | None:
    """The partner table's dipole test on one pair of an admissible
    graph."""
    t = _Table(require_admissible(g), g.vertices, g.edges)
    colors = t.dipole_colors(t.vertex(x), t.vertex(y))
    return None if colors is None else Dipole(x, y, frozenset(colors))


def find_dipoles(g: ColoredGraph) -> tuple[Dipole, ...]:
    """The partner table's dipole test on every pair (i, j) of an
    admissible graph joined by an edge, with i < j, in index order."""
    t = _Table(require_admissible(g), g.vertices, g.edges)
    pairs = sorted({(x, y) for row in t.partner
                    for x, y in enumerate(row) if x < y})
    return tuple(Dipole(t.labels[x], t.labels[y], frozenset(colors))
                 for x, y in pairs
                 if (colors := t.dipole_colors(x, y)) is not None)


def cancel(g: ColoredGraph, x: str, y: str) -> ColoredGraph:
    """Any pair of an admissible graph, dipole or not, cancelled by the
    partner table's rewiring, and then the components check that the
    engine loops skip: a non-dipole's cancellation can disconnect the
    graph."""
    if x == y:
        raise ValueError("cannot cancel a vertex with itself")
    t = _Table(require_admissible(g), g.vertices, g.edges)
    # the rewiring reads the colors only to refuse a full-type pair
    t.cancel_dipole(t.vertex(x), t.vertex(y), tuple(colors_between(g, x, y)))
    result = t.graph()
    if len(set(bfs_roots(result, range(1, g.d + 1)))) != 1:
        raise CancellationError(
            f"cancelling ({x!r}, {y!r}) breaks admissibility: result is "
            "disconnected")
    return result


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
    scanning the edge list, components by DFS."""
    out = []
    for i, x in enumerate(g.vertices):
        for y in g.vertices[i + 1:]:
            cols = frozenset(c for u, v, c in g.edges if {u, v} == {x, y})
            if cols and y not in reach(g, x, set(range(1, g.d + 1)) - cols):
                out.append(Dipole(x, y, cols))
    return tuple(out)


def reference_check_dipole(g: ColoredGraph, x: str, y: str) -> Dipole | None:
    """Oracle for check_dipole on the edge list: the colors between x and y
    by an edge scan, components by a breadth-first search over the other
    colors."""
    cols = colors_between(g, x, y)
    if not cols:
        return None
    roots = bfs_roots(g, frozenset(range(1, g.d + 1)) - cols)
    if roots[g.index[x]] == roots[g.index[y]]:
        return None
    return Dipole(x, y, cols)


def reference_cancel(g: ColoredGraph, x: str, y: str) -> ColoredGraph:
    """Oracle for cancel on the edge list: keep the edges that miss x and y
    in order, append (x's i-partner, y's i-partner, i) for each color i not
    between them in ascending order, and test connectivity by a
    breadth-first search."""
    if x == y:
        raise ValueError("cannot cancel a vertex with itself")
    cols = colors_between(g, x, y)
    new_edges = [e for e in g.edges if x not in e[:2] and y not in e[:2]]
    for i in sorted(frozenset(range(1, g.d + 1)) - cols):
        new_edges.append((color_partner(g, x, i), color_partner(g, y, i), i))
    result = ColoredGraph(
        g.d,
        tuple(v for v in g.vertices if v not in (x, y)),
        tuple(new_edges))
    if len(set(bfs_roots(result, range(1, g.d + 1)))) != 1:
        raise CancellationError(
            f"cancelling ({x!r}, {y!r}) breaks admissibility: result is "
            "disconnected")
    return result


def reference_schedule(g: ColoredGraph, pairs):
    """Oracle for run_schedule: check and cancel each pair on the edge
    list."""
    steps = []
    for k, pair in enumerate(pairs, start=1):
        dip = reference_check_dipole(g, *pair)
        assert dip is not None, pair
        g = reference_cancel(g, *pair)
        steps.append(CancellationStep(k, pair, tuple(sorted(dip.colors)),
                                      len(g.vertices)))
    return g, tuple(steps)


def naive_greedy(g: ColoredGraph):
    """Oracle for greedy_reduce: cancel the first cancellable dipole of the
    brute-force list on the edge list until none is left, recording each
    step with the colors `reference_check_dipole` finds."""
    steps = []
    while True:
        for dip in brute_dipoles(g):
            try:
                after = reference_cancel(g, dip.x, dip.y)
            except CancellationError:
                continue
            colors = reference_check_dipole(g, dip.x, dip.y).colors
            g = after
            steps.append(CancellationStep(len(steps) + 1, (dip.x, dip.y),
                                          tuple(sorted(colors)),
                                          len(g.vertices)))
            break
        else:
            return g, tuple(steps)


# the only attributes a graph may carry: its fields and the label index
GRAPH_ATTRIBUTES = {"d", "vertices", "edges", "index"}


def staged(n: int, m: int) -> list:
    """The pairs of the (n, m) schedule as (stage j, pair); stage j holds
    one pair for each subset of [j+1, n+m] with n + 1 - j elements."""
    pairs = iter(cancellation_schedule(n, m))
    out = [(j, next(pairs)) for j in range(1, n + 1)
           for _ in range(comb(n + m - j, n + 1 - j))]
    assert next(pairs, None) is None
    return out


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

    def test_two_vertex_graph_is_one_big_dipole(self):
        g = parallel_edges_graph(3)
        dip = check_dipole(g, "P", "Q")
        assert dip is not None and dip.colors == {1, 2, 3}

    def test_adjacent_but_still_connected_is_not_a_dipole(self):
        g = k4_graph()
        assert validate_admissible(g) == []
        assert check_dipole(g, "x", "y") is None

    def test_disconnection_claim_verified_by_component_search(self):
        g = product_spheres_graph(2, 2)
        roots = bfs_roots(g, frozenset(range(1, 6)) - {2})
        x, y = g.index["A:{2,3}"], g.index["A:{1,3}"]
        assert roots[x] != roots[y]
        assert check_dipole(g, "A:{2,3}", "A:{1,3}") is not None

    def test_unknown_vertex(self, torus_graph):
        with pytest.raises(ValueError, match="unknown vertex 'zz'"):
            check_dipole(torus_graph, "1", "zz")

    def test_full_type_pair_is_a_dipole(self):
        # no colors are left to search: both sides run out at once
        assert check_dipole(parallel_edges_graph(1), "Q", "P") == \
               Dipole("Q", "P", frozenset({1}))


class TestAgainstTheEdgeListOracles:
    @given(admissible_graphs(colors=(2, 3, 4)))
    def test_every_ordered_pair(self, g):
        for x in g.vertices:
            for y in g.vertices:
                if x == y:
                    continue
                assert check_dipole(g, x, y) == reference_check_dipole(g, x, y)
                try:
                    expected = reference_cancel(g, x, y)
                except CancellationError as exc:
                    with pytest.raises(CancellationError) as got:
                        cancel(g, x, y)
                    assert str(got.value) == str(exc)
                else:
                    assert cancel(g, x, y) == expected

    @pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)])
    def test_run_schedule_matches_the_reference_loop(self, n, m):
        g = product_spheres_graph(n, m)
        assert run_schedule(g, n, m) == \
            reference_schedule(g, cancellation_schedule(n, m))

    @pytest.mark.parametrize("n,m,seed", [(2, 2, 1), (2, 2, 2), (1, 3, 1)])
    def test_greedy_on_a_shuffled_graph_matches_the_naive_loop(self, n, m,
                                                               seed):
        g = shuffled(product_spheres_graph(n, m), seed)
        assert greedy_reduce(g) == naive_greedy(g)

    @given(admissible_graphs(max_pairs=6, colors=(2, 3, 4)))
    def test_greedy_matches_the_naive_loop(self, g):
        # the final graph pins the edge order that the table rebuilds
        # from its edge list: every edge whose ends are both alive, in
        # input order, then in the order the cancellations made them
        assert greedy_reduce(g) == naive_greedy(g)

    @pytest.mark.parametrize("d,n_vertices", [(3, 8), (4, 6), (5, 4)])
    def test_greedy_matches_the_naive_loop_on_the_census(self, d,
                                                         n_vertices):
        for g in census_graphs(d, n_vertices):
            assert greedy_reduce(g) == naive_greedy(g), g

    @pytest.mark.parametrize("call", [
        lambda g: check_dipole(g, "x", "y"),
        lambda g: cancel(g, "x", "y"),
        lambda g: find_dipoles(g)])
    def test_per_pair_calls_refuse_a_graph_that_is_not_admissible(self, call):
        g = ColoredGraph(2, ("x", "y"), (("x", "y", 1),))
        with pytest.raises(ValueError, match=r"^graph is not admissible: "
                                             r"no edge has color 2$"):
            call(g)


class TestDipoleLemma:
    """A dipole short of full type always cancels to a connected graph, so
    the engine loops cancel verified dipoles without a search."""

    @given(admissible_graphs(colors=(2, 3, 4)))
    def test_every_dipole_short_of_full_type_cancels(self, g):
        for x in g.vertices:
            for y in g.vertices:
                dip = None if x == y else reference_check_dipole(g, x, y)
                if dip is None:
                    continue
                t = _Table(require_admissible(g), g.vertices, g.edges)
                ix, iy = t.vertex(x), t.vertex(y)
                colors = tuple(sorted(dip.colors))
                if len(colors) < g.d:
                    expected = reference_cancel(g, x, y)
                    assert validate_admissible(expected) == []
                    t.cancel_dipole(ix, iy, colors)
                    assert t.graph() == expected
                else:
                    # the whole graph: refused before anything is rewired
                    with pytest.raises(CancellationError,
                                       match="result is disconnected"):
                        t.cancel_dipole(ix, iy, colors)
                    assert t.graph() == g
                    assert t.partner == require_admissible(g)

    @given(admissible_graphs(colors=(2, 3, 4)))
    def test_every_color_set_keeps_its_joined_pairs(self, g):
        # the lemma: two surviving vertices in one component of the
        # E-colored subgraph stay in one after the cancellation
        color_sets = [set(cs) for k in range(g.d + 1)
                      for cs in combinations(range(1, g.d + 1), k)]
        for x, y in combinations(g.vertices, 2):
            dip = reference_check_dipole(g, x, y)
            if dip is None or len(dip.colors) == g.d:
                continue
            after = reference_cancel(g, x, y)
            index = [g.index[v] for v in after.vertices]
            for colors in color_sets:
                old, new = bfs_roots(g, colors), bfs_roots(after, colors)
                for (i, u), (j, v) in combinations(enumerate(index), 2):
                    if old[u] == old[v]:
                        assert new[i] == new[j], (x, y, colors)

    @pytest.mark.parametrize("d,n_vertices", [(3, 8), (4, 6)])
    def test_only_the_joined_pairs_become_dipoles(self, d, n_vertices):
        # the corollary, on every dipole of every census graph; the
        # listing cancels nothing and matches `brute_dipoles`
        # (TestFindDipoles), which would take several seconds here
        for g in census_graphs(d, n_vertices):
            before = set(find_dipoles(g))
            for dip in before:
                if len(dip.colors) == d:
                    continue
                joined = {frozenset((color_partner(g, dip.x, c),
                                     color_partner(g, dip.y, c)))
                          for c in range(1, d + 1) if c not in dip.colors}
                for new in set(find_dipoles(
                        reference_cancel(g, dip.x, dip.y))) - before:
                    assert {new.x, new.y} in joined, (g, dip, new)


class TestWhatACancellationKeeps:
    """Lemmas A and B of the `reduction` docstring, on graphs that need not
    be manifolds: a cancellation keeps the GF(2) Betti numbers, by the
    order-complex oracle, and the homology-manifold verdict."""

    @given(admissible_graphs(max_pairs=6, colors=(3, 4, 5)))
    def test_every_cancellation_keeps_both(self, g):
        p = from_graph(g)
        kept = betti_order_complex(p), is_homology_manifold(p)
        for x, y in combinations(g.vertices, 2):
            dip = reference_check_dipole(g, x, y)
            if dip is not None and len(dip.colors) < g.d:
                after = from_graph(reference_cancel(g, x, y))
                assert (betti_order_complex(after),
                        is_homology_manifold(after)) == kept, (x, y)

    @pytest.mark.parametrize("d,n_vertices",
                             [(3, 6), (3, 8), (4, 4), (4, 6), (5, 4)])
    def test_greedy_keeps_both_on_the_census(self, d, n_vertices):
        for g in census_graphs(d, n_vertices):
            p, q = from_graph(g), from_graph(greedy_reduce(g)[0])
            assert (betti_gf2(q), is_homology_manifold(q)) == \
                (betti_gf2(p), is_homology_manifold(p)), g


@pytest.fixture
def searches(monkeypatch):
    """The `skip` argument of every `_Table.connected` call, in order."""
    calls = []
    connected = _Table.connected

    def counted(self, skip):
        calls.append(skip)
        return connected(self, skip)

    monkeypatch.setattr(_Table, "connected", counted)
    return calls


class TestNoSearchAfterAVerifiedDipole:
    """The connectivity search runs once per color for the final
    crystallization check and never after a cancellation, so the schedule
    is no longer quadratic in the vertex count."""

    def test_reduce_product_spheres(self, searches):
        final, steps = reduce_product_spheres(3, 3)
        assert len(steps) == comb(6, 3) - 1
        assert searches == list(range(1, final.d + 1))

    def test_run_schedule(self, searches):
        final, _ = run_schedule(product_spheres_graph(2, 3), 2, 3)
        assert searches == list(range(1, final.d + 1))

    def test_greedy_reduce(self, searches):
        final, steps = greedy_reduce(shuffled(product_spheres_graph(2, 3), 1))
        assert steps and searches == []


@pytest.fixture
def dipole_tests(monkeypatch):
    """The (x, y) of every `_Table.dipole_colors` call, in order."""
    calls = []
    dipole_colors = _Table.dipole_colors

    def counted(self, x, y):
        calls.append((x, y))
        return dipole_colors(self, x, y)

    monkeypatch.setattr(_Table, "dipole_colors", counted)
    return calls


class TestOneScan:
    """Greedy's heap tests each pair an edge joins once, and after a
    cancellation only the pairs its new edges join, which
    `cancel_dipole` returns."""

    @pytest.mark.parametrize("n,m", [(3, 3), (3, 4)])
    def test_greedy_tests_each_edge_once(self, dipole_tests, n, m):
        g = shuffled(product_spheres_graph(n, m), 1)
        _, steps = greedy_reduce(g)
        v, d = len(g.vertices), g.d
        assert steps
        assert len(dipole_tests) <= v * d // 2 + (d - 1) * len(steps)
        # a pair joined twice is tested once
        assert len(dipole_tests) == {(3, 3): 161, (3, 4): 342}[n, m]

    def test_cancel_dipole_returns_the_joined_pairs(self):
        g = product_spheres_graph(2, 2)
        t = _Table(require_admissible(g), g.vertices, g.edges)
        x, y = t.vertex("A:{2,3}"), t.vertex("A:{1,3}")
        colors = t.dipole_colors(x, y)
        n_edges = len(t.edges)
        joined = t.cancel_dipole(x, y, colors)
        new = t.edges[n_edges:]
        assert [c for _, _, c in new] == [c for c in range(1, t.d + 1)
                                          if c not in colors]
        assert joined == [tuple(sorted((t.index[u], t.index[v])))
                          for u, v, _ in new]


class TestNoStateOnGraphs:
    """The partner table lives for one call: no graph keeps it."""

    def test_reduce_product_spheres(self):
        final, _ = reduce_product_spheres(2, 3)
        assert set(vars(final)) <= GRAPH_ATTRIBUTES

    def test_greedy_reduce(self):
        g = shuffled(product_spheres_graph(2, 3), 1)
        final, steps = greedy_reduce(g)
        assert steps
        assert set(vars(g)) <= GRAPH_ATTRIBUTES
        assert set(vars(final)) <= GRAPH_ATTRIBUTES

    def test_from_graph_and_the_admissibility_check(self):
        g = product_spheres_graph(1, 2)
        from_graph(g)
        assert validate_admissible(g) == []
        assert set(vars(g)) <= GRAPH_ATTRIBUTES


class TestCancel:
    def test_rewires_partners_and_drops_the_pair(self):
        g = product_spheres_graph(2, 2)
        x, y = "A:{2,3}", "A:{1,3}"
        expected_new = {
            (i, frozenset((color_partner(g, x, i), color_partner(g, y, i))))
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
            assert set(Counter(bfs_roots(g2, {c})).values()) == {2}


class TestSchedule:
    def test_2_2_matches_the_worked_example(self):
        assert staged(2, 2) == EXPECTED_2_2

    def test_1_1_single_pair(self):
        assert staged(1, 1) == [(1, ("A:{2}", "A:{1}"))]

    def test_1_2_and_2_1_by_hand(self):
        assert cancellation_schedule(1, 2) == (
            ("A:{2}", "A:{1}"), ("A:{3}", "B:{1}"))
        assert cancellation_schedule(2, 1) == (
            ("A:{2,3}", "A:{1,3}"), ("B:{1,3}", "B:{1,2}"))

    @pytest.mark.parametrize("n,m", [(1, 1), (1, 2), (2, 2), (2, 3), (3, 3)])
    def test_length_and_disjointness(self, n, m):
        sched = cancellation_schedule(n, m)
        assert len(sched) == comb(n + m, n) - 1
        touched = [v for pair in sched for v in pair]
        assert len(touched) == len(set(touched))
        assert all(v[0] in "AB" for v in touched)

    @pytest.mark.parametrize("n,m", [(1, 2), (2, 2), (2, 3), (3, 3), (1, 3)])
    def test_survivors_match_the_parity_rule(self, n, m):
        touched = {v for pair in cancellation_schedule(n, m) for v in pair}
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

    def test_size_limit_counts_the_entries_it_would_list(self, monkeypatch):
        # C(5, 2) - 1 = 9 entries: allowed at a limit of 9, refused below
        monkeypatch.setattr(posets, "MAX_OUTPUT_SIZE", 9)
        assert len(cancellation_schedule(2, 3)) == 9
        monkeypatch.setattr(posets, "MAX_OUTPUT_SIZE", 8)
        with pytest.raises(ValueError, match=r"^the cancellation schedule "
                                             r"of S\^2 x S\^3 has at least 9 "
                                             r"entries, more than the limit "
                                             r"of 8$"):
            cancellation_schedule(2, 3)

    def test_huge_dimensions_are_refused_at_once(self):
        # the C(60, 30) - 1 entries would never be listed; the bound caps
        # the exponent at 20
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"^the cancellation schedule "
                                             r"of S\^30 x S\^30 has at least "
                                             r"4191844505805494 entries, more "
                                             r"than the limit of 1000000$"):
            cancellation_schedule(30, 30)
        assert time.perf_counter() - start < 1


def dumped(steps) -> str:
    """The step certificate as the standard library writes it."""
    return json.dumps([s.to_dict() for s in steps], sort_keys=True, indent=2)


class TestStepsToJson:
    """`steps_to_json` writes the step certificate from a template, byte
    for byte as ``json.dumps(..., sort_keys=True, indent=2)`` would."""

    def test_the_4_5_schedule(self):
        _, steps = reduce_product_spheres(4, 5)
        assert len(steps) == 125
        assert steps_to_json(steps) == dumped(steps)

    def test_a_greedy_run(self):
        _, steps = greedy_reduce(shuffled(product_spheres_graph(2, 3), 1))
        assert steps and steps_to_json(steps) == dumped(steps)

    def test_no_steps(self):
        assert steps_to_json(()) == dumped(()) == "[]"

    @given(st.lists(json_labels, min_size=2, max_size=2, unique=True))
    def test_labels_are_escaped_alike(self, pair):
        steps = [CancellationStep(1, tuple(pair), (1, 3), 8),
                 CancellationStep(2, tuple(pair[::-1]), (2,), 6)]
        assert steps_to_json(steps) == dumped(steps)


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
        for pair in cancellation_schedule(2, 2):
            assert check_dipole(g, *pair) is not None
            g = cancel(g, *pair)
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
            assert len(set(bfs_roots(final, rest))) == 1
        assert f_vector(from_graph(final))[1] == 5

    def test_schedule_is_wrecked_by_shuffling(self, monkeypatch):
        # applying a late pair first must fail the per-step dipole check
        pairs = cancellation_schedule(2, 2)
        monkeypatch.setattr(reduction, "cancellation_schedule",
                            lambda n, m: pairs[::-1])
        with pytest.raises(CancellationError, match="not a dipole"):
            run_schedule(product_spheres_graph(2, 2), 2, 2)

    def test_schedule_checks_the_final_vertex_count(self):
        # a torus crystallization four vertices above the minimum: the
        # one (1,1) pair cancels, leaving 8 of the minimal 6
        g = insert_dipole(product_spheres_graph(1, 1), "D:{1}", "X", "Y")
        assert validate_admissible(g) == [] and len(g.vertices) == 10
        assert betti_gf2(from_graph(g)) == (0, 2, 1)
        with pytest.raises(CancellationError, match=r"^reduced graph has 8 "
                                                    r"vertices, expected 6$"):
            run_schedule(g, 1, 1)

    def test_schedule_checks_the_crystallization_condition(self):
        # six vertices, but colors 1 and 2 pair them the same way, so
        # deleting color 3 splits them; the (1,1) pair is inserted on top
        g = ColoredGraph(3, tuple("abcdef"), tuple(
            (u, v, c) for c in (1, 2) for u, v in ("ab", "cd", "ef"))
            + (("b", "c", 3), ("d", "e", 3), ("f", "a", 3)))
        g = insert_dipole(g, "a", "A:{2}", "A:{1}")
        assert validate_admissible(g) == []
        with pytest.raises(CancellationError, match=r"^reduced graph is "
                                                    r"disconnected without "
                                                    r"color 3; "):
            run_schedule(g, 1, 1)

    def test_schedule_rejects_a_graph_that_is_not_admissible(self):
        # the same error from_graph raises, and before the fit check, as
        # one vertex is short of the 12 that (2, 2) needs; nothing is
        # cancelled
        g = ColoredGraph(5, ("x",), ())
        with pytest.raises(ValueError, match=r"^graph is not admissible: "
                                             r"no edge has color 1\.\.5$"):
            run_schedule(g, 2, 2)


class TestFitCheck:
    """`run_schedule` refuses a graph its pairs cannot fit, once the graph
    is found admissible and before the pairs are listed."""

    def test_a_graph_too_small_is_refused(self):
        # d = 5 fits n = m = 2, whose 5 pairs need at least 12 vertices
        with pytest.raises(ValueError) as info:
            run_schedule(parallel_edges_graph(5), 2, 2)
        assert str(info.value) == (
            "the cancellation schedule of S^2 x S^2 needs n, m >= 1, d = n "
            "+ m + 1 and at least 2*C(n+m, n) vertices; the graph has d = 5 "
            "and 2 vertices")

    def test_huge_dimensions_are_refused_at_once(self):
        # d = 3 wants n + m = 2: refused before C(28, 14) - 1 pairs are
        # listed
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"^the cancellation schedule "
                                             r"of S\^14 x S\^14 needs "):
            run_schedule(product_spheres_graph(1, 1), 14, 14)
        assert time.perf_counter() - start < 1


class TestFindDipoles:
    def test_product_graph_contains_the_first_scheduled_pair(self):
        g = product_spheres_graph(2, 2)
        pairs = {frozenset((d.x, d.y)) for d in find_dipoles(g)}
        assert frozenset(("A:{2,3}", "A:{1,3}")) in pairs

    def test_minimal_torus_has_none(self):
        final, _ = reduce_product_spheres(1, 1)
        assert find_dipoles(final) == ()

    def test_two_vertex_graph_has_exactly_one(self):
        g = parallel_edges_graph(4)
        dips = find_dipoles(g)
        assert len(dips) == 1 and dips[0].colors == {1, 2, 3, 4}

    def test_scan_order_is_deterministic(self):
        g = product_spheres_graph(1, 2)
        assert find_dipoles(g) == find_dipoles(g)

    @given(admissible_graphs())
    def test_matches_the_brute_force_scan(self, g):
        assert find_dipoles(g) == brute_dipoles(g)

    @pytest.mark.parametrize("n,m", [(1, 1), (2, 2)])
    def test_product_graph_matches_the_brute_force_scan(self, n, m):
        g = product_spheres_graph(n, m)
        assert find_dipoles(g) == brute_dipoles(g)


class TestGreedy:
    def test_greedy_matches_the_minimal_size_on_small_products(self):
        for n, m in [(1, 1), (1, 2)]:
            final, steps = greedy_reduce(product_spheres_graph(n, m))
            assert len(final.vertices) == 2 + 2 * comb(n + m, n)
            assert betti_gf2(from_graph(final)) == \
                   betti_gf2(from_graph(product_spheres_graph(n, m)))

    @pytest.mark.parametrize("n,m", [(1, 2), (2, 2)])
    def test_greedy_matches_the_naive_loop(self, n, m):
        g = product_spheres_graph(n, m)
        assert greedy_reduce(g) == naive_greedy(g)

    @pytest.mark.parametrize("g", [
        ColoredGraph(1, (), ()),
        ColoredGraph(2, ("x", "y"), (("x", "y", 1),)),
    ])
    def test_greedy_rejects_a_graph_that_is_not_admissible(self, g):
        with pytest.raises(ValueError, match="^graph is not admissible: "):
            greedy_reduce(g)

    def test_huge_input_is_refused_before_the_first_dipole_test(self):
        # V = 1008 and d = 11: at most V^2 d/4 = 2794176 dipole tests
        g = product_spheres_graph(5, 5)
        start = time.perf_counter()
        with pytest.raises(ValueError, match=r"^greedy reduction of this "
                                             r"1008-vertex 11-colored graph "
                                             r"may make 2794176 dipole "
                                             r"tests, more than the limit "
                                             r"of 1000000$"):
            greedy_reduce(g)
        assert time.perf_counter() - start < 1

    def test_size_limit_counts_the_dipole_tests_it_may_make(self,
                                                             monkeypatch):
        # V = 8 and d = 3: 8^2 * 3/4 = 48 tests; two vertices take none
        g, two = product_spheres_graph(1, 1), parallel_edges_graph(3)
        monkeypatch.setattr(posets, "MAX_OUTPUT_SIZE", 48)
        assert len(greedy_reduce(g)[0].vertices) == 6
        monkeypatch.setattr(posets, "MAX_OUTPUT_SIZE", 47)
        with pytest.raises(ValueError, match=r"^greedy reduction of this "
                                             r"8-vertex 3-colored graph may "
                                             r"make 48 dipole tests, more "
                                             r"than the limit of 47$"):
            greedy_reduce(g)
        monkeypatch.setattr(posets, "MAX_OUTPUT_SIZE", 0)
        assert greedy_reduce(two) == (two, ())

    def test_greedy_is_a_no_op_without_dipoles(self, torus_graph):
        final, steps = greedy_reduce(torus_graph)
        assert final == torus_graph and steps == ()

    @pytest.mark.parametrize("d", [1, 2, 3])
    def test_failed_cancellation_is_undone(self, d):
        # the one dipole is all of the graph: it is never cancelled, so
        # greedy returns its input
        g = parallel_edges_graph(d)
        assert greedy_reduce(g) == (g, ())
        assert naive_greedy(g) == (g, ())
