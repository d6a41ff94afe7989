import json
import re
import time
from collections import Counter

import pytest
from hypothesis import example, given, strategies as st

from cellposet.graphs import (ColoredGraph, _merge_roots, graph_from_dict,
                              graph_to_dot, graph_to_json, require_admissible,
                              validate_admissible)
from cellposet.posets import from_graph

from conftest import (admissible_graphs, bfs_roots, color_partner,
                      graph_to_dict, json_labels)


@st.composite
def labelled_graphs(draw) -> ColoredGraph:
    """Colored graphs, admissible or not, with JSON-hostile labels and at
    most eight edges, possibly none."""
    d = draw(st.integers(min_value=1, max_value=4))
    labels = draw(st.lists(json_labels, max_size=5, unique=True))
    edges = []
    if len(labels) > 1:
        edges = draw(st.lists(st.tuples(
            st.sampled_from(labels), st.sampled_from(labels),
            st.integers(min_value=1, max_value=d)).filter(
                lambda e: e[0] != e[1]), max_size=8))
    return ColoredGraph(d, tuple(labels), tuple(edges))


def ends(g: ColoredGraph, colors) -> tuple[list[int], list[int]]:
    """The index pairs that the edges of `colors` join, as `_merge_roots`
    takes them."""
    pairs = [(g.index[u], g.index[v]) for u, v, c in g.edges if c in colors]
    return [u for u, _ in pairs], [v for _, v in pairs]


def brute_components(g: ColoredGraph, colors) -> int:
    """Independent oracle: DFS component count of the color restriction."""
    colors = set(colors)
    adj = {v: [] for v in g.vertices}
    for u, v, c in g.edges:
        if c in colors:
            adj[u].append(v)
            adj[v].append(u)
    seen = set()
    count = 0
    for start in g.vertices:
        if start in seen:
            continue
        count += 1
        stack = [start]
        seen.add(start)
        while stack:
            for w in adj[stack.pop()]:
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
    return count


class TestValidation:
    def test_torus_is_admissible(self, torus_graph):
        assert validate_admissible(torus_graph) == []

    def test_missing_matching_edge_is_named(self, torus_graph):
        broken = ColoredGraph(
            3, torus_graph.vertices,
            tuple(e for e in torus_graph.edges if e != ("3", "5", 2)))
        violations = validate_admissible(broken)
        assert any("color 2" in v and "'3'" in v for v in violations)
        assert any("color 2" in v and "'5'" in v for v in violations)

    def test_disconnected_is_reported(self):
        g = ColoredGraph(1, ("a", "b", "c", "d"),
                         (("a", "b", 1), ("c", "d", 1)))
        assert any("disconnected" in v for v in validate_admissible(g))

    def test_odd_vertex_count_cannot_be_admissible(self):
        g = ColoredGraph(2, ("a", "b", "c"), (("a", "b", 1), ("a", "c", 2)))
        assert validate_admissible(g)

    def test_report_is_bounded_by_the_edge_colors_not_by_d(self):
        # two perfect matchings on six vertices, colors 1 and 3 of 10**6
        v = tuple("abcdef")
        g = ColoredGraph(10 ** 6, v, (
            ("a", "b", 1), ("c", "d", 1), ("e", "f", 1),
            ("b", "c", 3), ("d", "e", 3), ("a", "f", 3), ("a", "c", 3)))
        violations = validate_admissible(g)
        assert len(violations) <= len(v) * 2 + 2
        assert violations == [
            "color 3: vertex 'a' meets 2 edges, expected exactly 1",
            "color 3: vertex 'c' meets 2 edges, expected exactly 1",
            "no edge has color 2, 4..1000000",
        ]

    def test_graph_without_edges_names_every_color_once(self):
        g = ColoredGraph(1, ("a", "b"), ())
        assert validate_admissible(g) == [
            "no edge has color 1", "graph is disconnected (2 components)"]

    @given(st.sampled_from([2, 3]), st.integers(2, 3), st.data())
    def test_disjoint_union_names_its_component_count(self, d, k, data):
        parts = [data.draw(admissible_graphs(colors=(d,))) for _ in range(k)]
        g = ColoredGraph(
            d, tuple(f"{i}:{v}" for i, h in enumerate(parts) for v in h.vertices),
            tuple((f"{i}:{u}", f"{i}:{v}", c)
                  for i, h in enumerate(parts) for u, v, c in h.edges))
        assert validate_admissible(g) == [
            f"graph is disconnected ({k} components)"]
        with pytest.raises(ValueError, match="^" + re.escape(
                "graph is not admissible: graph is disconnected "
                f"({k} components)") + "$"):
            from_graph(g)

    def test_loops_rejected(self):
        with pytest.raises(ValueError, match="loop"):
            ColoredGraph(1, ("a",), (("a", "a", 1),))

    def test_bad_color_rejected(self):
        with pytest.raises(ValueError, match="color"):
            ColoredGraph(1, ("a", "b"), (("a", "b", 2),))

    @pytest.mark.parametrize("label", [1, None, True, 1.5])
    def test_labels_must_be_strings(self, label):
        with pytest.raises(ValueError, match=(
                f"^vertex label {label!r} is not a string$")):
            ColoredGraph(1, ("a", label), (("a", label, 1),))

    def test_vertices_must_be_a_list(self):
        # a string would load as one vertex per character
        with pytest.raises(ValueError, match="vertices must be a list, not str"):
            graph_from_dict({"d": 1, "vertices": "ab",
                             "edges": [{"u": "a", "v": "b", "color": 1}]})


class TestRestrict:
    """Restriction to a color set, seen through the roots `_merge_roots`
    gives its edges."""

    def test_single_color_is_a_matching(self, torus_graph):
        # color 1 pairs 1-5, 2-4 and 3-6
        assert _merge_roots(list(range(6)), *ends(torus_graph, {1})) == [
            0, 1, 2, 1, 0, 2]

    def test_empty_set_gives_edgeless(self, torus_graph):
        assert _merge_roots(list(range(6)), *ends(torus_graph, set())) == list(
            range(len(torus_graph.vertices)))

    def test_full_set_is_identity(self, torus_graph):
        assert _merge_roots(list(range(6)),
                            *ends(torus_graph, {1, 2, 3})) == [0] * 6

    @given(admissible_graphs())
    def test_one_color_has_half_the_vertices_in_edges(self, g):
        ids = list(range(len(g.vertices)))
        for c in range(1, g.d + 1):
            sizes = Counter(_merge_roots(ids, *ends(g, {c})))
            assert len(sizes) == len(g.vertices) // 2
            assert set(sizes.values()) == {2}


class TestStartPartition:
    """Roots merged for A and then for B are the roots for A | B: the rule
    `from_graph` builds each color set's roots by."""

    @given(admissible_graphs(colors=(2, 3, 4)), st.data())
    def test_merging_more_colors(self, g, data):
        a = data.draw(st.sets(st.integers(1, g.d)))
        b = data.draw(st.sets(st.integers(1, g.d)))
        ids = list(range(len(g.vertices)))
        assert _merge_roots(_merge_roots(ids, *ends(g, a)), *ends(g, b)) == \
               bfs_roots(g, a | b)

    @given(admissible_graphs(colors=(2, 3, 4)), st.data())
    def test_merging_matches_breadth_first_search(self, g, data):
        a = data.draw(st.sets(st.integers(1, g.d)))
        assert _merge_roots(list(range(len(g.vertices))), *ends(g, a)) == \
               bfs_roots(g, a)


class TestComponents:
    """Component counts, the distinct roots, against a depth-first search."""

    def test_empty_colors_give_singletons(self, torus_graph):
        roots = _merge_roots(list(range(6)), *ends(torus_graph, set()))
        assert len(set(roots)) == brute_components(torus_graph, set()) == 6

    def test_full_colors_connected(self, torus_graph):
        roots = _merge_roots(list(range(6)), *ends(torus_graph, {1, 2, 3}))
        assert len(set(roots)) == brute_components(torus_graph, {1, 2, 3}) == 1

    def test_two_color_restrictions_against_dfs_oracle(self, torus_graph):
        for pair in [{1, 2}, {1, 3}, {2, 3}]:
            sizes = Counter(_merge_roots(list(range(6)),
                                         *ends(torus_graph, pair)))
            assert len(sizes) == brute_components(torus_graph, pair) == 1
            # two perfect matchings always union into even alternating cycles
            assert all(size % 2 == 0 for size in sizes.values())

    @given(admissible_graphs(), st.data())
    def test_component_count_matches_oracle(self, g, data):
        sub = data.draw(st.sets(st.integers(1, g.d)))
        roots = _merge_roots(list(range(len(g.vertices))), *ends(g, sub))
        assert len(set(roots)) == brute_components(g, sub)

    @given(admissible_graphs(), st.data())
    def test_refinement_under_color_growth(self, g, data):
        big = data.draw(st.sets(st.integers(1, g.d)))
        small = data.draw(st.sets(st.sampled_from(sorted(big)))) if big else set()
        ids = list(range(len(g.vertices)))
        fine = _merge_roots(ids, *ends(g, small))
        coarse = _merge_roots(ids, *ends(g, big))
        # each fine component lies in one coarse component
        assert len(set(zip(fine, coarse))) == len(set(fine))


class TestPartnerTable:
    """`require_admissible` returns the partner table, row ``c - 1`` for
    color c, built in the walk that writes `validate_admissible`'s
    report."""

    @given(admissible_graphs(colors=(2, 3, 4)))
    def test_rows_match_the_edge_scan(self, g):
        table = require_admissible(g)
        assert len(table) == g.d
        for c, row in enumerate(table, start=1):
            assert row == [g.index[color_partner(g, v, c)]
                           for v in g.vertices]

    @given(st.one_of(admissible_graphs(), labelled_graphs()))
    @example(ColoredGraph(1, (), ()))
    @example(ColoredGraph(1, ("a", "b"), (("a", "b", 1), ("a", "b", 1))))
    def test_raises_exactly_the_report(self, g):
        violations = validate_admissible(g)
        if not violations:
            assert len(require_admissible(g)) == g.d
            return
        with pytest.raises(ValueError) as exc:
            require_admissible(g)
        assert str(exc.value) == ("graph is not admissible: "
                                  + "; ".join(violations))

    def test_each_call_builds_a_new_table(self, torus_graph):
        # the dipole reduction rewrites the rows it is given
        first, second = (require_admissible(torus_graph) for _ in range(2))
        assert first == second
        assert set(map(id, first)).isdisjoint(map(id, second))

    def test_same_color_double_edge_meets_two(self):
        # every row is a fixed-point-free involution here, so only the
        # degree count refuses the double edge
        g = ColoredGraph(2, ("a", "b"), (("a", "b", 1), ("a", "b", 1),
                                         ("a", "b", 2)))
        assert validate_admissible(g) == [
            "color 1: vertex 'a' meets 2 edges, expected exactly 1",
            "color 1: vertex 'b' meets 2 edges, expected exactly 1"]
        with pytest.raises(ValueError, match="^" + re.escape(
                "graph is not admissible: color 1: vertex 'a' meets 2 edges, "
                "expected exactly 1; color 1: vertex 'b' meets 2 edges, "
                "expected exactly 1") + "$"):
            require_admissible(g)

    def test_degrees_above_two_and_zero_are_counted(self):
        g = ColoredGraph(1, ("a", "b", "c", "d"), (
            ("a", "b", 1), ("c", "a", 1), ("a", "b", 1)))
        assert validate_admissible(g) == [
            "color 1: vertex 'a' meets 3 edges, expected exactly 1",
            "color 1: vertex 'b' meets 2 edges, expected exactly 1",
            "color 1: vertex 'd' meets 0 edges, expected exactly 1",
            "graph is disconnected (2 components)"]

    def test_a_huge_d_with_one_color_carried_is_reported_at_once(self):
        g = ColoredGraph(10 ** 9, ("a", "b"), (("a", "b", 1),))
        start = time.perf_counter()
        assert validate_admissible(g) == ["no edge has color 2..1000000000"]
        with pytest.raises(ValueError, match=r"^graph is not admissible: "
                                             r"no edge has color "
                                             r"2\.\.1000000000$"):
            require_admissible(g)
        assert time.perf_counter() - start < 1.0


class TestColorPartner:
    def test_dashed_partner_from_fixture(self, torus_graph):
        assert color_partner(torus_graph, "1", 3) == "6"

    @given(admissible_graphs())
    def test_partner_is_a_fixed_point_free_involution(self, g):
        for v in g.vertices:
            for c in range(1, g.d + 1):
                w = color_partner(g, v, c)
                assert w != v
                assert color_partner(g, w, c) == v

    def test_partner_fails_on_broken_matching(self, torus_graph):
        broken = ColoredGraph(
            3, torus_graph.vertices,
            tuple(e for e in torus_graph.edges if e != ("3", "5", 2)))
        with pytest.raises(ValueError, match="color 2"):
            color_partner(broken, "3", 2)


class TestConnectedBetween:
    """Two vertices are joined within a color set iff they share a root."""

    def test_trivial_self_path(self, torus_graph):
        roots = _merge_roots(list(range(6)), *ends(torus_graph, set()))
        assert roots[torus_graph.index["1"]] == torus_graph.index["1"]

    def test_single_color_edge(self, torus_graph):
        roots = _merge_roots(list(range(6)), *ends(torus_graph, {3}))
        root = {v: roots[torus_graph.index[v]] for v in ("1", "2", "6")}
        assert root["1"] == root["6"]
        assert root["1"] != root["2"]

    def test_unknown_vertex(self, torus_graph):
        with pytest.raises(ValueError, match="unknown endpoint"):
            ColoredGraph(3, torus_graph.vertices,
                         torus_graph.edges + (("1", "zz", 1),))


class TestInterchange:
    def test_json_round_trip(self, torus_graph):
        assert graph_from_dict(json.loads(graph_to_json(torus_graph))) == torus_graph

    def test_json_shape(self, torus_graph):
        data = json.loads(graph_to_json(torus_graph))
        assert set(data) == {"d", "vertices", "edges"}
        assert data["edges"][0].keys() == {"u", "v", "color"}

    def test_dot_has_one_line_per_multiedge(self, torus_graph):
        dot = graph_to_dot(torus_graph)
        assert dot.count(" -- ") == len(torus_graph.edges)
        assert '"1" -- "5" [color=1];' in dot
        assert dot.startswith("graph {")

    def test_dot_escapes_quotes_and_backslashes(self):
        g = ColoredGraph(1, ('a"b', "c\\"), (('a"b', "c\\", 1),))
        assert graph_to_dot(g) == (
            'graph {\n'
            '  "a\\"b";\n'
            '  "c\\\\";\n'
            '  "a\\"b" -- "c\\\\" [color=1];\n'
            '}\n')

    @given(st.one_of(admissible_graphs(), labelled_graphs()))
    @example(ColoredGraph(1, (), ()))
    @example(ColoredGraph(2, ("a", '"\\'), ()))
    def test_json_is_json_dumps_of_the_dict(self, g):
        assert graph_to_json(g) == json.dumps(graph_to_dict(g),
                                              sort_keys=True, indent=2)

    @given(admissible_graphs())
    def test_round_trip_random(self, g):
        assert graph_from_dict(json.loads(graph_to_json(g))) == g
        assert not validate_admissible(g)
