import json

import pytest
from hypothesis import given, strategies as st

from cellposet.graphs import (ColoredGraph, graph_from_json, graph_to_dict,
                              graph_to_dot, graph_to_json, is_admissible,
                              validate_admissible)

from conftest import admissible_graphs


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

    def test_loops_rejected(self):
        with pytest.raises(ValueError, match="loop"):
            ColoredGraph(1, ("a",), (("a", "a", 1),))

    def test_bad_color_rejected(self):
        with pytest.raises(ValueError, match="color"):
            ColoredGraph(1, ("a", "b"), (("a", "b", 2),))


class TestRestrict:
    """Restriction to a color set, seen through its components."""

    def test_single_color_is_a_matching(self, torus_graph):
        assert set(torus_graph.components({1})) == {
            ("1", "5"), ("2", "4"), ("3", "6")}

    def test_empty_set_gives_edgeless(self, torus_graph):
        assert torus_graph.component_roots(set()) == list(
            range(len(torus_graph.vertices)))

    def test_full_set_is_identity(self, torus_graph):
        assert torus_graph.component_roots({1, 2, 3}) == [0] * 6

    def test_color_out_of_range(self, torus_graph):
        with pytest.raises(ValueError, match="outside"):
            torus_graph.component_roots({4})
        with pytest.raises(ValueError, match="outside"):
            torus_graph.components({0, 1})

    @given(admissible_graphs())
    def test_one_color_has_half_the_vertices_in_edges(self, g):
        for c in range(1, g.d + 1):
            comps = g.components({c})
            assert len(comps) == len(g.vertices) // 2
            assert all(len(comp) == 2 for comp in comps)


class TestComponents:
    def test_empty_colors_give_singletons(self, torus_graph):
        comps = torus_graph.components(set())
        assert comps == tuple((v,) for v in torus_graph.vertices)

    def test_full_colors_connected(self, torus_graph):
        assert len(torus_graph.components({1, 2, 3})) == 1

    def test_two_color_restrictions_against_dfs_oracle(self, torus_graph):
        for pair in [{1, 2}, {1, 3}, {2, 3}]:
            comps = torus_graph.components(pair)
            assert len(comps) == brute_components(torus_graph, pair) == 1
            # two perfect matchings always union into even alternating cycles
            assert all(len(c) % 2 == 0 for c in comps)

    @given(admissible_graphs(), st.data())
    def test_component_count_matches_oracle(self, g, data):
        sub = data.draw(st.sets(st.integers(1, g.d)))
        assert len(g.components(sub)) == brute_components(g, sub)

    @given(admissible_graphs(), st.data())
    def test_refinement_under_color_growth(self, g, data):
        big = data.draw(st.sets(st.integers(1, g.d)))
        small = data.draw(st.sets(st.sampled_from(sorted(big)))) if big else set()
        fine = g.components(small)
        coarse = {c: set(c) for c in g.components(big)}
        for comp in fine:
            assert any(set(comp) <= parent for parent in coarse.values())


class TestColorPartner:
    def test_dashed_partner_from_fixture(self, torus_graph):
        assert torus_graph.color_partner("1", 3) == "6"

    @given(admissible_graphs())
    def test_partner_is_a_fixed_point_free_involution(self, g):
        for v in g.vertices:
            for c in range(1, g.d + 1):
                w = g.color_partner(v, c)
                assert w != v
                assert g.color_partner(w, c) == v

    def test_partner_fails_on_broken_matching(self, torus_graph):
        broken = ColoredGraph(
            3, torus_graph.vertices,
            tuple(e for e in torus_graph.edges if e != ("3", "5", 2)))
        with pytest.raises(ValueError, match="color 2"):
            broken.color_partner("3", 2)


class TestConnectedBetween:
    """Two vertices are joined within a color set iff they share a root."""

    def test_trivial_self_path(self, torus_graph):
        roots = torus_graph.component_roots(set())
        assert roots[torus_graph.index["1"]] == torus_graph.index["1"]

    def test_single_color_edge(self, torus_graph):
        roots = torus_graph.component_roots({3})
        root = {v: roots[torus_graph.index[v]] for v in ("1", "2", "6")}
        assert root["1"] == root["6"]
        assert root["1"] != root["2"]

    def test_unknown_vertex(self, torus_graph):
        with pytest.raises(ValueError, match="unknown"):
            torus_graph.color_partner("zz", 1)


class TestInterchange:
    def test_json_round_trip(self, torus_graph):
        assert graph_from_json(graph_to_json(torus_graph)) == torus_graph

    def test_json_shape(self, torus_graph):
        data = json.loads(graph_to_json(torus_graph))
        assert set(data) == {"d", "vertices", "edges"}
        assert data["edges"][0].keys() == {"u", "v", "color"}

    def test_dot_has_one_line_per_multiedge(self, torus_graph):
        dot = graph_to_dot(torus_graph)
        assert dot.count(" -- ") == len(torus_graph.edges)
        assert '"1" -- "5" [color=1];' in dot
        assert dot.startswith("graph {")

    @given(admissible_graphs())
    def test_round_trip_random(self, g):
        assert graph_from_json(graph_to_json(g)) == g
        assert is_admissible(g)
