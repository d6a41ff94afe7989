import json
from pathlib import Path

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cellposet.cli import main
from cellposet.constructions import boundary_of_simplex, parallel_edges_graph
from cellposet.graphs import graph_to_dict
from cellposet.posets import poset_to_dict

DATA = Path(__file__).parent / "data"
TORUS = str(DATA / "torus_crystallization.json")


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


class TestInvariants:
    def test_bundled_torus_fixture(self, capsys):
        code, out, _ = run(capsys, "invariants", TORUS)
        assert code == 0
        data = json.loads(out)
        assert data == {
            "f": [1, 3, 9, 6],
            "h": [1, 0, 6, -1],
            "betti_gf2": [0, 2, 1],
            "h_double_prime": [1, 0, 0, 1],
        }

    def test_poset_file(self, capsys, tmp_path):
        code, out, _ = run(capsys, "build", "rp", "--n", "3",
                           "--out", str(tmp_path / "rp.json"))
        assert code == 0
        code, out, _ = run(capsys, "invariants", str(tmp_path / "rp.json"))
        assert code == 0
        assert json.loads(out)["betti_gf2"] == [0, 1, 1]


class TestBuild:
    def test_product_spheres_reduce(self, capsys, tmp_path):
        out_file = tmp_path / "final.json"
        code, out, _ = run(capsys, "build", "product-spheres",
                           "--n", "2", "--m", "2", "--reduce",
                           "--out", str(out_file))
        assert code == 0
        data = json.loads(out)
        assert data["vertices"] == 14
        assert len(data["steps"]) == 5
        final = json.loads(out_file.read_text())
        assert len(final["vertices"]) == 14

    def test_from_json_graph_summary(self, capsys):
        code, out, _ = run(capsys, "build", "from-json", TORUS)
        assert code == 0
        data = json.loads(out)
        assert data["admissible"] is True and data["vertices"] == 6

    def test_from_json_rejects_broken_graph(self, capsys, tmp_path):
        src = json.loads(Path(TORUS).read_text())
        src["edges"] = src["edges"][:-1]
        bad = tmp_path / "broken.json"
        bad.write_text(json.dumps(src))
        code, out, _ = run(capsys, "build", "from-json", str(bad))
        assert code == 1
        assert json.loads(out)["admissible"] is False


class TestReduce:
    def test_symbolic_schedule_with_certificate(self, capsys, tmp_path):
        graph_file = tmp_path / "lambda.json"
        run(capsys, "build", "product-spheres", "--n", "1", "--m", "2",
            "--out", str(graph_file))
        cert_file = tmp_path / "cert.json"
        code, out, _ = run(capsys, "reduce", str(graph_file),
                           "--schedule", "symbolic", "--n", "1", "--m", "2",
                           "--certificate", str(cert_file))
        assert code == 0
        assert json.loads(out) == {"vertices": 8, "steps": 2}
        cert = json.loads(cert_file.read_text())
        assert [c["step"] for c in cert] == [1, 2]
        assert all(c.keys() == {"step", "pair", "colors", "vertices_after"}
                   for c in cert)

    def test_greedy_on_minimal_graph_is_a_no_op(self, capsys):
        code, out, _ = run(capsys, "reduce", TORUS, "--schedule", "greedy")
        assert code == 0
        assert json.loads(out) == {"vertices": 6, "steps": 0}

    def test_symbolic_needs_dimensions(self, capsys):
        code, _, err = run(capsys, "reduce", TORUS, "--schedule", "symbolic")
        assert code == 2 and "requires" in err

    def test_wrong_schedule_pair_fails_cleanly(self, capsys, tmp_path):
        # symbolic schedule for (2,1) against the (1,2) graph: labels differ
        graph_file = tmp_path / "lambda.json"
        run(capsys, "build", "product-spheres", "--n", "1", "--m", "2",
            "--out", str(graph_file))
        code, _, err = run(capsys, "reduce", str(graph_file),
                           "--schedule", "symbolic", "--n", "2", "--m", "1")
        assert code == 2 and "unknown vertex" in err

    @pytest.mark.parametrize("schedule", [("--schedule", "greedy"),
                                          ("--schedule", "symbolic", "--n",
                                           "1", "--m", "1")])
    def test_graph_that_is_not_admissible_exits_two(self, capsys, tmp_path,
                                                    schedule):
        src = tmp_path / "empty.json"
        src.write_text(json.dumps({"d": 1, "vertices": [], "edges": []}))
        code, out, err = run(capsys, "reduce", str(src), *schedule)
        assert code == 2 and out == ""
        assert err == "error: graph is not admissible: graph has no vertices\n"


class TestCheck:
    def test_sphere_ok(self, capsys):
        code, out, _ = run(capsys, "check", "sphere-h", "--h", "1,1,1,1")
        assert code == 0 and json.loads(out)["ok"] is True

    def test_sphere_failure_exits_one(self, capsys):
        code, out, _ = run(capsys, "check", "sphere-h", "--h", "1,0,6,-1")
        assert code == 1
        assert json.loads(out)["failed_condition"] == "nonnegativity"

    def test_rp(self, capsys):
        code, out, _ = run(capsys, "check", "rp-h", "--n", "3",
                           "--h", "1,0,3,0")
        assert code == 0 and json.loads(out)["ok"] is True

    def test_manifold_with_witness(self, capsys):
        code, out, _ = run(capsys, "check", "manifold-h", "--d", "4",
                           "--h", "1,0,6,0,1")
        assert code == 0
        assert json.loads(out)["witness"] == [1, 0, 0, 0]

    def test_rp_failure_names_the_shifted_sphere_condition(self, capsys):
        code, out, _ = run(capsys, "check", "rp-h", "--n", "3",
                           "--h", "1,0,3,1")
        assert code == 1
        assert json.loads(out)["failed_condition"] == \
               "shifted symmetry with h_0 = h_d = 1"

    def test_manifold_rejects_a_large_d8_vector(self, capsys):
        code, out, _ = run(capsys, "check", "manifold-h", "--d", "8", "--h",
                           "1,80,2800,56000,70000,56000,2800,81,1")
        assert code == 1 and json.loads(out)["witness"] is None

    def test_bad_vector_is_usage_error(self, capsys):
        code, _, err = run(capsys, "check", "sphere-h", "--h", "1,x,1")
        assert code == 2 and "bad integer vector" in err


class TestExport:
    def test_dot_output(self, capsys):
        code, out, _ = run(capsys, "export", TORUS, "--format", "dot")
        assert code == 0
        assert out.startswith("graph {")
        assert out.count(" -- ") == 9

    def test_poset_file_rejected(self, capsys, tmp_path):
        run(capsys, "build", "rp", "--n", "3", "--out",
            str(tmp_path / "rp.json"))
        code, _, err = run(capsys, "export", str(tmp_path / "rp.json"))
        assert code == 2 and "graph JSON" in err


# d = 1 with a rank-2 cell: the rank exceeds the dimension
RANK_ABOVE_D = {"d": 1, "cells": [
    {"id": 0, "rank": 0, "covers": [], "label": "0"},
    {"id": 1, "rank": 1, "covers": [0], "label": "a"},
    {"id": 2, "rank": 1, "covers": [0], "label": "b"},
    {"id": 3, "rank": 2, "covers": [1, 2], "label": "ab"}]}


class TestMalformedInput:
    @pytest.mark.parametrize("command", [("build", "from-json"),
                                         ("invariants",), ("reduce",)])
    @pytest.mark.parametrize("colors,d", [(2, 2.0), (1, True), (2, "2")])
    def test_graph_d_must_be_an_int(self, capsys, tmp_path, command, colors,
                                    d):
        src = tmp_path / "g.json"
        src.write_text(json.dumps(
            {**graph_to_dict(parallel_edges_graph(colors)), "d": d}))
        code, out, err = run(capsys, *command, str(src))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "d must be an integer" in err

    def test_graph_color_must_be_an_int(self, capsys, tmp_path):
        data = json.loads(Path(TORUS).read_text())
        data["edges"][0]["color"] = True
        src = tmp_path / "g.json"
        src.write_text(json.dumps(data))
        code, _, err = run(capsys, "invariants", str(src))
        assert code == 2 and "edge color True" in err

    @pytest.mark.parametrize("command", [("build", "from-json"),
                                         ("invariants",)])
    def test_poset_rank_above_d(self, capsys, tmp_path, command):
        src = tmp_path / "p.json"
        src.write_text(json.dumps(RANK_ABOVE_D))
        code, out, err = run(capsys, *command, str(src))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "rank 2 outside 0..1" in err


json_values = st.recursive(
    # small integers: a poset's d sizes its f- and h-vectors and the work
    # of invariants
    st.none() | st.booleans() | st.integers(-2, 6) | st.floats(-2, 6)
    | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=6)


@st.composite
def malformed_documents(draw):
    """A valid graph or poset document with one nested value replaced or
    deleted."""
    doc = draw(st.sampled_from([json.loads(Path(TORUS).read_text()),
                                poset_to_dict(boundary_of_simplex(2))]))
    node = doc
    while isinstance(node, (dict, list)) and node:
        parent = node
        key = draw(st.sampled_from(
            list(node) if isinstance(node, dict) else range(len(node))))
        node = parent[key]
        if draw(st.booleans()):
            break
    if isinstance(parent, dict) and draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = draw(json_values)
    return doc


class TestFuzz:
    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(malformed_documents() | json_values,
           st.sampled_from([("build", "from-json"), ("invariants",),
                            ("reduce",), ("export",)]))
    def test_exit_code_and_no_traceback(self, capsys, tmp_path, doc,
                                        command):
        src = tmp_path / "doc.json"
        src.write_text(json.dumps(doc))
        code, _, err = run(capsys, *command, str(src))
        assert code in (0, 1, 2)
        assert "Traceback" not in err

    @settings(suppress_health_check=[HealthCheck.function_scoped_fixture])
    @given(st.sampled_from(["sphere-h", "rp-h", "manifold-h"]),
           st.lists(st.integers(), min_size=1, max_size=9),
           st.none() | st.integers())
    def test_check_exit_code_and_no_traceback(self, capsys, kind, h, size):
        # size None: the dimension that matches the vector's length; "--h="
        # keeps argparse from reading a leading "-1,..." as an option
        argv = ["check", kind, "--h=" + ",".join(map(str, h))]
        if kind != "sphere-h":
            argv += ["--n" if kind == "rp-h" else "--d",
                     str(len(h) - 1 if size is None else size)]
        code, _, err = run(capsys, *argv)
        assert code in (0, 1, 2)
        assert "Traceback" not in err


class TestUsage:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_file(self, capsys):
        code, _, err = run(capsys, "invariants", "no-such-file.json")
        assert code == 2
