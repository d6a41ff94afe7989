import hashlib
import json
import os
import subprocess
import sys
import time
from pathlib import Path
from unittest import mock

import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from cellposet import graphs, homology, posets
from cellposet.cli import main
from cellposet.graphs import ColoredGraph
from cellposet.constructions import (boundary_of_simplex,
                                     parallel_edges_graph,
                                     product_spheres_graph)

from conftest import (census_graphs, graph_to_dict, insert_dipole,
                      poset_to_dict, rewired_simplex_boundary, shuffled,
                      two_pillows)

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


    @pytest.mark.parametrize("share_edge", [False, True])
    def test_poset_that_is_not_simplicial_exits_two(self, capsys, tmp_path,
                                                     share_edge):
        # the boundary squares to zero, so only the vertex-set check
        # refuses these; build from-json keeps its report and exit code
        src = tmp_path / "p.json"
        src.write_text(json.dumps(poset_to_dict(two_pillows(share_edge))))
        code, out, err = run(capsys, "invariants", str(src))
        assert code == 2 and out == ""
        assert err.startswith("error: not a simplicial poset: cell ")
        code, out, _ = run(capsys, "build", "from-json", str(src))
        assert code == 1
        data = json.loads(out)
        assert data["valid"] is False and data["violations"]

    def test_rewired_simplex_boundary_is_not_valid(self, capsys, tmp_path):
        # every cell has the face counts of a simplex, but two edges span
        # the same two vertices below one triangle
        src = tmp_path / "p.json"
        src.write_text(json.dumps(poset_to_dict(rewired_simplex_boundary())))
        code, out, _ = run(capsys, "build", "from-json", str(src))
        assert code == 1
        data = json.loads(out)
        assert data["valid"] is False and data["violations"]
        code, out, err = run(capsys, "invariants", str(src))
        assert code == 2 and out == ""
        assert err.startswith("error: not a simplicial poset: ")

    @pytest.mark.parametrize("d", [3, 19, 24])
    def test_graph_with_many_colors(self, capsys, tmp_path, d):
        # the two-vertex graph on d colors has 2^d + 1 cells: 9 for d = 3,
        # too many to build for d = 24; for d = 19 the boundary rows would
        # take at least C(38, 20) bits
        src = tmp_path / "g.json"
        src.write_text(json.dumps(graph_to_dict(parallel_edges_graph(d))))
        start = time.perf_counter()
        code, out, err = run(capsys, "invariants", str(src))
        assert time.perf_counter() - start < 1.0
        if d == 3:
            assert (code, err) == (0, "")
            assert json.loads(out)["f"] == [1, 3, 3, 2]
        elif d == 19:
            assert code == 2 and out == ""
            assert err == ("error: the chain complex of a 19-colored graph "
                           "has at least 33578000610 bits of boundary rows, "
                           "more than the limit of 4000000000\n")
        else:
            assert code == 2 and out == ""
            assert err == ("error: the cell poset of a 24-colored graph has "
                           "at least 16777216 cells, more than the limit of "
                           "1000000\n")


class TestModule:
    def test_python_dash_m_runs_the_cli(self):
        src = str(Path(__file__).resolve().parent.parent / "src")
        path = os.environ.get("PYTHONPATH")
        env = {**os.environ,
               "PYTHONPATH": src + (os.pathsep + path if path else "")}
        done = subprocess.run(
            [sys.executable, "-m", "cellposet", "check", "sphere-h", "--h=1,1"],
            env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout)["ok"] is True


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

    @pytest.mark.parametrize("argv,size", [
        (("product-spheres", "--n", "14", "--m", "14"), "2326762800 edges"),
        (("product-spheres", "--n", "14", "--m", "14", "--reduce"),
         "2326762800 edges"),
        (("rp", "--n", "24"), "141214768241 cells")])
    def test_output_too_large_exits_two(self, capsys, argv, size):
        start = time.perf_counter()
        code, out, err = run(capsys, "build", *argv)
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err.startswith("error: ") and size in err

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


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


class TestByteIdentity:
    """Digests of what `reduce` and `build product-spheres --reduce` write
    for S^2 x S^3, `build product-spheres --reduce` for S^3 x S^3, and
    `build rp --n 6` and `build product-spheres` for S^2 x S^3 unreduced.
    Those for S^2 x S^3 reduced were recorded from the edge-list reduction
    engine that the partner table replaced, that for S^3 x S^3 from the
    partner table that still searched for connectivity after every
    cancellation, and the last two from the writers that went through
    ``json.dumps(..., sort_keys=True, indent=2)`` and the builder that
    formatted every edge end's label anew, each by running the same
    command on the same input.  They pin the output byte for byte."""

    @staticmethod
    def shuffled_input(path: Path) -> None:
        path.write_text(json.dumps(graph_to_dict(
            shuffled(product_spheres_graph(2, 3), 7))))

    def test_greedy_reduce(self, capsys, tmp_path):
        src = tmp_path / "g.json"
        self.shuffled_input(src)
        code, out, err = run(capsys, "reduce", str(src),
                             "--certificate", str(tmp_path / "c.json"),
                             "--out", str(tmp_path / "o.json"))
        assert (code, out, err) == (0, '{\n  "steps": 9,\n  "vertices": 22\n}\n',
                                    "")
        assert sha256(tmp_path / "c.json") == \
            "9a1fe037c0d3defd38449870c34ddf4125ea97c84e87d67a8a2c38d3735ea6bb"
        assert sha256(tmp_path / "o.json") == \
            "c7e02c21b4e6489db8d7ab523c6872503fba10a0c2e4ff8d06c505c6f07b3891"

    def test_build_product_spheres_reduce(self, capsys, tmp_path):
        code, out, err = run(capsys, "build", "product-spheres", "--n", "2",
                             "--m", "3", "--reduce",
                             "--out", str(tmp_path / "o.json"))
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "d71559d1c906014800db27ffecb0adf2815ef8311b4dde4307714d71a7c945cc"
        assert sha256(tmp_path / "o.json") == \
            "3cf56c7fe3b50e896514a7c39b6596939bfedde88b31a7b010f0e9d08a669b30"

    def test_build_product_spheres_3_3_reduce(self, capsys, tmp_path):
        code, out, err = run(capsys, "build", "product-spheres", "--n", "3",
                             "--m", "3", "--reduce",
                             "--out", str(tmp_path / "o.json"))
        assert (code, err) == (0, "")
        assert hashlib.sha256(out.encode()).hexdigest() == \
            "db6aa3a2c402e07377e67448939626fc99d27e92a92c8c7408519769caba54f2"
        assert sha256(tmp_path / "o.json") == \
            "9c9dc8d26e7c7766da97309753610124295750d66aad63a59979ff2d062fe13f"

    def test_build_rp(self, capsys, tmp_path):
        code, _, err = run(capsys, "build", "rp", "--n", "6",
                           "--out", str(tmp_path / "o.json"))
        assert (code, err) == (0, "")
        assert sha256(tmp_path / "o.json") == \
            "87a15ea515a4a1f35b552924030d636d785490220ef40a1ac544a7dc9cde252b"

    def test_build_product_spheres(self, capsys, tmp_path):
        code, out, err = run(capsys, "build", "product-spheres", "--n", "2",
                             "--m", "3", "--out", str(tmp_path / "o.json"))
        assert (code, out, err) == (
            0, '{\n  "edges": 120,\n  "vertices": 40\n}\n', "")
        assert sha256(tmp_path / "o.json") == \
            "d088828ee547b73d74fc8334e510294c84941478643365617d7fb7b6be4c3eaa"


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

    def test_greedy_on_minimal_graph_is_a_no_op(self, capsys, tmp_path):
        cert_file = tmp_path / "cert.json"
        code, out, _ = run(capsys, "reduce", TORUS, "--schedule", "greedy",
                           "--certificate", str(cert_file))
        assert code == 0
        assert json.loads(out) == {"vertices": 6, "steps": 0}
        assert cert_file.read_text() == "[]"

    def test_symbolic_needs_dimensions(self, capsys):
        code, _, err = run(capsys, "reduce", TORUS, "--schedule", "symbolic")
        assert code == 2 and "requires" in err

    @pytest.mark.parametrize("options", [("--n", "5", "--m", "7"),
                                         ("--schedule", "greedy", "--n", "1"),
                                         ("--m", "1")])
    def test_dimensions_without_the_symbolic_schedule_exit_two(
            self, capsys, options):
        assert run(capsys, "reduce", TORUS, *options) == (
            2, "", "error: --n and --m apply only to --schedule symbolic\n")

    def test_wrong_schedule_pair_fails_cleanly(self, capsys, tmp_path):
        # symbolic schedule for (2,1) against the (1,2) graph: labels differ
        graph_file = tmp_path / "lambda.json"
        run(capsys, "build", "product-spheres", "--n", "1", "--m", "2",
            "--out", str(graph_file))
        code, _, err = run(capsys, "reduce", str(graph_file),
                           "--schedule", "symbolic", "--n", "2", "--m", "1")
        assert code == 2 and "unknown vertex" in err

    def test_symbolic_result_above_the_minimum_exits_one(self, capsys,
                                                         tmp_path):
        # ten vertices of a torus crystallization: the one (1,1) pair
        # leaves 8, not the minimal 6
        src = tmp_path / "g.json"
        src.write_text(json.dumps(graph_to_dict(insert_dipole(
            product_spheres_graph(1, 1), "D:{1}", "X", "Y"))))
        code, out, err = run(capsys, "reduce", str(src), "--schedule",
                             "symbolic", "--n", "1", "--m", "1")
        assert (code, out, err) == (
            1, "", "error: reduced graph has 8 vertices, expected 6\n")

    def test_symbolic_reduce_matches_build_reduce(self, capsys, tmp_path):
        run(capsys, "build", "product-spheres", "--n", "2", "--m", "2",
            "--out", str(tmp_path / "g.json"))
        code, out, _ = run(capsys, "build", "product-spheres", "--n", "2",
                           "--m", "2", "--reduce",
                           "--out", str(tmp_path / "built.json"))
        assert code == 0
        code, _, _ = run(capsys, "reduce", str(tmp_path / "g.json"),
                         "--schedule", "symbolic", "--n", "2", "--m", "2",
                         "--certificate", str(tmp_path / "c.json"),
                         "--out", str(tmp_path / "reduced.json"))
        assert code == 0
        assert (tmp_path / "reduced.json").read_bytes() == \
            (tmp_path / "built.json").read_bytes()
        assert json.loads((tmp_path / "c.json").read_text()) == \
            json.loads(out)["steps"]

    @pytest.mark.parametrize("graph,n,m", [
        # d = 3 wants n + m = 2: refused before C(28, 14) entries are built
        (product_spheres_graph(1, 1), 14, 14),
        # d = 5 fits n = m = 2, whose 5 entries need at least 12 vertices
        (parallel_edges_graph(5), 2, 2),
        (product_spheres_graph(1, 1), 0, 2)])
    def test_symbolic_schedule_that_cannot_fit_exits_two(
            self, capsys, tmp_path, graph, n, m):
        src = tmp_path / "g.json"
        src.write_text(json.dumps(graph_to_dict(graph)))
        start = time.perf_counter()
        code, out, err = run(capsys, "reduce", str(src), "--schedule",
                             "symbolic", "--n", str(n), "--m", str(m))
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err.startswith(f"error: the cancellation schedule of "
                              f"S^{n} x S^{m} needs ")

    def test_symbolic_fit_check_stays_fast_on_a_huge_d(self, capsys,
                                                        tmp_path):
        # n + m + 1 = d: C(2000000, 1000000), computed exactly, took most
        # of a minute before the graph was found not admissible
        src = tmp_path / "g.json"
        src.write_text(json.dumps({"d": 2000001, "vertices": ["a", "b"],
                                   "edges": [{"u": "a", "v": "b",
                                              "color": 1}]}))
        start = time.perf_counter()
        result = run(capsys, "reduce", str(src), "--schedule", "symbolic",
                     "--n", "1000000", "--m", "1000000")
        assert time.perf_counter() - start < 5.0
        assert result == (2, "", "error: graph is not admissible: no edge "
                                 "has color 2..2000001\n")

    def test_greedy_above_its_bound_exits_two(self, capsys, tmp_path):
        src = tmp_path / "g.json"
        src.write_text(json.dumps(graph_to_dict(product_spheres_graph(5, 5))))
        start = time.perf_counter()
        code, out, err = run(capsys, "reduce", str(src))
        assert time.perf_counter() - start < 1.0
        assert (code, out, err) == (
            2, "", "error: greedy reduction of this 1008-vertex 11-colored "
                   "graph may make 2794176 dipole tests, more than the "
                   "limit of 1000000\n")

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


# the (1,1) product graph without its first edge: 8 vertices, d = 3, and
# two vertices with no color-1 edge
BROKEN = ColoredGraph(3, product_spheres_graph(1, 1).vertices,
                      product_spheres_graph(1, 1).edges[1:])
NOT_ADMISSIBLE = ("error: graph is not admissible: color 1: vertex "
                  "'A:{1}' meets 0 edges, expected exactly 1; color 1: "
                  "vertex 'C:{1}' meets 0 edges, expected exactly 1\n")


class TestOneAdmissibilityWalk:
    """`reduce --schedule symbolic` walks a graph's edges for admissibility
    once, in `run_schedule`: before the fit check, so that a graph that
    is not admissible and does not fit the schedule gets the admissibility
    error."""

    @pytest.mark.parametrize("graph,nm,code,err", [
        (product_spheres_graph(1, 2), (1, 2), 0, ""),
        (BROKEN, (1, 1), 2, NOT_ADMISSIBLE),
        (parallel_edges_graph(5), (2, 2), 2,
         "error: the cancellation schedule of S^2 x S^2 needs n, m >= 1, d "
         "= n + m + 1 and at least 2*C(n+m, n) vertices; the graph has d = "
         "5 and 2 vertices\n"),
        (BROKEN, (2, 2), 2, NOT_ADMISSIBLE)])
    def test_symbolic_schedule(self, capsys, tmp_path, monkeypatch, graph,
                               nm, code, err):
        src = tmp_path / "g.json"
        src.write_text(json.dumps(graph_to_dict(graph)))
        walks = []
        walk = graphs._admissibility
        monkeypatch.setattr(graphs, "_admissibility",
                            lambda g: walks.append(g) or walk(g))
        result = run(capsys, "reduce", str(src), "--schedule", "symbolic",
                     "--n", str(nm[0]), "--m", str(nm[1]))
        assert len(walks) == 1
        assert (result[0], result[2]) == (code, err)
        assert (result[1] == "") == (code != 0)


def recognize_input(name: str, torus_suspension_graph) -> ColoredGraph:
    """A graph for `recognize`: two of d = 4 and two of d = 5, where the
    link test of a graph's poset first tries the vertex-link certificate."""
    return {"S^1 x S^2": lambda: product_spheres_graph(1, 2),
            "torus suspension": lambda: torus_suspension_graph,
            "S^2 x S^2": lambda: product_spheres_graph(2, 2),
            "census non-manifold": lambda: next(
                g for g in census_graphs(5, 6)
                if not homology.is_homology_manifold(posets.from_graph(g)))
            }[name]()


class TestRecognize:
    @pytest.mark.parametrize("name,manifold", [("S^1 x S^2", True),
                                               ("torus suspension", False),
                                               ("S^2 x S^2", True),
                                               ("census non-manifold", False)])
    def test_graph_files(self, capsys, tmp_path, torus_suspension_graph,
                         name, manifold):
        # the suspension of the torus is a pseudomanifold whose two cone
        # points have tori for links
        graph = recognize_input(name, torus_suspension_graph)
        src = tmp_path / "g.json"
        src.write_text(json.dumps(graph_to_dict(graph)))
        code, out, err = run(capsys, "recognize", str(src))
        assert code == 0 and err == ""
        assert out == ('{\n  "homology_manifold": %s,\n'
                       '  "pseudomanifold": true\n}\n'
                       % json.dumps(manifold))

    @pytest.mark.parametrize("name", ["S^1 x S^2", "torus suspension",
                                      "S^2 x S^2", "census non-manifold"])
    def test_a_graph_and_its_poset_file_print_alike(
            self, capsys, tmp_path, torus_suspension_graph, name):
        # the poset file is loaded unmarked, so the link test eliminates
        # the links it reads off the graph's poset; at d = 5 the graph's
        # poset takes the certificate, which passes exactly on a manifold
        graph = recognize_input(name, torus_suspension_graph)
        src, poset = tmp_path / "g.json", tmp_path / "p.json"
        src.write_text(json.dumps(graph_to_dict(graph)))
        poset.write_text(posets.poset_to_json(posets.from_graph(graph)))
        certified, verdicts = homology._certified, []
        with mock.patch.object(
                homology, "_certified",
                lambda p: verdicts.append(certified(p)) or verdicts[-1]):
            code, out, err = run(capsys, "recognize", str(src))
            assert code == 0 and err == ""
            assert run(capsys, "recognize", str(poset)) == (code, out, err)
        assert verdicts == [json.loads(out)["homology_manifold"]] * (
            graph.d >= 5)

    def test_poset_file(self, capsys, tmp_path):
        src = tmp_path / "rp.json"
        run(capsys, "build", "rp", "--n", "4", "--out", str(src))
        code, out, _ = run(capsys, "recognize", str(src))
        assert code == 0
        assert json.loads(out) == {"homology_manifold": True,
                                   "pseudomanifold": True}

    @pytest.mark.parametrize("doc,error", [
        (poset_to_dict(two_pillows()), "error: not a simplicial poset: "),
        (poset_to_dict(rewired_simplex_boundary()),
         "error: not a simplicial poset: "),
        ({"d": 1, "vertices": ["a"], "edges": []},
         "error: graph is not admissible: "),
        ({"d": 2, "cells": [{"id": 0}]}, "error: malformed poset JSON: "),
        ("{", "error: ")])
    def test_malformed_files_exit_two(self, capsys, tmp_path, doc, error):
        src = tmp_path / "doc.json"
        src.write_text(doc if isinstance(doc, str) else json.dumps(doc))
        code, out, err = run(capsys, "recognize", str(src))
        assert code == 2 and out == ""
        assert err.startswith(error)


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
        assert json.loads(out)["witness"] == [0, 0, 0, 1]

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

    @pytest.mark.parametrize("kind,rest,failed", [
        ("sphere-h", [], "nonnegativity"),
        ("rp-h", ["--n", "1"], "shifted nonnegativity"),
        ("manifold-h", ["--d", "2"], None)])
    def test_vector_with_a_leading_negative_entry(self, capsys, kind, rest,
                                                  failed):
        h = "-1,0" if kind != "manifold-h" else "-1,0,1"
        spaced = run(capsys, "check", kind, "--h", h, *rest)
        assert spaced == run(capsys, "check", kind, "--h=" + h, *rest)
        code, out, _ = spaced
        assert code == 1
        if failed:
            assert json.loads(out)["failed_condition"] == failed

    @pytest.mark.parametrize("kind,option,value,message", [
        ("rp-h", "--n", "0", "need n >= 1, got n=0"),
        ("rp-h", "--n", "-5", "need n >= 1, got n=-5"),
        ("manifold-h", "--d", "0", "need d >= 2, got d=0"),
        ("manifold-h", "--d", "-2", "need d >= 2, got d=-2")])
    def test_dimension_out_of_range_is_an_input_error(
            self, capsys, kind, option, value, message):
        code, out, err = run(capsys, "check", kind, "--h", "1,2",
                             option, value)
        assert code == 2 and out == ""
        assert err == f"error: {message}\n"

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

# d = 10**9 with one edge: only color 1 is carried
ONE_COLOR_OF_A_BILLION = {"d": 10 ** 9, "vertices": ["a", "b"],
                          "edges": [{"u": "a", "v": "b", "color": 1}]}


class TestMalformedInput:
    @pytest.mark.parametrize("command", [("build", "from-json"),
                                         ("invariants",), ("reduce",),
                                         ("recognize",)])
    @pytest.mark.parametrize("colors,d", [(2, 2.0), (1, True), (2, "2")])
    def test_graph_d_must_be_an_int(self, capsys, tmp_path, command, colors,
                                    d):
        src = tmp_path / "g.json"
        src.write_text(json.dumps(
            {**graph_to_dict(parallel_edges_graph(colors)), "d": d}))
        code, out, err = run(capsys, *command, str(src))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "d must be an integer" in err

    @pytest.mark.parametrize("command", [("build", "from-json"),
                                         ("invariants",), ("reduce",),
                                         ("export",), ("recognize",)])
    def test_json_nested_too_deeply(self, capsys, tmp_path, command):
        src = tmp_path / "deep.json"
        src.write_text("[" * 100000 + "]" * 100000)
        code, out, err = run(capsys, *command, str(src))
        assert code == 2 and out == ""
        assert err == f"error: {src}: JSON nested too deeply\n"

    @pytest.mark.parametrize("command", [("build", "from-json"),
                                         ("invariants",), ("reduce",),
                                         ("export",), ("recognize",)])
    @pytest.mark.parametrize("label", [1, None, True, 1.5])
    def test_vertex_label_must_be_a_string(self, capsys, tmp_path, command,
                                           label):
        src = tmp_path / "g.json"
        src.write_text(json.dumps({"d": 2, "vertices": [label, "b"], "edges": [
            {"u": label, "v": "b", "color": 1},
            {"u": label, "v": "b", "color": 2}]}))
        code, out, err = run(capsys, *command, str(src))
        assert code == 2 and out == ""
        assert err == f"error: vertex label {label!r} is not a string\n"

    @pytest.mark.parametrize("command", [("build", "from-json"),
                                         ("invariants",), ("reduce",),
                                         ("export",), ("recognize",)])
    def test_vertices_must_be_a_list(self, capsys, tmp_path, command):
        src = tmp_path / "g.json"
        src.write_text(json.dumps({"d": 1, "vertices": "ab", "edges": [
            {"u": "a", "v": "b", "color": 1}]}))
        code, out, err = run(capsys, *command, str(src))
        assert code == 2 and out == ""
        assert err == ("error: malformed graph JSON: vertices must be a "
                       "list, not str\n")

    @pytest.mark.parametrize("command", [("build", "from-json"),
                                         ("invariants",), ("recognize",)])
    def test_poset_too_large_to_check(self, capsys, tmp_path, monkeypatch,
                                      command):
        # an input error, not a "valid": false report
        src = tmp_path / "p.json"
        src.write_text(json.dumps(poset_to_dict(boundary_of_simplex(3))))
        monkeypatch.setattr(posets, "MAX_ROW_BITS", 51)
        code, out, err = run(capsys, *command, str(src))
        assert code == 2 and out == ""
        assert err == ("error: the chain complex has 52 bits of boundary "
                       "rows, more than the limit of 51\n")

    def test_graph_color_must_be_an_int(self, capsys, tmp_path):
        data = json.loads(Path(TORUS).read_text())
        data["edges"][0]["color"] = True
        src = tmp_path / "g.json"
        src.write_text(json.dumps(data))
        code, _, err = run(capsys, "invariants", str(src))
        assert code == 2 and "edge color True" in err

    @pytest.mark.parametrize("command", [("build", "from-json"),
                                         ("invariants",), ("recognize",)])
    def test_poset_rank_above_d(self, capsys, tmp_path, command):
        src = tmp_path / "p.json"
        src.write_text(json.dumps(RANK_ABOVE_D))
        code, out, err = run(capsys, *command, str(src))
        assert code == 2 and out == ""
        assert err.startswith("error:") and "rank 2 outside 0..1" in err

    @pytest.mark.parametrize("command", [("build", "from-json"),
                                         ("invariants",), ("recognize",)])
    @pytest.mark.parametrize("d", [10, 10 ** 6])
    def test_poset_d_above_every_rank(self, capsys, tmp_path, command, d):
        src = tmp_path / "p.json"
        src.write_text(json.dumps(
            {**poset_to_dict(boundary_of_simplex(2)), "d": d}))
        start = time.perf_counter()
        code, out, err = run(capsys, *command, str(src))
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err == f"error: d is {d}, but the greatest cell rank is 2\n"

    @pytest.mark.parametrize("command", [
        ("invariants",), ("recognize",), ("reduce",),
        ("reduce", "--schedule", "symbolic", "--n", "1", "--m", "1")])
    def test_graph_d_above_every_edge_color(self, capsys, tmp_path, command):
        # the partner table gets a row per color an edge carries, not d
        src = tmp_path / "g.json"
        src.write_text(json.dumps(ONE_COLOR_OF_A_BILLION))
        start = time.perf_counter()
        code, out, err = run(capsys, *command, str(src))
        assert time.perf_counter() - start < 1.0
        assert code == 2 and out == ""
        assert err == ("error: graph is not admissible: no edge has color "
                       "2..1000000000\n")

    def test_graph_d_above_every_edge_color_is_reported(self, capsys,
                                                         tmp_path):
        src = tmp_path / "g.json"
        src.write_text(json.dumps(ONE_COLOR_OF_A_BILLION))
        start = time.perf_counter()
        code, out, err = run(capsys, "build", "from-json", str(src))
        assert time.perf_counter() - start < 1.0
        assert (code, err) == (1, "")
        assert json.loads(out) == {
            "kind": "graph", "d": 10 ** 9, "vertices": 2, "edges": 1,
            "admissible": False,
            "violations": ["no edge has color 2..1000000000"]}

    @pytest.mark.parametrize("command", [("build", "from-json"),
                                         ("invariants",), ("recognize",)])
    @pytest.mark.parametrize("label", [1, None, True, [1]])
    def test_cell_label_must_be_a_string(self, capsys, tmp_path, command,
                                         label):
        doc = poset_to_dict(boundary_of_simplex(2))
        doc["cells"][1]["label"] = label
        src = tmp_path / "p.json"
        src.write_text(json.dumps(doc))
        code, out, err = run(capsys, *command, str(src))
        assert code == 2 and out == ""
        assert err == f"error: cell 1 label {label!r} is not a string\n"

    @pytest.mark.parametrize("command", [("build", "from-json"),
                                         ("invariants",), ("recognize",)])
    @pytest.mark.parametrize("cell,value", [(0, 0.0), (1, True), (2, 2.0)])
    def test_cell_id_must_be_an_int(self, capsys, tmp_path, command, cell,
                                    value):
        # each value equals the id it replaces
        doc = poset_to_dict(boundary_of_simplex(2))
        doc["cells"][cell]["id"] = value
        src = tmp_path / "p.json"
        src.write_text(json.dumps(doc))
        code, out, err = run(capsys, *command, str(src))
        assert code == 2 and out == ""
        assert err == (f"error: malformed poset JSON: cell id {value!r} is "
                       "not an integer\n")


json_values = st.recursive(
    # mostly small integers, which keep a mutated document near a valid
    # one; large ones too, since neither a graph's nor a poset's d may
    # size the work beyond what its edges and cells do
    st.none() | st.booleans() | st.integers(-2, 6) | st.integers()
    | st.floats(-2, 6) | st.text(max_size=3),
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
                            ("reduce",), ("export",), ("recognize",)]
                           + [("reduce", "--schedule", "symbolic",
                               "--n", str(n), "--m", str(m))
                              for n, m in ((1, 1), (2, 2), (0, 3),
                                           (10 ** 6, 10 ** 6))]))
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
        # size None: the dimension that matches the vector's length
        vector = ",".join(map(str, h))
        rest = []
        if kind != "sphere-h":
            rest = ["--n" if kind == "rp-h" else "--d",
                    str(len(h) - 1 if size is None else size)]
        code, out, err = run(capsys, "check", kind, "--h=" + vector, *rest)
        assert code in (0, 1, 2)
        assert "Traceback" not in err
        # the space-separated form, also for a vector such as "-1,0"
        assert run(capsys, "check", kind, "--h", vector, *rest) == \
               (code, out, err)


class TestUsage:
    def test_missing_subcommand(self):
        with pytest.raises(SystemExit) as exc:
            main([])
        assert exc.value.code == 2

    def test_unknown_file(self, capsys):
        code, _, err = run(capsys, "invariants", "no-such-file.json")
        assert code == 2


class TestUnwritableOutput:
    @pytest.mark.parametrize("argv", [
        ("build", "product-spheres", "--n", "1", "--m", "1", "--out"),
        ("build", "rp", "--n", "3", "--out"),
        ("reduce", TORUS, "--out"),
        ("reduce", TORUS, "--certificate")])
    def test_exits_two_before_printing(self, capsys, tmp_path, argv):
        missing = tmp_path / "missing" / "x.json"
        code, out, err = run(capsys, *argv, str(missing))
        assert code == 2 and out == ""
        assert err.startswith("error: ")
