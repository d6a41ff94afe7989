import json
from collections import Counter

import pytest

from cellposet.constructions import (cross_polytope_quotient,
                                     product_spheres_graph)
from cellposet.graphs import graph_from_dict
from cellposet.homology import betti_gf2
from cellposet.posets import f_vector, from_graph, h_vector
from perfbench.tracing import NullRecorder
from perfbench.workloads import (MANIFOLD_H_BATCH, WORKLOADS, Job, check,
                                 decision_batch, inputs_digest, make_inputs,
                                 product_betti, rp_f_vector, run_job)


@pytest.mark.parametrize("workload", sorted(WORKLOADS))
def test_same_seed_gives_identical_inputs(workload):
    jobs = WORKLOADS[workload]
    a, b = make_inputs(jobs, 11), make_inputs(jobs, 11)
    assert json.dumps(a, sort_keys=True) == json.dumps(b, sort_keys=True)
    assert inputs_digest(a) == inputs_digest(b)


def test_other_seed_reorders_but_keeps_invariants():
    jobs = (Job("greedy", (2, 3)),)
    (a,), (b,) = make_inputs(jobs, 1), make_inputs(jobs, 2)
    assert a["vertices"] != b["vertices"]
    assert sorted(a["vertices"]) == sorted(b["vertices"])
    assert inputs_digest([a]) != inputs_digest([b])
    pa, pb = from_graph(graph_from_dict(a)), from_graph(graph_from_dict(b))
    assert f_vector(pa) == f_vector(pb)
    assert betti_gf2(pa) == betti_gf2(pb) == product_betti(2, 3)


def test_seeded_graph_is_the_product_graph():
    (data,) = make_inputs((Job("product_manifold", (2, 3)),), 5)
    g = product_spheres_graph(2, 3)
    edge = lambda e: (frozenset((e[0], e[1])), e[2])   # noqa: E731
    assert Counter(map(edge, g.edges)) == Counter(
        edge((e["u"], e["v"], e["color"])) for e in data["edges"])


def test_accepted_manifold_vectors_are_product_h_vectors():
    accepted = [h for h, ok in MANIFOLD_H_BATCH if ok]
    assert accepted == [
        h_vector(f_vector(from_graph(product_spheres_graph(n, m))))
        for n, m in ((2, 3), (3, 4))]


@pytest.mark.parametrize("n", [3, 4, 5, 6])
def test_rp_f_vector_closed_form(n):
    assert rp_f_vector(n) == f_vector(cross_polytope_quotient(n))


def test_decision_batch_meets_expected_verdicts(tmp_path):
    job = Job("decide", (4, 6))
    batch = decision_batch(4, 6)
    out = run_job(job, batch, NullRecorder(), tmp_path)
    assert check(job, batch, out) == []
    assert {item["expect"] for item in batch} == {True, False}


def test_check_catches_a_wrong_answer(tmp_path):
    job = Job("rp_invariants", (4,))
    out = run_job(job, None, NullRecorder(), tmp_path)
    assert check(job, None, out) == []
    out.answer["betti_gf2"] = [0, 0, 0, 1]
    assert check(job, None, out)


def test_product_betti_closed_form():
    assert product_betti(2, 3) == (0, 0, 1, 1, 0, 1)
    assert product_betti(3, 3) == (0, 0, 0, 2, 0, 0, 1)
