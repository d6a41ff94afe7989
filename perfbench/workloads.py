"""Workloads of the cellposet benchmark: seeded inputs, the jobs that run
on them, and the correctness checks each job's answer must pass.

Each job calls the public entry points the matching `cellposet` CLI
subcommand calls and ends with the CLI's `json.dumps(..., sort_keys=True,
indent=2)` output.  Graph inputs arrive as JSON-shaped dicts and are loaded
inside the job, as `cellposet invariants FILE` loads them, so no per-object
cache carries over from one pass to the next.  Every call into the program
sits inside a span named `<module>.<operation>`; untraced runs pass a
`NullRecorder`, so the job code is the same with tracing on and off.

The checks use the paper's closed forms, never recorded outputs: reduced
Betti numbers of S^n x S^m and RP^(n-1), the f-vector of the cross-polytope
quotient, Euler-Poincare, minimal crystallization size 2 + 2*C(n+m, n), and
fixed verdicts for the h-vector deciders.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from math import comb
from pathlib import Path

from cellposet.checkers import check_manifold_h, check_rp_h, check_sphere_h
from cellposet.constructions import (cross_polytope_quotient,
                                     product_spheres_graph)
from cellposet.graphs import (graph_from_dict, graph_to_json,
                              validate_admissible)
from cellposet.homology import betti_gf2, h_double_prime, is_homology_manifold
from cellposet.posets import f_vector, from_graph, h_vector
from cellposet.reduction import greedy_reduce, reduce_product_spheres

from .stats import min_crystallization_vertices


@dataclass(frozen=True)
class Job:
    kind: str
    params: tuple[int, ...]

    @property
    def name(self) -> str:
        return f"{self.kind}{self.params}"


# Why these jobs: `invariants` is a few very large read-only complexes
# (graph load, from_graph, GF(2) rank); the RP job skips the graph layer.
# `reduce` is repeated graph rewriting with no homology.  `recognize` is
# thousands of tiny homology problems (one per link) plus the h-vector
# deciders' search.  Greedy reduction runs on five differently shuffled
# graphs: the vertex count it stops at depends on the order, and the sum over
# five keeps vertex_excess_ratio steady from one seed to the next.
WORKLOADS: dict[str, tuple[Job, ...]] = {
    "invariants": (Job("product_invariants", (4, 5)),
                   Job("rp_invariants", (10,))),
    "reduce": (Job("schedule", (4, 5)),
               Job("greedy", (2, 3)), Job("greedy", (2, 3)),
               Job("greedy", (2, 4)), Job("greedy", (2, 4)),
               Job("greedy", (3, 3))),
    "recognize": (Job("product_manifold", (3, 4)),
                  Job("rp_manifold", (8,)),
                  Job("decide", (4, 10))),
}

# h-vectors for check_manifold_h with their verdicts.  Rejects: for an
# odd-dimensional closed manifold (even d) Dehn-Sommerville makes h
# symmetric, and h_1 != h_{d-1} here.  Accepts: the h-vectors of the
# product_spheres_graph cell decompositions of S^2 x S^3 and S^3 x S^4
# (perfbench/tests checks them against the program).
MANIFOLD_H_BATCH = (
    ((1, 60, 1600, 12000, 1600, 61, 1), False),
    ((1, 40, 800, 5000, 800, 41, 1), False),
    ((1, 6, 3, 20, 3, 6, 1), True),
    ((1, 12, 18, 4, 70, 4, 18, 12, 1), True),
)


# --- inputs ------------------------------------------------------------------

def shuffled_graph(n: int, m: int, rnd: random.Random) -> dict:
    """Graph JSON of S^n x S^m with vertex order, edge order and edge
    orientation permuted by `rnd`."""
    g = product_spheres_graph(n, m)
    vertices = list(g.vertices)
    rnd.shuffle(vertices)
    edges = [{"u": u, "v": v, "color": c} if rnd.random() < 0.5
             else {"u": v, "v": u, "color": c} for u, v, c in g.edges]
    rnd.shuffle(edges)
    return {"d": g.d, "vertices": vertices, "edges": edges}


def rp_f_vector(n: int) -> tuple[int, ...]:
    """f-vector of the cross-polytope quotient: C(n,k) 2^k faces of size k,
    identified in antipodal pairs."""
    return (1,) + tuple(comb(n, k) * 2 ** (k - 1) for k in range(1, n + 1))


def h_from_f(f) -> tuple[int, ...]:
    d = len(f) - 1
    return tuple(sum((-1) ** (k - i) * comb(d - i, k - i) * f[i]
                     for i in range(k + 1)) for k in range(d + 1))


def decision_batch(lo: int, hi: int) -> list[dict]:
    """Decider calls with their expected verdicts.

    RP^(n-1) h-vectors are accepted by check_rp_h.  check_sphere_h accepts
    them exactly for even n: by Dehn-Sommerville and Euler's relation h is
    symmetric with h_n = 1 then, while h_n = 0 for odd n.  Raising h_1 by
    one breaks the (shifted) symmetry, so both checkers reject the copy.
    For even n, raising the middle entry keeps the symmetry but makes the
    entry sum odd while h_1 = n - n = 0 is an internal zero, so both
    checkers reject that copy too.
    """
    batch = [{"check": "manifold_h", "h": list(h), "d": len(h) - 1,
              "expect": ok} for h, ok in MANIFOLD_H_BATCH]
    for n in range(lo, hi + 1):
        h = list(h_from_f(rp_f_vector(n)))
        bumped = [h[0], h[1] + 1] + h[2:]
        batch += [{"check": "sphere_h", "h": h, "expect": n % 2 == 0},
                  {"check": "rp_h", "h": h, "n": n, "expect": True},
                  {"check": "sphere_h", "h": bumped, "expect": False},
                  {"check": "rp_h", "h": bumped, "n": n, "expect": False}]
        if n % 2 == 0:
            odd = h[:n // 2] + [h[n // 2] + 1] + h[n // 2 + 1:]
            batch += [{"check": "sphere_h", "h": odd, "expect": False},
                      {"check": "rp_h", "h": odd, "n": n, "expect": False}]
    return batch


def make_inputs(jobs, seed: int) -> list:
    """One input per job; the same seed gives byte-identical inputs."""
    out = []
    for i, job in enumerate(jobs):
        if job.kind in ("product_invariants", "greedy", "product_manifold"):
            out.append(shuffled_graph(*job.params,
                                      random.Random(f"{seed}/{i}")))
        elif job.kind == "decide":
            out.append(decision_batch(*job.params))
        else:
            out.append(None)
    return out


def inputs_digest(inputs) -> str:
    return hashlib.sha256(
        json.dumps(inputs, sort_keys=True).encode()).hexdigest()


# --- jobs ----------------------------------------------------------------------

@dataclass
class Outcome:
    """A job's CLI output, the files it wrote, and values for the checks."""

    text: str
    files: dict[str, str]
    answer: dict


def _emit(rec, record) -> str:
    with rec.span("cli.emit"):
        return json.dumps(record, sort_keys=True, indent=2)


def _write(rec, out_dir: Path, files: dict[str, str]) -> None:
    with rec.span("cli.write"):
        for name, text in files.items():
            (out_dir / name).write_text(text)


def _load(rec, data):
    with rec.span("graphs.load"):
        g = graph_from_dict(data)
    rec.count("graphs.vertices", len(g.vertices))
    rec.count("graphs.edges", len(g.edges))
    return g


def _from_graph(rec, g):
    with rec.span("posets.from_graph"):
        p = from_graph(g)
    rec.count("posets.cells", p.n_cells)
    return p


def _rp(rec, n):
    with rec.span("constructions.rp"):
        return cross_polytope_quotient(n)


def _invariants(rec, p) -> Outcome:
    """`cellposet invariants` / `cellposet build rp` on a poset."""
    with rec.span("posets.vectors"):
        f = f_vector(p)
        h = h_vector(f)
    with rec.span("homology.betti"):
        betti = betti_gf2(p)
    rec.count("homology.rows", p.n_cells - 1)
    with rec.span("homology.h2"):
        h2 = h_double_prime(h, betti)
    record = {"f": list(f), "h": list(h), "betti_gf2": list(betti),
              "h_double_prime": list(h2)}
    return Outcome(_emit(rec, record), {}, record)


def _manifold(rec, p) -> Outcome:
    with rec.span("homology.manifold"):
        ok = is_homology_manifold(p)
    # a yes answer checks the link of every cell of rank >= 1
    rec.count("homology.links", p.n_cells - 1 if ok else 0)
    record = {"homology_manifold": ok}
    return Outcome(_emit(rec, record), {}, record)


def _reduced(rec, out_dir, final, steps, record) -> Outcome:
    """Print the record, write the final graph and the step certificate."""
    with rec.span("graphs.dump"):
        graph_text = graph_to_json(final)
    text = _emit(rec, record)
    certificate = _emit(rec, [s.to_dict() for s in steps])
    files = {"graph.json": graph_text, "certificate.json": certificate}
    _write(rec, out_dir, files)
    return Outcome(text, files, {"final": final, "steps": steps})


def run_job(job: Job, data, rec, out_dir: Path) -> Outcome:
    kind = job.kind
    if kind == "product_invariants":
        return _invariants(rec, _from_graph(rec, _load(rec, data)))
    if kind == "rp_invariants":
        return _invariants(rec, _rp(rec, *job.params))
    if kind == "schedule":
        # `cellposet build product-spheres --reduce`, verified entry point
        with rec.span("reduction.schedule"):
            final, steps = reduce_product_spheres(*job.params)
        rec.count("reduction.schedule_steps", len(steps))
        record = {"vertices": len(final.vertices),
                  "steps": [s.to_dict() for s in steps]}
        return _reduced(rec, out_dir, final, steps, record)
    if kind == "greedy":
        # `cellposet reduce FILE --certificate C --out O`
        g = _load(rec, data)
        with rec.span("reduction.greedy"):
            final, steps = greedy_reduce(g)
        rec.count("reduction.greedy_steps", len(steps))
        rec.count("reduction.final_vertices", len(final.vertices))
        record = {"vertices": len(final.vertices), "steps": len(steps)}
        return _reduced(rec, out_dir, final, steps, record)
    if kind == "product_manifold":
        return _manifold(rec, _from_graph(rec, _load(rec, data)))
    if kind == "rp_manifold":
        return _manifold(rec, _rp(rec, *job.params))
    if kind == "decide":
        return _decide(rec, data)
    raise ValueError(f"unknown job kind {kind!r}")


def _decide(rec, batch) -> Outcome:
    """`cellposet check {manifold-h,sphere-h,rp-h}` over the batch."""
    results = []
    for item in batch:
        h = tuple(item["h"])
        if item["check"] == "manifold_h":
            verdict = "accept" if item["expect"] else "reject"
            with rec.span(f"checkers.manifold_h_{verdict}"):
                result = check_manifold_h(h, item["d"])
        else:
            with rec.span("checkers.vector"):
                result = (check_sphere_h(h) if item["check"] == "sphere_h"
                          else check_rp_h(h, item["n"]))
        rec.count("checkers.decisions")
        results.append(result)
    text = _emit(rec, [r.to_dict() for r in results])
    return Outcome(text, {}, {"ok": [r.ok for r in results]})


# --- correctness checks -----------------------------------------------------------

def product_betti(n: int, m: int) -> tuple[int, ...]:
    """Reduced Betti numbers of S^n x S^m: one class each in degrees n, m
    and n+m (so 2 in degree n when n = m)."""
    out = [0] * (n + m + 1)
    for k in (n, m, n + m):
        out[k] += 1
    return tuple(out)


def rp_betti(n: int) -> tuple[int, ...]:
    """Reduced GF(2) Betti numbers of RP^(n-1)."""
    return (0,) + (1,) * (n - 1)


def euler_poincare(f, betti) -> bool:
    """Reduced Euler characteristic from cells equals the one from homology
    (f_0 counts the empty cell)."""
    return (sum((-1) ** (k - 1) * x for k, x in enumerate(f))
            == sum((-1) ** i * b for i, b in enumerate(betti)))


def check(job: Job, data, outcome: Outcome) -> list[str]:
    """Problems with a job's answer; empty when it is correct."""
    kind, ans = job.kind, outcome.answer
    problems = []

    def need(cond: bool, what: str) -> None:
        if not cond:
            problems.append(f"{job.name}: {what}")

    if kind in ("product_invariants", "rp_invariants"):
        f, betti = tuple(ans["f"]), tuple(ans["betti_gf2"])
        need(euler_poincare(f, betti), "Euler-Poincare fails")
        if kind == "product_invariants":
            n, m = job.params
            need(betti == product_betti(n, m), f"betti {betti}")
            need(f[-1] == 4 * comb(n + m, n), f"facets {f[-1]}")
            need(check_sphere_h(ans["h_double_prime"]).ok,
                 "h'' is not a sphere h-vector")
        else:
            (n,) = job.params
            need(betti == rp_betti(n), f"betti {betti}")
            need(f == rp_f_vector(n), f"f {f}")
    elif kind in ("schedule", "greedy"):
        n, m = job.params
        final, steps = ans["final"], ans["steps"]
        vertices = len(final.vertices)
        start = 4 * comb(n + m, n)
        need(not validate_admissible(final), "result is not admissible")
        need(vertices == start - 2 * len(steps), "steps do not add up")
        if kind == "schedule":
            need(vertices == min_crystallization_vertices(n, m),
                 f"{vertices} vertices")
        else:
            need(vertices >= min_crystallization_vertices(n, m),
                 f"{vertices} vertices, below the minimum")
            need(betti_gf2(from_graph(final)) == product_betti(n, m),
                 "result has the wrong Betti numbers")
    elif kind in ("product_manifold", "rp_manifold"):
        need(ans["homology_manifold"] is True, "not a homology manifold")
    elif kind == "decide":
        expect = [item["expect"] for item in data]
        need(ans["ok"] == expect, "verdicts differ from the expected ones")
    return problems
