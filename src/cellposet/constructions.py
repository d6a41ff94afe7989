"""Explicit builders: the 4-block colored graph presenting a product of
two spheres, the colored graph of facet orbits whose poset is the
antipodal cross-polytope quotient presenting real projective space,
connected sums, and simplex boundary fixtures.
"""

from __future__ import annotations

from itertools import combinations, product, repeat
from math import comb

from . import posets
from .graphs import ColoredGraph
from .homology import _require_simplicial
from .posets import SimplicialPoset, _refuse_above, from_graph


def set_label(s) -> str:
    return "{%s}" % ",".join(map(str, sorted(s)))


def block_label(block: str, s) -> str:
    return f"{block}:{set_label(s)}"


# --- the product-of-spheres graph -------------------------------------------------

def _rule_pair(k: int, top: int) -> set[int]:
    # the two consecutive values tested against S, clipped at both ends
    if k == 1:
        return {1}
    if k == top + 1:
        return {top}
    return {k - 1, k}


def product_spheres_graph(n: int, m: int) -> ColoredGraph:
    """The (n+m+1)-colored graph presenting S^n x S^m.

    Vertices are X(S) for blocks X in {A,B,C,D} and n-subsets S of 1..n+m,
    4*C(n+m, n) in all.  For every vertex and color k exactly one edge:

    * A(S)-B(S) and C(S)-D(S) of color k when {k-1,k} misses S,
    * A(S)-C(S) and B(S)-D(S) of color k when {k-1,k} lies inside S,
    * X(S)-X(S - {k} + {k-1}) of color k when k is in S but k-1 is not,
      within each block X,

    where {k-1,k} degenerates to {1} at k=1 and {n+m} at k=n+m+1.  Each
    label string is built once per subset and shared by the edges at it.
    """
    if n < 1 or m < 1:
        raise ValueError("both sphere dimensions must be at least 1")
    # 2*C(n+m, n)*(n+m+1) edges; C(n+m, k) grows with k up to (n+m)/2,
    # so capping k = min(n, m) at 20 keeps it exact there and a bound past
    n_edges = 2 * comb(n + m, min(n, m, 20)) * (n + m + 1)
    _refuse_above(posets.MAX_OUTPUT_SIZE, n_edges, f"the graph of "
                  f"S^{n} x S^{m} has at least {n_edges} edges")
    top = n + m
    subsets = list(combinations(range(1, top + 1), n))
    names = {s: [block_label(b, s) for b in "ABCD"] for s in subsets}
    vertices = tuple(names[s][b] for b in range(4) for s in subsets)
    edges: list[tuple[str, str, int]] = []
    for s in subsets:
        sset = set(s)
        a, b, c, d = names[s]
        for k in range(1, top + 2):
            pair = _rule_pair(k, top)
            if not pair & sset:
                edges += ((a, b, k), (c, d, k))
            elif pair <= sset:
                edges += ((a, c, k), (b, d, k))
        for k in range(2, top + 1):
            if k in sset and k - 1 not in sset:
                other = tuple(sorted(sset - {k} | {k - 1}))
                edges += zip(names[s], names[other], repeat(k))
    return ColoredGraph(top + 1, vertices, tuple(edges))


# --- real projective space as an antipodal quotient -------------------------------

def _rp_graph(n: int) -> ColoredGraph:
    """The n-colored graph of `cross_polytope_quotient`: its vertices are
    the sign vectors of length n with first entry -, written as strings of
    + and -, and color i flips entry i, then negates the whole vector if
    its first entry became +."""
    vertices = tuple("-" + "".join(s) for s in product("-+", repeat=n - 1))
    # vertex t has a + at entry i > 1 when bit n - i of t is set; color 1
    # flips entry 1 and the negation flips it back with all the others
    flips = [len(vertices) - 1] + [1 << n - i for i in range(2, n + 1)]
    return ColoredGraph(n, vertices, tuple(
        (vertices[t], vertices[t ^ flip], c)
        for c, flip in enumerate(flips, 1)
        for t in range(len(vertices)) if t < t ^ flip))


def cross_polytope_quotient(n: int) -> SimplicialPoset:
    """Simplicial cell decomposition of (n-1)-dimensional real projective
    space: faces of the boundary of the n-dimensional cross polytope with
    F and -F identified.

    Faces are the sign vectors (nonempty subsets of {+-1..+-n} without an
    antipodal pair), and a cell is an orbit {F, -F}.  The poset is
    `from_graph` of an n-colored graph whose vertices are the facet orbits,
    each named by its member with first entry -: color i flips entry i and
    renormalizes.  The color-i edges are the ridge orbits, a ridge being a
    facet without +-i and lying in exactly the two facets that differ at
    entry i.  So the components of the S-colored subgraph are the faces
    with support [n] - S, up to sign, and a cell labeled ``{S}@v`` is the
    orbit of v's entries outside S; a facet is labeled by its vector.
    n vertices, 2^(n-1) facets, (3^n + 1)/2 cells with the minimum.
    """
    if n < 2:
        raise ValueError("need n >= 2")
    n_cells = (3 ** min(n, 40) + 1) // 2  # exact up to n = 40
    _refuse_above(posets.MAX_OUTPUT_SIZE, n_cells, f"the cell decomposition "
                  f"of RP^{n - 1} has at least {n_cells} cells")
    return from_graph(_rp_graph(n))


# --- connected sums ----------------------------------------------------------------

def _interval_by_vertices(p: SimplicialPoset, facet: int
                          ) -> tuple[dict[frozenset[int], int], list[int]]:
    """All cells below `facet`, keyed by vertex set, the rank-1 cells below
    each, found bottom-up; and the facet's vertices, sorted.  `p` is
    simplicial, so the keys are the 2^d subsets of the facet's d vertices,
    one cell each."""
    below, stack = {facet}, [facet]
    while stack:
        for j in p.covers[stack.pop()]:
            if j not in below:
                below.add(j)
                stack.append(j)
    verts: dict[int, frozenset[int]] = {}
    for c in sorted(below, key=p.ranks.__getitem__):
        verts[c] = (frozenset((c,)) if p.ranks[c] == 1 else
                    frozenset().union(*map(verts.__getitem__, p.covers[c])))
    return {w: c for c, w in verts.items()}, sorted(verts[facet])


def connected_sum(p: SimplicialPoset, q: SimplicialPoset,
                  sigma: int, tau: int) -> SimplicialPoset:
    """Connected sum along facets sigma of p and tau of q.

    Both facets are removed and their open boundary intervals identified:
    the i-th least vertex id of tau is glued to the i-th least vertex id
    of sigma, and each face of tau to the face of sigma on the image of
    its vertices.  The face counts and the GF(2) homology do not depend on
    the bijection: f_i(p # q) = f_i(p) + f_i(q) - C(d, i) for i < d and
    f_d = f_d(p) + f_d(q) - 2.  A summand that is not simplicial is
    refused, as `betti_gf2` refuses it, by :func:`_require_simplicial`.
    A sum with no rank-d cell left, as of two summands of one facet each,
    is refused by the `SimplicialPoset` constructor.
    """
    if p.d != q.d:
        raise ValueError(f"rank mismatch: {p.d} vs {q.d}")
    if p.d < 2:
        raise ValueError("connected sums need rank at least 2")
    for poset, facet, name in ((p, sigma, "sigma"), (q, tau, "tau")):
        # a rank-d cell is covered by nothing
        if not 0 <= facet < poset.n_cells or poset.ranks[facet] != poset.d:
            raise ValueError(f"{name} is not a facet")
    _require_simplicial(p)
    _require_simplicial(q)
    down_sigma, vs = _interval_by_vertices(p, sigma)
    down_tau, vt = _interval_by_vertices(q, tau)
    to_sigma = dict(zip(vt, vs))

    # q's cells take the ids after p's, those below tau the ids of the
    # cells of sigma's interval they are glued to; sigma, tau and q's glued
    # cells go, and the final ids run in (rank, id) order
    image = list(range(p.n_cells, p.n_cells + q.n_cells))
    for w, c in down_tau.items():
        image[c] = down_sigma[frozenset(map(to_sigma.__getitem__, w))]
    ranks, labels = p.ranks + q.ranks, p.labels + q.labels
    covers = p.covers + tuple(tuple(map(image.__getitem__, cov))
                              for cov in q.covers)
    dropped = {sigma, *(p.n_cells + c for c in down_tau.values())}
    order = sorted(set(range(len(ranks))) - dropped,
                   key=lambda i: (ranks[i], i))
    final_id = {old: new for new, old in enumerate(order)}
    return SimplicialPoset(
        p.d, [ranks[i] for i in order],
        [sorted(map(final_id.__getitem__, covers[i])) for i in order],
        [labels[i] for i in order])


# --- simple sphere fixtures ---------------------------------------------------------

def boundary_of_simplex(d: int) -> SimplicialPoset:
    """Boundary complex of the d-simplex: f_i = C(d+1, i), h all ones."""
    if d < 1:
        raise ValueError("need d >= 1")
    n_cells = 2 ** (min(d, 40) + 1) - 1     # exact up to d = 40
    _refuse_above(posets.MAX_OUTPUT_SIZE, n_cells, f"the boundary of the "
                  f"{d}-simplex has at least {n_cells} cells")
    verts = tuple(range(d + 1))
    ids: dict[tuple[int, ...], int] = {(): 0}
    ranks = [0]
    covers: list[tuple[int, ...]] = [()]
    labels = ["0"]
    for size in range(1, d + 1):
        for sub in combinations(verts, size):
            ids[sub] = len(ranks)
            ranks.append(size)
            labels.append(set_label(sub))
            covers.append(tuple(sorted(
                ids[tuple(x for x in sub if x != drop)] for drop in sub)))
    return SimplicialPoset(d, tuple(ranks), tuple(covers), tuple(labels))


def parallel_edges_graph(d: int) -> ColoredGraph:
    """Two vertices joined by d parallel edges, one per color: the smallest
    admissible graph; its poset is the two-facet cell sphere."""
    if d < 1:
        raise ValueError("need d >= 1")
    _refuse_above(posets.MAX_OUTPUT_SIZE, d, f"the two-vertex graph of "
                  f"{d} colors has {d} edges")
    return ColoredGraph(d, ("P", "Q"), tuple(("P", "Q", c) for c in range(1, d + 1)))
