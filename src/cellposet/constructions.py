"""Explicit builders: the 4-block colored graph presenting a product of
two spheres, the antipodal cross-polytope quotient presenting real
projective space, connected sums, and simplex boundary fixtures.
"""

from __future__ import annotations

from itertools import combinations

from .graphs import ColoredGraph
from .posets import SimplicialPoset, proper_coloring


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

    where {k-1,k} degenerates to {1} at k=1 and {n+m} at k=n+m+1.
    """
    if n < 1 or m < 1:
        raise ValueError("both sphere dimensions must be at least 1")
    top = n + m
    subsets = list(combinations(range(1, top + 1), n))
    blocks = ("A", "B", "C", "D")
    vertices = tuple(block_label(b, s) for b in blocks for s in subsets)
    edges: list[tuple[str, str, int]] = []
    for s in subsets:
        sset = set(s)
        for k in range(1, top + 2):
            pair = _rule_pair(k, top)
            if not pair & sset:
                edges.append((block_label("A", s), block_label("B", s), k))
                edges.append((block_label("C", s), block_label("D", s), k))
            elif pair <= sset:
                edges.append((block_label("A", s), block_label("C", s), k))
                edges.append((block_label("B", s), block_label("D", s), k))
        for k in range(2, top + 1):
            if k in sset and k - 1 not in sset:
                other = tuple(sorted(sset - {k} | {k - 1}))
                for b in blocks:
                    edges.append((block_label(b, s), block_label(b, other), k))
    return ColoredGraph(top + 1, vertices, tuple(edges))


# --- real projective space as an antipodal quotient -------------------------------

def cross_polytope_quotient(n: int) -> SimplicialPoset:
    """Simplicial cell decomposition of (n-1)-dimensional real projective
    space: faces of the boundary of the n-dimensional cross polytope with
    F and -F identified.

    Faces are the sign vectors (nonempty subsets of {+-1..+-n} without an
    antipodal pair); each orbit is keyed by the representative containing
    the lexicographically smallest signed entry.  n vertices, 2^(n-1)
    facets.
    """
    if n < 2:
        raise ValueError("need n >= 2")

    def rep(face: frozenset[int]) -> tuple[int, ...]:
        a = tuple(sorted(face, key=lambda x: (abs(x), -x)))
        b = tuple(sorted((-x for x in face), key=lambda x: (abs(x), -x)))
        return min(a, b)

    by_rank: list[list[tuple[int, ...]]] = [[] for _ in range(n + 1)]
    seen = set()
    for size in range(1, n + 1):
        for support in combinations(range(1, n + 1), size):
            for signs in range(1 << size):
                face = frozenset(
                    (v if not (signs >> i) & 1 else -v)
                    for i, v in enumerate(support))
                r = rep(face)
                if r not in seen:
                    seen.add(r)
                    by_rank[size].append(r)
    for size in range(1, n + 1):
        by_rank[size].sort()

    ids: dict[tuple[int, ...], int] = {}
    ranks: list[int] = [0]
    covers: list[tuple[int, ...]] = [()]
    labels: list[str] = ["0"]
    for size in range(1, n + 1):
        for r in by_rank[size]:
            ids[r] = len(ranks)
            ranks.append(size)
            labels.append(set_label(r))
            if size == 1:
                covers.append((0,))
            else:
                face = frozenset(r)
                covers.append(tuple(sorted(
                    ids[rep(face - {x})] for x in face)))
    return SimplicialPoset(n, tuple(ranks), tuple(covers), tuple(labels))


# --- connected sums ----------------------------------------------------------------

def _interval_by_vertices(p: SimplicialPoset, facet: int) -> dict[frozenset[int], int]:
    """All cells below `facet`, keyed by vertex set (boolean intervals make
    the key unique)."""
    down: dict[frozenset[int], int] = {}
    stack = [facet]
    seen = {facet}
    while stack:
        c = stack.pop()
        down[p.vertex_sets[c]] = c
        for j in p.covers[c]:
            if j not in seen:
                seen.add(j)
                stack.append(j)
    return down


def derive_color_matching(p: SimplicialPoset, q: SimplicialPoset,
                          sigma: int, tau: int) -> dict[int, int]:
    """Color-preserving vertex bijection V(sigma) -> V(tau), using proper
    colorings of both posets."""
    cp, conflict = proper_coloring(p)
    if cp is None:
        raise ValueError(f"first poset is not colorable (conflict at {conflict})")
    cq, conflict = proper_coloring(q)
    if cq is None:
        raise ValueError(f"second poset is not colorable (conflict at {conflict})")
    by_color = {cq[v]: v for v in q.vertex_sets[tau]}
    return {v: by_color[cp[v]] for v in p.vertex_sets[sigma]}


def connected_sum(p: SimplicialPoset, q: SimplicialPoset,
                  sigma: int, tau: int,
                  vertex_map: dict[int, int] | None = None) -> SimplicialPoset:
    """Connected sum along facets sigma of p and tau of q.

    Both facets are removed and their open boundary intervals identified:
    the face of tau spanned by the image of W under `vertex_map` is glued
    to the face of sigma spanned by W.  When `vertex_map` is omitted a
    color-preserving bijection is derived from proper colorings where both
    posets admit one, otherwise vertices are matched in sorted id order.

    Face counts satisfy f_i(p # q) = f_i(p) + f_i(q) - C(d, i) for i < d
    and f_d = f_d(p) + f_d(q) - 2.
    """
    if p.d != q.d:
        raise ValueError(f"rank mismatch: {p.d} vs {q.d}")
    if p.d < 2:
        raise ValueError("connected sums need rank at least 2")
    for poset, facet, name in ((p, sigma, "sigma"), (q, tau, "tau")):
        if not 0 <= facet < poset.n_cells or poset.ranks[facet] != poset.d \
                or poset.coverers[facet]:
            raise ValueError(f"{name} is not a facet")
    if vertex_map is None:
        try:
            vertex_map = derive_color_matching(p, q, sigma, tau)
        except ValueError:
            # not both colorable: any bijection forms a sum, match sorted ids
            vertex_map = dict(zip(sorted(p.vertex_sets[sigma]),
                                  sorted(q.vertex_sets[tau])))
    vs, vt = p.vertex_sets[sigma], q.vertex_sets[tau]
    if set(vertex_map.keys()) != set(vs) or set(vertex_map.values()) != set(vt):
        raise ValueError("vertex_map is not a bijection V(sigma) -> V(tau)")

    down_tau = _interval_by_vertices(q, tau)
    down_sigma = _interval_by_vertices(p, sigma)

    # p keeps everything but sigma; q drops tau and the faces glued into p
    new_of_p: dict[int, int] = {}
    ranks: list[int] = []
    labels: list[str] = []
    p_covers: list[tuple[int, ...]] = []
    for c in range(p.n_cells):
        if c == sigma:
            continue
        new_of_p[c] = len(ranks)
        ranks.append(p.ranks[c])
        labels.append(p.labels[c])
        p_covers.append(p.covers[c])

    glued: dict[int, int] = {}
    for wq, cq_cell in down_tau.items():
        if cq_cell == tau:
            continue
        wp = frozenset(v for v, img in vertex_map.items() if img in wq)
        glued[cq_cell] = new_of_p[down_sigma[wp]]

    new_of_q: dict[int, int] = {}
    q_kept: list[int] = []
    for c in range(q.n_cells):
        if c == tau or c in glued:
            continue
        new_of_q[c] = len(ranks) + len(q_kept)
        q_kept.append(c)

    def q_image(c: int) -> int:
        return glued[c] if c in glued else new_of_q[c]

    covers = [tuple(new_of_p[j] for j in cov) for cov in p_covers]
    for c in q_kept:
        ranks.append(q.ranks[c])
        labels.append(q.labels[c])
        covers.append(tuple(q_image(j) for j in q.covers[c]))

    # renumber so ids are sorted by rank, keeping construction order inside ranks
    order = sorted(range(len(ranks)), key=lambda i: (ranks[i], i))
    final_id = {old: new for new, old in enumerate(order)}
    return SimplicialPoset(
        p.d,
        tuple(ranks[i] for i in order),
        tuple(tuple(sorted(final_id[j] for j in covers[i])) for i in order),
        tuple(labels[i] for i in order))


# --- simple sphere fixtures ---------------------------------------------------------

def boundary_of_simplex(d: int) -> SimplicialPoset:
    """Boundary complex of the d-simplex: f_i = C(d+1, i), h all ones."""
    if d < 1:
        raise ValueError("need d >= 1")
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
    return ColoredGraph(d, ("P", "Q"), tuple(("P", "Q", c) for c in range(1, d + 1)))
