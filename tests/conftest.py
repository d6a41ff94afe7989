import json
import random
from collections import deque
from itertools import combinations, product
from math import comb
from pathlib import Path

import pytest
from hypothesis import settings, strategies as st

from cellposet.constructions import (_rule_pair, block_label,
                                     boundary_of_simplex,
                                     cross_polytope_quotient,
                                     product_spheres_graph)
from cellposet.graphs import (ColoredGraph, graph_from_dict,
                              validate_admissible)
from cellposet.homology import betti_gf2, is_homology_manifold
from cellposet.posets import (SimplicialPoset, from_graph, is_pseudomanifold,
                              is_pure)

settings.register_profile("suite", max_examples=30, deadline=None)
settings.load_profile("suite")

DATA = Path(__file__).parent / "data"


@pytest.fixture(scope="session")
def torus_graph() -> ColoredGraph:
    return graph_from_dict(json.loads((DATA / "torus_crystallization.json").read_text()))


@pytest.fixture(scope="session")
def torus_suspension_graph(torus_graph) -> ColoredGraph:
    """The suspension of the torus, a pure pseudomanifold that is no
    homology manifold: two copies of the torus graph on colors 1..3, with
    a color-4 edge joining each vertex to its copy."""
    copy = {v: v + "'" for v in torus_graph.vertices}
    edges = (torus_graph.edges
             + tuple((copy[u], copy[v], c) for u, v, c in torus_graph.edges)
             + tuple((v, copy[v], 4) for v in torus_graph.vertices))
    return ColoredGraph(4, torus_graph.vertices + tuple(copy.values()), edges)


def graph_to_dict(g: ColoredGraph) -> dict:
    """Oracle: the dict whose ``json.dumps(..., sort_keys=True, indent=2)``
    `graphs.graph_to_json` writes byte for byte."""
    return {
        "d": g.d,
        "vertices": list(g.vertices),
        "edges": [{"u": u, "v": v, "color": c} for u, v, c in g.edges],
    }


def poset_to_dict(p: SimplicialPoset) -> dict:
    """Oracle: the dict whose ``json.dumps(..., sort_keys=True, indent=2)``
    `posets.poset_to_json` writes byte for byte."""
    return {
        "d": p.d,
        "cells": [
            {"id": i, "rank": p.ranks[i], "covers": list(p.covers[i]),
             "label": p.labels[i]}
            for i in range(p.n_cells)
        ],
    }


def reference_product_spheres_graph(n: int, m: int) -> ColoredGraph:
    """Oracle for `constructions.product_spheres_graph`, which shares one
    label string per block and subset: the same graph with every edge
    end's label formatted anew by `block_label`."""
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


def colors_between(g: ColoredGraph, x: str, y: str) -> frozenset[int]:
    """Oracle: the colors of the edges joining x and y, by an edge scan."""
    for v in (x, y):
        if v not in g.index:
            raise ValueError(f"unknown vertex {v!r}")
    return frozenset(c for u, v, c in g.edges
                     if (u, v) == (x, y) or (u, v) == (y, x))


def color_partner(g: ColoredGraph, v: str, color: int) -> str:
    """Oracle: the unique vertex joined to `v` by the color-`color` edge,
    by an edge scan."""
    if v not in g.index:
        raise ValueError(f"unknown vertex {v!r}")
    others = [b if a == v else a for a, b, c in g.edges
              if c == color and v in (a, b)]
    if len(others) != 1:
        raise ValueError(
            f"vertex {v!r} has {len(others)} edges of color {color}; "
            "graph is not admissible there")
    return others[0]


def bfs_roots(g: ColoredGraph, colors) -> list[int]:
    """Oracle for the roots `graphs._merge_roots` gives the edges of
    `colors`: a breadth-first search over those edges, started from each
    unreached vertex in index order, so that a component's root is its
    least vertex index."""
    index = {v: i for i, v in enumerate(g.vertices)}
    adjacent: list[list[int]] = [[] for _ in g.vertices]
    for u, v, c in g.edges:
        if c in colors:
            adjacent[index[u]].append(index[v])
            adjacent[index[v]].append(index[u])
    roots: list[int | None] = [None] * len(g.vertices)
    for start in range(len(g.vertices)):
        if roots[start] is None:
            roots[start] = start
            queue = deque([start])
            while queue:
                for y in adjacent[queue.popleft()]:
                    if roots[y] is None:
                        roots[y] = start
                        queue.append(y)
    return roots


def shuffled(g: ColoredGraph, seed: int) -> ColoredGraph:
    """`g` with vertex order, edge order and edge orientation permuted."""
    rnd = random.Random(seed)
    vertices = list(g.vertices)
    rnd.shuffle(vertices)
    edges = [(u, v, c) if rnd.random() < 0.5 else (v, u, c)
             for u, v, c in g.edges]
    rnd.shuffle(edges)
    return ColoredGraph(g.d, tuple(vertices), tuple(edges))


def coverers(p: SimplicialPoset) -> tuple[tuple[int, ...], ...]:
    """Oracle for `SimplicialPoset._up_table`: for each cell id, the ids of the
    cells covering it, ascending, by one scan of the covers."""
    up: list[list[int]] = [[] for _ in range(p.n_cells)]
    for i, cov in enumerate(p.covers):
        for j in cov:
            up[j].append(i)
    return tuple(tuple(u) for u in up)


def facets(p: SimplicialPoset) -> tuple[int, ...]:
    """The maximal cells of `p`, the ones nothing covers, ascending."""
    return tuple(c for c, up in enumerate(coverers(p)) if not up)


def link(p: SimplicialPoset, cell: int) -> SimplicialPoset:
    """Oracle for the links of `homology.link_bettis`: the subposet
    of cells above `cell`, reindexed with `cell` as minimum and ranks
    dropped by rank(cell), of rank its greatest cell rank."""
    if not 0 <= cell < p.n_cells:
        raise ValueError(f"unknown cell {cell}")
    base = p.ranks[cell]
    up = coverers(p)
    upset = {cell}
    frontier = [cell]
    while frontier:
        nxt = []
        for c in frontier:
            for u in up[c]:
                if u not in upset:
                    upset.add(u)
                    nxt.append(u)
        frontier = nxt
    order = sorted(upset, key=lambda c: (p.ranks[c], c))
    new_id = {c: i for i, c in enumerate(order)}
    ranks = tuple(p.ranks[c] - base for c in order)
    covers = tuple(
        tuple(new_id[j] for j in p.covers[c] if j in upset) if c != cell else ()
        for c in order)
    labels = tuple(p.labels[c] for c in order)
    return SimplicialPoset(max(ranks), ranks, covers, labels)


MAX_CHAINS = 10 ** 6


def gf2_rank(rows) -> int:
    """Rank of a bit-packed GF(2) matrix (one int per row), by an
    elimination of its own: each row is reduced on its highest bit.

    The engines' kernel (`homology._pivots`) pivots on the highest bit
    too, and this loop stays apart from it: `betti_order_complex` runs it
    on the order complex, not on the cellular complex, and reduces every
    row of every degree, with no clearing, so a fault in the engines'
    row tables, clearing or kernel does not carry over.  Tests of the
    kernel compare its rank with this one."""
    basis: dict[int, int] = {}          # leading bit -> reduced row
    for row in rows:
        while row:
            top = row.bit_length()
            if top not in basis:
                basis[top] = row
                break
            row ^= basis[top]
    return len(basis)


def boundary_rows(p: SimplicialPoset) -> list[list[int]]:
    """Oracle for the rows `homology.betti_gf2` eliminates, the boundary
    maps of degrees 1..d of the augmented cellular chain complex over
    GF(2): item k-1 holds, for each rank-k cell in `cells_by_rank` order,
    a bit at the index within its rank of each cell it covers, the
    minimum, bit 0, serving as the augmentation generator."""
    index = {c: i for cells in p.cells_by_rank for i, c in enumerate(cells)}
    return [[sum(1 << index[j] for j in p.covers[c]) for c in cells]
            for cells in p.cells_by_rank[1:]]


def betti_order_complex(p: SimplicialPoset) -> tuple[int, ...]:
    """Oracle for `betti_gf2`: reduced GF(2) Betti numbers of the complex
    of chains of the poset minus its minimum (its barycentric subdivision).

    The two engines are independent: `betti_gf2` works on the cellular
    chain complex read off the cover relation and eliminates it with
    clearing, while this one builds the order complex, computes its
    simplicial homology and reduces every row of every degree with
    `gf2_rank`.  They must agree on every poset.

    Exponential in chain length; refuses posets with more than
    ``MAX_CHAINS`` chains.
    """
    n = p.n_cells
    below = [0] * n
    order = sorted(range(1, n), key=lambda c: p.ranks[c])
    for c in order:
        mask = 0
        for j in p.covers[c]:
            if j != 0:
                mask |= below[j] | (1 << j)
        below[c] = mask

    chains_at: dict[int, list[tuple[int, ...]]] = {}
    total = 0
    for c in order:
        lst: list[tuple[int, ...]] = [(c,)]
        mask = below[c]
        while mask:
            low = mask & -mask
            b = low.bit_length() - 1
            mask ^= low
            for ch in chains_at[b]:
                lst.append(ch + (c,))
        total += len(lst)
        if total > MAX_CHAINS:
            raise ValueError(f"order complex exceeds {MAX_CHAINS} chains")
        chains_at[c] = lst

    by_dim: list[list[tuple[int, ...]]] = [[] for _ in range(p.d)]
    for lst in chains_at.values():
        for ch in lst:
            by_dim[len(ch) - 1].append(ch)
    index: list[dict[tuple[int, ...], int]] = [
        {ch: i for i, ch in enumerate(simps)} for simps in by_dim]

    dims = (1,) + tuple(len(simps) for simps in by_dim)
    ranks = []
    for k, simps in enumerate(by_dim):
        if k == 0:
            rows = [1] * len(simps)
        else:
            lower = index[k - 1]
            rows = []
            for ch in simps:
                row = 0
                for drop in range(len(ch)):
                    row ^= 1 << lower[ch[:drop] + ch[drop + 1:]]
                rows.append(row)
        ranks.append(gf2_rank(rows))
    # beta_i: the cells of dimension i minus the ranks of the maps out of
    # and into them
    ranks.append(0)
    return tuple(dims[i + 1] - ranks[i] - ranks[i + 1]
                 for i in range(p.d))


def r_value(n: int, i: int) -> int:
    """The correction term r(n, i) of projective-space h-vectors, in
    closed form: C(n, i) at even i < n, 0 at odd i < n, and -(n mod 2) at
    i = n.  The `check_rp_h` tests shift by it, independently of the
    engine's route through `h_double_prime`."""
    if not 1 <= i <= n:
        raise ValueError(f"need 1 <= i <= n, got i={i}, n={n}")
    if i == n:
        return -(n % 2)
    return 0 if i % 2 else comb(n, i)


def sphere_pattern(length: int) -> tuple[int, ...]:
    """The reduced Betti vector of a sphere of dimension length - 1."""
    return (0,) * (length - 1) + (1,) if length else ()


def is_homology_sphere(p: SimplicialPoset) -> bool:
    """A homology manifold with the reduced GF(2) homology of the d-1
    sphere."""
    return is_homology_manifold(p) and betti_gf2(p) == sphere_pattern(p.d)


def vertex_sets(p: SimplicialPoset) -> tuple[frozenset[int], ...]:
    """For each cell, the rank-1 cells below it."""
    out: list[frozenset[int]] = [frozenset()] * p.n_cells
    for r in range(1, p.d + 1):
        for i in p.cells_by_rank[r]:
            if r == 1:
                out[i] = frozenset((i,))
            else:
                acc: frozenset[int] = frozenset()
                for j in p.covers[i]:
                    acc |= out[j]
                out[i] = acc
    return tuple(out)


def proper_coloring(p: SimplicialPoset):
    """Try to color rank-1 cells with 1..d, rainbow on every facet.

    Colors propagate from an arbitrary seed facet across shared ridges
    (forced at every step), which is complete for strongly connected pure
    posets.  Returns (coloring, None) on success and (None, ridge) on a
    propagation conflict at `ridge`.
    """
    if not is_pure(p):
        raise ValueError("poset is not pure")
    facet_ids = p.cells_by_rank[p.d]
    if not facet_ids:
        raise ValueError("poset has no facets")
    verts = vertex_sets(p)
    up = coverers(p)
    full = set(range(1, p.d + 1))
    colors: dict[int, int] = {}
    seed = facet_ids[0]
    for c, v in zip(range(1, p.d + 1), sorted(verts[seed])):
        colors[v] = c
    done = {seed}
    frontier = [seed]
    while frontier:
        nxt = []
        for f in frontier:
            for ridge in p.covers[f]:
                ridge_colors = {colors[v] for v in verts[ridge]}
                if len(ridge_colors) != p.d - 1:
                    return None, ridge
                forced = full - ridge_colors
                (c,) = forced
                for g in up[ridge]:
                    if g == f:
                        continue
                    extra = verts[g] - verts[ridge]
                    if len(extra) != 1:
                        return None, ridge
                    (rest,) = extra
                    if rest in colors:
                        if colors[rest] != c:
                            return None, ridge
                    else:
                        colors[rest] = c
                    if g not in done:
                        done.add(g)
                        nxt.append(g)
        frontier = nxt
    for f in facet_ids:
        if len({colors.get(v) for v in verts[f]}) != p.d:
            return None, f
    return colors, None


def to_graph(p: SimplicialPoset, coloring: dict[int, int]) -> ColoredGraph:
    """Oracle for `from_graph`, its inverse: facets become graph vertices,
    ridges become edges, colored by the one color absent from the ridge's
    vertex set.

    Requires a pure pseudomanifold and a proper coloring (rainbow on every
    facet), such as `proper_coloring` returns.  Facet labels must be
    distinct since they name the vertices.
    """
    if not is_pseudomanifold(p):
        raise ValueError("poset is not a pseudomanifold")
    facet_ids = p.cells_by_rank[p.d]
    if len(set(p.labels[f] for f in facet_ids)) != len(facet_ids):
        raise ValueError("facet labels are not distinct")
    for v in p.cells_by_rank[1]:
        if v not in coloring:
            raise ValueError(f"coloring leaves vertex {v} ({p.labels[v]!r}) "
                             "uncolored")
    verts = vertex_sets(p)
    for f in facet_ids:
        cols = {coloring[v] for v in verts[f]}
        if len(cols) != p.d:
            raise ValueError(f"coloring is not rainbow on facet {p.labels[f]!r}")
    full = set(range(1, p.d + 1))
    up = coverers(p)
    edges = []
    for ridge in p.cells_by_rank[p.d - 1]:
        f1, f2 = up[ridge]
        (c,) = full - {coloring[v] for v in verts[ridge]}
        edges.append((p.labels[f1], p.labels[f2], c))
    return ColoredGraph(p.d, tuple(p.labels[f] for f in facet_ids), tuple(edges))


def interval_by_vertices(p: SimplicialPoset, facet: int):
    """The cells below `facet`, its down-closure through the covers, keyed
    by `vertex_sets`; and the facet's vertices, sorted.  The closure comes
    first, as two cells of a simplicial poset may share a vertex set."""
    below, stack = {facet}, [facet]
    while stack:
        for j in p.covers[stack.pop()]:
            if j not in below:
                below.add(j)
                stack.append(j)
    verts = vertex_sets(p)
    return {verts[c]: c for c in below}, sorted(verts[facet])


def reference_connected_sum(p: SimplicialPoset, q: SimplicialPoset,
                            sigma: int, tau: int) -> SimplicialPoset:
    """Oracle for `constructions.connected_sum`, which renumbers in one
    sort: the same sum built through three id maps, p's cells first, then
    q's unglued cells, renumbered by (rank, construction order)."""
    if p.d != q.d:
        raise ValueError(f"rank mismatch: {p.d} vs {q.d}")
    if p.d < 2:
        raise ValueError("connected sums need rank at least 2")
    for poset, facet, name in ((p, sigma, "sigma"), (q, tau, "tau")):
        if not 0 <= facet < poset.n_cells or poset.ranks[facet] != poset.d \
                or coverers(poset)[facet]:
            raise ValueError(f"{name} is not a facet")
    down_sigma, vs = interval_by_vertices(p, sigma)
    down_tau, vt = interval_by_vertices(q, tau)
    to_sigma = dict(zip(vt, vs))

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

    glued = {c: new_of_p[down_sigma[frozenset(map(to_sigma.__getitem__, w))]]
             for w, c in down_tau.items() if c != tau}

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


def two_pillows(share_edge: bool = False) -> SimplicialPoset:
    """A d = 4 poset that is not simplicial, with a boundary squaring to
    zero: its rank-4 cell covers two pillows, each two triangles on the
    same three edges.  The pillows are disjoint (6 vertices), or share an
    edge (4 vertices, but two covers of the top cell on one vertex set)."""
    if share_edge:
        n_vertices = 4
        edges = ((1, 2), (1, 3), (2, 3), (1, 4), (2, 4))
        pillows = ((5, 6, 7), (5, 8, 9))
    else:
        n_vertices = 6
        edges = ((1, 2), (1, 3), (2, 3), (4, 5), (4, 6), (5, 6))
        pillows = ((7, 8, 9), (10, 11, 12))
    triangles = (pillows[0],) * 2 + (pillows[1],) * 2
    first = 1 + n_vertices + len(edges)
    covers = (((),) + ((0,),) * n_vertices + edges + triangles
              + (tuple(range(first, first + 4)),))
    ranks = ((0,) + (1,) * n_vertices + (2,) * len(edges) + (3,) * 4 + (4,))
    return SimplicialPoset(4, ranks, covers, tuple(map(str, range(len(ranks)))))


def rewired_simplex_boundary() -> SimplicialPoset:
    """The boundary of the 3-simplex with edge 7 moved onto vertices 1, 2
    and triangle 13 over edges (6, 7, 5): not simplicial, since two edges
    span vertices 1 and 2 below triangle 12, though every cell has the
    face counts of a simplex."""
    return SimplicialPoset(
        3, (0, 1, 1, 1, 1, 2, 2, 2, 2, 2, 2, 3, 3, 3, 3),
        ((), (0,), (0,), (0,), (0,), (1, 2), (1, 3), (1, 2), (2, 3), (2, 4),
         (3, 4), (5, 6, 8), (5, 7, 9), (6, 7, 5), (8, 9, 10)),
        tuple(map(str, range(15))))


def pure_by_the_up_table(p: SimplicialPoset) -> bool:
    """Oracle for `is_pure`, as it read the up table before it counted the
    cells the covers name: every cell below rank d has a coverer there."""
    return all(map(all, p._up_table[:p.d]))


def unmarked(p: SimplicialPoset) -> SimplicialPoset:
    """`p` through the constructor, which never marks a poset proved."""
    return SimplicialPoset(p.d, p.ranks, p.covers, p.labels)


def boolean_by_definition(p: SimplicialPoset) -> bool:
    """Oracle for the simplicial check, from the definition: each cell's
    lower interval [0, c] maps one to one onto the subsets of c's vertex
    set (cell to vertex set), and the covers of every cell are the cells
    with one of its vertices removed."""
    below: list[set[int]] = [set() for _ in range(p.n_cells)]
    for c in sorted(range(p.n_cells), key=p.ranks.__getitem__):
        below[c] = {c}.union(*(below[j] for j in p.covers[c]))
    verts = [frozenset(x for x in below[c] if p.ranks[x] == 1)
             for c in range(p.n_cells)]
    for c in range(p.n_cells):
        if (len({verts[x] for x in below[c]}) != len(below[c])
                or len(below[c]) != 2 ** len(verts[c])):
            return False
        faces = [verts[j] for j in p.covers[c]]
        if sorted(faces, key=sorted) != sorted(
                (verts[c] - {v} for v in verts[c]), key=sorted):
            return False
    return True


SIMPLICIAL_BASES = (
    boundary_of_simplex(3), boundary_of_simplex(4),
    cross_polytope_quotient(4), cross_polytope_quotient(5),
    from_graph(product_spheres_graph(1, 2)))
REWIRING_BASES = SIMPLICIAL_BASES + (two_pillows(False), two_pillows(True))


@st.composite
def rewired_posets(draw):
    """A small poset with one or two covers moved to another cell of the
    same rank; the constructor's checks still hold.  Half the moves go to
    a cell with the vertex set of one of the cell's covers, the move that
    keeps every face count of a simplex."""
    p = draw(st.sampled_from(REWIRING_BASES))
    covers = list(p.covers)
    verts = vertex_sets(p)
    upper = [c for c in range(p.n_cells) if p.ranks[c] >= 2]
    for _ in range(draw(st.integers(1, 2))):
        c = draw(st.sampled_from(upper))
        slot = draw(st.integers(0, p.ranks[c] - 1))
        pool = p.cells_by_rank[p.ranks[c] - 1]
        if draw(st.booleans()):
            twins = {verts[j] for j in covers[c]}
            pool = [x for x in pool if verts[x] in twins]
        new = draw(st.sampled_from(pool))
        if new not in covers[c]:
            covers[c] = covers[c][:slot] + (new,) + covers[c][slot + 1:]
    return SimplicialPoset(p.d, p.ranks, tuple(covers), p.labels)


def complex_from_facets(d: int, facets) -> SimplicialPoset:
    """The face poset of the simplicial complex with these facets, each a
    tuple of vertices: the empty face first, then the faces by size and
    lexicographically."""
    faces = sorted({face for facet in facets
                    for size in range(1, len(facet) + 1)
                    for face in combinations(sorted(facet), size)},
                   key=lambda face: (len(face), face))
    ids = {face: i for i, face in enumerate([(), *faces])}
    return SimplicialPoset(
        d, tuple(map(len, ids)),
        tuple(tuple(sorted(ids[face[:i] + face[i + 1:]]
                           for i in range(len(face)))) if face else ()
              for face in ids),
        tuple(map(str, ids)))


def simplex_boundary_wedge(d: int, suspended: bool = False
                           ) -> SimplicialPoset:
    """Two boundaries of d-simplices sharing vertex 0, cell 1: no homology
    manifold for d >= 2.  Suspended, it is joined to two apexes, cells 1
    and 2, whose links are the wedge, and has rank d + 1."""
    facets = [tuple(x for x in verts if x != drop)
              for verts in (range(d + 1), (0, *range(d + 1, 2 * d + 1)))
              for drop in verts]
    if suspended:
        return complex_from_facets(
            d + 1, [f + (apex,) for f in facets for apex in (-2, -1)])
    return complex_from_facets(d, facets)


def insert_dipole(g: ColoredGraph, v: str, x: str, y: str) -> ColoredGraph:
    """`g` with a dipole of colors {1} inserted at `v`: new vertices x and
    y joined by color 1 and, for every other color, `v` joined to x and
    `v`'s old partner to y.  Cancelling (x, y) gives `g` back."""
    edges = [(x, y, 1)]
    for a, b, c in g.edges:
        if c != 1 and v in (a, b):
            edges += [(v, x, c), (b if a == v else a, y, c)]
        else:
            edges.append((a, b, c))
    return ColoredGraph(g.d, g.vertices + (x, y), tuple(edges))


def _partitions(n: int, largest: int):
    """The partitions of n into parts of at most `largest`, each as a
    nonincreasing tuple."""
    if n == 0:
        yield ()
    for part in range(min(n, largest), 0, -1):
        for rest in _partitions(n - part, part):
            yield (part, *rest)


def _perfect_matchings(items: tuple):
    """Every perfect matching of `items`, as a tuple of pairs: the first
    item is paired with each other in turn."""
    if not items:
        yield ()
    for i in range(1, len(items)):
        for rest in _perfect_matchings(items[1:i] + items[i + 1:]):
            yield ((items[0], items[i]), *rest)


def census_graphs(d: int, n_vertices: int):
    """Every connected admissible d-colored graph on `n_vertices` vertices,
    up to color-preserving isomorphism, some more than once.  Colors 1 and
    2 form bicolored cycles, so a partition of V/2 into cycle half-lengths
    fixes them up to such an isomorphism; colors 3..d run over all perfect
    matchings, and a graph is kept when `bfs_roots` finds it connected."""
    labels = tuple(f"v{i}" for i in range(n_vertices))
    matchings = list(_perfect_matchings(tuple(range(n_vertices))))
    for parts in _partitions(n_vertices // 2, n_vertices // 2):
        cycles, start = [], 0
        for half in parts:
            # vertices start .. start + 2 half - 1 around one cycle
            for i in range(start, start + 2 * half, 2):
                cycles += [(i, i + 1, 1),
                           (i + 1, start + (i + 2 - start) % (2 * half), 2)]
            start += 2 * half
        for chosen in product(matchings, repeat=d - 2):
            edges = cycles + [(a, b, c) for c, matching in enumerate(chosen, 3)
                              for a, b in matching]
            g = ColoredGraph(d, labels, tuple(
                (labels[a], labels[b], c) for a, b, c in edges))
            if len(set(bfs_roots(g, range(1, d + 1)))) == 1:
                yield g


# JSON-hostile label text: quotes, backslashes, control characters,
# non-ASCII and astral characters, mixed with any other character
json_labels = st.text(st.one_of(
    st.sampled_from('"\\/\x00\x08\t\n\x1f\x7f\x80\xe9\u2028\uffff'
                    '\U0001f600\U0010ffff'),
    st.characters()), max_size=6)


@st.composite
def admissible_graphs(draw, max_pairs: int = 4, colors=(2, 3)):
    """Random small admissible graphs: d shuffled perfect matchings on an
    even vertex set, discarded unless connected."""
    d = draw(st.sampled_from(colors))
    k = draw(st.integers(min_value=2, max_value=max_pairs))
    n = 2 * k
    labels = tuple(f"v{i}" for i in range(n))
    edges = []
    for c in range(1, d + 1):
        perm = draw(st.permutations(range(n)))
        for i in range(k):
            edges.append((labels[perm[2 * i]], labels[perm[2 * i + 1]], c))
    g = ColoredGraph(d, labels, tuple(edges))
    from hypothesis import assume
    assume(not validate_admissible(g))
    return g
