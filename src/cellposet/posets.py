"""Ranked simplicial posets and the graph <-> poset correspondence.

A simplicial poset has a unique minimum cell (rank 0) below everything and
boolean lower intervals; rank-k cells are the (k-1)-dimensional cells of
the underlying regular cell complex.  Cells are stored by integer id with
explicit cover lists (covers point one rank down); cell 0 is the minimum.

`from_graph` realizes the cell poset of an admissible d-colored multigraph:
cells are pairs (H, S) of a color set S and a connected component H of the
S-colored subgraph, ordered by reverse inclusion on both coordinates, with
rank d - |S|.  Facets correspond to graph vertices, ridges to graph edges.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property
from itertools import combinations
from math import comb

from .graphs import ColoredGraph, UnionFind, require_admissible


@dataclass(frozen=True)
class SimplicialPoset:
    """Cells indexed 0..N-1; cell 0 is the minimum element.

    ``ranks[i]`` is the rank of cell i, ``covers[i]`` the ids of the cells
    it covers (each one rank lower), ``labels[i]`` a free-form name.
    ``origins`` optionally records, for posets built from a colored graph,
    the (color set, least vertex) provenance of each cell.
    """

    d: int
    ranks: tuple[int, ...]
    covers: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]
    origins: tuple[tuple[frozenset[int], str], ...] | None = field(
        default=None, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "ranks", tuple(self.ranks))
        object.__setattr__(self, "covers", tuple(tuple(c) for c in self.covers))
        object.__setattr__(self, "labels", tuple(self.labels))
        n = len(self.ranks)
        if not (len(self.covers) == len(self.labels) == n):
            raise ValueError("ranks/covers/labels length mismatch")
        # type(...) is int, not isinstance: JSON true/false load as bools
        if type(self.d) is not int:
            raise ValueError(f"d must be an integer, got {self.d!r}")
        for i, r in enumerate(self.ranks):
            if type(r) is not int or not 0 <= r <= self.d:
                raise ValueError(f"cell {i} has rank {r!r} outside 0..{self.d}")
        if n == 0 or self.ranks[0] != 0:
            raise ValueError("cell 0 must be the rank-0 minimum")
        if any(self.ranks[i] == 0 for i in range(1, n)):
            raise ValueError("exactly one rank-0 cell is allowed")
        for i in range(1, n):
            cov = self.covers[i]
            if len(set(cov)) != len(cov) or len(cov) != self.ranks[i]:
                raise ValueError(
                    f"cell {i} (rank {self.ranks[i]}) covers {len(cov)} cells, "
                    f"expected {self.ranks[i]} distinct")
            for j in cov:
                if (type(j) is not int or not 0 <= j < n
                        or self.ranks[j] != self.ranks[i] - 1):
                    raise ValueError(f"cell {i} covers {j!r} of wrong rank")
        if self.covers[0]:
            raise ValueError("the minimum cell covers nothing")

    @property
    def n_cells(self) -> int:
        return len(self.ranks)

    @cached_property
    def cells_by_rank(self) -> tuple[tuple[int, ...], ...]:
        buckets: list[list[int]] = [[] for _ in range(self.d + 1)]
        for i, r in enumerate(self.ranks):
            buckets[r].append(i)
        return tuple(tuple(b) for b in buckets)

    @cached_property
    def coverers(self) -> tuple[tuple[int, ...], ...]:
        """Inverse covers: for each cell, the cells covering it."""
        up: list[list[int]] = [[] for _ in range(self.n_cells)]
        for i, cov in enumerate(self.covers):
            for j in cov:
                up[j].append(i)
        return tuple(tuple(u) for u in up)

    @cached_property
    def vertex_sets(self) -> tuple[frozenset[int], ...]:
        """For each cell, the rank-1 cells below it."""
        out: list[frozenset[int]] = [frozenset()] * self.n_cells
        for r in range(1, self.d + 1):
            for i in self.cells_by_rank[r]:
                if r == 1:
                    out[i] = frozenset((i,))
                else:
                    acc: frozenset[int] = frozenset()
                    for j in self.covers[i]:
                        acc |= out[j]
                    out[i] = acc
        return tuple(out)

    def facets(self) -> tuple[int, ...]:
        """Maximal cells (cells covered by nothing)."""
        return tuple(i for i in range(self.n_cells) if not self.coverers[i])


# --- construction from colored graphs ---------------------------------------

def from_graph(g: ColoredGraph) -> SimplicialPoset:
    """Cell poset of an admissible d-colored multigraph.

    Cells of rank d - |S| are pairs (component of the S-colored subgraph, S);
    the covers of (H, S) are the cells (H', S + {i}) whose component H'
    absorbs H when one more color is allowed.  Facets are the single-vertex
    cells (S empty), ridges the single-edge cells.  Cell labels record the
    color set and the least vertex of the component; facet labels are the
    vertex labels themselves.
    """
    require_admissible(g)
    d = g.d
    colors = tuple(range(1, d + 1))

    roots = {frozenset(sub): g.component_roots(sub)
             for size in range(d + 1) for sub in combinations(colors, size)}

    cell_id: dict[tuple[frozenset[int], int], int] = {}
    ranks: list[int] = []
    covers: list[tuple[int, ...]] = []
    labels: list[str] = []
    origins: list[tuple[frozenset[int], str]] = []

    for rank in range(d + 1):
        # missing = [d] \ S enumerated in lexicographic order fixes cell order
        for missing in combinations(colors, rank):
            s = frozenset(colors) - set(missing)
            root_of = roots[s]
            for root in sorted(set(root_of)):
                cell_id[s, root] = len(ranks)
                ranks.append(rank)
                if rank == d:
                    labels.append(g.vertices[root])
                elif rank == 0:
                    labels.append("0")
                else:
                    labels.append(
                        "{%s}@%s" % (",".join(map(str, sorted(s))), g.vertices[root]))
                origins.append((s, g.vertices[root]))
                if rank == 0:
                    covers.append(())
                else:
                    cov = []
                    for i in missing:
                        s2 = s | {i}
                        cov.append(cell_id[s2, roots[s2][root]])
                    covers.append(tuple(cov))

    return SimplicialPoset(d, tuple(ranks), tuple(covers), tuple(labels),
                           tuple(origins))


def induced_coloring(p: SimplicialPoset) -> dict[int, int]:
    """Vertex coloring a graph-built poset inherits: color of (H, S) with
    |S| = d-1 is the one color missing from S."""
    if p.origins is None:
        raise ValueError("poset carries no graph provenance")
    full = set(range(1, p.d + 1))
    out = {}
    for v in p.cells_by_rank[1]:
        missing = full - p.origins[v][0]
        (c,) = missing
        out[v] = c
    return out


def to_graph(p: SimplicialPoset, coloring: dict[int, int]) -> ColoredGraph:
    """Inverse construction: facets become graph vertices, ridges become
    edges, colored by the one color absent from the ridge's vertex set.

    Requires a pure pseudomanifold and a proper coloring (rainbow on every
    facet).  Facet labels must be distinct since they name the vertices.
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
    for f in facet_ids:
        cols = {coloring[v] for v in p.vertex_sets[f]}
        if len(cols) != p.d:
            raise ValueError(f"coloring is not rainbow on facet {p.labels[f]!r}")
    full = set(range(1, p.d + 1))
    edges = []
    for ridge in p.cells_by_rank[p.d - 1]:
        f1, f2 = p.coverers[ridge]
        missing = full - {coloring[v] for v in p.vertex_sets[ridge]}
        (c,) = missing
        edges.append((p.labels[f1], p.labels[f2], c))
    return ColoredGraph(p.d, tuple(p.labels[f] for f in facet_ids), tuple(edges))


# --- face and h vectors ------------------------------------------------------

def f_vector(p: SimplicialPoset) -> tuple[int, ...]:
    """(f_0, ..., f_d) with f_k the number of rank-k cells; f_0 = 1."""
    return tuple(len(p.cells_by_rank[r]) for r in range(p.d + 1))


def h_vector(f: tuple[int, ...]) -> tuple[int, ...]:
    """h-vector of an f-vector, by exact expansion of
    sum_i f_i t^i (1-t)^(d-i) = sum_k h_k t^k."""
    if not f or f[0] != 1:
        raise ValueError("f-vector must start with f_0 = 1")
    d = len(f) - 1
    return tuple(
        sum((-1) ** (k - i) * comb(d - i, k - i) * f[i] for i in range(k + 1))
        for k in range(d + 1))


def f_from_h(h: tuple[int, ...]) -> tuple[int, ...]:
    """Inverse transform of :func:`h_vector`."""
    if not h:
        raise ValueError("empty h-vector")
    d = len(h) - 1
    return tuple(
        sum(comb(d - i, k - i) * h[i] for i in range(k + 1))
        for k in range(d + 1))


# --- links -------------------------------------------------------------------

def link(p: SimplicialPoset, cell: int) -> SimplicialPoset:
    """The subposet of cells above `cell`, reindexed with `cell` as minimum.

    Ranks drop by rank(cell); the result is again simplicial.
    """
    if not 0 <= cell < p.n_cells:
        raise ValueError(f"unknown cell {cell}")
    base = p.ranks[cell]
    upset = {cell}
    frontier = [cell]
    while frontier:
        nxt = []
        for c in frontier:
            for u in p.coverers[c]:
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
    return SimplicialPoset(p.d - base, ranks, covers, labels)


# --- pseudomanifold predicates ------------------------------------------------

def is_pure(p: SimplicialPoset) -> bool:
    return all(p.ranks[f] == p.d for f in p.facets())


def is_pseudomanifold(p: SimplicialPoset) -> bool:
    """Pure + every ridge under exactly two facets + strongly connected
    (any two facets linked by a chain of ridge-sharing facets)."""
    if not is_pure(p) or p.d < 1:
        return False
    facet_ids = p.cells_by_rank[p.d]
    for ridge in p.cells_by_rank[p.d - 1]:
        if len(p.coverers[ridge]) != 2:
            return False
    pos = {f: i for i, f in enumerate(facet_ids)}
    uf = UnionFind(len(facet_ids))
    for ridge in p.cells_by_rank[p.d - 1]:
        f1, f2 = p.coverers[ridge]
        uf.union(pos[f1], pos[f2])
    return uf.count == 1


def is_normal(p: SimplicialPoset) -> bool:
    """Pseudomanifold whose links in ranks <= d-2 are all connected."""
    if not is_pseudomanifold(p):
        return False
    for c in range(p.n_cells):
        if p.ranks[c] <= p.d - 2 and not _link_connected(p, c):
            return False
    return True


def _link_connected(p: SimplicialPoset, cell: int) -> bool:
    """Connectivity of the 1-skeleton of the link of `cell`.

    Link vertices are the coverers of `cell`; link edges are the cells two
    ranks up (every coverer-of-a-coverer lies above `cell` by transitivity).
    """
    verts = p.coverers[cell]
    if not verts:
        return False
    pos = {v: i for i, v in enumerate(verts)}
    uf = UnionFind(len(verts))
    seen_edges = set()
    for v in verts:
        for e in p.coverers[v]:
            if e in seen_edges:
                continue
            seen_edges.add(e)
            ends = [j for j in p.covers[e] if j in pos]
            for j in ends[1:]:
                uf.union(pos[ends[0]], pos[j])
    return uf.count == 1


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
    full = set(range(1, p.d + 1))
    colors: dict[int, int] = {}
    seed = facet_ids[0]
    for c, v in zip(range(1, p.d + 1), sorted(p.vertex_sets[seed])):
        colors[v] = c
    done = {seed}
    frontier = [seed]
    while frontier:
        nxt = []
        for f in frontier:
            for ridge in p.covers[f]:
                ridge_colors = {colors[v] for v in p.vertex_sets[ridge]}
                if len(ridge_colors) != p.d - 1:
                    return None, ridge
                forced = full - ridge_colors
                (c,) = forced
                for g in p.coverers[ridge]:
                    if g == f:
                        continue
                    extra = p.vertex_sets[g] - p.vertex_sets[ridge]
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
        if len({colors.get(v) for v in p.vertex_sets[f]}) != p.d:
            return None, f
    return colors, None


# --- validation and JSON ------------------------------------------------------

def validate_poset(p: SimplicialPoset) -> list[str]:
    """Check the boolean-interval law by downward closure: a rank-k cell
    must have exactly C(k, j) cells of rank j below it."""
    violations = []
    downsets: list[dict[int, set[int]]] = []
    for i in range(p.n_cells):
        by_rank: dict[int, set[int]] = {p.ranks[i]: {i}}
        for j in p.covers[i]:
            for r, cells in downsets[j].items():
                by_rank.setdefault(r, set()).update(cells)
        downsets.append(by_rank)
        k = p.ranks[i]
        for j in range(k + 1):
            have = len(by_rank.get(j, ()))
            if have != comb(k, j):
                violations.append(
                    f"cell {i} (rank {k}) has {have} faces of rank {j}, "
                    f"expected {comb(k, j)}")
        if len(p.vertex_sets[i]) != k:
            violations.append(f"cell {i} has {len(p.vertex_sets[i])} vertices, "
                              f"expected {k}")
    return violations


def poset_to_dict(p: SimplicialPoset) -> dict:
    return {
        "d": p.d,
        "cells": [
            {"id": i, "rank": p.ranks[i], "covers": list(p.covers[i]),
             "label": p.labels[i]}
            for i in range(p.n_cells)
        ],
    }


def poset_from_dict(data: dict) -> SimplicialPoset:
    try:
        cells = sorted(data["cells"], key=lambda c: c["id"])
        if [c["id"] for c in cells] != list(range(len(cells))):
            raise ValueError("cell ids must be 0..N-1")
        return SimplicialPoset(
            data["d"],
            tuple(c["rank"] for c in cells),
            tuple(tuple(c["covers"]) for c in cells),
            tuple(c["label"] for c in cells))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed poset JSON: {exc}") from exc


def poset_to_json(p: SimplicialPoset) -> str:
    return json.dumps(poset_to_dict(p), sort_keys=True, indent=2)


def poset_from_json(text: str) -> SimplicialPoset:
    return poset_from_dict(json.loads(text))
