"""Ranked simplicial posets and the graph <-> poset correspondence.

A simplicial poset has a unique minimum cell (rank 0) below everything and
boolean lower intervals; rank-k cells are the (k-1)-dimensional cells of
the underlying regular cell complex.  Cells are stored by integer id with
explicit cover lists (covers point one rank down); cell 0 is the minimum.
The constructor checks ranks, cover counts and that d is the greatest cell
rank; the lower intervals are proved boolean in `homology` by one walk,
`_check_simplicial`, which `validate_poset` runs on every poset and
`_require_simplicial`, the one gate of `betti_gf2`, the link test and
`connected_sum`, on every poset but those `from_graph` built, boolean by
construction (below).
A poset caches its covers upward in one form, `_up_table`, by its cached
`_positions` (a cell's index in its rank): item r lists, for the i-th
rank-r cell, the ascending positions in rank r + 1 of its coverers.  The
poset is frozen, so both are functions of its fields, and no engine
writes to either.

`from_graph` realizes the cell poset of an admissible d-colored multigraph:
cells are pairs (H, S) of a color set S and a connected component H of the
S-colored subgraph, ordered by reverse inclusion on both coordinates, with
rank d - |S|.  Facets correspond to graph vertices, ridges to graph edges.
A component is named by its root, its least vertex index.  The roots for
S are those for S minus its greatest color c, with the distinct pairs of
roots that the c-colored edges join merged (`graphs._merge_roots`, the
component kernel of graphs and posets).  A set of at most two colors
has a root per vertex.  A larger S has one per component of its two least
colors B, a bicolored cycle; every set from B up to S shares that base,
and the c-colored edges join the distinct pairs of B-components, found
once per B and c.  A color set has a cell per distinct root, at least 2^d
cells in all.  The roots give the exact f-vector, so a graph whose poset
passes `MAX_OUTPUT_SIZE` cells or `MAX_ROW_BITS` bits of boundary rows is
refused before any cell is built.
The output skips the constructor's checks, which the construction meets:
ranks lie in 0..d, each vertex is a facet of rank d, the graph is
connected (one rank-0 cell), and a cell (H, S) covers one cell of rank one
lower per color outside S, each of a distinct color set; labels are
strings, as vertex labels are.  Facet i is vertex i, and its covers are
its d ridges, one per color, ascending: the facets' covers give back the
partner table, which `homology._certified` reads.  It is simplicial: the
cells below (H, S) are the (H', S') with S' a superset of S, one for each
S', the component of the S'-colored subgraph that holds H, so [0, (H, S)]
is the boolean lattice on [d] - S; and the interval above (H, S) is the
cell poset of the connected residue H as an |S|-colored graph (Ferri,
Gagliardi and Grasselli, *A graph-theoretical representation of
PL-manifolds*, 1986).  So the output is marked `_proved`, built from an
admissible graph, which no field, argument or other builder sets, and
which only `homology._require_simplicial` reads.

`poset_to_json` writes ``{"cells": [{"covers", "id", "label", "rank"}],
"d"}`` as `graphs.graph_to_json` writes graphs: sorted keys, a two-space
indent and ASCII escapes, byte for byte ``json.dumps(..., sort_keys=True,
indent=2)`` of the dict form the tests keep.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property
from itertools import combinations, compress, count
from json.encoder import encode_basestring_ascii
from math import comb
from operator import lt, mul

from .graphs import (ColoredGraph, _json_array, _merge_roots,
                     require_admissible)

# The most cells `from_graph` makes, the most edges or cells a builder in
# `constructions` makes, the most pairs `cancellation_schedule` lists
# and the most dipole tests `greedy_reduce` may make; a larger request is
# refused before any of it is made.  Each reads the constant here when
# called, so one patch of it bounds them all.  The size is exact for small
# arguments and a lower bound for large ones, whose exact count is slow.
MAX_OUTPUT_SIZE = 10 ** 6

# The most bits of boundary rows a chain complex holds: a rank-k cell's
# row is f_{k-1} bits wide, so the rows take sum_k f_k f_{k-1} bits.
# `from_graph` and `_require_row_bits` refuse a larger complex; both read
# the constant here, so one patch of it bounds every engine.
MAX_ROW_BITS = 4 * 10 ** 9


def _refuse_above(limit: int, size: int, what: str) -> None:
    """The one size guard: refuse a `size` above `limit`; `what` names it."""
    if size > limit:
        raise ValueError(f"{what}, more than the limit of {limit}")


def _require_row_bits(p: SimplicialPoset) -> None:
    """Refuse a poset whose boundary rows would take more than
    ``MAX_ROW_BITS`` bits: sum_k f_k f_{k-1}."""
    f = [len(cells) for cells in p.cells_by_rank]
    bits = sum(a * b for a, b in zip(f, f[1:]))
    _refuse_above(MAX_ROW_BITS, bits, f"the chain complex has {bits} bits "
                  "of boundary rows")


@dataclass(frozen=True)
class SimplicialPoset:
    """Cells indexed 0..N-1; cell 0 is the minimum element.

    ``ranks[i]`` is the rank of cell i, ``covers[i]`` the ids of the cells
    it covers (each one rank lower), ``labels[i]`` a free-form name; ``d``,
    which sizes every engine's work, is the greatest of the ranks.
    """

    d: int
    ranks: tuple[int, ...]
    covers: tuple[tuple[int, ...], ...]
    labels: tuple[str, ...]
    _proved = False     # set by `from_graph` alone (module docstring)

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
        for i, (r, label) in enumerate(zip(self.ranks, self.labels)):
            if type(r) is not int or not 0 <= r <= self.d:
                raise ValueError(f"cell {i} has rank {r!r} outside 0..{self.d}")
            if not isinstance(label, str):
                raise ValueError(f"cell {i} label {label!r} is not a string")
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
        top = max(self.ranks)
        if top != self.d:
            raise ValueError(
                f"d is {self.d}, but the greatest cell rank is {top}")

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
    def _positions(self) -> list[int]:
        """By cell id, the cell's index within its rank."""
        pos = [0] * self.n_cells
        for cells in self.cells_by_rank:
            for i, c in enumerate(cells):
                pos[c] = i
        return pos

    @cached_property
    def _up_table(self) -> list[list[list[int]]]:
        """The upward cover table of the module docstring."""
        pos, by_rank = self._positions, self.cells_by_rank
        up = [[[] for _ in cells] for cells in by_rank]
        for level, cells in zip(up, by_rank[1:]):
            for i, c in enumerate(cells):
                for j in self.covers[c]:
                    level[pos[j]].append(i)
        return up


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
    partner = require_admissible(g)
    d = g.d
    # every color set has a component, so f_k >= C(d, k): 2^d cells and
    # sum_k C(d, k) C(d, k - 1) = C(2d, d + 1) bits of boundary rows at
    # least (Vandermonde); d is capped at 64 so that a huge d costs
    # nothing to bound
    k = min(d, 64)
    n_cells, bits = 2 ** k, comb(2 * k, k + 1)
    _refuse_above(MAX_OUTPUT_SIZE, n_cells, f"the cell poset of a "
                  f"{d}-colored graph has at least {n_cells} cells")
    _refuse_above(MAX_ROW_BITS, bits, f"the chain complex of a {d}-colored "
                  f"graph has at least {bits} bits of boundary rows")
    colors = tuple(range(1, d + 1))

    # The roots for S are those for S - {max S} merged along the edges of
    # color max S: per vertex up to |S| = 2, per component of the base B,
    # S's two least colors, above (module docstring).  at[S] maps a vertex
    # to its entry in roots[S].  Color sets are keyed by bitmask (bit c
    # for color c); combinations yields every smaller set before the sets
    # built on it.
    vertices = range(len(g.vertices))
    ends = {}       # color -> its partner row's pairs (v, w), v < w
    for c, row in enumerate(partner, start=1):
        lower = list(map(lt, vertices, row))
        ends[c] = list(compress(vertices, lower)), list(compress(row, lower))
    roots = {0: list(vertices)}
    at = {0: roots[0]}
    joins = {}      # (B, color) -> the distinct pairs of entries joined
    for size in range(1, d + 1):
        for sub in combinations(colors, size):
            top = sub[-1]
            mask = sum(1 << c for c in sub)
            base = 1 << sub[0] | 1 << sub[1] if size > 2 else 0
            if (base, top) not in joins:
                pos = at[base]
                joins[base, top] = tuple(zip(*set(zip(
                    map(pos.__getitem__, ends[top][0]),
                    map(pos.__getitem__, ends[top][1])))))
            at[mask] = at[base]
            roots[mask] = r = _merge_roots(roots[mask ^ 1 << top],
                                           *joins[base, top])
            if size == 2:       # S is a base: one entry per component
                roots[mask] = sorted(set(r))
                at[mask] = list(map(
                    dict(zip(roots[mask], count())).__getitem__, r))
    # a root is the least vertex of its component: one cell per root
    components = {mask: sorted(set(r)) for mask, r in roots.items()}
    f = [0] * (d + 1)
    for mask, comps in components.items():
        f[d - mask.bit_count()] += len(comps)
    n_cells, bits = sum(f), sum(map(mul, f, f[1:]))
    _refuse_above(MAX_OUTPUT_SIZE, n_cells, f"the cell poset of this "
                  f"{d}-colored graph has {n_cells} cells")
    _refuse_above(MAX_ROW_BITS, bits, f"the chain complex of this "
                  f"{d}-colored graph has {bits} bits of boundary rows")

    # the graph is connected: one rank-0 cell, the minimum
    full = sum(1 << c for c in colors)
    cell_of: dict[int, dict[int, int]] = {full: {0: 0}}   # set -> root -> id
    ranks, covers, labels = [0], [()], ["0"]
    for rank in range(1, d + 1):
        # missing = [d] \ S enumerated in lexicographic order fixes cell order
        for missing in combinations(colors, rank):
            mask = full ^ sum(1 << i for i in missing)
            comps = components[mask]
            cell_of[mask] = dict(zip(comps, count(len(ranks))))
            ranks += [rank] * len(comps)
            names = map(g.vertices.__getitem__, comps)
            if rank < d:
                prefix = "{%s}@" % ",".join(str(c) for c in colors
                                            if c not in missing)
                names = map(prefix.__add__, names)
            labels += names
            # one column per missing color: the covered cell, which has
            # that color back, of each cell's root
            covers += zip(*[map(cell_of[mask | 1 << i].__getitem__,
                                map(roots[mask | 1 << i].__getitem__,
                                    map(at[mask | 1 << i].__getitem__, comps)))
                            for i in missing])

    # the construction meets the checks and the proof (module docstring)
    p = object.__new__(SimplicialPoset)
    p.__dict__.update(d=d, ranks=tuple(ranks), covers=tuple(covers),
                      labels=tuple(labels), _proved=True)
    return p


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


# --- pseudomanifold predicates ------------------------------------------------

def is_pure(p: SimplicialPoset) -> bool:
    """Every cell below rank d has a coverer.  Covers point one rank down,
    so the covers name only cells below rank d, and all of them exactly
    when they name n_cells - f_d distinct cells: one set over `p.covers`,
    with no `_up_table`."""
    return len(set().union(*p.covers)) == p.n_cells - p.ranks.count(p.d)


def is_pseudomanifold(p: SimplicialPoset) -> bool:
    """Pure + every ridge under exactly two facets + strongly connected
    (any two facets linked by a chain of ridge-sharing facets), all read
    off `_up_table`: purity is a coverer for every cell below rank d."""
    if p.d < 1:
        return False
    up = p._up_table
    ridges = up[p.d - 1]               # each ridge's facets, by position
    if not all(map(all, up[:p.d])) or any(len(f) != 2 for f in ridges):
        return False
    # pure and d >= 1: a facet exists, so a ridge does, with two facets
    roots = _merge_roots(list(range(len(p.cells_by_rank[p.d]))), *zip(*ridges))
    return len(set(roots)) == 1


# --- validation and JSON ------------------------------------------------------

def poset_from_dict(data: dict) -> SimplicialPoset:
    """Load a poset from its dict form through the constructor, which
    refuses a ``d`` above every cell's rank."""
    try:
        for c in data["cells"]:     # true and 1.0 compare equal to 1
            if type(c["id"]) is not int:
                raise ValueError(f"malformed poset JSON: cell id {c['id']!r} "
                                 "is not an integer")
        cells = sorted(data["cells"], key=lambda c: c["id"])
        if [c["id"] for c in cells] != list(range(len(cells))):
            raise ValueError("cell ids must be 0..N-1")
        p = SimplicialPoset(
            data["d"],
            tuple(c["rank"] for c in cells),
            tuple(tuple(c["covers"]) for c in cells),
            tuple(c["label"] for c in cells))
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed poset JSON: {exc}") from exc
    return p


def poset_to_json(p: SimplicialPoset) -> str:
    ids = list(map(str, range(p.n_cells)))  # written again per coverer
    cells = ['{\n      "covers": %s,\n      "id": %s,\n      "label": %s,'
             '\n      "rank": %d\n    }'
             % (_json_array(map(ids.__getitem__, cov), "      "), i,
                encode_basestring_ascii(label), rank)
             for i, cov, label, rank in zip(ids, p.covers, p.labels, p.ranks)]
    return '{\n  "cells": %s,\n  "d": %d\n}' % (_json_array(cells, "  "), p.d)
