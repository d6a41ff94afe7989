"""Dipole detection and cancellation on admissible colored graphs, and the
scheduled reduction of the product-of-spheres graph to a minimal
crystallization.

A pair (x, y) with edge colors C between them is a dipole when C is
nonempty and x, y fall in different components once the colors C are
removed.  Cancelling deletes x and y and rewires, for every color i not
in C, the i-colored partners of x and y to each other; this preserves the
perfect-matching property and the homotopy type of the associated cell
complex (Lemma A below) and, on manifolds, its homeomorphism type.

Every public call builds one partner table with :func:`require_admissible`
and drops it on return, caching nothing on the :class:`ColoredGraph` but
``ColoredGraph.index``; the table reads rows, labels and edges, no graph.
Each color class is a fixed-point-free involution, so the table stores
``partner[c][v]`` as a d x V table of int lists, the standard encoding of
crystallizations (Ferri, Gagliardi and Grasselli, 1986; Lins, 1995).  It
also holds an alive flag per vertex, the live vertex count and the edge
list, with no order stamp: an edge is in the graph exactly while both its
ends are alive, as cancelling (x, y) rewires only the partners of x and y
and so removes just the edges at x or y.  Its one step log records each
cancellation as a :class:`CancellationStep`, in order; :func:`run_schedule`
and :func:`greedy_reduce` return it as they find it.

* The dipole test runs a breadth-first search from x and one from y over
  the colors not in C, always growing the smaller frontier.  The pair is
  no dipole when the two sides meet, and is one as soon as either side
  runs out, so a dipole costs its smaller side.
* A cancellation rewires at most d partners.
* The table turns back into a graph with the input's surviving vertices
  and edges in their input order and orientation, followed by the edges
  the cancellations created, in creation order.  The edges of one
  cancellation are oriented (x's partner, y's partner) and sorted by
  color.

The engine loops cancel only pairs whose dipole test they have just
passed, and run no connectivity search afterwards: a dipole (x, y) whose
colors C are not all d colors always cancels to a connected graph, by
the lemma below with E all d colors.  Cancelling it is a dipole move,
which keeps the PL type of a crystallization (Ferri, Gagliardi and
Grasselli, 1986).  Write Ĉ for the colors not in C and Γ_E for the
subgraph of the colors in E; the new edge of each color c in Ĉ joins
x's c-partner to y's.

* Parity.  For a nonempty E ⊆ Ĉ, x's component K of Γ_E misses y, as
  Γ_E ⊆ Γ_Ĉ and the pair is a dipole.  Take a component L of K - x.
  Each color c in E pairs the vertices of L among themselves, except x's
  c-partner if it lies in L, so |L| is odd exactly when that partner
  does.  This holds for every c in E, so L holds all of x's E-partners
  or none of them.  Being part of the connected K, it holds one, hence
  all: K - x is connected, on edges that miss x and y.  The same holds
  for y.
* Lemma.  For every color set E, two surviving vertices in one component
  of Γ_E stay in one after the cancellation.  A component that misses x
  and y keeps its edges.  If E is empty there is nothing to prove.  If
  E ⊆ C, x's component is {x, y}: it goes.  If E misses C, x's K - x
  and y's K - y are connected by Parity, and the new E-edges join them.
  Otherwise the same holds for E' = E - C, so x's and y's E'-partners
  end up in one component.  Every other vertex of x's component reaches
  x or y in Γ_E; a shortest such path enters them from one of those
  partners, since x's C-partner is y, and before that it misses x and y,
  so it survives.
* Corollary.  A surviving pair that no new edge joins keeps its colors
  D, and by the lemma, with E the colors not in D, it stays joined
  without them if it was: only the pairs that the cancellation joins can
  become dipoles.  So greedy's heap of candidate pairs (`greedy_reduce`)
  takes in again only the pairs :meth:`_Table.cancel_dipole` returns.

Two more lemmas hold on any admissible graph Γ, manifold or not, for a
dipole (x, y) of colors C short of all d.  Write Γ' for the result and
|Γ| for the realization of `from_graph`'s poset, whose cell (H, E), H a
component of Γ_E, has the vertex colors not in E; σ_x is x's facet.

* Lemma A.  |Γ| ≃ |Γ'|, so both have the same Betti numbers over every
  field.  A face of σ_x is one of σ_y iff its vertex colors miss a color
  c of C, as its residue then holds x's c-partner y, and else lies in
  Γ_Ĉ, which parts x from y.  So B = σ_x ∪ σ_y is the join of the sphere
  of the two C-faces with the Ĉ-face, a ball whose interior belongs to x
  and y alone.  With Y = |Γ| minus that interior, |Γ'| is Y with each
  x-side face of ∂B that holds C glued to its y-side twin, which folds
  ∂B onto D = ∂(Ĉ-face) * C, a cone.  B and D are contractible, so
  |Γ| ≃ |Γ|/B = Y/∂B = |Γ'|/D ≃ |Γ'| (Hatcher, *Algebraic Topology*,
  Prop. 0.17).
* Lemma B.  |Γ| is a GF(2) homology manifold iff |Γ'| is, that is (the
  poset is pure, and the link of (H, E) is H's poset) iff every residue
  of 1 to d - 1 colors has a sphere's Betti vector.  A residue missing x
  and y is unchanged.  If E meets C and Ĉ, x's residue loses its dipole
  (x, y) of colors C ∩ E (E - C ⊆ Ĉ parts them) and keeps its Betti
  numbers by Lemma A.  If E ⊆ Ĉ, x's and y's residues become their graph
  sum at x and y, whose poset is the connected sum of theirs: by
  Mayer-Vietoris on these strongly connected pseudomanifolds with a
  GF(2) fundamental class, its reduced Betti numbers are the sums of
  theirs below the top degree and 1 there, a sphere's iff both are.  If
  E ⊆ C, the residue {x, y}, a sphere, goes.

So greedy and `run_schedule` keep `betti_gf2` and `is_homology_manifold`.
Neither lemma gives the PL type of a non-manifold, which needs the
properness condition of the singular-manifold literature.

A dipole of all d colors is a whole component (:func:`parallel_edges_graph`)
that cancelling would empty: greedy keeps it, `cancel_dipole` refuses it
before rewiring anything.  :func:`run_schedule` checks the crystallization
condition once, with d searches.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from heapq import heappop, heappush
from itertools import combinations, compress
from json.encoder import encode_basestring_ascii
from math import comb

from . import posets
from .graphs import ColoredGraph, _json_array, require_admissible
from .constructions import block_label, product_spheres_graph
from .posets import _refuse_above


class CancellationError(Exception):
    """A cancellation step failed (pair not a dipole, or result broken)."""


@dataclass(frozen=True)
class CancellationStep:
    step: int
    pair: tuple[str, str]
    colors: tuple[int, ...]
    vertices_after: int

    def to_dict(self) -> dict:
        return {"step": self.step, "pair": list(self.pair),
                "colors": list(self.colors),
                "vertices_after": self.vertices_after}


def steps_to_json(steps) -> str:
    """The step certificate, byte for byte ``json.dumps(..., sort_keys=True,
    indent=2)`` of the steps' dicts, from a template (see `graphs`)."""
    return _json_array([
        '{\n    "colors": %s,\n    "pair": %s,\n    "step": %d,'
        '\n    "vertices_after": %d\n  }'
        % (_json_array(map(str, s.colors), "    "),
           _json_array(map(encode_basestring_ascii, s.pair), "    "),
           s.step, s.vertices_after) for s in steps], "")


class _Table:
    """The partner table of an admissible graph, rewritten in place.

    ``partner`` is the table :func:`require_admissible` returns, or some of
    its rows, over the ``labels``; ``edges`` lists the input edges, then
    each edge a cancellation made, with no order stamp: the live ones have
    both ends alive (module docstring).  ``steps`` logs each cancellation,
    in order; `cancel_dipole` returns the pairs its new edges join."""

    def __init__(self, partner: list[list[int]], labels, edges):
        self.partner = partner
        self.d = len(partner)
        self.labels = labels
        self.index = dict(zip(labels, range(len(labels))))
        self.edges = list(edges)
        self.alive = [True] * len(labels)
        self.live = len(labels)
        self.steps: list[CancellationStep] = []

    def vertex(self, label: str) -> int:
        i = self.index.get(label)
        if i is None or not self.alive[i]:
            raise ValueError(f"unknown vertex {label!r}")
        return i

    def dipole_colors(self, x: int, y: int) -> tuple[int, ...] | None:
        """The colors joining x and y if the pair is a dipole, else None."""
        colors = tuple(c for c, row in enumerate(self.partner, start=1)
                       if row[x] == y)
        if not colors:
            return None
        rows = [row for row in self.partner if row[x] != y]
        seen = ({x}, {y})
        frontier = [[x], [y]]
        while True:
            k = len(frontier[0]) > len(frontier[1])
            mine, other = seen[k], seen[not k]
            grown = []
            for v in frontier[k]:
                for row in rows:
                    w = row[v]
                    if w in other:
                        return None
                    if w not in mine:
                        mine.add(w)
                        grown.append(w)
            if not grown:
                return colors
            frontier[k] = grown

    def connected(self, skip: int) -> bool:
        """Whether the live vertices form one component, searched over
        every color but `skip`."""
        rows = [row for c, row in enumerate(self.partner, start=1)
                if c != skip]
        start = self.alive.index(True)
        seen = {start}
        stack = [start]
        while stack:
            v = stack.pop()
            for row in rows:
                w = row[v]
                if w not in seen:
                    seen.add(w)
                    stack.append(w)
        return len(seen) == self.live

    def cancel_dipole(self, x: int, y: int, colors: tuple[int, ...]
                      ) -> list[tuple[int, int]]:
        """Cancel a pair whose dipole test just returned `colors`, without
        a search (see the module docstring), and log the step.  Return the
        index pairs the new edges join, smaller first, one per color not in
        `colors`, in color order.  A full-type dipole is the whole graph:
        refuse it, leaving the table as it was."""
        if len(colors) == self.d:
            raise CancellationError(
                f"cancelling ({self.labels[x]!r}, {self.labels[y]!r}) breaks "
                "admissibility: result is disconnected")
        joined = []
        for c, row in enumerate(self.partner, start=1):
            a = row[x]
            if a == y:
                continue
            b = row[y]
            row[a], row[b] = b, a
            self.edges.append((self.labels[a], self.labels[b], c))
            joined.append((a, b) if a < b else (b, a))
        self.alive[x] = self.alive[y] = False
        self.live -= 2
        self.steps.append(CancellationStep(
            len(self.steps) + 1, (self.labels[x], self.labels[y]), colors,
            self.live))
        return joined

    def graph(self) -> ColoredGraph:
        alive, index = self.alive, self.index
        return ColoredGraph(
            self.d, tuple(compress(self.labels, alive)),
            tuple(e for e in self.edges
                  if alive[index[e[0]]] and alive[index[e[1]]]))


# --- the symbolic cancellation schedule -------------------------------------------

def _rng(a: int, b: int) -> list[int]:
    """The integers a..b, empty when b < a."""
    return list(range(a, b + 1))


def cancellation_schedule(n: int, m: int) -> tuple[tuple[str, str], ...]:
    """The (first, second) label pairs that reduce the product-of-spheres
    graph, stage by stage.

    Stage j (1 <= j <= n) pairs off, for every subset S = {i_1 < ...} of
    [j+1, n+m] with n+1-j elements and S' = S minus i_1:

    * j odd, i_1 = j+1:  A([1,j-1] + S)  with  A([1,j] + S'),
    * j odd, i_1 > j+1:  A([1,j-1] + S)  with  B([i_1-j-1, i_1-2] + S'),
    * j even:            B([i_1-j, i_1-2] + S)  with  B([i_1-j, i_1-1] + S').

    Pairs are ordered stage-ascending and, within a stage, by descending
    reverse-lexicographic order of S.  The schedule has C(n+m, n) - 1
    pairs touching only A- and B-block vertices, pairwise disjointly.
    """
    if n < 1 or m < 1:
        raise ValueError("both sphere dimensions must be at least 1")
    # exact up to min(n, m) = 20, as in `product_spheres_graph`
    n_entries = comb(n + m, min(n, m, 20)) - 1
    _refuse_above(posets.MAX_OUTPUT_SIZE, n_entries, f"the cancellation "
                  f"schedule of S^{n} x S^{m} has at least {n_entries} "
                  "entries")
    pairs = []
    for j in range(1, n + 1):
        # descending reverse-lex = ascending colexicographic
        for s in sorted(combinations(range(j + 1, n + m + 1), n + 1 - j),
                        key=lambda s: tuple(sorted(s, reverse=True))):
            i1, s_rest = s[0], s[1:]
            if j % 2 == 1:
                first = block_label("A", _rng(1, j - 1) + list(s))
                if i1 == j + 1:
                    second = block_label("A", _rng(1, j) + list(s_rest))
                else:
                    second = block_label("B", _rng(i1 - j - 1, i1 - 2) + list(s_rest))
            else:
                first = block_label("B", _rng(i1 - j, i1 - 2) + list(s))
                second = block_label("B", _rng(i1 - j, i1 - 1) + list(s_rest))
            pairs.append((first, second))
    return tuple(pairs)


# --- end-to-end reduction -----------------------------------------------------------

def run_schedule(g: ColoredGraph, n: int, m: int
                 ) -> tuple[ColoredGraph, tuple[CancellationStep, ...]]:
    """Cancel the pairs of :func:`cancellation_schedule` in an admissible
    graph, verifying the dipole condition at every step, and check that
    the result is a minimal crystallization of S^n x S^m: it has
    2 + 2*C(n+m, n) vertices and stays connected after deleting any
    single color class.  A graph the C(n+m, n) - 1 pairs cannot fit, as
    each cancels two vertices and two are left at least, is refused once
    found admissible and before the pairs are listed; the count is
    bounded past min(n, m) = 20."""
    t = _Table(require_admissible(g), g.vertices, g.edges)
    if (min(n, m) < 1 or n + m + 1 != t.d
            or 2 * comb(n + m, min(n, m, 20)) > t.live):
        raise ValueError(
            f"the cancellation schedule of S^{n} x S^{m} needs n, m >= 1, "
            f"d = n + m + 1 and at least 2*C(n+m, n) vertices; the graph "
            f"has d = {t.d} and {t.live} vertices")
    for k, (x, y) in enumerate(cancellation_schedule(n, m), start=1):
        ix, iy = t.vertex(x), t.vertex(y)
        colors = t.dipole_colors(ix, iy)
        if colors is None:
            raise CancellationError(
                f"step {k}: pair ({x!r}, {y!r}) is not a dipole")
        t.cancel_dipole(ix, iy, colors)
    expected = 2 + 2 * comb(n + m, n)
    if t.live != expected:
        raise CancellationError(
            f"reduced graph has {t.live} vertices, expected {expected}")
    # searched on the table, which keeps the cancelled vertices, so
    # `graphs._merge_roots` would map every original index: the d checks
    # take 1.5 ms by search and 11 ms by the kernel at (4,5), 18 ms and
    # 168 ms at (6,6) (CPU time, best of 7)
    for i in range(1, t.d + 1):
        if not t.connected(skip=i):
            raise CancellationError(
                f"reduced graph is disconnected without color {i}; "
                "not a crystallization")
    return t.graph(), tuple(t.steps)


def reduce_product_spheres(n: int, m: int
                           ) -> tuple[ColoredGraph, tuple[CancellationStep, ...]]:
    """Build the product-of-spheres graph and cancel it down to a minimal
    crystallization with :func:`run_schedule`."""
    return run_schedule(product_spheres_graph(n, m), n, m)


def greedy_reduce(g: ColoredGraph
                  ) -> tuple[ColoredGraph, tuple[CancellationStep, ...]]:
    """Cancel dipoles of an admissible graph greedily, each the least
    index pair that is one, until none is left or only a full-type
    dipole, the whole graph, which is kept.  One heap holds the pairs an
    edge joins and takes in those each cancellation joins, the only ones
    that can become dipoles (module docstring): at most V d/2 + (d - 1) *
    steps dipole tests.  Graphs with more than ``posets.MAX_OUTPUT_SIZE``
    of V^2 d/4, none at V = 2, are refused before the first: the heap's
    bound grows from 4779 to 46188 on shuffled products of 504 to 3696
    vertices, while greedy's CPU time grows from 0.05 to 3.2 s."""
    t = _Table(require_admissible(g), g.vertices, g.edges)
    _cancel_greedily(t, by_type=False)
    return t.graph(), tuple(t.steps)


def _cancel_greedily(t: _Table, by_type: bool) -> None:
    """:func:`greedy_reduce`'s refusal and loop on `t`, its heap keyed by
    pair or, `by_type`, by (-type, pair), the type being the count of the
    colors joining the pair when pushed, which a cancellation can raise.
    A full-type dipole, a whole two-vertex component, is kept."""
    v, partner = t.live, t.partner
    tests = v * v * t.d // 4 if v > 2 else 0
    _refuse_above(posets.MAX_OUTPUT_SIZE, tests, f"greedy reduction of this "
                  f"{v}-vertex {t.d}-colored graph may make {tests} dipole "
                  "tests")
    types = Counter((a, b) for row in partner
                    for a, b in enumerate(row) if a < b)
    heap = sorted([(-n, a, b) for (a, b), n in types.items()] if by_type
                  else types)
    last = None
    # a full-type dipole is a whole two-vertex component, so a connected
    # table stops at two vertices; equal items pop together
    while heap and t.live > 2:
        item = heappop(heap)
        x, y = item[-2:]
        if item != last and t.alive[x] and t.alive[y]:
            colors = t.dipole_colors(x, y)
            if colors and len(colors) < t.d:
                for a, b in t.cancel_dipole(x, y, colors):
                    heappush(heap, (-sum(row[a] == b for row in partner),
                                    a, b) if by_type else (a, b))
        last = item
