"""Dipole detection and cancellation on admissible colored graphs, and the
scheduled reduction of the product-of-spheres graph to a minimal
crystallization.

A pair (x, y) with edge colors C between them is a dipole when C is
nonempty and x, y fall in different components once the colors C are
removed.  Cancelling deletes x and y and rewires, for every color i not
in C, the i-colored partners of x and y to each other; this preserves the
perfect-matching property unconditionally and, on manifolds, the
homeomorphism type of the associated cell complex.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from itertools import combinations
from math import comb

from .graphs import ColoredGraph, require_admissible
from .constructions import block_label, product_spheres_graph


class CancellationError(Exception):
    """A cancellation step failed (pair not a dipole, or result broken)."""


@dataclass(frozen=True)
class Dipole:
    """A verified dipole: its colors and the sizes of the two components
    separated by removing them."""

    x: str
    y: str
    colors: frozenset[int]
    component_sizes: tuple[int, int]


def colors_between(g: ColoredGraph, x: str, y: str) -> frozenset[int]:
    """Set of colors of the edges joining x and y."""
    for v in (x, y):
        if v not in g.index:
            raise ValueError(f"unknown vertex {v!r}")
    ix, iy = g.index[x], g.index[y]
    return frozenset(c for c in range(1, g.d + 1)
                     if iy in g._incidence.get((ix, c), ()))


def check_dipole(g: ColoredGraph, x: str, y: str) -> Dipole | None:
    """The Dipole witness for (x, y), or None if the pair is not one."""
    cols = colors_between(g, x, y)
    if not cols:
        return None
    roots = g.component_roots(frozenset(range(1, g.d + 1)) - cols)
    rx, ry = roots[g.index[x]], roots[g.index[y]]
    if rx == ry:
        return None
    # sizes in component order, i.e. by root, the least vertex index
    lo, hi = sorted((rx, ry))
    return Dipole(x, y, cols, (roots.count(lo), roots.count(hi)))


def find_dipoles(g: ColoredGraph) -> Iterator[Dipole]:
    """Yield the dipoles lazily, scanning vertex pairs (i, j) with i < j in
    index order.

    Only pairs joined by an edge are checked: a pair without one has no
    colors between it and so is never a dipole.
    """
    pairs = sorted({tuple(sorted((g.index[u], g.index[v])))
                    for u, v, _ in g.edges})
    for i, j in pairs:
        dip = check_dipole(g, g.vertices[i], g.vertices[j])
        if dip is not None:
            yield dip


def cancel(g: ColoredGraph, x: str, y: str) -> ColoredGraph:
    """Remove x and y; for each color i without an x-y edge, join x's
    i-partner to y's i-partner.  Fails if the result is disconnected.
    """
    if x == y:
        raise ValueError("cannot cancel a vertex with itself")
    cols = colors_between(g, x, y)
    new_edges = [e for e in g.edges if x not in e[:2] and y not in e[:2]]
    for i in sorted(frozenset(range(1, g.d + 1)) - cols):
        a = g.color_partner(x, i)
        b = g.color_partner(y, i)
        new_edges.append((a, b, i))
    result = ColoredGraph(
        g.d,
        tuple(v for v in g.vertices if v not in (x, y)),
        tuple(new_edges))
    if len(result.components(range(1, g.d + 1))) != 1:
        raise CancellationError(
            f"cancelling ({x!r}, {y!r}) breaks admissibility: result is "
            "disconnected")
    return result


# --- the symbolic cancellation schedule -------------------------------------------

@dataclass(frozen=True)
class ScheduleEntry:
    subset: tuple[int, ...]
    pair: tuple[str, str]


@dataclass(frozen=True)
class Schedule:
    n: int
    m: int
    entries: tuple[ScheduleEntry, ...]


def rlex_greater(s, t) -> bool:
    """Reverse-lexicographic comparison: s > t iff the largest element of
    the symmetric difference lies in t."""
    diff = set(s) ^ set(t)
    if not diff:
        return False
    return max(diff) in set(t)


def _rng(a: int, b: int) -> list[int]:
    """The integers a..b, empty when b < a."""
    return list(range(a, b + 1))


def cancellation_schedule(n: int, m: int) -> Schedule:
    """The pairing that reduces the product-of-spheres graph, stage by stage.

    Stage j (1 <= j <= n) pairs off, for every subset S = {i_1 < ...} of
    [j+1, n+m] with n+1-j elements and S' = S minus i_1:

    * j odd, i_1 = j+1:  A([1,j-1] + S)  with  A([1,j] + S'),
    * j odd, i_1 > j+1:  A([1,j-1] + S)  with  B([i_1-j-1, i_1-2] + S'),
    * j even:            B([i_1-j, i_1-2] + S)  with  B([i_1-j, i_1-1] + S').

    Entries are ordered stage-ascending and, within a stage, by descending
    reverse-lexicographic order of S.  The schedule has C(n+m, n) - 1
    entries touching only A- and B-block vertices, pairwise disjointly.
    """
    if n < 1 or m < 1:
        raise ValueError("both sphere dimensions must be at least 1")
    entries = []
    for j in range(1, n + 1):
        stage_sets = [s for s in combinations(range(j + 1, n + m + 1), n + 1 - j)]
        # descending reverse-lex = ascending colexicographic
        stage_sets.sort(key=lambda s: tuple(sorted(s, reverse=True)))
        for s in stage_sets:
            i1 = s[0]
            s_rest = s[1:]
            if j % 2 == 1:
                first = block_label("A", _rng(1, j - 1) + list(s))
                if i1 == j + 1:
                    second = block_label("A", _rng(1, j) + list(s_rest))
                else:
                    second = block_label("B", _rng(i1 - j - 1, i1 - 2) + list(s_rest))
            else:
                first = block_label("B", _rng(i1 - j, i1 - 2) + list(s))
                second = block_label("B", _rng(i1 - j, i1 - 1) + list(s_rest))
            entries.append(ScheduleEntry(s, (first, second)))
    return Schedule(n, m, tuple(entries))


# --- end-to-end reduction -----------------------------------------------------------

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


def run_schedule(g: ColoredGraph, schedule: Schedule
                 ) -> tuple[ColoredGraph, tuple[CancellationStep, ...]]:
    """Apply a schedule to an admissible graph, verifying the dipole
    condition at every step."""
    require_admissible(g)
    steps = []
    for k, entry in enumerate(schedule.entries, start=1):
        x, y = entry.pair
        dip = check_dipole(g, x, y)
        if dip is None:
            raise CancellationError(
                f"step {k}: pair ({x!r}, {y!r}) is not a dipole")
        g = cancel(g, x, y)
        steps.append(CancellationStep(k, entry.pair, tuple(sorted(dip.colors)),
                                      len(g.vertices)))
    return g, tuple(steps)


def reduce_product_spheres(n: int, m: int
                           ) -> tuple[ColoredGraph, tuple[CancellationStep, ...]]:
    """Build the product-of-spheres graph and cancel it down to a minimal
    crystallization.

    The final graph has 2 + 2*C(n+m, n) vertices and stays connected after
    deleting any single color class (the crystallization condition); both
    facts are verified before returning.
    """
    g = product_spheres_graph(n, m)
    final, steps = run_schedule(g, cancellation_schedule(n, m))
    expected = 2 + 2 * comb(n + m, n)
    if len(final.vertices) != expected:
        raise CancellationError(
            f"reduced graph has {len(final.vertices)} vertices, "
            f"expected {expected}")
    full = range(1, final.d + 1)
    for i in full:
        others = [c for c in full if c != i]
        if len(final.components(others)) != 1:
            raise CancellationError(
                f"reduced graph is disconnected without color {i}; "
                "not a crystallization")
    return final, steps


def greedy_reduce(g: ColoredGraph
                  ) -> tuple[ColoredGraph, tuple[CancellationStep, ...]]:
    """Cancel dipoles of an admissible graph greedily (first cancellable
    pair in scan order) until none is left."""
    require_admissible(g)
    steps = []
    k = 0
    while True:
        for dip in find_dipoles(g):
            try:
                g2 = cancel(g, dip.x, dip.y)
            except CancellationError:
                continue
            k += 1
            g = g2
            steps.append(CancellationStep(k, (dip.x, dip.y),
                                          tuple(sorted(dip.colors)),
                                          len(g.vertices)))
            break
        else:
            return g, tuple(steps)
