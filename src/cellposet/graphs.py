"""Edge-colored multigraphs and their color-restricted structure.

A d-colored multigraph carries a color in 1..d on every edge.  The graphs
of interest are *admissible*: connected, with each color class a perfect
matching.  Every admissible graph encodes a simplicial cell decomposition
of a closed pseudomanifold (see :mod:`cellposet.posets`).

A vertex's partners, and so the colors between two vertices, come from
the cached incidence index.  Components of a color-restricted subgraph
come from :meth:`ColoredGraph.component_roots`, the one component routine;
:meth:`ColoredGraph.components` is its view by vertex label.

All values are immutable; operations return new objects and are safe to
share between threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import cached_property


class UnionFind:
    """Array union-find with path compression; roots are minimal indices."""

    def __init__(self, size: int):
        self.parent = list(range(size))
        self.count = size

    def find(self, x: int) -> int:
        root = x
        while self.parent[root] != root:
            root = self.parent[root]
        while self.parent[x] != root:
            self.parent[x], x = root, self.parent[x]
        return root

    def union(self, a: int, b: int) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if rb < ra:
            ra, rb = rb, ra
        # keep the smaller index as root so component ids are canonical
        self.parent[rb] = ra
        self.count -= 1


@dataclass(frozen=True)
class ColoredGraph:
    """A loopless multigraph with edge colors in 1..d.

    ``vertices`` are opaque string labels; ``edges`` are (u, v, color)
    triples, multi-edges allowed.  Admissibility (connected + perfect
    matching per color) is checkable via :func:`validate_admissible`,
    never assumed.
    """

    d: int
    vertices: tuple[str, ...]
    edges: tuple[tuple[str, str, int], ...]

    def __post_init__(self):
        object.__setattr__(self, "vertices", tuple(self.vertices))
        object.__setattr__(self, "edges", tuple(tuple(e) for e in self.edges))
        # type(...) is int, not isinstance: JSON true/false load as bools
        if type(self.d) is not int:
            raise ValueError(f"d must be an integer, got {self.d!r}")
        if self.d < 1:
            raise ValueError(f"need at least one color, got d={self.d}")
        if len(set(self.vertices)) != len(self.vertices):
            raise ValueError("duplicate vertex labels")
        known = set(self.vertices)
        for u, v, c in self.edges:
            if u == v:
                raise ValueError(f"loop at vertex {u!r}")
            if u not in known or v not in known:
                raise ValueError(f"edge ({u!r}, {v!r}) has unknown endpoint")
            if type(c) is not int or not 1 <= c <= self.d:
                raise ValueError(f"edge color {c} outside 1..{self.d}")

    @cached_property
    def index(self) -> dict[str, int]:
        return {v: i for i, v in enumerate(self.vertices)}

    @cached_property
    def _incidence(self) -> dict[tuple[int, int], list[int]]:
        """(vertex index, color) -> indices of the other endpoints."""
        table: dict[tuple[int, int], list[int]] = {}
        for u, v, c in self.edges:
            iu, iv = self.index[u], self.index[v]
            table.setdefault((iu, c), []).append(iv)
            table.setdefault((iv, c), []).append(iu)
        return table

    def _check_color_set(self, colors) -> frozenset[int]:
        s = frozenset(colors)
        bad = [c for c in s if not 1 <= c <= self.d]
        if bad:
            raise ValueError(f"colors {sorted(bad)} outside 1..{self.d}")
        return s

    def component_roots(self, colors) -> list[int]:
        """Per-vertex root (least index in its component) under color restriction."""
        s = self._check_color_set(colors)
        uf = UnionFind(len(self.vertices))
        for u, v, c in self.edges:
            if c in s:
                uf.union(self.index[u], self.index[v])
        return [uf.find(i) for i in range(len(self.vertices))]

    def components(self, colors) -> tuple[tuple[str, ...], ...]:
        """Connected components of the color-restricted graph, as vertex
        labels grouped by :meth:`component_roots`.

        Components are ordered by their smallest vertex index, vertices
        inside a component likewise; this canonical order makes poset
        construction deterministic.
        """
        roots = self.component_roots(colors)
        groups: dict[int, list[str]] = {}
        for i, r in enumerate(roots):
            groups.setdefault(r, []).append(self.vertices[i])
        return tuple(tuple(groups[r]) for r in sorted(groups))

    def color_partner(self, v: str, color: int) -> str:
        """The unique vertex joined to `v` by the color-`color` edge."""
        if v not in self.index:
            raise ValueError(f"unknown vertex {v!r}")
        self._check_color_set([color])
        others = self._incidence.get((self.index[v], color), [])
        if len(others) != 1:
            raise ValueError(
                f"vertex {v!r} has {len(others)} edges of color {color}; "
                "graph is not admissible there")
        return self.vertices[others[0]]


def validate_admissible(g: ColoredGraph) -> list[str]:
    """Report admissibility violations; an empty list means admissible.

    Checks (a) connectivity and (b) that every color class is a perfect
    matching, naming the offending color and vertex.  The colors that no
    edge carries are named together in one line, so the report grows with
    the edge list and not with d.
    """
    violations: list[str] = []
    # a transient count, not the cached incidence index: validated graphs
    # are often kept, and the index would stay with them
    degree: dict[tuple[str, int], int] = {}
    for u, v, c in g.edges:
        degree[u, c] = degree.get((u, c), 0) + 1
        degree[v, c] = degree.get((v, c), 0) + 1
    carried = sorted({c for _, _, c in g.edges})
    for c in carried:
        for v in g.vertices:
            n = degree.get((v, c), 0)
            if n != 1:
                violations.append(
                    f"color {c}: vertex {v!r} meets {n} edges, expected exactly 1")
    if not g.vertices:
        violations.append("graph has no vertices")
    else:
        bounds = [0, *carried, g.d + 1]
        missing = [str(a + 1) if b - a == 2 else f"{a + 1}..{b - 1}"
                   for a, b in zip(bounds, bounds[1:]) if b - a > 1]
        if missing:
            violations.append("no edge has color " + ", ".join(missing))
        comps = g.components(carried)
        if len(comps) != 1:
            violations.append(f"graph is disconnected ({len(comps)} components)")
    return violations


def require_admissible(g: ColoredGraph) -> None:
    """Raise ValueError naming every violation unless `g` is admissible."""
    violations = validate_admissible(g)
    if violations:
        raise ValueError("graph is not admissible: " + "; ".join(violations))


def is_admissible(g: ColoredGraph) -> bool:
    return not validate_admissible(g)


# --- JSON / DOT interchange -------------------------------------------------

def graph_to_dict(g: ColoredGraph) -> dict:
    return {
        "d": g.d,
        "vertices": list(g.vertices),
        "edges": [{"u": u, "v": v, "color": c} for u, v, c in g.edges],
    }


def graph_from_dict(data: dict) -> ColoredGraph:
    try:
        edges = tuple((e["u"], e["v"], e["color"]) for e in data["edges"])
        return ColoredGraph(data["d"], tuple(data["vertices"]), edges)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed graph JSON: {exc}") from exc


def graph_to_json(g: ColoredGraph) -> str:
    return json.dumps(graph_to_dict(g), sort_keys=True, indent=2)


def graph_from_json(text: str) -> ColoredGraph:
    return graph_from_dict(json.loads(text))


def graph_to_dot(g: ColoredGraph) -> str:
    """DOT text, one line per multi-edge, color carried as an integer attribute."""
    lines = ["graph {"]
    for v in g.vertices:
        lines.append(f'  "{v}";')
    for u, v, c in g.edges:
        lines.append(f'  "{u}" -- "{v}" [color={c}];')
    lines.append("}")
    return "\n".join(lines) + "\n"
