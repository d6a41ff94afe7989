"""Edge-colored multigraphs and their color-restricted structure.

A d-colored multigraph carries a color in 1..d on every edge.  The graphs
of interest are *admissible*: connected, with each color class a perfect
matching.  Every admissible graph encodes a simplicial cell decomposition
of a closed pseudomanifold (see :mod:`cellposet.posets`).

A graph's one index form is its partner table, a fixed-point-free
involution per color, built by the admissibility check
:func:`require_admissible` and read by :func:`cellposet.posets.from_graph`
and the dipole reduction.  `_merge_roots` answers every component
question on a graph or a poset: connectivity in
:func:`validate_admissible`, the components of :func:`from_graph` and the
strong connectivity of :func:`cellposet.posets.is_pseudomanifold`.  The
dipole reduction searches its partner table instead
(:func:`cellposet.reduction.run_schedule`): it keeps its cancelled
vertices, and the kernel would check it seven to nine times slower.

All values are immutable; operations return new objects and are safe to
share between threads.

:func:`graph_to_json` writes ``{"d", "edges": [{"color", "u", "v"}],
"vertices"}`` with sorted keys, a two-space indent and ASCII escapes, byte
for byte ``json.dumps(..., sort_keys=True, indent=2)`` of the dict form
the tests keep.  It fills a fixed template and quotes each label with the
C string encoder ``json.dumps`` uses; ``indent`` would select the
pure-Python encoder, several times slower.
"""

from __future__ import annotations

from collections import defaultdict
from dataclasses import dataclass
from functools import cached_property
from json.encoder import encode_basestring_ascii


def _merge_roots(roots: list[int], us, vs) -> list[int]:
    """`roots`, a per-element root list, after joining element us[i] to
    element vs[i] for every i.  An element is a vertex or a class of
    vertices, such as a component for a base color set; a root is the
    least vertex of its element's class.  Only the distinct pairs of roots
    joined are merged, each parent smaller than its child, and roots stay
    least vertices."""
    parent: dict[int, int] = {}
    for a, b in set(zip(map(roots.__getitem__, us),
                        map(roots.__getitem__, vs))):
        # find with path halving; parent[x] is stored before x moves on
        while a in parent:
            p = parent[a]
            parent[a] = a = parent.get(p, p)
        while b in parent:
            p = parent[b]
            parent[b] = b = parent.get(p, p)
        if a < b:
            parent[b] = a
        elif b < a:
            parent[a] = b
    # in ascending order, each parent is final before its (larger) child
    for r in sorted(parent):
        p = parent[r]
        parent[r] = parent.get(p, p)
    return list(map(parent.get, roots, roots))


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
        for v in self.vertices:
            if not isinstance(v, str):
                raise ValueError(f"vertex label {v!r} is not a string")
        known = set(self.vertices)
        if len(known) != len(self.vertices):
            raise ValueError("duplicate vertex labels")
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


def _admissibility(g: ColoredGraph) -> tuple[list[str], list[list[int]]]:
    """`validate_admissible`'s report and, if empty, `require_admissible`'s
    table, from one walk over the edges; a row per carried color."""
    index, size = g.index, len(g.vertices)
    # color -> partner per vertex, or -1; (vertex, color) -> degree > 1
    rows, over = defaultdict(lambda: [-1] * size), {}
    us, vs = [], []
    for u, v, c in g.edges:
        row, iu, iv = rows[c], index[u], index[v]
        us.append(iu)
        vs.append(iv)
        for a, b in (iu, iv), (iv, iu):
            if row[a] < 0:
                row[a] = b
            else:
                over[a, c] = over.get((a, c), 1) + 1
    carried = sorted(rows)
    violations = [f"color {c}: vertex {g.vertices[v]!r} meets {n} edges, "
                  "expected exactly 1"
                  for c in carried if over or -1 in rows[c]
                  for v, w in enumerate(rows[c])
                  if (n := over.get((v, c), int(w >= 0))) != 1]
    if not g.vertices:
        violations.append("graph has no vertices")
    else:
        bounds = [0, *carried, g.d + 1]
        missing = [str(a + 1) if b - a == 2 else f"{a + 1}..{b - 1}"
                   for a, b in zip(bounds, bounds[1:]) if b - a > 1]
        if missing:
            violations.append("no edge has color " + ", ".join(missing))
        k = len(set(_merge_roots(list(range(size)), us, vs)))
        if k != 1:
            violations.append(f"graph is disconnected ({k} components)")
    return violations, [] if violations else [rows[c] for c in carried]


def validate_admissible(g: ColoredGraph) -> list[str]:
    """Report admissibility violations, of four kinds in this order: a
    vertex that meets some edge's color other than once, with its degree;
    no vertices; the colors no edge carries, in one line, so the report
    grows with the edges and not with d; and the component count of a
    disconnected graph.  An empty list means admissible."""
    return _admissibility(g)[0]


def require_admissible(g: ColoredGraph) -> list[list[int]]:
    """The partner table of `g`, new on every call: row ``c - 1`` maps each
    vertex index to its color-c partner.  Raise ValueError naming every
    violation unless `g` is admissible."""
    violations, table = _admissibility(g)
    if violations:
        raise ValueError("graph is not admissible: " + "; ".join(violations))
    return table


# --- JSON / DOT interchange -------------------------------------------------

def graph_from_dict(data: dict) -> ColoredGraph:
    try:
        vertices = data["vertices"]
        if not isinstance(vertices, list):
            raise ValueError("malformed graph JSON: vertices must be a "
                             f"list, not {type(vertices).__name__}")
        edges = tuple((e["u"], e["v"], e["color"]) for e in data["edges"])
        return ColoredGraph(data["d"], tuple(vertices), edges)
    except (KeyError, TypeError) as exc:
        raise ValueError(f"malformed graph JSON: {exc}") from exc


def _json_array(items, indent: str) -> str:
    """A JSON array of the already encoded `items`, one per line, in the
    layout of ``json.dumps(..., indent=2)`` at nesting `indent`."""
    inner = indent + "  "
    body = (",\n" + inner).join(items)
    return "[\n%s%s\n%s]" % (inner, body, indent) if body else "[]"


def graph_to_json(g: ColoredGraph) -> str:
    quoted = dict(zip(g.vertices, map(encode_basestring_ascii, g.vertices)))
    edges = ['{\n      "color": %d,\n      "u": %s,\n      "v": %s\n    }'
             % (c, quoted[u], quoted[v]) for u, v, c in g.edges]
    return '{\n  "d": %d,\n  "edges": %s,\n  "vertices": %s\n}' % (
        g.d, _json_array(edges, "  "), _json_array(quoted.values(), "  "))


def graph_to_dot(g: ColoredGraph) -> str:
    """DOT text, one line per multi-edge, color carried as an integer
    attribute; labels are quoted, with ``\\`` and ``"`` escaped."""
    def q(v: str) -> str:
        return '"%s"' % v.replace("\\", "\\\\").replace('"', '\\"')

    lines = ["graph {"]
    for v in g.vertices:
        lines.append(f"  {q(v)};")
    for u, v, c in g.edges:
        lines.append(f"  {q(u)} -- {q(v)} [color={c}];")
    lines.append("}")
    return "\n".join(lines) + "\n"
