import ast
import importlib
import inspect
import re
from dataclasses import fields
from functools import cached_property, reduce
from pathlib import Path
from types import ModuleType

import pytest

import cellposet
from cellposet import posets
from cellposet.constructions import (boundary_of_simplex, connected_sum,
                                     cross_polytope_quotient,
                                     parallel_edges_graph,
                                     product_spheres_graph)
from cellposet.graphs import ColoredGraph, require_admissible
from cellposet.posets import (SimplicialPoset, from_graph, is_pseudomanifold,
                              is_pure)
from cellposet.reduction import _Table, cancellation_schedule, greedy_reduce

# The names `import cellposet` exports; adding one means editing this list
# on purpose.
PUBLIC_NAMES = [
    "CancellationError", "CheckResult", "ColoredGraph", "SimplicialPoset", "betti_gf2", "boundary_of_simplex",
    "cancellation_schedule", "check_manifold_h", "check_rp_h",
    "check_sphere_h", "checkers", "connected_sum", "constructions",
    "cross_polytope_quotient", "f_vector", "from_graph", "graph_to_dot",
    "graph_to_json", "graphs", "greedy_reduce", "h_double_prime",
    "h_vector", "homology", "is_homology_manifold", "is_pseudomanifold",
    "is_pure", "parallel_edges_graph", "poset_to_json", "posets",
    "product_spheres_graph", "reduce_product_spheres", "reduction",
    "require_admissible", "run_schedule", "validate_admissible",
    "validate_poset",
]

# The public names that nothing outside the tests consumes yet: the
# realizers of ROADMAP item 1 are to consume all three.
UNCONSUMED = ("boundary_of_simplex", "connected_sum", "parallel_edges_graph")


def test_public_surface_is_pinned():
    assert len(PUBLIC_NAMES) == 36
    assert sorted(cellposet.__all__) == PUBLIC_NAMES
    assert not hasattr(ColoredGraph, "color_partner")
    assert not hasattr(ColoredGraph, "component_roots")
    assert not hasattr(ColoredGraph, "components")
    assert [f.name for f in fields(SimplicialPoset)] == [
        "d", "ranks", "covers", "labels"]
    assert not hasattr(SimplicialPoset, "vertex_sets")
    assert not hasattr(SimplicialPoset, "coverers")
    assert list(inspect.signature(connected_sum).parameters) == [
        "p", "q", "sigma", "tau"]


def test_the_dipole_table_holds_only_the_partner_table():
    """`_Table` rewrites the partner rows `require_admissible` returns,
    keeps no edge-stamp table and logs its steps in one list;
    TestNoStateOnGraphs in test_reduction.py checks that the table is
    never cached on the graph."""
    g = product_spheres_graph(1, 2)
    t = _Table(require_admissible(g), g.vertices, g.edges)
    assert not hasattr(t, "stamp")
    assert t.partner == require_admissible(g)
    assert set(vars(t)) == {"partner", "d", "labels", "index", "edges",
                            "alive", "live", "steps"}
    # greedy keeps its candidate pairs in one heap, not in a table method
    assert {name for name, value in vars(_Table).items()
            if inspect.isfunction(value) and name != "__init__"} == {
        "vertex", "dipole_colors", "connected", "cancel_dipole", "graph"}


def package_modules() -> list[ModuleType]:
    """The package and each of its modules."""
    package = Path(cellposet.__file__).parent
    return [cellposet] + [importlib.import_module(f"cellposet.{path.stem}")
                          for path in sorted(package.glob("*.py"))
                          if path.stem != "__init__"]


def test_the_limits_are_bound_only_in_posets():
    """A reader of a limit reads `posets` when called, so that one patch
    bounds every reader: no other module binds either name."""
    for name in ("MAX_OUTPUT_SIZE", "MAX_ROW_BITS"):
        assert [m for m in package_modules() if name in vars(m)] == [posets]


def test_the_rank_law_has_one_owner():
    """Only the constructor, `SimplicialPoset.__post_init__`, refuses a d
    above every cell's rank: its message appears nowhere else in the
    package, and no module binds a helper `_rank_gap`."""
    text = "but the greatest cell rank is"
    package = Path(cellposet.__file__).parent
    found = [(path.stem, owners) for path in sorted(package.glob("*.py"))
             for node, owners in owned_nodes(ast.parse(path.read_text()))
             if isinstance(node, ast.Constant)
             and isinstance(node.value, str) and text in node.value]
    assert found == [("posets", {"SimplicialPoset", "__post_init__"})]
    assert sum(path.read_text().count(text)
               for path in package.glob("*.py")) == 1
    assert [m for m in package_modules() if "_rank_gap" in vars(m)] == []


def test_a_poset_owns_its_tables():
    """The position and up tables are cached on the poset, and no module
    defines or binds either at module level; the pseudomanifold
    predicates read them from the poset and take no table."""
    for name in ("_positions", "_up_table"):
        assert isinstance(vars(SimplicialPoset)[name], cached_property)
        assert [m for m in package_modules() if name in vars(m)] == []
    for predicate in (is_pure, is_pseudomanifold):
        assert list(inspect.signature(predicate).parameters) == ["p"]


def test_the_cli_reads_no_private_name_of_the_package():
    """The CLI runs library entry points only: it imports no underscore
    name from the package, nor reads one off a package module."""
    tree = ast.parse(Path(cellposet.__file__).with_name("cli.py").read_text())
    imports = [node for node in ast.walk(tree)
               if isinstance(node, ast.ImportFrom) and (
                   node.level or node.module.startswith("cellposet"))]
    imported = {a.asname or a.name for node in imports for a in node.names}
    modules = {name for name in imported
               if isinstance(getattr(cellposet, name, None), ModuleType)}
    assert modules
    private = sorted(name for name in imported if name.startswith("_"))
    private += sorted(node.attr for node in ast.walk(tree)
                      if isinstance(node, ast.Attribute)
                      and isinstance(node.value, ast.Name)
                      and node.value.id in modules
                      and node.attr.startswith("_"))
    assert private == []


def test_one_patch_bounds_every_reader(monkeypatch):
    """Patching `posets.MAX_OUTPUT_SIZE` alone refuses every builder and
    engine that reads it, each with its own message."""
    square = ColoredGraph(2, ("a", "b", "c", "d"), (
        ("a", "b", 1), ("b", "c", 2), ("c", "d", 1), ("d", "a", 2)))
    torus = product_spheres_graph(1, 1)
    monkeypatch.setattr(posets, "MAX_OUTPUT_SIZE", 7)
    for call, what in [
            (lambda: boundary_of_simplex(3),
             "the boundary of the 3-simplex has at least 15 cells"),
            (lambda: parallel_edges_graph(8),
             "the two-vertex graph of 8 colors has 8 edges"),
            (lambda: product_spheres_graph(1, 1),
             "the graph of S^1 x S^1 has at least 12 edges"),
            (lambda: cross_polytope_quotient(3),
             "the cell decomposition of RP^2 has at least 14 cells"),
            (lambda: from_graph(torus),
             "the cell poset of a 3-colored graph has at least 8 cells"),
            (lambda: from_graph(square),
             "the cell poset of this 2-colored graph has 9 cells"),
            (lambda: cancellation_schedule(2, 3),
             "the cancellation schedule of S^2 x S^3 has at least 9 "
             "entries"),
            (lambda: greedy_reduce(square),
             "greedy reduction of this 4-vertex 2-colored graph may make "
             "8 dipole tests")]:
        with pytest.raises(ValueError) as info:
            call()
        assert str(info.value) == what + ", more than the limit of 7"


def test_no_unused_imports():
    """Every name a module of the package, of its tests or of the benchmark
    harness imports is used in it; the package's `__init__.py` imports only
    to re-export."""
    package = Path(cellposet.__file__).parent
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    unused = []
    for path in (sorted(package.glob("*.py"))
                 + sorted(Path(__file__).parent.glob("*.py"))
                 + sorted(perfbench.glob("**/*.py"))):
        if path == package / "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        imported = set()
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                imported |= {a.asname or a.name.partition(".")[0]
                             for a in node.names}
            elif (isinstance(node, ast.ImportFrom)
                  and node.module != "__future__"):
                imported |= {a.asname or a.name for a in node.names}
        used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
        unused += [f"{path.parent.name}/{path.name}: {name}"
                   for name in sorted(imported - used)]
    assert unused == []


def owned_nodes(tree: ast.AST):
    """Yield (node, the names of the defs and classes around it, its own
    included) for every node of `tree`."""
    stack = [(tree, frozenset())]
    while stack:
        node, owners = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            owners |= {node.name}
        yield node, owners
        stack += [(child, owners) for child in ast.iter_child_nodes(node)]


def uses(tree: ast.AST):
    """Yield (name, the names of the defs and classes around it) for every
    Name and Attribute node of `tree`."""
    for node, owners in owned_nodes(tree):
        if isinstance(node, ast.Name):
            yield node.id, owners
        elif isinstance(node, ast.Attribute):
            yield node.attr, owners


def test_every_public_name_has_a_consumer():
    """Every public name other than a module is used in the package or in
    the benchmark harness outside its own def or class; docstrings and the
    package's `__init__.py` re-export do not count."""
    package = Path(cellposet.__file__).parent
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    consumed = set()
    for path in sorted(package.glob("*.py")) + sorted(perfbench.glob("*.py")):
        if path != package / "__init__.py":
            consumed |= {name for name, owners in uses(ast.parse(
                path.read_text())) if name not in owners}
    public = {name for name in cellposet.__all__
              if not isinstance(getattr(cellposet, name), ModuleType)}
    assert sorted(public - consumed) == sorted(UNCONSUMED)


def test_every_private_helper_has_a_consumer():
    """Every private module-level def or class of the package is used in
    the package outside its own def or class: a helper only the tests
    call belongs in the tests."""
    package = Path(cellposet.__file__).parent
    trees = [ast.parse(path.read_text())
             for path in sorted(package.glob("*.py"))]
    private = {node.name for tree in trees for node in tree.body
               if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                    ast.ClassDef))
               and node.name.startswith("_")}
    consumed = {name for tree in trees for name, owners in uses(tree)
                if name not in owners}
    assert private
    assert sorted(private - consumed) == []


def test_every_method_has_a_consumer():
    """Every method or property defined in a class of the package, dunders
    aside, is read as an attribute in the package or in the benchmark
    harness outside its own def: a method only the tests call belongs in
    the tests.  A variable of the same name does not count."""
    package = Path(cellposet.__file__).parent
    perfbench = Path(__file__).resolve().parents[1] / "perfbench"
    paths = sorted(package.glob("*.py")) + sorted(perfbench.glob("*.py"))
    trees = {path: ast.parse(path.read_text()) for path in paths}
    methods = {item.name for path, tree in trees.items()
               if path.parent == package
               for node in ast.walk(tree) if isinstance(node, ast.ClassDef)
               for item in node.body
               if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef))
               and not (item.name.startswith("__")
                        and item.name.endswith("__"))}
    read = {node.attr for tree in trees.values()
            for node, owners in owned_nodes(tree)
            if isinstance(node, ast.Attribute) and node.attr not in owners}
    assert methods
    assert sorted(methods - read) == []


def test_the_proof_mark_has_one_writer_and_one_reader():
    """`_proved` is given a value only in `posets` (its default and
    `from_graph`), and read only by `homology._require_simplicial`, so
    that no other code can skip the simplicial proof.  A keyword or a
    string naming it counts as a write."""
    package = Path(cellposet.__file__).parent
    writers, readers = set(), []
    for path in sorted(package.glob("*.py")):
        for node, owners in owned_nodes(ast.parse(path.read_text())):
            name = (node.id if isinstance(node, ast.Name) else
                    node.attr if isinstance(node, ast.Attribute) else None)
            if name == "_proved" and isinstance(node.ctx, ast.Load):
                readers.append((path.stem, owners))
            elif name == "_proved" or (
                    isinstance(node, ast.keyword) and node.arg == "_proved"
                    or isinstance(node, ast.Constant)
                    and node.value == "_proved"):
                writers.add(path.stem)
    assert writers == {"posets"}
    assert readers == [("homology", {"_require_simplicial"})]


def test_one_simplicial_proof_behind_one_gate():
    """Only the gate `homology._require_simplicial` and `validate_poset`
    name the proof walk `_check_simplicial`, and exactly `betti_gf2`,
    `link_bettis` and `connected_sum` name the gate: every engine that
    assumes a simplicial poset asks the gate itself, and no function
    passes the gate's mark on.  Imports and docstrings do not count; a
    use at module level would count as its module's."""
    package = Path(cellposet.__file__).parent
    users = {"_check_simplicial": set(), "_require_simplicial": set()}
    for path in sorted(package.glob("*.py")):
        for name, owners in uses(ast.parse(path.read_text())):
            if name in users:
                users[name].add((path.stem, *sorted(owners)))
    assert users == {
        "_check_simplicial": {("homology", "_require_simplicial"),
                              ("homology", "validate_poset")},
        "_require_simplicial": {("homology", "betti_gf2"),
                                ("homology", "link_bettis"),
                                ("constructions", "connected_sum")}}


def resolves(root, dotted: str) -> bool:
    try:
        reduce(getattr, dotted.split("."), root)
    except AttributeError:
        return False
    return True


def test_docstring_references_resolve():
    """Every :func:, :meth:, :class: or :mod: reference in the package
    names an attribute path from its module, from a class defined there,
    or from the package, a leading ``cellposet.`` stripped."""
    package = Path(cellposet.__file__).parent
    role = re.compile(r":(?:func|meth|class|mod):`([^`]+)`")
    unresolved = []
    for path in sorted(package.glob("*.py")):
        module = (cellposet if path.stem == "__init__" else
                  importlib.import_module(f"cellposet.{path.stem}"))
        classes = [v for v in vars(module).values()
                   if isinstance(v, type) and v.__module__ == module.__name__]
        for name in role.findall(path.read_text()):
            name = name.removeprefix("cellposet.")
            if not any(resolves(root, name)
                       for root in (module, *classes, cellposet)):
                unresolved.append(f"{path.name}: {name}")
    assert unresolved == []
