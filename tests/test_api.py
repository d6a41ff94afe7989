from dataclasses import fields

import cellposet
from cellposet.graphs import ColoredGraph
from cellposet.posets import SimplicialPoset

# The names `import cellposet` exports; adding one means editing this list
# on purpose.
PUBLIC_NAMES = [
    "CancellationError", "ChainComplexGF2", "CheckResult", "ColoredGraph",
    "Dipole", "Schedule", "SimplicialPoset", "betti_gf2",
    "betti_order_complex", "boundary_of_simplex", "cancel",
    "cancellation_schedule", "check_dipole", "check_manifold_h",
    "check_rp_h", "check_sphere_h", "checkers", "connected_sum",
    "constructions", "cross_polytope_quotient", "f_from_h", "f_vector",
    "find_dipoles", "from_graph", "graph_from_json", "graph_to_dot",
    "graph_to_json", "graphs", "greedy_reduce", "h_double_prime",
    "h_vector", "homology", "is_admissible", "is_homology_manifold",
    "is_homology_sphere", "is_pseudomanifold", "is_pure",
    "parallel_edges_graph", "poset_from_json", "poset_to_json", "posets",
    "product_spheres_graph", "proper_coloring", "r_value",
    "reduce_product_spheres", "reduction", "require_admissible",
    "run_schedule", "validate_admissible", "validate_poset",
]


def test_public_surface_is_pinned():
    assert len(PUBLIC_NAMES) == 50
    assert sorted(cellposet.__all__) == PUBLIC_NAMES
    assert not hasattr(ColoredGraph, "color_partner")
    assert [f.name for f in fields(SimplicialPoset)] == [
        "d", "ranks", "covers", "labels"]
