"""Simplicial cell decompositions of manifolds from edge-colored
multigraphs: face/h/h''-vectors, GF(2) homology, dipole reductions, and
h-vector characterizations."""

from .graphs import (ColoredGraph, graph_from_json, graph_to_dot,
                     graph_to_json, is_admissible, require_admissible,
                     validate_admissible)
from .posets import (SimplicialPoset, f_from_h, f_vector, from_graph,
                     h_vector, induced_coloring, link, is_normal,
                     is_pseudomanifold, is_pure, poset_from_json,
                     poset_to_json, proper_coloring, to_graph, validate_poset)
from .homology import (ChainComplexGF2, betti_gf2, betti_order_complex,
                       h_double_prime, is_homology_manifold,
                       is_homology_sphere, is_orientable_gf2)
from .constructions import (boundary_of_simplex, connected_sum,
                            cross_polytope_quotient, parallel_edges_graph,
                            product_spheres_graph)
from .reduction import (CancellationError, Dipole, Schedule, cancel,
                        cancellation_schedule, check_dipole, colors_between,
                        find_dipoles, greedy_reduce, reduce_product_spheres,
                        run_schedule)
from .checkers import (CheckResult, check_manifold_h, check_rp_h,
                       check_sphere_h, r_value, sphere_h_geq)

__all__ = [name for name in dir() if not name.startswith("_")]
